"""Integer invariants of Lagrangian curves against a reference train.

The train of a reference subspace Pi is the set of Lagrangian subspaces
meeting Pi nontrivially. Crossings of the train are counted three ways:
the pair index of an endpoint pair (inertia of a chart-free quadratic
form, degenerate configurations welcome), the Maslov index of a
piecewise-smooth curve (adaptive chart subdivision, one inertia
difference per piece, each piece chart from the margin-scored search
core.transversal_complement), and conjugate-point lists with multiplicities
for regular monotone curves (bisection on the chart-matrix inertia).
The Morse index of a regular extremal is the multiplicity sum of its
Jacobi curve against the initial subspace. Scans read each frame once,
through one curve.cached memo, and read many times at once: a piece's
samples, a scan's samples and the next _LOOKAHEAD levels of a
bisection each come in one stacked read, scored by one chart-matrix
pass and one inertia pass.

Sign convention: a transversal crossing counts +dim when the velocity
form is positive on the intersection, so monotone increasing curves
accumulate positive index and monotone decreasing curves negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import core
from .curve import GrassmannCurve, _interior, _stencils, cached
from .errors import (
    ChartFailure,
    DegenerateEndpoint,
    EndpointOnTrain,
    NotInChart,
    NotMonotone,
    SearchExhausted,
    SubdivisionFailure,
)

MAX_DEPTH = 32
MAX_GAP = 0.15        # largest subspace gap between neighbouring samples
_CERT_SAMPLES = 9
_SCAN_SAMPLES = 33
_TIME_TOL = 1e-10     # of the domain length, crossing localization
_NUDGE = 1e-6         # of the piece length, off-train shifts
_LOOKAHEAD = 4        # bisection levels read in one stacked pass


@dataclass(frozen=True)
class PairIndex:
    """Index of an ordered subspace pair against a reference, doubled.

    Degenerate configurations make the index a half integer, so the
    doubled value is stored exactly; integer() converts and refuses
    stray halves.
    """

    doubled: int

    @property
    def value(self) -> float:
        return 0.5 * self.doubled

    def integer(self) -> int:
        if self.doubled % 2:
            raise ValueError(f"pair index {self.value} is a half integer")
        return self.doubled // 2


@dataclass(frozen=True)
class ConjugatePoint:
    t: float
    multiplicity: int


@dataclass(frozen=True)
class IndexReport:
    value: int
    subdivision: List[float]
    charts_used: int


def _meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the intersection of two column spans."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return a[:, :0]
    kernel = core.nullspace(np.hstack([a, -b]))
    return core.orthonormal_columns(a @ kernel[:a.shape[1]])


def pair_index(train: core.LagrangianFrame, lam0: core.LagrangianFrame,
               lam1: core.LagrangianFrame) -> PairIndex:
    """Pair index of (lam0, lam1) against the train of the reference.

    The quadratic form lives on (lam0 + lam1) intersected with the
    reference: a vector there splits as x0 + x1 with x_i in lam_i, and
    the form is sigma(x1, x). Its inertia plus half the boundary
    intersection dimensions minus the triple intersection gives the
    index; the result equals the Maslov index of any simple monotone
    increasing curve from lam0 to lam1.
    """
    sigma = train.space.form
    z0, z1 = lam0.columns, lam1.columns
    w = _meet(core.span(np.hstack([z0, z1])), train.columns)
    if w.shape[1]:
        coeffs, *_ = np.linalg.lstsq(np.hstack([z0, z1]), w, rcond=None)
        x1 = z1 @ coeffs[train.n:]
        g = x1.T @ sigma @ w
        ind_q = core.inertia(0.5 * (g + g.T)).neg
    else:
        ind_q = 0
    d0 = core.intersection_dim(train, lam0)
    d1 = core.intersection_dim(train, lam1)
    d01 = _meet(_meet(z0, z1), train.columns).shape[1]
    return PairIndex(doubled=2 * ind_q + d0 + d1 - 2 * d01)


# --------------------------------------------------------- piece subdivision


def _nudged_mid(at, train, a, b):
    mid = 0.5 * (a + b)
    if core.intersection_dim(at(mid), train) == 0:
        return mid
    delta = _NUDGE * (b - a)
    for k in (1, -1, 3, -3, 9, -9, 27, -27):
        cand = mid + k * delta
        if a < cand < b and core.intersection_dim(at(cand), train) == 0:
            return cand
    raise SubdivisionFailure(f"no off-train subdivision point near t={mid:g}")


def _pieces(train, at, a, b, seed, need_train, depth=0):
    """Subdivide [a, b] into chart-covered pieces, recursively.

    A piece is accepted when its sample frames march in steps of at
    most MAX_GAP and core.transversal_complement finds one complement
    clearing every sample by core.MIN_MARGIN; with need_train the
    complement must also clear the train (the piece chart is centered
    on it) and split points are nudged off the train so per-piece index
    differences add up. A piece without such a complement is split.
    """
    if depth > MAX_DEPTH:
        raise SubdivisionFailure(
            f"subdivision depth {MAX_DEPTH} exceeded on [{a:g}, {b:g}]")
    ts = np.linspace(a, b, _CERT_SAMPLES)
    frames = at.many(ts)
    delta = None
    cols = np.stack([fr.columns for fr in frames])
    if (core._gaps(cols[:-1], cols[1:]) <= MAX_GAP).all():
        center = train if need_train else frames[len(frames) // 2]
        try:
            delta = core.transversal_complement(center, avoid=frames,
                                                seed=seed)
        except SearchExhausted:
            pass
    if delta is None:
        mid = _nudged_mid(at, train, a, b) if need_train else 0.5 * (a + b)
        return (_pieces(train, at, a, mid, seed, need_train, depth + 1)
                + _pieces(train, at, mid, b, seed, need_train, depth + 1))
    chart = core.darboux_chart(train, delta) if need_train else None
    return [(a, b, chart)]


def _chart_indices(at, chart, ts) -> list:
    """Negative inertia of the curve's chart matrix at each time of ts,
    or the exception its read or chart raises there (ChartFailure where
    the curve leaves the piece chart), in one stacked pass: one read,
    one core._chart_matrices pass and one core._inertias pass. A stack
    whose read or pass raises is scored again time by time, so each time
    keeps its own outcome."""
    try:
        cols = np.stack([fr.columns for fr in at.many(ts)])
        mats, meets, asym, bad = core._chart_matrices(chart.basis_inv, cols)
        refused = meets | bad
        neg = core._inertias(core._finite(
            np.where(refused[:, None, None], 0.0, mats)))[0]
    except Exception as exc:
        if len(ts) == 1:
            return [exc]
        return [_chart_indices(at, chart, [t])[0] for t in ts]
    return [_left_chart(core._refusal(meets[i:i + 1], asym[i:i + 1],
                                      bad[i:i + 1]), t)
            if refused[i] else int(neg[i]) for i, t in enumerate(ts)]


def _left_chart(exc: Exception, t: float) -> Exception:
    """The ChartFailure a NotInChart at t turns into; any other exception
    stays as it is."""
    if not isinstance(exc, NotInChart):
        return exc
    failure = ChartFailure(f"curve left the piece chart at t={t:g}")
    failure.__cause__ = exc
    return failure


def _scored(indices) -> list:
    """The indices, or the first exception among them."""
    for ind in indices:
        if isinstance(ind, Exception):
            raise ind
    return indices


def _monotone_direction(curve: GrassmannCurve, strict: bool) -> int:
    """Sign of the velocity form, read at seven interior samples. Unlike
    core._definite_sign it accepts a semi-definite form, since
    maslov_index_monotone accepts a singular velocity."""
    signs = set()
    ts = _interior(curve, 7)
    for t, stencil in zip(ts, _stencils(curve, ts)):
        if isinstance(stencil, Exception):
            raise stencil
        # Sdot is its own velocity form: the chart matrices are symmetric
        if strict and stencil.irregular:
            raise stencil.irregular
        ine = core.inertia(stencil.sdot)
        if ine.pos and ine.neg:
            raise NotMonotone(f"velocity form is indefinite at t={t:g}")
        if ine.pos:
            signs.add(1)
        elif ine.neg:
            signs.add(-1)
    if signs == {1}:
        return 1
    if signs == {-1}:
        return -1
    raise NotMonotone("velocity form has no consistent sign")


def _require_off_train(at, train, a, b):
    for end in (a, b):
        if core.intersection_dim(at(end), train) > 0:
            raise EndpointOnTrain(
                f"curve endpoint t={end:g} meets the reference subspace")


# --------------------------------------------------------------- public ops


def maslov_index(curve: GrassmannCurve, train: core.LagrangianFrame,
                 seed: int = 0) -> IndexReport:
    """Maslov index of the curve against the train of the reference.

    The domain is subdivided until every piece sits inside one chart
    centered on the reference; a piece contributes the inertia
    difference of its endpoint chart matrices and the nudged-off-train
    subdivision points make the contributions additive. The value does
    not depend on the subdivision or the chart schedule, which is the
    main invariance test of this module.
    """
    a, b = curve.domain
    at = cached(curve).eval
    _require_off_train(at, train, a, b)
    pieces = _pieces(train, at, a, b, seed, True)
    value = 0
    subdivision = [a]
    for pa, pb, chart in pieces:
        ia, ib = _scored(_chart_indices(at, chart, [pa, pb]))
        value += ia - ib
        subdivision.append(pb)
    return IndexReport(value=value, subdivision=subdivision,
                       charts_used=len(pieces))


def maslov_index_monotone(curve: GrassmannCurve,
                          train: core.LagrangianFrame) -> IndexReport:
    """Maslov index of a monotone curve as a telescoping pair-index sum.

    Chart-free alternative to maslov_index: each simple piece of an
    increasing curve contributes the pair index of its endpoints, and a
    decreasing curve is the reversed increasing one with opposite sign.
    Subdivision points may sit on the train; the half-integer
    corrections cancel in the sum whenever the curve endpoints are off
    the train.
    """
    a, b = curve.domain
    at = cached(curve).eval
    _require_off_train(at, train, a, b)
    direction = _monotone_direction(curve, strict=False)
    pieces = _pieces(train, at, a, b, 0, False)
    doubled = 0
    for pa, pb, _ in pieces:
        if direction > 0:
            doubled += pair_index(train, at(pa), at(pb)).doubled
        else:
            doubled += pair_index(train, at(pb), at(pa)).doubled
    if doubled % 2:
        raise ValueError("pair-index pieces sum to a half integer; "
                         "the subdivision lost an endpoint correction")
    value = doubled // 2 if direction > 0 else -(doubled // 2)
    return IndexReport(value=value,
                       subdivision=[a] + [pb for _, pb, _ in pieces],
                       charts_used=len(pieces))


def _trim(at, train, end, other):
    """Step off the train from a curve endpoint sitting on it."""
    if core.intersection_dim(at(end), train) == 0:
        return end
    length = abs(other - end)
    sign = 1.0 if other > end else -1.0
    step = _NUDGE * length
    while step < 0.25 * length:
        cand = end + sign * step
        if core.intersection_dim(at(cand), train) == 0:
            return cand
        step *= 2.0
    raise SubdivisionFailure(
        f"curve sticks to the reference subspace near t={end:g}")


def _midpoints(tl, tr, tol) -> list:
    """Every midpoint that the next _LOOKAHEAD levels of bisection from
    [tl, tr] may read, by the expressions the walk itself uses."""
    out, spans = [], [(tl, tr)]
    for _ in range(_LOOKAHEAD):
        deeper = []
        for lo, hi in spans:
            if hi - lo > tol:
                mid = 0.5 * (lo + hi)
                out.append(mid)
                deeper += [(lo, mid), (mid, hi)]
        spans = deeper
    return out


def _locate(indices, tl, tr, il, ir, tol, depth=0):
    """Bisect an inertia change down to tol, splitting on intermediate
    levels so several nearby crossings come out separately. indices reads
    many times at once: each read takes the midpoints of the next
    _LOOKAHEAD levels, and a midpoint's exception is raised only when the
    walk reaches it."""
    if depth > 64:
        raise SubdivisionFailure("crossing localization did not stabilize")
    out = []
    while tr - tl > tol:
        ahead = _midpoints(tl, tr, tol)
        got = dict(zip(ahead, indices(ahead)))
        for _ in range(_LOOKAHEAD):
            if not tr - tl > tol:
                break
            tm = 0.5 * (tl + tr)
            im = got[tm]
            if isinstance(im, Exception):
                raise im
            if im == il:
                tl = tm
            elif im == ir:
                tr = tm
            else:
                out.extend(_locate(indices, tl, tm, il, im, tol, depth + 1))
                out.extend(_locate(indices, tm, tr, im, ir, tol, depth + 1))
                return out
    out.append((0.5 * (tl + tr), abs(il - ir)))
    return out


def conjugate_points(curve: GrassmannCurve, train: core.LagrangianFrame,
                     seed: int = 0) -> List[ConjugatePoint]:
    """Train-crossing times with multiplicities, for regular monotone
    curves.

    Monotonicity makes the chart eigenvalues move one way, so the
    negative-eigenvalue count bisects cleanly, and its jump at a crossing
    is the multiplicity dim(curve(t) meet train). Points within 10 tol
    merge into the earlier one, multiplicities added: a crossing on a
    scan sample splits across two brackets. Endpoint times lying on the
    reference (a Jacobi curve starts there) are stepped over by a
    vanishing trim.
    """
    _monotone_direction(curve, strict=True)
    a, b = curve.domain
    at = cached(curve).eval
    lo = _trim(at, train, a, b)
    hi = _trim(at, train, b, a)
    pieces = _pieces(train, at, lo, hi, seed, True)
    tol = _TIME_TOL * curve.length
    # pieces, brackets and _locate's splits all run forward in time
    found: List[ConjugatePoint] = []
    for pa, pb, chart in pieces:
        def indices(ts, chart=chart):
            return _chart_indices(at, chart, ts)

        # a fixed grid, not bisection from the piece ends: its samples see
        # the curve leave the piece chart (ChartFailure) and miscount none
        ts = np.linspace(pa, pb, _SCAN_SAMPLES)
        inds = _scored(indices(ts))
        for i in range(len(ts) - 1):
            if inds[i] == inds[i + 1]:
                continue
            for t_star, jump in _locate(indices, ts[i], ts[i + 1],
                                        inds[i], inds[i + 1], tol):
                if found and t_star - found[-1].t <= 10.0 * tol:
                    prev = found.pop()
                    t_star, jump = prev.t, prev.multiplicity + jump
                found.append(ConjugatePoint(float(t_star), jump))
    return found


def _extremal_scan(jc: GrassmannCurve):
    """Frame-cached curve, train jc(t0) and conjugate points of a Jacobi
    curve: the one scan behind both Morse readers. A degenerate horizon,
    whose subspace still meets jc(t0), is refused."""
    jc = cached(jc)
    t0, t1 = jc.domain
    train = jc.eval(t0)
    if core.intersection_dim(jc.eval(t1), train) > 0:
        raise DegenerateEndpoint(
            "horizon is a conjugate time; the second variation is "
            "degenerate there")
    return jc, train, conjugate_points(jc, train)


def morse_index_regular_extremal(jc: GrassmannCurve) -> int:
    """Morse index of the extremal behind a Jacobi curve.

    The total multiplicity of the conjugate points of _extremal_scan.
    """
    return int(sum(p.multiplicity for p in _extremal_scan(jc)[2]))
