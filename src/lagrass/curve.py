"""Curves of Lagrangian subspaces: velocity, curvature, transport.

A curve is a frame-valued callable on a real interval plus bookkeeping
(domain, finite-difference step). A FrameReader eval also reads many
times in one stacked pass, and GrassmannCurve.read takes that pass when
the curve's eval has one, so a stacked read goes wherever eval goes;
cached puts one memo behind both. Differentiation runs through moving
Darboux charts: the chart origin for a stencil centered at t is the
curve point itself, so the local graph matrix vanishes at the center
and the five stencil values form a symmetric-matrix family that
ordinary central differences apply to.

Operator conventions. All operators on a curve point v(t) are reported
as matrices in the coordinates induced by a stated 2n x n basis whose
columns span v(t); the basis travels with the result so callers can
realign operators computed in different charts. The curvature operator
is the matrix Schwarzian

    R(t) = (1/2) Sdot^-1 Sdddot - (3/4) (Sdot^-1 Sddot)^2,

and the same operator is recomputed independently through the
infinitesimal cross-ratio of the derivative curve with the curve, which
is the main internal consistency check of the module.

Stencils are read in stacked blocks of _STENCIL_BLOCK times. The frames
of a block are read once, in one GrassmannCurve.read (one stacked pass
when the curve's eval is a FrameReader); everything after the read
(the chart search's first candidate, the Darboux charts, the chart
matrices, the differences, the regularity check, the inverse and the
Schwarzian) runs once for the whole block on a leading time axis.
Every one-time reader (velocity_form, curvature, curvature_form,
transport_generator, derivative_curve) reads a block of one, so a block
and a loop of single stencils give the same bits. Each time keeps its
own outcome, its geometry or the exception its stencil raises (a chart
search exhausted for one time refuses that time alone), and a caller
raises it only on reaching that time. transport, classify, curvatures
and the many-time loops of maslov, analysis and cli read their
stencils this way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import core
from .errors import (
    ChartFailure,
    NotInChart,
    NotMonotone,
    NotRegular,
    NotTransversal,
    SearchExhausted,
)

# a velocity is treated as singular when |Sdot^-1| exceeds this
REGULARITY_CAP = 1e8
FLAT_TOL = 1e-6
SYM_TOL = 1e-3
# the default stencil step, of the domain length
FD_STEP_FRACTION = 1e-3
# stencil offsets in units of the step; the outer pair serves only the
# third derivative, whose single 5-point stencil is O(h^2): combining
# the h and 2h stencils restores O(h^4)
_OFFSETS = (-4, -2, -1, 0, 1, 2, 4)
# a stencil at t reads the curve within REACH steps of t
REACH = max(_OFFSETS)
_CENTER = _OFFSETS.index(0)
# stencil times are read in stacked blocks of this many, which bounds the
# memory of the stacked temporaries however many times a caller reads
_STENCIL_BLOCK = 32


class FrameReader:
    """A curve's eval that also reads many times at once: reader(t) is
    one(t), and reader.many(ts) is many(ts), the list [one(t) for t in
    ts] bit for bit, read in one stacked pass."""

    __slots__ = ("one", "many")

    def __init__(self, one: Callable[[float], core.LagrangianFrame],
                 many: Callable[..., List[core.LagrangianFrame]]):
        self.one, self.many = one, many

    def __call__(self, t: float) -> core.LagrangianFrame:
        return self.one(t)


@dataclass
class GrassmannCurve:
    """A curve of Lagrangian frames on a domain.

    fd_step is the step of every stencil read from the curve, by default
    FD_STEP_FRACTION of the domain length; to differentiate with another
    step h, use the copy dataclasses.replace(curve, fd_step=h). read(ts)
    reads many times in one pass when eval is a FrameReader, and else
    calls eval at each time, so the stacked read goes wherever eval goes.
    """

    space: core.SymplecticSpace
    eval: Callable[[float], core.LagrangianFrame]
    domain: Tuple[float, float]
    fd_step: Optional[float] = None

    def __post_init__(self):
        t0, t1 = self.domain
        if not t1 > t0:
            raise ValueError("domain must be a nondegenerate interval")
        if self.fd_step is None:
            self.fd_step = FD_STEP_FRACTION * (t1 - t0)
        if not (np.isfinite(t1 - t0) and 0 < self.fd_step < np.inf):
            raise ValueError(
                f"cannot differentiate with fd_step {self.fd_step:g} on the "
                f"domain [{t0:g}, {t1:g}]: both must be finite, the step "
                "positive")

    @property
    def length(self) -> float:
        return self.domain[1] - self.domain[0]

    def read(self, ts) -> List[core.LagrangianFrame]:
        """The frames at the times ts, equal to eval at each time."""
        if isinstance(self.eval, FrameReader) and len(ts):
            return self.eval.many(ts)
        return [self.eval(t) for t in ts]


def cached(curve: GrassmannCurve) -> GrassmannCurve:
    """The curve with one memo of its frames behind both eval and read,
    so no time is read twice; a many-time read reads the times it has
    not seen in one read(), and a read that raises stores nothing."""
    memo = {}
    one, read = curve.eval, curve.read

    def at(t):
        if t not in memo:
            memo[t] = one(t)
        return memo[t]

    def many(ts):
        new = list(dict.fromkeys(t for t in ts if t not in memo))
        if new:
            memo.update(zip(new, read(new)))
        return [memo[t] for t in ts]

    return replace(curve, eval=FrameReader(at, many))


def from_chart_family(n: int, matrix_func, domain) -> GrassmannCurve:
    """Curve from a symmetric-matrix family S(t) in the standard chart."""
    space = core.standard_space(n)
    chart = core.standard_chart(space)

    def ev(t):
        s = np.atleast_2d(np.asarray(matrix_func(t), dtype=float))
        return core.frame_from_chart(core.ChartRep(chart=chart,
                                                   S=0.5 * (s + s.T)))

    return GrassmannCurve(space=space, eval=ev, domain=tuple(domain))


@dataclass(frozen=True)
class VelocityForm:
    form: np.ndarray      # symmetric n x n, quadratic in the basis coords
    basis: np.ndarray     # 2n x n, spans the curve point

    @property
    def inertia(self) -> core.Inertia:
        return core.inertia(self.form)


@dataclass(frozen=True)
class CurveOperator:
    matrix: np.ndarray
    basis: np.ndarray


@dataclass(frozen=True)
class CurvatureForm:
    form: np.ndarray      # sym(Sdot R): curvature paired with the velocity
    basis: np.ndarray
    sign: float           # +1 increasing curve, -1 decreasing

    @property
    def inertia(self) -> core.Inertia:
        return core.inertia(self.form)


def _d1(m, h):
    return (m[0] - 8.0 * m[1] + 8.0 * m[3] - m[4]) / (12.0 * h)


def _d2(m, h):
    return (-m[0] + 16.0 * m[1] - 30.0 * m[2] + 16.0 * m[3] - m[4]) \
        / (12.0 * h * h)


def _d3(m, h):
    return (-m[0] + 2.0 * m[1] - 2.0 * m[3] + m[4]) / (2.0 * h ** 3)


def _sym(m):
    return 0.5 * (m + m.swapaxes(-1, -2))


def _rk4(rhs, t: float, state, dt: float) -> list:
    """Classical RK4 step of state' = rhs(t, state), a sequence of arrays;
    every integrator of the package steps through here."""
    half = 0.5 * dt
    k1 = rhs(t, state)
    k2 = rhs(t + half, [s + half * k for s, k in zip(state, k1)])
    k3 = rhs(t + half, [s + half * k for s, k in zip(state, k2)])
    k4 = rhs(t + dt, [s + dt * k for s, k in zip(state, k3)])
    return [s + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)]


def _inner(mats):
    return [mats[1], mats[2], mats[3], mats[4], mats[5]]


def _jerk(mats, h):
    narrow = _d3(_inner(mats), h)
    wide = _d3([mats[0], mats[1], mats[3], mats[5], mats[6]], 2.0 * h)
    return (4.0 * narrow - wide) / 3.0


def _interior(curve: GrassmannCurve, count: int) -> np.ndarray:
    """count evenly spaced times whose stencils stay inside the domain."""
    t0, t1 = curve.domain
    margin = (REACH + 0.5) * curve.fd_step
    if not t0 + margin <= t1 - margin:
        raise ValueError(
            f"no room for a stencil of fd_step {curve.fd_step:g} on the "
            f"domain [{t0:g}, {t1:g}]")
    return np.linspace(t0 + margin, t1 - margin, count)


def _chart_failure(exc: Exception, t: float, what: str) -> Exception:
    """The ChartFailure a failed chart search, pair or chart matrix turns
    into at t; any other exception stays as it is."""
    if not isinstance(exc, (SearchExhausted, NotInChart, NotTransversal)):
        return exc
    failure = ChartFailure(f"no common chart for the {what} at t={t:g}: {exc}")
    failure.__cause__ = exc
    return failure


def _centered_charts(frames, center: int, ts, what: str):
    """Darboux charts centered at frames[i][center], each transversal to
    every frame of frames[i], with the chart matrices of the frames, for
    a stack of frame lists read in one stacked pass: the charts, the
    matrices (b, k, n, n), and for each member the exception that
    refuses it, or None (its chart and matrices then mean nothing). A
    member is refused when its chart search is exhausted, its chart meets
    Delta or a chart matrix is refused; the other members keep theirs."""
    space = frames[0][center].space
    cols = np.stack([fr.columns for frs in frames for fr in frs])
    cols = cols.reshape((len(frames), -1) + cols.shape[1:])
    mid = cols[:, center]
    others = [k for k in range(cols.shape[1]) if k != center]
    deltas, exhausted = core._complements(space, mid, cols[:, others], 0)
    basis, basis_inv, meets = core._darboux(space, mid, deltas)
    mats, misses, asym, bad = core._chart_matrices(basis_inv[:, None], cols)
    refused = (bad | misses).any(axis=1)
    charts, errors = [], []
    for i, t in enumerate(ts):
        exc = exhausted[i]
        if not exc and meets[i]:
            exc = NotTransversal(core.MEETS_DELTA)
        elif not exc and refused[i]:
            exc = core._refusal(misses[i], asym[i], bad[i])
        errors.append(exc and _chart_failure(exc, t, what))
        charts.append(None if exc else core.Chart(
            pi_frame=frames[i][center],
            delta_frame=core.LagrangianFrame(space, deltas[i]),
            basis=basis[i], basis_inv=basis_inv[i]))
    return charts, mats, errors


def _stencil_times(curve: GrassmannCurve, ts) -> list:
    return [t + k * curve.fd_step for t in ts for k in _OFFSETS]


def _regularity(sdot: np.ndarray, ts) -> list:
    """The regularity check of the velocities sdot (b, n, n) at the times
    ts: for each, the NotRegular it raises or None."""
    sv = np.linalg.svd(sdot, compute_uv=False)[:, -1]
    return [NotRegular(f"velocity is numerically singular at t={t:g} "
                       f"(smallest singular value {s:.3e})")
            if s * REGULARITY_CAP <= 1.0 else None
            for s, t in zip(sv, ts)]


class _Stencil(NamedTuple):
    """A stencil that has its chart: the chart, Sdot and, where Sdot is
    regular, the derivative-curve matrix A and the curvature R; where it
    is singular, A and R are None and irregular is the NotRegular."""

    chart: core.Chart
    sdot: np.ndarray
    a: Optional[np.ndarray]
    r: Optional[np.ndarray]
    irregular: Optional[NotRegular]


def _stencil_stack(frames, ts, h: float) -> list:
    """The stencils of the frame lists frames at the times ts, each the
    _OFFSETS frames of one time, in one stacked pass: for each time a
    _Stencil or the chart stage's exception. Every stage runs on the
    whole stack, a failed member's values meaning nothing."""
    charts, mats, errors = _centered_charts(frames, _CENTER, ts, "stencil")
    mats = mats.swapaxes(0, 1)      # the stencil offsets lead
    sdot = _d1(_inner(mats), h)
    irregular = _regularity(sdot, ts)
    good = [e is None and r is None for e, r in zip(errors, irregular)]
    sdot_inv = np.linalg.inv(sdot if all(good) else np.where(
        np.array(good)[:, None, None], sdot, np.eye(sdot.shape[-1])))
    sdd = _d2(_inner(mats), h)
    quad = sdot_inv @ sdd
    a = _sym(-0.5 * sdot_inv @ sdd @ sdot_inv)
    r = 0.5 * sdot_inv @ _jerk(mats, h) - 0.75 * quad @ quad
    return [errors[i] or _Stencil(
        charts[i], sdot[i], a[i] if good[i] else None,
        r[i] if good[i] else None, irregular[i]) for i in range(len(ts))]


def _stencil_block(curve: GrassmannCurve, ts) -> list:
    """The stencils at the times ts: the frames of all of them are read
    in one curve.read, in time order, the rest in one stacked pass. For
    each time a _Stencil, or the exception the stencil raises there; a
    member refused by the chart stage keeps its own exception, and the
    others read on. Only a block whose read or stacked pass raises, as
    for an eval that fails at one time, is read again as blocks of one,
    so each time keeps its own outcome."""
    try:
        frames = curve.read(_stencil_times(curve, ts))
        k = len(_OFFSETS)
        frames = [frames[i:i + k] for i in range(0, len(frames), k)]
        return _stencil_stack(frames, ts, curve.fd_step)
    except Exception as exc:
        if len(ts) == 1:
            return [exc]
        return [_stencil_block(curve, [t])[0] for t in ts]


def _stencils(curve: GrassmannCurve, ts):
    """Yield the outcome of _stencil_block at each time of ts, in order,
    reading _STENCIL_BLOCK times at a time as they are reached."""
    for i in range(0, len(ts), _STENCIL_BLOCK):
        yield from _stencil_block(curve, ts[i:i + _STENCIL_BLOCK])


def _geometry(stencil):
    """(chart, Sdot, A, R) of one stencil outcome, or its exception."""
    if isinstance(stencil, Exception):
        raise stencil
    if stencil.irregular:
        raise stencil.irregular
    return stencil[:4]


def _stencil_geometry(curve: GrassmannCurve, t: float):
    """(chart, Sdot, A, R) at t for a regular velocity: the derivative
    curve spans e A + f in the chart basis (e, f), R is the Schwarzian.
    The stencil of one time is a block of one."""
    return _geometry(_stencil_block(curve, [t])[0])


def velocity_form(curve: GrassmannCurve, t: float) -> VelocityForm:
    """The velocity form at t, from the stencil there, a block of one: the
    chart matrices are symmetric, so Sdot is its own form."""
    stencil = _stencil_block(curve, [t])[0]
    if isinstance(stencil, Exception):
        raise stencil
    basis = stencil.chart.basis[:, :curve.space.n]
    return VelocityForm(form=stencil.sdot, basis=basis)


def cross_ratio(v0: core.LagrangianFrame, v1: core.LagrangianFrame,
                v2: core.LagrangianFrame,
                v3: core.LagrangianFrame) -> CurveOperator:
    """Cross-ratio of four points, as an operator on v1.

    Composition of the projector onto v3 along v2 with the projector
    onto v1 along v0, restricted to v1. Equal consecutive arguments
    degenerate gracefully: with v2 = v0 the operator is the identity.
    """
    p01 = core.projector(v0, v1)
    p23 = core.projector(v2, v3)
    z1 = v1.columns
    image = p01 @ (p23 @ z1)
    matrix, *_ = np.linalg.lstsq(z1, image, rcond=None)
    return CurveOperator(matrix=matrix, basis=z1)


def infinitesimal_cross_ratio(c0: GrassmannCurve, c1: GrassmannCurve,
                              t: float) -> CurveOperator:
    """Pairing of the velocities of two curves, as an operator on c1(t).

    In a chart centered at c1(t) the matrix is
    (S0 - S1)^-1 Sdot0 (S0 - S1)^-1 Sdot1; it requires the two curve
    points to be transversal at t.
    """
    frames = [fr for c in (c0, c1)
              for fr in c.read([t + k * c.fd_step for k in (-2, -1, 0, 1, 2)])]
    # c1(t) is the center: the third of c1's five frames
    (chart,), (mats,), (error,) = _centered_charts([frames], 7, [t], "pair")
    if error:
        raise error
    s0, s1 = mats[:5], mats[5:]
    gap = s0[2] - s1[2]
    if core.rank(gap) < chart.n:
        raise NotTransversal("curve points coincide at the evaluation time")
    gap_inv = np.linalg.inv(gap)
    matrix = gap_inv @ _d1(s0, c0.fd_step) @ gap_inv @ _d1(s1, c1.fd_step)
    return CurveOperator(matrix=matrix, basis=chart.basis[:, :chart.n])


def pair_ratio(curve: GrassmannCurve, tau: float, t: float) -> CurveOperator:
    """Velocity pairing of the same curve at two distinct times.

    Blows up like (tau - t)^-2 as the times merge, with the curvature
    over three as the next coefficient; tests exploit that expansion.
    """
    shift = tau - t
    shifted = replace(curve, eval=lambda u: curve.eval(u + shift),
                      domain=(curve.domain[0] - shift,
                              curve.domain[1] - shift))
    return infinitesimal_cross_ratio(shifted, curve, t)


def derivative_curve(curve: GrassmannCurve, t: float) -> core.LagrangianFrame:
    """The complement point spanned by canonically normalized velocities."""
    chart, _, a, _ = _stencil_geometry(curve, t)
    n = chart.n
    e, f = chart.basis[:, :n], chart.basis[:, n:]
    return core.make_frame(curve.space, e @ a + f)


def derivative_family(curve: GrassmannCurve) -> GrassmannCurve:
    """The derivative curve as a curve; domain shrinks by the stencil reach."""
    reach = REACH * curve.fd_step
    t0, t1 = curve.domain
    return replace(curve, eval=lambda tau: derivative_curve(curve, tau),
                   domain=(t0 + reach, t1 - reach))


def curvature(curve: GrassmannCurve, t: float) -> CurveOperator:
    return _curvature(_stencil_block(curve, [t])[0])


def curvatures(curve: GrassmannCurve, ts):
    """curvature(curve, t) for each time of ts, in order, as a generator:
    the stencils are read in stacked blocks, and a time whose stencil
    fails raises its own exception when it is reached."""
    for stencil in _stencils(curve, ts):
        yield _curvature(stencil)


def _curvature(stencil) -> CurveOperator:
    chart, _, _, r = _geometry(stencil)
    return CurveOperator(matrix=r, basis=chart.basis[:, :chart.n])


def curvature_via_cross_ratio(curve: GrassmannCurve,
                              t: float) -> CurveOperator:
    """Independent curvature path through the derivative curve.

    The derivative-curve points are sampled with a quarter of the outer
    step: their truncation bias passes through the inverse of the gap
    matrix twice, so it needs more headroom than the outer stencil.
    """
    h = curve.fd_step
    family = derivative_family(replace(curve, fd_step=0.25 * h))
    return infinitesimal_cross_ratio(replace(family, fd_step=h), curve, t)


def _monotone_sign(sdot: np.ndarray) -> float:
    sign = core._definite_sign(sdot)
    if not sign:
        raise NotMonotone("velocity form is not definite")
    return float(sign)


def curvature_form(curve: GrassmannCurve, t: float) -> CurvatureForm:
    """Curvature paired with the velocity form, for monotone curves.

    The reported form is sym(Sdot R); its inertia matches the inertia of
    the velocity of the derivative curve. For an increasing curve it is
    the curvature form in the velocity inner product, for a decreasing
    curve its negative.
    """
    return _curvature_form(_stencil_block(curve, [t])[0])


def _curvature_form(stencil) -> CurvatureForm:
    """curvature_form from the stencil outcome at its time."""
    chart, sdot, _, r = _geometry(stencil)
    sign = _monotone_sign(_sym(sdot))
    return CurvatureForm(form=_sym(sdot @ r), basis=chart.basis[:, :chart.n],
                         sign=sign)


def transport_generator(curve: GrassmannCurve, t: float) -> CurveOperator:
    """Curvature in the velocity-orthonormal gauge at a single time.

    The basis is the curve-point frame scaled by (eps Sdot)^(-1/2); in it
    the curvature operator of a monotone curve is symmetric up to the
    finite-difference noise floor.
    """
    chart, sdot, _, r = _stencil_geometry(curve, t)
    sym_sdot = _sym(sdot)
    x = core.sym_inv_sqrt(_monotone_sign(sym_sdot) * sym_sdot)
    matrix = np.linalg.solve(x, r @ x)
    return CurveOperator(matrix=matrix, basis=chart.basis[:, :chart.n] @ x)


def _generator(n: int) -> np.ndarray:
    """[[0, -I], [A, 0]] of x' = -y, y' = A x with A still zero; a march
    allocates it once and each stage writes its A into the lower left."""
    gen = np.zeros((2 * n, 2 * n))
    gen[:n, n:] = -np.eye(n)
    return gen


@dataclass(frozen=True)
class TransportResult:
    t0: float
    t1: float
    matrix: np.ndarray          # 2n x 2n propagator in the moving frame
    generators: List[Tuple[float, np.ndarray]]
    drift: float                # transported frame's gap to the curve at t1


def transport(curve: GrassmannCurve, t0: float,
              t1: float) -> TransportResult:
    """Propagator of the second-order frame equation along the curve.

    A moving frame of curve points with velocities in the derivative
    curve obeys frame'' = -R(t) frame; in the frame coordinates the
    system reads x' = -y, y' = A(t) x with A(t) the curvature matrix in
    the marched frame, and the returned matrix propagates (x, y) from t0
    to t1. The initial frame is orthonormal for the velocity inner
    product, which keeps A(t) symmetric and the propagator symplectic.
    RK4 steps are at most 0.005 of the curve length, and at least 8.
    The march knows its 2 nsteps + 1 stencil times before it starts and
    reads them in stacked blocks, in march order; a stencil that fails
    raises when the march reaches its time.
    """
    if not t1 > t0:
        raise ValueError("transport needs t1 > t0")
    n = curve.space.n
    nsteps = max(8, int(np.ceil((t1 - t0) / (0.005 * curve.length))))
    dt = (t1 - t0) / nsteps

    half = 0.5 * dt
    # the march times as _rk4 forms them, each step's start and midpoint,
    # then the last end, which stands for t1; the march reads them by
    # half step
    times, t = [], t0
    for _ in range(nsteps):
        times += [t, t + half]
        t += dt
    stencils = _stencils(curve, times + [t])
    read = []

    def geometry(tau):
        i = int(round((tau - t0) / half))
        while len(read) <= i:
            read.append(next(stencils))
        return _geometry(read[i])

    chart0, sdot0, a0, _ = geometry(t0)
    sym_sdot0 = _sym(sdot0)
    x0 = core.sym_inv_sqrt(_monotone_sign(sym_sdot0) * sym_sdot0)
    e0, f0 = chart0.basis[:, :n], chart0.basis[:, n:]
    z = e0 @ x0
    w = (e0 @ a0 + f0) @ (sdot0 @ x0)
    gamma = np.eye(2 * n)
    generators: List[Tuple[float, np.ndarray]] = []

    def coefficients(tau, z_s):
        """Curvature R, frame coordinates x and generator A at tau."""
        chart, _, _, r = geometry(tau)
        x = (chart.basis_inv @ z_s)[:n]
        return chart, r, x, _sym(np.linalg.solve(x, r @ x))

    gen = _generator(n)

    def rhs(tau, state):
        z_s, w_s, g_s = state
        chart, r, x, amat = coefficients(tau, z_s)
        gen[n:, :n] = amat
        return w_s, -chart.basis[:, :n] @ (r @ x), gen @ g_s

    t = t0
    for _ in range(nsteps):
        generators.append((t, coefficients(t, z)[3]))
        z, w, gamma = _rk4(rhs, t, (z, w, gamma), dt)
        t += dt

    generators.append((t1, coefficients(t1, z)[3]))
    end_frame = core.make_frame(curve.space, z)
    drift = core.subspace_gap(end_frame, curve.eval(t1))
    return TransportResult(t0=t0, t1=t1, matrix=gamma,
                           generators=generators, drift=drift)


def fundamental_matrix(a_func, t0: float, t1: float) -> np.ndarray:
    """Propagator of x' = -y, y' = A(t) x for a given matrix family from t0
    to t1, in RK4 steps of at most 1e-3 in either direction."""
    a0 = np.atleast_2d(np.asarray(a_func(t0), dtype=float))
    n = a0.shape[0]
    nsteps = max(1, int(np.ceil(abs(t1 - t0) / 1e-3)))
    dt = (t1 - t0) / nsteps
    gen = _generator(n)

    def rhs(tau, state):
        gen[n:, :n] = np.atleast_2d(np.asarray(a_func(tau), dtype=float))
        return (gen @ state[0],)

    gamma = (np.eye(2 * n),)
    t = t0
    for _ in range(nsteps):
        gamma = _rk4(rhs, t, gamma, dt)
        t += dt
    return gamma[0]


def reparametrize(curve: GrassmannCurve, phi, new_domain) -> GrassmannCurve:
    """Precompose the curve with a time change phi."""
    return GrassmannCurve(space=curve.space,
                          eval=lambda tau: curve.eval(phi(tau)),
                          domain=tuple(new_domain))


def schwarzian(phi, t: float) -> float:
    """Schwarzian-type derivative phi'''/(2 phi') - (3/4)(phi''/phi')^2,
    from the curve stencil with step 2e-3."""
    h = 2e-3
    vals = [phi(t + k * h) for k in _OFFSETS]
    d1 = _d1(_inner(vals), h)
    d2 = _d2(_inner(vals), h)
    d3 = _jerk(vals, h)
    return d3 / (2.0 * d1) - 0.75 * (d2 / d1) ** 2


@dataclass(frozen=True)
class CurveClassification:
    regular: bool
    monotone: Optional[str]       # "increasing" | "decreasing" | None
    flat: Optional[bool]
    symmetric: Optional[bool]


def classify(curve: GrassmannCurve) -> CurveClassification:
    """Coarse flags from nine interior samples of the curve.

    The nine sample stencils are read in one block, and each gives both
    the velocity form and the curvature of its sample. Regularity and
    monotonicity read the velocity form on the samples; a sample whose
    chart search fails counts as irregular. Flatness thresholds the
    curvature norm; the symmetry flag checks
    that the curvature matrix stays constant in the marched frame, which
    characterizes curves reproduced by their double derivative curve.
    Flags that cannot be evaluated (flat/symmetric for irregular or
    non-monotone curves) come back as None.
    """
    ts = _interior(curve, 9)
    stencils = list(_stencils(curve, ts))
    regular = True
    signs = []
    for stencil in stencils:
        if isinstance(stencil, ChartFailure):
            regular = False
            continue
        if isinstance(stencil, Exception):
            raise stencil
        # the chart matrices are symmetric, so Sdot is its own velocity
        # form and irregular is that form's regularity check
        if stencil.irregular:
            regular = False
        signs.append(core._definite_sign(stencil.sdot))
    if signs and all(s == 1 for s in signs):
        monotone = "increasing"
    elif signs and all(s == -1 for s in signs):
        monotone = "decreasing"
    else:
        monotone = None
    if not regular:
        return CurveClassification(regular=False, monotone=monotone,
                                   flat=None, symmetric=None)

    flat = True
    for stencil in stencils:
        if np.linalg.norm(_geometry(stencil)[3]) > FLAT_TOL:
            flat = False
            break

    if monotone is None:
        return CurveClassification(regular=True, monotone=None,
                                   flat=flat, symmetric=None)
    if flat:
        # zero curvature is trivially constant in any marched frame
        return CurveClassification(regular=True, monotone=monotone,
                                   flat=True, symmetric=True)
    tr = transport(curve, ts[0], ts[-1])
    a_ref = tr.generators[0][1]
    scale = 1.0 + np.linalg.norm(a_ref)
    symmetric = all(np.linalg.norm(a - a_ref) <= SYM_TOL * scale
                    for _, a in tr.generators)
    return CurveClassification(regular=True, monotone=monotone,
                               flat=flat, symmetric=symmetric)
