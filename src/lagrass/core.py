"""Symplectic vector spaces, Lagrangian frames, Darboux charts, inertia.

Conventions (fixed here, inherited everywhere else):
  * phase vectors are stacked (p, q) with the fiber block p first,
  * the standard form is sigma((p,q),(p',q')) = p.q' - p'.q, i.e. the
    matrix J = [[0, I], [-I, 0]]; every space is the standard one,
    SymplecticSpace builds J from n, and no caller's form is taken,
  * graph subspaces are over the first factor: {(z, S z)} with frame
    [I; S], so the vertical fiber is [I; 0] and the horizontal is [0; I].

All rank and transversality decisions are relative with the fixed
tolerance RANK_TOL = 1e-9: a singular value counts when it exceeds
RANK_TOL times the largest. That rule lives in one place, the helpers
rank, span and nullspace below; every module decides ranks, spans,
kernels and transversality through them. Charts are chosen by a
stricter rule: _complements is the one chart search (Maslov pieces call
transversal_complement, its stack of one), and it accepts a complement
only when its margin (the smallest singular value of [complement |
other]) is at least MIN_MARGIN = 1e-2 against every subspace in play,
so no chart is transversal by round-off alone.
The frame and chart kernels read stacks: orthonormal_columns and
_frames (make_frame's work) take columns of shape (..., 2n, n),
_checked is the stacked frame check, which refuses the first failing
frame in stack order with make_frame's text (_make_frames wraps its
columns as frames), _inertias reads the inertias of a stack of
matrices in one eigvalsh pass and _definite_signs applies the
definite-sign rule to their counts, _spans and _nullspaces take the
spans and nullspaces of a stack in one singular-value pass, _darboux the
pairs of a stack of charts, _complements (the chart
search) a stack of frames whose first candidate it scores in one
stacked pass, reporting each member's own outcome, and graph_coords and
chart_matrices the columns of many subspaces, in one matrix product,
one singular-value pass for the rank rule and one solve; _margin scores
a candidate against a whole stack in one singular-value pass, and _gaps
takes the subspace gaps of two stacks pairwise in one stacked 2-norm.
make_frame, inertia, _definite_sign, span, nullspace, darboux_chart,
transversal_complement, chart_coords and subspace_gap are the
one-matrix forms of the same code. numpy's
stacked svd, inv, solve and matmul give the same bits as one call per
matrix, and so does the one QR, _orthonormal, so a stack and a loop of
single calls agree exactly. That QR calls numpy's own LAPACK gufuncs,
qr_r_raw and qr_reduced, the two that np.linalg.qr calls, without its
wrapper: a frame is 2n x n, and the wrapper's casts, error-state
contexts and triu mask cost more than the factoring.
test_orthonormal_is_numpy_qr_bit_for_bit in tests/test_core.py pins
them to np.linalg.qr bit for bit, in Q and in the dependence flag.
Frames are column-orthonormalized on construction; subspace identity
is always tested through principal angles, never through raw matrix
comparison.
Numerical derivatives likewise share one central-difference rule, the
helpers _central_difference and _mixed_difference below; callers
choose only the step. The definite-sign verdict lives beside inertia:
_definite_signs is the one rule that calls a form definite or not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NotInChart, NotTransversal, SearchExhausted

RANK_TOL = 1e-9
ISOTROPY_TOL = 1e-8

# transversal_complement: a chart is accepted when the smallest singular
# value of [candidate | other] is at least MIN_MARGIN against every
# subspace in play; GOOD_MARGIN ends the search early
MIN_MARGIN = 1e-2
GOOD_MARGIN = 0.5
# seeded random graphs after the two sigma-complements
_RANDOM_TRIES = 16
MAX_CANDIDATES = 2 + _RANDOM_TRIES

_DEPENDENT = "columns are numerically rank deficient"
MEETS_DELTA = "Pi and Delta intersect nontrivially"


@dataclass(frozen=True)
class SymplecticSpace:
    """The standard space (R^2n, J); J is built here from n, nowhere else."""

    n: int
    form: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        dim = 2 * self.n
        object.__setattr__(self, "form", np.eye(dim, k=self.n)
                           - np.eye(dim, k=-self.n))

    @property
    def dim(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class LagrangianFrame:
    space: SymplecticSpace
    columns: np.ndarray  # 2n x n, orthonormal

    @property
    def n(self) -> int:
        return self.space.n


@dataclass(frozen=True)
class Chart:
    """Darboux chart built from a transversal Lagrangian pair (Pi, Delta).

    basis is the 2n x 2n matrix [E | F] with E spanning Pi, F spanning
    Delta and sigma(e_i, f_j) = delta_ij; subspaces transversal to Delta
    appear as graphs {(z, S z)} in these coordinates, with Pi the zero
    graph and ker S = (subspace intersect Pi).
    """

    pi_frame: LagrangianFrame
    delta_frame: LagrangianFrame
    basis: np.ndarray
    basis_inv: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.pi_frame.n

    @property
    def space(self) -> SymplecticSpace:
        return self.pi_frame.space


@dataclass(frozen=True)
class ChartRep:
    chart: Chart
    S: np.ndarray


@dataclass(frozen=True)
class QuadraticForm:
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _finite(self.matrix)
        if m.shape != (self.dim, self.dim):
            raise ValueError("matrix dimension mismatch")
        scale = np.linalg.norm(m)
        if np.linalg.norm(m - m.T) > 1e-8 * max(scale, 1.0):
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))


@dataclass(frozen=True)
class Inertia:
    neg: int
    zero: int
    pos: int

    @property
    def dim(self) -> int:
        return self.neg + self.zero + self.pos


def standard_space(n: int) -> SymplecticSpace:
    """Standard 2n-dimensional symplectic space with form [[0, I], [-I, 0]]."""
    return SymplecticSpace(n)


def vertical_frame(space: SymplecticSpace) -> LagrangianFrame:
    """The fiber subspace {(p, 0)}."""
    cols = np.vstack([np.eye(space.n), np.zeros((space.n, space.n))])
    return make_frame(space, cols)


def horizontal_frame(space: SymplecticSpace) -> LagrangianFrame:
    """The base subspace {(0, q)}."""
    cols = np.vstack([np.zeros((space.n, space.n)), np.eye(space.n)])
    return make_frame(space, cols)


def _finite(mat, name: str = "matrix") -> np.ndarray:
    """mat as a float array, refused when an entry is NaN or inf: LAPACK
    gives no usable answer for one, and OpenBLAS's SVD of some never
    returns."""
    a = np.asarray(mat, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def _kept(sv: np.ndarray):
    """How many singular values (descending along the last axis) the rank
    rule keeps, for each matrix of a stack."""
    top = sv[..., :1]
    return (sv > RANK_TOL * np.maximum(top, 1e-300)).sum(axis=-1)


def rank(mat: np.ndarray) -> int:
    """Numerical rank under the relative rule."""
    return int(_kept(np.linalg.svd(_finite(mat), compute_uv=False)))


def _spans(cols: np.ndarray):
    """span's work on one matrix or a stack (..., m, k), in one
    singular-value pass: the left singular vectors and how many of them
    the rank rule keeps, for each matrix."""
    u, sv, _ = np.linalg.svd(_finite(cols), full_matrices=False)
    return u, _kept(sv)


def span(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, possibly zero columns."""
    u, kept = _spans(cols)
    return u[:, :kept]


def _nullspaces(mat: np.ndarray):
    """nullspace's work on one matrix or a stack (..., m, k), in one
    singular-value pass: the right singular vectors as columns, and how
    many of them the rank rule keeps out of the nullspace, for each
    matrix."""
    _, sv, vt = np.linalg.svd(_finite(mat))
    return vt.swapaxes(-1, -2), _kept(sv)


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right nullspace, possibly zero columns."""
    v, kept = _nullspaces(mat)
    return v[:, kept:]


def _central_difference(fun, x, h: float, directions=None) -> np.ndarray:
    """(fun(x + h d) - fun(x - h d)) / 2h for each row d of directions
    (default: the coordinate axes), stacked on a new last axis, so a
    vector-valued fun gives its C-ordered Jacobian."""
    x = np.asarray(x, dtype=float)
    rows = np.eye(x.size) if directions is None else directions
    return np.stack([(np.asarray(fun(x + h * d), dtype=float)
                      - np.asarray(fun(x - h * d), dtype=float)) / (2.0 * h)
                     for d in rows], axis=-1)


def _mixed_difference(fun, x, h: float) -> np.ndarray:
    """Second partials (f(++) - f(+-) - f(-+) + f(--)) / 4h^2 on two new
    last axes, the upper triangle differenced and mirrored."""
    x = np.asarray(x, dtype=float)
    e = h * np.eye(x.size)
    out = None
    for i in range(x.size):
        for j in range(i, x.size):
            val = (np.asarray(fun(x + e[i] + e[j]), dtype=float)
                   - np.asarray(fun(x + e[i] - e[j]), dtype=float)
                   - np.asarray(fun(x - e[i] + e[j]), dtype=float)
                   + np.asarray(fun(x - e[i] - e[j]), dtype=float)
                   ) / (4.0 * h * h)
            if out is None:
                out = np.zeros(val.shape + (x.size, x.size))
            out[..., i, j] = out[..., j, i] = val
    return out


def _orthonormal(cols: np.ndarray):
    """QR of one matrix or a stack (..., m, k): the orthonormal factor and,
    for each matrix, whether its columns are numerically dependent; NaN
    fails the rank comparison, so non-finite columns count as dependent.
    qr_r_raw factors a float64 copy of cols in place, leaving R in its
    upper triangle, and qr_reduced builds Q from it. The gufuncs clear the
    floating-point status unless LAPACK reports an error, so NaN or inf
    columns raise no warning."""
    a = np.array(cols, dtype=np.float64)
    tau = _umath_linalg.qr_r_raw(a)
    q = _umath_linalg.qr_reduced(a, tau)
    diag = np.abs(a.diagonal(axis1=-2, axis2=-1))
    if not diag.shape[-1]:
        return q, np.zeros(diag.shape[:-1], dtype=bool)
    return q, ~(diag.min(axis=-1) > RANK_TOL * diag.max(axis=-1,
                                                        initial=1e-300))


def orthonormal_columns(cols: np.ndarray):
    """QR-orthonormalize one matrix or a stack (..., m, k), raising if the
    columns of any matrix are numerically dependent."""
    q, dependent = _orthonormal(cols)
    if dependent.any():
        raise ValueError(_DEPENDENT)
    return q


def _frames(space: SymplecticSpace, cols: np.ndarray):
    """make_frame's work on one frame or a stack (..., 2n, n): the
    orthonormal columns and, for each frame, whether its columns are
    dependent and its isotropy defect (the Frobenius norm of q^T J q, by
    the dot product np.linalg.norm takes of one matrix)."""
    q, dependent = _orthonormal(cols)
    iso = q.swapaxes(-1, -2) @ space.form @ q
    flat = iso.reshape(iso.shape[:-2] + (-1,))
    return q, dependent, np.sqrt(np.vecdot(flat, flat))


def _checked(space: SymplecticSpace, cols: np.ndarray) -> np.ndarray:
    """The stacked frame check: _frames of one frame or a stack (...,
    2n, n) and its orthonormal columns. The first frame in stack order
    that is dependent or not isotropic refuses the stack, with
    make_frame's text; only a refused frame is checked for non-finite
    entries."""
    q, dependent, defect = _frames(space, cols)
    refused = dependent | ~(defect <= ISOTROPY_TOL)
    if np.count_nonzero(refused):
        i = np.unravel_index(refused.argmax(), refused.shape)
        if not np.isfinite(cols[i]).all():
            raise ValueError("frame has non-finite entries")
        if dependent[i]:
            raise ValueError(_DEPENDENT)
        raise ValueError(f"frame is not isotropic (defect {defect[i]:.3e})")
    return q


def _make_frames(space: SymplecticSpace, cols: np.ndarray) -> list:
    """make_frame of each frame of a stack (b, 2n, n), in one _checked
    pass, in stack order."""
    return [LagrangianFrame(space=space, columns=q)
            for q in _checked(space, np.asarray(cols, dtype=float))]


def make_frame(space: SymplecticSpace,
               columns: np.ndarray) -> LagrangianFrame:
    """Orthonormalize columns and validate the Lagrangian invariants: the
    one-frame call of _checked."""
    cols = np.asarray(columns, dtype=float)
    if cols.shape != (space.dim, space.n):
        raise ValueError("frame must be 2n x n")
    return LagrangianFrame(space=space, columns=_checked(space, cols))


def subspace_gap(f0: LagrangianFrame, f1: LagrangianFrame) -> float:
    """sin of the largest principal angle between the two subspaces.

    Computed as the spectral norm of the difference of orthogonal
    projectors, which stays accurate near zero where sqrt(1 - cos^2)
    would lose half the digits.
    """
    return float(_gaps(f0.columns, f1.columns))


def _gaps(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """subspace_gap between the orthonormal columns c0 and c1, pairwise
    over stacks of shape (..., 2n, n), in one stacked 2-norm."""
    p0 = c0 @ np.swapaxes(c0, -1, -2)
    p1 = c1 @ np.swapaxes(c1, -1, -2)
    return np.linalg.norm(p0 - p1, 2, axis=(-2, -1))


def same_subspace(f0: LagrangianFrame, f1: LagrangianFrame,
                  tol: float = 1e-8) -> bool:
    return subspace_gap(f0, f1) <= tol


def intersection_dim(f0: LagrangianFrame, f1: LagrangianFrame) -> int:
    """dim of the intersection, read off the rank defect of [Z0 | Z1]."""
    stacked = np.hstack([f0.columns, f1.columns])
    return stacked.shape[1] - rank(stacked)


def is_transversal(f0: LagrangianFrame, f1: LagrangianFrame) -> bool:
    return intersection_dim(f0, f1) == 0


def projector(v0: LagrangianFrame, v1: LagrangianFrame) -> np.ndarray:
    """Projector onto v1 along v0 (kernel contains v0, identity on v1)."""
    n = v0.n
    stacked = np.hstack([v0.columns, v1.columns])
    if rank(stacked) < 2 * n:
        raise NotTransversal("v0 and v1 intersect nontrivially")
    sel = np.zeros((2 * n, 2 * n))
    sel[n:, n:] = np.eye(n)
    return stacked @ sel @ np.linalg.inv(stacked)


def _darboux(space: SymplecticSpace, e: np.ndarray, d: np.ndarray):
    """darboux_chart's bases for one pair (Pi, Delta) or a stack of pairs,
    given by their columns (..., 2n, n): [E | F] and its inverse, shape
    (..., 2n, 2n), and whether Pi and Delta meet, shape (...); the F of a
    pair that meets is read with G = I and means nothing."""
    sigma = space.form
    g = e.swapaxes(-1, -2) @ sigma @ d
    meets = _kept(np.linalg.svd(g, compute_uv=False)) < space.n
    if meets.any():
        g = np.where(meets[..., None, None], np.eye(space.n), g)
    f = d @ np.linalg.inv(g)
    basis = np.concatenate([e, f], axis=-1)
    # sigma-orthogonality makes the inverse explicit: M^T J M = J
    basis_inv = -sigma @ basis.swapaxes(-1, -2) @ sigma
    return basis, basis_inv, meets


def darboux_chart(pi_frame: LagrangianFrame,
                  delta_frame: LagrangianFrame) -> Chart:
    """Assemble the Darboux basis [E | F] from a transversal pair: _darboux
    of one pair."""
    basis, basis_inv, meets = _darboux(pi_frame.space, pi_frame.columns,
                                       delta_frame.columns)
    if meets:
        raise NotTransversal(MEETS_DELTA)
    return Chart(pi_frame=pi_frame, delta_frame=delta_frame,
                 basis=basis, basis_inv=basis_inv)


def standard_chart(space: SymplecticSpace) -> Chart:
    return darboux_chart(vertical_frame(space), horizontal_frame(space))


def _graphs(basis_inv: np.ndarray, columns: np.ndarray):
    """Raw graph matrices of the subspaces columns (..., k, 2n, n) in the
    charts basis_inv, which broadcast against them, shape (..., k, n, n),
    and which subspaces meet Delta, shape (..., k); the matrix of a
    subspace meeting Delta, and of any after it, is not to be read."""
    n = columns.shape[-1]
    w = basis_inv @ columns
    top, bottom = w[..., :n, :], w[..., n:, :]
    meets = _kept(np.linalg.svd(top, compute_uv=False)) < n
    if meets.any():
        top = np.where(meets[..., None, None], np.eye(n), top)
    s = np.linalg.solve(top.swapaxes(-1, -2), bottom.swapaxes(-1, -2))
    return s.swapaxes(-1, -2), meets


def _flat(columns) -> np.ndarray:
    cols = np.asarray(columns, dtype=float)
    return cols.reshape((-1,) + cols.shape[-2:])


def graph_coords(chart: Chart, columns: np.ndarray) -> np.ndarray:
    """Raw graph matrices of n-dim subspaces in the chart, no symmetry check.

    columns is one 2n x n matrix or a stack of them, shape (..., 2n, n);
    the result has shape (..., n, n). Non-Lagrangian subspaces are
    welcome here; they come out with an asymmetric matrix, which is
    exactly how tests detect them.
    """
    s, meets = _graphs(chart.basis_inv, _flat(columns))
    if meets.any():
        raise NotInChart("subspace meets the chart complement Delta")
    return s.reshape(np.shape(columns)[:-2] + s.shape[-2:])


def _chart_matrices(basis_inv: np.ndarray, columns: np.ndarray):
    """chart_matrices' work on the subspaces columns (..., k, 2n, n) in
    the charts basis_inv, which broadcast against them: the symmetric
    chart matrices (..., k, n, n), and the rows _refusal reads, shape
    (..., k): which subspaces meet Delta, the asymmetry of their chart
    matrices, and where it is too large."""
    s, meets = _graphs(basis_inv, columns)
    asym = np.linalg.norm(s - s.swapaxes(-1, -2), axis=(-2, -1))
    bad = asym > 1e-6 * (1.0 + np.linalg.norm(s, axis=(-2, -1)))
    return 0.5 * (s + s.swapaxes(-1, -2)), meets, asym, bad


def _refusal(meets: np.ndarray, asym: np.ndarray, bad: np.ndarray):
    """The error of a refused chart's stack, from its rows (k,) of
    _chart_matrices: read up to its first subspace meeting Delta, a
    ValueError for the first asymmetric chart matrix there, else
    NotInChart. Its callers call it for a refused stack only."""
    cut = np.logical_or.accumulate(meets)
    bad = bad & ~cut
    if bad.any():
        return ValueError(f"chart matrix asymmetric ({asym[bad.argmax()]:.3e}"
                          "); input subspace is not Lagrangian")
    return NotInChart("subspace meets the chart complement Delta")


def chart_matrices(chart: Chart, columns: np.ndarray) -> np.ndarray:
    """Symmetric chart matrices of Lagrangian subspaces, shape (..., n, n),
    from their columns, shape (..., 2n, n).

    The first subspace in stack order that fails refuses the stack: with
    NotInChart when it meets Delta, with ValueError naming its defect
    when its chart matrix is asymmetric (it is not Lagrangian).
    """
    sym, meets, asym, bad = _chart_matrices(chart.basis_inv, _flat(columns))
    if bad.any() or meets.any():
        raise _refusal(meets, asym, bad)
    return sym.reshape(np.shape(columns)[:-2] + sym.shape[-2:])


def chart_coords(frame: LagrangianFrame, chart: Chart) -> ChartRep:
    """The chart matrix of one frame: chart_matrices of a stack of one."""
    return ChartRep(chart=chart, S=chart_matrices(chart, frame.columns))


def frame_from_chart(rep: ChartRep) -> LagrangianFrame:
    n = rep.chart.n
    e = rep.chart.basis[:, :n]
    f = rep.chart.basis[:, n:]
    return make_frame(rep.chart.space, e + f @ rep.S)


def _inertias(mats: np.ndarray):
    """inertia's counts for one finite matrix or a stack (..., k, k),
    k >= 1, symmetrized and read in one eigvalsh pass: neg, zero and pos,
    each of shape (...)."""
    eigs = np.linalg.eigvalsh(0.5 * (mats + mats.swapaxes(-1, -2)))
    scale = np.abs(eigs).max(axis=-1, keepdims=True)
    thr = RANK_TOL * scale
    # below ~100 eps a matrix is indistinguishable from the zero matrix
    live = scale[..., 0] > 2.5e-14
    neg = (eigs < -thr).sum(axis=-1) * live
    pos = (eigs > thr).sum(axis=-1) * live
    return neg, mats.shape[-1] - neg - pos, pos


def inertia(q) -> Inertia:
    """Eigenvalue inertia with a relative zero threshold: the one-matrix
    call of _inertias."""
    m = q.matrix if isinstance(q, QuadraticForm) else _finite(q)
    if m.size == 0:
        return Inertia(0, 0, 0)
    neg, zero, pos = _inertias(m)
    return Inertia(neg=int(neg), zero=int(zero), pos=int(pos))


def _definite_signs(neg, pos, dim):
    """The definite-sign rule on inertia counts, for one form or a stack:
    1 where every direction is positive, -1 where every one is negative,
    else 0."""
    return np.where(pos == dim, 1, np.where(neg == dim, -1, 0))


def _definite_sign(form) -> int:
    """1 for a positive definite form, -1 for a negative definite one,
    else 0."""
    ine = inertia(form)
    return int(_definite_signs(ine.neg, ine.pos, ine.dim))


def _margin(columns: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Transversality margins: the smallest singular value of
    [columns | other] for each other of the stack others (..., 2n, n),
    in one stacked singular-value pass."""
    pairs = np.concatenate(
        [np.broadcast_to(columns, np.shape(others)), others], axis=-1)
    return np.linalg.svd(pairs, compute_uv=False)[..., -1]


def _candidates(frame: LagrangianFrame, avoid, seed: int):
    """Columns of the chart-search candidates, in schedule order."""
    space = frame.space
    yield space.form @ frame.columns
    if avoid:
        yield space.form @ avoid[len(avoid) // 2].columns
    try:
        base = darboux_chart(frame,
                             make_frame(space, space.form @ frame.columns))
    except (ValueError, NotTransversal):
        return
    n = space.n
    e, f = base.basis[:, :n], base.basis[:, n:]
    rng = np.random.default_rng(seed)
    for _ in range(_RANDOM_TRIES):
        a = rng.standard_normal((n, n))
        yield f + e @ (a + a.T)


def _complements(space: SymplecticSpace, cols: np.ndarray,
                 avoid: np.ndarray, seed: int):
    """transversal_complement for a stack of frames cols (b, 2n, n), each
    with the array avoid[i] of its own frames to clear, avoid (b, m, 2n,
    n): the complements (b, 2n, n) and, for each member, the
    SearchExhausted its search ends in, or None (its complement then
    means nothing). The first candidate is built and scored for the whole
    stack in one stacked QR and one stacked _margin pass, and only the
    members it leaves below GOOD_MARGIN go on through the schedule, one
    at a time. A negative seed is refused, drawn from or not, and so is a
    frame with a NaN or inf entry, before any product reads it."""
    if seed < 0:
        raise ValueError(f"chart search seed {seed} must be >= 0")
    must_miss = _finite(np.concatenate([cols[:, None], avoid], axis=1),
                        "frame")
    q, dependent, defect = _frames(space, space.form @ cols)
    scores = np.where(dependent | ~(defect <= ISOTROPY_TOL), -np.inf,
                      _margin(q[:, None], must_miss).min(axis=-1))
    errors = []
    for i, best_score in enumerate(scores.tolist()):
        if best_score < GOOD_MARGIN:
            frame = LagrangianFrame(space, cols[i])
            others = [LagrangianFrame(space, c) for c in avoid[i]]
            for c in itertools.islice(_candidates(frame, others, seed), 1,
                                      None):
                try:
                    cand = make_frame(space, c).columns
                except ValueError:
                    continue
                score = float(_margin(cand, must_miss[i]).min())
                if score >= best_score:
                    q[i], best_score = cand, score
                if best_score >= GOOD_MARGIN:
                    break
        # a score of GOOD_MARGIN ends the search accepted
        errors.append(SearchExhausted(
            f"best transversality margin {best_score:.3e} of "
            f"{MAX_CANDIDATES} candidates is below MIN_MARGIN {MIN_MARGIN:g}")
            if best_score < min(MIN_MARGIN, GOOD_MARGIN) else None)
    return q, errors


def transversal_complement(frame: LagrangianFrame, avoid=(),
                           seed: int = 0) -> LagrangianFrame:
    """Deterministic, margin-scored search for a Lagrangian complement.

    Candidates, in order: sigma*frame, sigma*(the middle member of
    avoid), then _RANDOM_TRIES symmetric graphs f + e(a + a^T) over the
    chart (frame, sigma*frame), drawn from default_rng(seed), which are
    transversal to the frame by construction. A candidate scores its
    worst margin against the frame and every member of avoid, all read
    in one stacked _margin call. The first score of GOOD_MARGIN or more
    wins, else the best score of MIN_MARGIN or more; SearchExhausted
    when no candidate reaches MIN_MARGIN. The search is _complements of
    a stack of one.
    """
    cols = frame.columns[None]
    others = np.reshape([fr.columns for fr in avoid],
                        (1, len(avoid)) + cols.shape[1:])
    q, (error,) = _complements(frame.space, cols, others, seed)
    if error:
        raise error
    return LagrangianFrame(space=frame.space, columns=q[0])


def random_symplectic(space: SymplecticSpace, rng) -> np.ndarray:
    """Random symplectic matrix as a product of four elementary factors."""
    n = space.n
    scale = 0.5
    eye = np.eye(n)
    zero = np.zeros((n, n))
    t = np.eye(2 * n)
    for _ in range(4):
        kind = rng.integers(0, 4)
        if kind == 0:
            a = np.eye(n) + scale * rng.standard_normal((n, n)) / np.sqrt(n)
            fac = np.block([[a, zero], [zero, np.linalg.inv(a).T]])
        elif kind == 1:
            b = rng.standard_normal((n, n)) * scale
            fac = np.block([[eye, b + b.T], [zero, eye]])
        elif kind == 2:
            c = rng.standard_normal((n, n)) * scale
            fac = np.block([[eye, zero], [c + c.T, eye]])
        else:
            fac = space.form
        t = t @ fac
    return t


def random_lagrangian(space: SymplecticSpace, rng) -> LagrangianFrame:
    t = random_symplectic(space, rng)
    return make_frame(space, t @ vertical_frame(space).columns)


def symplectic_defect(space: SymplecticSpace, t: np.ndarray) -> float:
    sigma = space.form
    return float(np.linalg.norm(t.T @ sigma @ t - sigma)
                 / np.linalg.norm(sigma))


def sym_inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix."""
    m = _finite(m)
    m = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(m)
    if w.min() <= RANK_TOL * max(abs(w).max(), 1e-300):
        raise ValueError("matrix is not positive definite")
    return v @ np.diag(1.0 / np.sqrt(w)) @ v.T
