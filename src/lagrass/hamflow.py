"""Hamiltonian systems on the standard phase space and their Jacobi curves.

Phase points are z = (x, y) with x the fiber block, and the flow is
x' = -dH/dy, y' = dH/dx.  The variational flow transports tangent frames
backwards along a trajectory, so pushing the fiber through it traces the
Jacobi curve of the initial point as a curve in the Lagrange
Grassmannian.  Every integration marches the package's one RK4 stepper
through one cap-checked loop, and only flow() and DenseFlow() integrate:
the caller builds the orbit, and readers take it.  A DenseFlow is the
single trajectory object of an orbit, and its in-window view is the
trajectory flow() would return; jacobi_curve, reduced_jacobi_curve,
monotonicity_test and the analyses read the system, horizon, step and
z0 from the one DenseFlow or Trajectory they are given.  A polynomial
Hamiltonian is compiled once into term tables, and each callback call
evaluates all of its monomials in one vectorized pass.  A polynomial
or hand-written system still calls eval once per RK stage, and the
fundamental matrix Phi is built afterwards: a march steps the state
alone, as flow() does, keeping the four stage Hessians of each step,
and then turns them into Phi in batched numpy passes, one block of
STAGE_BLOCK steps at a time, so no more than one block of stage
Hessians is ever held.  A quadratic Hamiltonian (quadratic_system:
quadratic_potential_system, and the CLI's natural potential.k and
constant metric.g configs) carries its constant Hessian M.  Its flow
is linear, so one RK4 step is exactly the transfer matrix T(dt) =
I + S, S = a + a^2/2 + a^3/6 + a^4/24 with a = dt (-J M), built once
per distinct grid step; its orbits march by z -> z + S z with no
callback, which is RK4 to round-off.  DenseFlow.gammas reads Gamma at
many times in one batch, grid times as rows of phis and the others by
one batched RK4 step, and the Jacobi curves read their frames through
it in one stacked frame check, bit for bit as one time at a time.
The module also carries the canonical-connection machinery:
connection coefficients from the Hessian blocks, curvature operators
of the field both by the exact natural-system shortcut and by a
generic double-bracket evaluation, level-set reduction to a quotient
symplectic space, and the Legendre-type monotonicity scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import core
from .curve import (FD_STEP_FRACTION, REACH, FrameReader, GrassmannCurve,
                    _rk4)
from .errors import (BlowUp, DimensionDefect, NotRegular, ReductionRefused,
                     TangentFiber)

BLOWUP_CAP = 1e8
DEFAULT_STEP = 1e-3
FD_STEP = 1e-6
THIRD_FD_STEP = 1e-4
EQUILIBRIUM_TOL = 1e-8
STAGE_BLOCK = 128    # RK4 steps whose stage Hessians a march holds at once
SYMMETRY_TOL = 1e-6  # a Hessian may have |H - H^T| <= SYMMETRY_TOL (1 + |H|)


def _asymmetric(defect: float, what: str = "Hessian callback") -> ValueError:
    return ValueError(f"{what} asymmetric, defect {defect:.3e}")


def _symmetric(mat, what: str = "Hessian callback") -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    defect = np.linalg.norm(mat - mat.T)
    if defect > SYMMETRY_TOL * (1.0 + np.linalg.norm(mat)):
        raise _asymmetric(defect, what)
    return 0.5 * (mat + mat.T)


def _symmetrized(mats: np.ndarray) -> Tuple[np.ndarray, Optional[ValueError]]:
    """Symmetric parts of a stack of Hessians, cut before the first one
    that fails _symmetric's check (Frobenius norms), and the ValueError
    for that one, or None when every one passes."""
    skew = mats - mats.swapaxes(-1, -2)
    defect = np.sqrt(np.square(skew).sum(axis=(-2, -1)))
    size = np.sqrt(np.square(mats).sum(axis=(-2, -1)))
    bad = np.flatnonzero(defect > SYMMETRY_TOL * (1.0 + size))
    error = None
    if len(bad):
        mats = mats[:bad[0]]
        error = _asymmetric(defect[bad[0]])
    return 0.5 * (mats + mats.swapaxes(-1, -2)), error


@dataclass
class HamiltonianSystem:
    """Callback bundle for one Hamiltonian.

    ``eval(x, y)`` returns the value, the gradient stacked as (dH/dx,
    dH/dy), and the full symmetric Hessian.  ``natural`` marks H =
    |x|^2/2 + U(y), set by the builders from their input's structure.
    ``hxx_rate`` optionally supplies the derivative of the xx Hessian
    block along the flow, else taken by a directional finite difference
    of the Hessian callback.  ``constant_hessian`` is the symmetric
    Hessian M of z^T M z / 2, set by quadratic_system; the integrators
    then march by the RK4 step matrix and never call ``eval``.
    """

    n: int
    eval: Callable[[np.ndarray, np.ndarray],
                   Tuple[float, np.ndarray, np.ndarray]]
    natural: bool = False
    hxx_rate: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    constant_hessian: Optional[np.ndarray] = None

    def _eval(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        return self.eval(z[:self.n], z[self.n:])

    @cached_property
    def _swap(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rows and signs of -J: (-J v)_i = sign_i v_{rows_i}."""
        n = self.n
        return np.r_[n:2 * n, :n], np.r_[-np.ones(n), np.ones(n)]

    def _field_of(self, grad) -> np.ndarray:
        rows, sign = self._swap
        return np.asarray(grad, dtype=float)[rows] * sign

    def _minus_j(self, h2: np.ndarray) -> np.ndarray:
        """-J h2, for a matrix or a stack of matrices."""
        rows, sign = self._swap
        return h2[..., rows, :] * sign[:, None]

    def value(self, z: np.ndarray) -> float:
        return float(self._eval(z)[0])

    def hessian(self, z: np.ndarray) -> np.ndarray:
        return _symmetric(self._eval(z)[2])

    def field(self, z: np.ndarray) -> np.ndarray:
        return self._field_of(self._eval(z)[1])

    def linearization(self, z: np.ndarray) -> np.ndarray:
        """Jacobian of the Hamiltonian field, equal to -J Hess."""
        return self._minus_j(self.hessian(z))

    def _state_rhs(self, t: float, state: Sequence) -> tuple:
        """z' = field, the state alone."""
        return (self.field(state[0]),)

    def _increment(self, dt) -> np.ndarray:
        """One RK4 step of the linear flow, z -> z + S z; constant Hessian only.

        RK4 on z' = a z / dt gives exactly S = a + a^2/2 + a^3/6 + a^4/24,
        a = dt (-J M), summed here in Horner form; for a 1-D array of dts,
        one S for each, stacked, each equal to its own call bit for bit.
        """
        a = np.asarray(dt)[..., None, None] * self._minus_j(
            self.constant_hessian)
        eye = np.eye(a.shape[-1])
        t = eye + a / 4.0
        for k in (3.0, 2.0):
            t = eye + a @ t / k
        return a @ t


# ------------------------------------------------------------------ builders


def natural_system(n: int,
                   u_value: Callable[[np.ndarray], float],
                   u_grad: Callable[[np.ndarray], np.ndarray],
                   u_hess: Callable[[np.ndarray], np.ndarray]) -> HamiltonianSystem:
    """Kinetic-plus-potential Hamiltonian H = |x|^2/2 + U(y)."""

    def ev(x, y):
        h = 0.5 * float(x @ x) + float(u_value(y))
        grad = np.concatenate([x, np.asarray(u_grad(y), dtype=float)])
        hess = np.zeros((2 * n, 2 * n))
        hess[:n, :n] = np.eye(n)
        hess[n:, n:] = np.asarray(u_hess(y), dtype=float)
        return h, grad, hess

    return HamiltonianSystem(n=n, eval=ev, natural=True,
                             hxx_rate=lambda x, y: np.zeros((n, n)))


def quadratic_system(m: np.ndarray) -> HamiltonianSystem:
    """Quadratic Hamiltonian H = z^T M z / 2 with a constant Hessian M.

    M is symmetry-checked once here, and the system carries it, so every
    integration of it marches by the RK4 step matrix, with no callback.
    The system is natural when the x rows of M are exactly [I | 0].
    """
    m = _symmetric(m)
    n = m.shape[0] // 2
    if m.shape != (2 * n, 2 * n):
        raise ValueError("Hessian must be square of even size")

    def ev(x, y):
        z = np.concatenate([x, y])
        grad = m @ z
        return 0.5 * float(z @ grad), grad, m

    return HamiltonianSystem(n=n, eval=ev,
                             natural=np.array_equal(m[:n], np.eye(n, 2 * n)),
                             hxx_rate=lambda x, y: np.zeros((n, n)),
                             constant_hessian=m)


def quadratic_potential_system(k_mat: np.ndarray) -> HamiltonianSystem:
    """Natural system with U(y) = y^T K y / 2."""
    k_mat = np.asarray(k_mat, dtype=float)
    k_mat = 0.5 * (k_mat + k_mat.T)
    n = k_mat.shape[0]
    return quadratic_system(np.block([[np.eye(n), np.zeros((n, n))],
                                      [np.zeros((n, n)), k_mat]]))


def metric_system(n: int,
                  g: Callable[[np.ndarray], np.ndarray], *,
                  dg: Callable[[np.ndarray], np.ndarray],
                  d2g: Callable[[np.ndarray], np.ndarray],
                  u_value: Optional[Callable] = None,
                  u_grad: Optional[Callable] = None,
                  u_hess: Optional[Callable] = None) -> HamiltonianSystem:
    """Metric Hamiltonian H = x^T g(y) x / 2 + U(y).

    ``dg(y)`` stacks the y-partials of g as a (n, n, n) tensor indexed
    by the differentiation direction first; ``d2g(y)`` the second
    partials as (n, n, n, n).
    """

    def pot(y):
        if u_value is None:
            return 0.0, np.zeros(n), np.zeros((n, n))
        return (float(u_value(y)), np.asarray(u_grad(y), dtype=float),
                np.asarray(u_hess(y), dtype=float))

    def ev(x, y):
        gm = np.asarray(g(y), dtype=float)
        gm = 0.5 * (gm + gm.T)
        dgm = np.asarray(dg(y), dtype=float)
        u0, u1, u2 = pot(y)
        h = 0.5 * float(x @ gm @ x) + u0
        grad_y = 0.5 * np.einsum("kij,i,j->k", dgm, x, x) + u1
        grad = np.concatenate([gm @ x, grad_y])
        hxy = np.column_stack([dgm[k] @ x for k in range(n)])
        d2gm = np.asarray(d2g(y), dtype=float)
        hyy = 0.5 * np.einsum("klij,i,j->kl", d2gm, x, x) + u2
        hess = np.block([[gm, hxy], [hxy.T, hyy]])
        return h, grad, hess

    def rate(x, y):
        dgm = np.asarray(dg(y), dtype=float)
        ydot = np.asarray(g(y), dtype=float) @ x
        return np.einsum("kij,k->ij", dgm, ydot)

    return HamiltonianSystem(n=n, eval=ev, hxx_rate=rate)


def _poly_diff(terms, k):
    out = []
    for coeff, exps in terms:
        if exps[k] > 0:
            new = list(exps)
            new[k] -= 1
            out.append((coeff * exps[k], tuple(new)))
    return out


def _left_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis from 0.0, one term after the other.

    This is the left-to-right order of a Python loop, bit for bit:
    add.accumulate adds in that order, and the closing + 0.0 turns the
    -0.0 of all -0.0 terms into the loop's 0.0.  np.sum, add.reduceat
    and BLAS dots reassociate and move last bits.
    """
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


class PolynomialTable:
    """Polynomials in one variable vector, compiled once to term tables.

    Polynomial p is row p of a coefficient table (polynomials x terms)
    and an exponent table (polynomials x terms x variables), padded
    with zero terms that add an exact 0.0.  A call evaluates every
    polynomial in one vectorized pass: the monomials are prod(z ** E)
    over the last axis, with the powers read from one table of z ** e
    for e up to the top exponent, and the scaled terms of each
    polynomial are summed in term order, so every value equals the
    term-by-term sum of its coefficient-times-monomial products.
    """

    def __init__(self, polys: Sequence[Sequence], nvars: int):
        width = max([len(terms) for terms in polys] + [1])
        self.coeffs = np.zeros((len(polys), width))
        self.exps = np.zeros((len(polys), width, nvars), dtype=int)
        for p, terms in enumerate(polys):
            for q, (coeff, exps) in enumerate(terms):
                self.coeffs[p, q] = coeff
                self.exps[p, q] = exps
        if (self.exps < 0).any():
            raise ValueError("exponents must be nonnegative")
        npow = int(self.exps.max(initial=0)) + 1
        self._var = np.repeat(np.arange(nvars), npow)
        self._pow = np.tile(np.arange(npow, dtype=float), nvars)
        self._index = np.arange(nvars) * npow + self.exps

    def __call__(self, z) -> np.ndarray:
        powers = np.asarray(z, dtype=float)[self._var] ** self._pow
        return _left_sum(self.coeffs * powers[self._index].prod(axis=-1))


def polynomial_system(n: int, terms: Sequence) -> HamiltonianSystem:
    """Hamiltonian given by monomial terms (coeff, exponents over (x, y)).

    All derivatives, including the third-order rate the connection
    needs, come from exact term-by-term differentiation, compiled once
    into one table for the value, gradient and Hessian and one for the
    rate.  It is natural when its x Hessian rows are constant rows of
    [I | 0]: zero-exponent terms summing exactly to the identity's.
    """
    base = [(float(c), tuple(int(e) for e in exps)) for c, exps in terms]
    dim = 2 * n
    for _, exps in base:
        if len(exps) != dim:
            raise ValueError(f"exponent tuple must have length {dim}")
    grads = [_poly_diff(base, k) for k in range(dim)]
    hesses = [_poly_diff(grads[k], l) for k in range(dim) for l in range(dim)]
    # gradient tables of every xx-Hessian entry, for the exact flow rate
    third = [_poly_diff(hesses[i * dim + j], k)
             for i in range(n) for j in range(n) for k in range(dim)]
    main = PolynomialTable([base] + grads + hesses, dim)
    rates = PolynomialTable(grads + third, dim)
    x_rows = slice(1 + dim, 1 + dim + n * dim)
    natural = (not main.exps[x_rows].any() and np.array_equal(
        main(np.zeros(dim))[x_rows], np.eye(n, dim).ravel()))

    def ev(x, y):
        vals = main(np.concatenate([x, y]))
        return (float(vals[0]), vals[1:dim + 1],
                vals[dim + 1:].reshape(dim, dim))

    def rate(x, y):
        vals = rates(np.concatenate([x, y]))
        zdot = np.concatenate([-vals[n:dim], vals[:n]])
        return _left_sum(vals[dim:].reshape(n, n, dim) * zdot)

    return HamiltonianSystem(n=n, eval=ev, natural=natural, hxx_rate=rate)


# ---------------------------------------------------------------- integrator


@dataclass
class Trajectory:
    """Orbit samples; the energies are evaluated on first use."""

    times: np.ndarray
    states: np.ndarray
    sys: HamiltonianSystem = field(repr=False)

    @cached_property
    def energies(self) -> np.ndarray:
        m = self.sys.constant_hessian
        if m is not None:
            return 0.5 * (self.states * (self.states @ m)).sum(axis=1)
        return np.array([self.sys.value(z) for z in self.states])

    @property
    def energy_drift(self) -> float:
        return float(np.abs(self.energies - self.energies[0]).max())

    def state(self, t: float) -> np.ndarray:
        """Orbit point at t, read as DenseFlow.state reads its checkpoints."""
        k, dt = _checkpoint(self.times, t)
        if dt == 0.0:
            return self.states[k]
        return _step(self.sys, self.times[k], (self.states[k],), dt)[0]


def _check_span(horizon: float, step: float):
    """The horizon and step checks that flow() and DenseFlow share."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    for name, value in (("step", step), ("horizon", horizon)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")


def _grid(horizon: float, step: float) -> np.ndarray:
    """0 to horizon by step: two times at least, however short the horizon."""
    _check_span(horizon, step)
    count = max(1, int(math.ceil(horizon / step - 1e-12)))
    times = np.minimum(step * np.arange(count + 1), horizon)
    times[-1] = horizon
    return times


def _padded_grid(t_lo: float, t_hi: float,
                 step: float) -> Tuple[np.ndarray, int]:
    """The grids of flow() from 0 up to t_hi and down to t_lo, joined,
    and the index of 0 in them."""
    fwd_t, bwd_t = (_grid(span, step) if span > 0 else np.zeros(1)
                    for span in (t_hi, -t_lo))
    return np.concatenate([-bwd_t[:0:-1], fwd_t]), len(bwd_t) - 1


def _checkpoints(times: np.ndarray, ts):
    """Index of the checkpoint at or below each time of ts and the step
    left from it, as two arrays, and the ValueError for the first time
    outside the window, or None; that time and the ones after it are not
    to be read.

    A time just outside the grid is clamped onto its end; a step under
    the round-off floor comes back as 0.0, the checkpoint itself.
    """
    ts = np.asarray(ts, dtype=float)
    lo, hi = times[0], times[-1]
    span = hi - lo
    pad = 1e-9 * (1.0 + span)
    outside = (ts < lo - pad) | (ts > hi + pad)
    error = None
    if outside.any():
        first = int(outside.argmax())
        error = ValueError(f"time {ts[first]:g} outside the integrated window")
        ts = ts[:first]
    # clamped onto [lo, hi], every time has a checkpoint at or below it
    ts = np.minimum(np.maximum(ts, lo), hi)
    ks = times.searchsorted(ts, side="right") - 1
    dts = ts - times[ks]
    dts[dts <= 1e-14 * (1.0 + span)] = 0.0
    return ks, dts, error


def _checkpoint(times: np.ndarray, t: float) -> Tuple[int, float]:
    """_checkpoints of one time, refused outside the window."""
    ks, dts, error = _checkpoints(times, [t])
    if error is not None:
        raise error
    return int(ks[0]), float(dts[0])


def _past_cap(part: np.ndarray, axis=None):
    """Some entry past the cap, NaN or infinite, per leading index if
    axis names the rest.

    Reductions only, so no temporary the size of part; NaN fails both
    comparisons and so counts as crossing.
    """
    return ~((part.max(axis=axis) <= BLOWUP_CAP)
             & (part.min(axis=axis) >= -BLOWUP_CAP))


def _blowup(t: float) -> BlowUp:
    return BlowUp(f"state left the norm cap near t={t:g}")


def _raise_past_cap(outs: Sequence[np.ndarray], times: np.ndarray):
    """BlowUp at times[k] for the first row k >= 1 of some out past the
    cap."""
    crossed = [_past_cap(out[1:], tuple(range(1, out.ndim)))
               for out in outs if _past_cap(out[1:])]
    if crossed:
        raise _blowup(times[1 + int(np.logical_or.reduce(crossed).argmax())])


def _propagate(out: np.ndarray, increments: Sequence[np.ndarray]):
    """out[k + 1] = out[k] + S_k out[k] down the rows, S_k = increments[k].

    S_k is kept apart from I: rounded into I + S_k it would lose digits,
    by the same amount at every step, and the orbit would drift in
    energy.  Rows past the cap are left for _raise_past_cap.
    """
    cur = out[0]
    with np.errstate(all="ignore"):
        for nxt, inc in zip(out[1:], increments):
            np.matmul(inc, cur, nxt)
            nxt += cur
            cur = nxt


def _stage_increments(sys: HamiltonianSystem, sym: np.ndarray,
                      dts: np.ndarray) -> np.ndarray:
    """RK4 increments S_k of Phi' = -J H Phi, one per step, from the
    symmetric Hessians of the four stages of each step.

    With A_s = -J H_s, B1 = A1, B2 = A2 (I + dt/2 B1),
    B3 = A3 (I + dt/2 B2), B4 = A4 (I + dt B3) and
    S = dt/6 (B1 + 2 B2 + 2 B3 + B4), Phi + S Phi is the RK4 step of
    Phi whose stage states are those of the z step.
    """
    a = sys._minus_j(sym).reshape(len(dts), 4, *sym.shape[1:])
    dt = dts[:, None, None]
    half = 0.5 * dt
    b2 = a[:, 1] + half * (a[:, 1] @ a[:, 0])
    b3 = a[:, 2] + half * (a[:, 2] @ b2)
    b4 = a[:, 3] + dt * (a[:, 3] @ b3)
    return dt / 6.0 * (a[:, 0] + 2.0 * b2 + 2.0 * b3 + b4)


class _StageHessians:
    """RK4 right side z' = field, one callback call per stage, that
    copies each stage's Hessian into the next row of a buffer."""

    def __init__(self, sys: HamiltonianSystem, steps: int):
        self.sys, self.count = sys, 0
        self.buf = np.empty((4 * steps, 2 * sys.n, 2 * sys.n))

    def __call__(self, t: float, state: Sequence) -> tuple:
        _, grad, hess = self.sys._eval(state[0])
        if np.shape(hess) != self.buf.shape[1:]:
            raise ValueError(f"Hessian callback must return a "
                             f"{self.buf.shape[1:]} matrix")
        self.buf[self.count] = hess
        self.count += 1
        return (self.sys._field_of(grad),)


def _state_march(rhs, states: np.ndarray,
                 times: np.ndarray) -> Tuple[int, Optional[BlowUp]]:
    """RK4 of z alone down the rows of states, cap-checked step by step.

    Returns the number of steps taken and the BlowUp that stopped the
    march, or None; rows past the stop are left unfilled.
    """
    for k in range(len(times) - 1):
        z = _rk4(rhs, times[k], (states[k],), times[k + 1] - times[k])[0]
        if _past_cap(z):
            return k, _blowup(times[k + 1])
        states[k + 1] = z
    return len(times) - 1, None


def _pair_march(sys: HamiltonianSystem, states: np.ndarray,
                phis: np.ndarray, times: np.ndarray):
    """Two-phase RK4 march of z and Phi, STAGE_BLOCK steps at a time.

    Phase 1 steps z as flow() does, one callback call per stage, and
    copies each stage's Hessian into a buffer that every block reuses
    (_StageHessians).  Phase 2 symmetry-checks the block's Hessians,
    builds its increments S_k in one batched pass and steps Phi into
    phis, cap-checked once per block.  Failures come out in the order a
    stage-by-stage march meets them: a Phi row past the cap, then an
    asymmetric Hessian, then the state past the cap.
    """
    stages = _StageHessians(sys, min(STAGE_BLOCK, len(times) - 1))
    for lo in range(0, len(times) - 1, STAGE_BLOCK):
        block = times[lo:lo + STAGE_BLOCK + 1]
        stages.count = 0
        done, failure = _state_march(stages, states[lo:], block)
        sym, asymmetric = _symmetrized(stages.buf[:stages.count])
        steps = min(done, len(sym) // 4)
        if steps:
            rows = phis[lo:lo + steps + 1]
            _propagate(rows, _stage_increments(sys, sym[:4 * steps],
                                               np.diff(block[:steps + 1])))
            _raise_past_cap((rows,), block)
        for error in (asymmetric, failure):
            if error is not None:
                raise error


def _march(sys: HamiltonianSystem, outs: Sequence[np.ndarray],
           times: np.ndarray):
    """Cap-checked RK4 march of z, or of z and Phi, down a time grid.

    outs holds z, or z and Phi, each stacked along the grid; row 0 is
    the start at times[0] and rows 1.. are filled in.  The grid may run
    backwards.  A constant-Hessian system steps by z + S z, one S per
    distinct grid step, with no callback, and is cap-checked after the
    march; any other system calls its callback once per RK stage,
    cap-checks z step by step, and builds Phi afterwards from the stage
    Hessians (_pair_march).  Either way BlowUp names the first grid
    time past the cap.
    """
    if sys.constant_hessian is not None:
        steps, which = np.unique(np.diff(times), return_inverse=True)
        increments = [sys._increment(dt) for dt in steps]
        for out in outs:
            _propagate(out, [increments[j] for j in which.tolist()])
        _raise_past_cap(outs, times)
    elif len(outs) == 2:
        _pair_march(sys, *outs, times)
    else:
        failure = _state_march(sys._state_rhs, outs[0], times)[1]
        if failure is not None:
            raise failure


def _steps(sys: HamiltonianSystem, ts: np.ndarray,
           parts: Sequence[np.ndarray], dts: np.ndarray) -> list:
    """One RK4 step of z, or of z and Phi, from each time of ts by its dt,
    with no cap check, in one batch: parts holds the stacked starts, z
    (b, 2n) and Phi (b, 2n, 2n), and each member equals its own step bit
    for bit.

    A constant Hessian steps every member by its own S. Otherwise Phi
    takes the two phases of _pair_march: each member's z runs its stages
    through one _StageHessians buffer, then one _symmetrized and one
    _stage_increments pass build every S. A failure is raised as the
    first member in order meets it: an asymmetric stage Hessian of an
    earlier member comes before a later member's callback error.
    """
    if sys.constant_hessian is not None:
        inc = sys._increment(dts)
        return [(inc @ part[..., None])[..., 0] + part if part.ndim == 2
                else inc @ part + part for part in parts]
    if len(parts) == 1:
        return [np.array([_rk4(sys._state_rhs, t, (z,), dt)[0]
                          for t, z, dt in zip(ts, parts[0], dts)])]
    stages = _StageHessians(sys, len(dts))
    zs = []
    try:
        for t, z, dt in zip(ts, parts[0], dts):
            zs.append(_rk4(stages, t, (z,), dt)[0])
    except Exception:
        asymmetric = _symmetrized(stages.buf[:4 * len(zs)])[1]
        if asymmetric is not None:
            raise asymmetric from None
        raise
    sym, asymmetric = _symmetrized(stages.buf)
    if asymmetric is not None:
        raise asymmetric
    inc = _stage_increments(sys, sym, dts)
    return [np.array(zs), inc @ parts[1] + parts[1]]


def _step(sys: HamiltonianSystem, t: float, parts: Sequence[np.ndarray],
          dt: float) -> list:
    """One RK4 step of z, or of z and Phi, from time t: _steps of one."""
    return [part[0] for part in _steps(sys, np.array([t]),
                                       [part[None] for part in parts],
                                       np.array([dt]))]


def _initial_state(sys: HamiltonianSystem, z0) -> np.ndarray:
    z = np.asarray(z0, dtype=float)
    if z.shape != (2 * sys.n,):
        raise ValueError(f"initial state must have shape ({2 * sys.n},)")
    return z


def flow(sys: HamiltonianSystem, z0: np.ndarray, horizon: float,
         step: float = DEFAULT_STEP) -> Trajectory:
    """Fixed-step fourth-order integration of the Hamiltonian field."""
    times = _grid(horizon, step)
    states = np.empty((len(times), 2 * sys.n))
    states[0] = _initial_state(sys, z0)
    _march(sys, (states,), times)
    return Trajectory(times=times, states=states, sys=sys)


class DenseFlow:
    """Checkpointed orbit and fundamental matrix, one RK4 step between.

    Integrates over [-margin, horizon + margin], margin = max(2 REACH
    FD_STEP_FRACTION horizon, 4 step), so stencils on curves declared on
    [0, horizon] may stick out past the endpoints: a default one reaches
    half the margin. One instance backs the Jacobi curve, state reads
    and, through window(), the trajectory on [0, horizon].
    """

    def __init__(self, sys: HamiltonianSystem, z0: np.ndarray,
                 horizon: float, step: float = DEFAULT_STEP):
        _check_span(horizon, step)
        self.sys = sys
        self.horizon = float(horizon)
        self.step = step
        margin = max(2 * REACH * FD_STEP_FRACTION * self.horizon,
                     4.0 * step)
        self.t_lo, self.t_hi = -margin, self.horizon + margin
        self.times, origin = _padded_grid(self.t_lo, self.t_hi, step)
        self._origin = origin
        dim = 2 * sys.n
        self.states = np.empty((len(self.times), dim))
        self.phis = np.empty((len(self.times), dim, dim))
        self.states[origin] = _initial_state(sys, z0)
        self.phis[origin] = np.eye(dim)
        for rows in (slice(origin, None), slice(origin, None, -1)):
            _march(sys, (self.states[rows], self.phis[rows]),
                   self.times[rows])
        self._j = core.standard_space(sys.n).form

    def _at(self, t: float):
        k, dt = _checkpoint(self.times, t)
        if dt == 0.0:
            return self.states[k], self.phis[k]
        return _step(self.sys, self.times[k],
                     (self.states[k], self.phis[k]), dt)

    def state(self, t: float) -> np.ndarray:
        return self._at(t)[0]

    def gammas(self, ts) -> np.ndarray:
        """Gamma at each time of ts, stacked (b, 2n, 2n), in one batch:
        grid times read their rows of phis, and the others take _step's
        single RK4 step from the checkpoint below, all in one _steps. A
        time outside the window is refused after the times before it are
        stepped, as a loop of gamma reads would meet it."""
        ks, dts, outside = _checkpoints(self.times, ts)
        phis = self.phis[ks]
        off = np.flatnonzero(dts)
        if len(off):
            below = ks[off]
            phis[off] = _steps(self.sys, self.times[below],
                               (self.states[below], phis[off]), dts[off])[1]
        if outside is not None:
            raise outside
        return -self._j @ phis.swapaxes(-1, -2) @ self._j

    def gamma(self, t: float) -> np.ndarray:
        return self.gammas([t])[0]

    def window(self) -> Trajectory:
        """The orbit on [0, horizon], equal to flow()'s bit for bit.

        An off-grid horizon is reached by the same single step from the
        checkpoint below that flow() takes.
        """
        times = _grid(self.horizon, self.step)
        last = self._origin + len(times) - 1
        states = self.states[self._origin:last + 1].copy()
        if self.times[last] != self.horizon:
            states[-1] = _step(self.sys, times[-2], (states[-2],),
                               times[-1] - times[-2])[0]
        return Trajectory(times, states, self.sys)


def jacobi_curve(dense: DenseFlow) -> GrassmannCurve:
    """Curve traced by the fiber under backward transport along the orbit.

    Monotone decreasing whenever the xx Hessian block stays positive
    definite along the orbit. Its eval is a FrameReader: many times read
    their Gammas in one DenseFlow.gammas and their frames in one stacked
    frame check.
    """
    space = core.standard_space(dense.sys.n)
    vert = core.vertical_frame(space).columns

    def many(ts):
        return core._make_frames(space, dense.gammas(ts) @ vert)

    return GrassmannCurve(space=space,
                          eval=FrameReader(lambda t: many([t])[0], many),
                          domain=(0.0, dense.horizon))


# --------------------------------------------------------- level reduction


@dataclass
class LevelReduction:
    """Frozen Darboux realization of the quotient along one level set."""

    space: core.SymplecticSpace
    u: np.ndarray
    basis: np.ndarray
    _proj: np.ndarray

    def project(self, w: np.ndarray) -> np.ndarray:
        return self._proj @ np.asarray(w, dtype=float)

    def level_kernel(self, frame: core.LagrangianFrame) -> np.ndarray:
        """K with frame.columns @ K spanning where sigma(u, .) vanishes on
        the frame; I when it is under RANK_TOL on all of the frame."""
        return self._level_kernels(frame.space, frame.columns[None])[0]

    def _level_kernels(self, space: core.SymplecticSpace,
                       cols: np.ndarray) -> np.ndarray:
        """level_kernel for a stack of frames (b, 2n, n) of space, in one
        pass; a stack whose kernels are not all of one size is refused
        with ValueError."""
        r = (self.u @ space.form @ cols)[:, None]
        flat = np.abs(r).max(axis=(-2, -1)) <= core.RANK_TOL
        if flat.all():
            return np.broadcast_to(np.eye(r.shape[-1]), cols.shape[:1]
                                   + (r.shape[-1],) * 2)
        v, kept = core._nullspaces(r)
        if flat.any() or (kept != kept[0]).any():
            raise ValueError("level kernels of more than one size")
        return v[..., kept[0]:]

    def reduce_frame(self,
                     frame: core.LagrangianFrame) -> core.LagrangianFrame:
        """The frame's image in the quotient: reduce_frames of one."""
        return self.reduce_frames([frame])[0]

    def reduce_frames(self, frames) -> list:
        """The quotient images of the frames, in one stacked pass of
        level_kernel, span and the frame check. A stack that refuses, or
        whose level kernels are not all of one kind, is reduced frame by
        frame, so the first frame in order that fails raises its own
        error."""
        try:
            return self._reduced(frames)
        except Exception:
            if len(frames) == 1:
                raise
        return [self.reduce_frame(fr) for fr in frames]

    def _reduced(self, frames) -> list:
        cols = np.stack([fr.columns for fr in frames])
        kernels = self._level_kernels(frames[0].space, cols)
        u, dims = core._spans(self._proj @ cols @ kernels)
        if (dims != self.space.n).any():
            raise DimensionDefect(f"quotient image has dimension "
                                  f"{dims[dims != self.space.n][0]}, "
                                  f"expected {self.space.n}")
        return core._make_frames(self.space, u[..., :self.space.n])

    def reduced(self, full: GrassmannCurve) -> GrassmannCurve:
        """The curve full pushed to the quotient, on full's domain; its
        eval is a FrameReader whose many-time read reduces full.read."""
        return GrassmannCurve(
            space=self.space,
            eval=FrameReader(lambda t: self.reduce_frame(full.eval(t)),
                             lambda ts: self.reduce_frames(full.read(ts))),
            domain=full.domain)


def level_reduction(sys: HamiltonianSystem, z0: np.ndarray) -> LevelReduction:
    """Darboux basis of the symplectic quotient by the flow direction.

    Refuses one-degree-of-freedom systems (the quotient is a point) and
    trajectories whose velocity is vertical at z0, where the level set
    fails to project to the base.
    """
    n = sys.n
    if n == 1:
        raise ReductionRefused("quotient is zero-dimensional for n=1")
    z0 = np.asarray(z0, dtype=float)
    u = sys.field(z0)
    speed = np.linalg.norm(u)
    if speed <= EQUILIBRIUM_TOL * (1.0 + np.linalg.norm(z0)):
        raise TangentFiber("stationary point: the level set has no flow direction")
    if np.linalg.norm(u[n:]) <= EQUILIBRIUM_TOL * speed:
        raise TangentFiber("flow direction lies in the fiber at z0")
    sigma = core.standard_space(n).form
    v = -sigma @ u / float(u @ u)
    # rank 2 by construction (row norms |u| and 1/|u|), so no rank rule
    pool = list(np.linalg.svd(np.vstack([u @ sigma, v @ sigma]))[2][2:])
    es, fs = [], []
    while pool:
        e = pool.pop(0)
        pair = np.array([abs(e @ sigma @ w) for w in pool])
        if pair.size == 0 or pair.max() <= 1e-12:
            raise DimensionDefect("degenerate pairing in the quotient basis")
        idx = int(pair.argmax())
        f = pool.pop(idx)
        f = f / float(e @ sigma @ f)
        pool = [w - float(w @ sigma @ f) * e + float(w @ sigma @ e) * f
                for w in pool]
        es.append(e)
        fs.append(f)
    basis = np.column_stack(es + fs)
    space = core.standard_space(n - 1)
    check = basis.T @ sigma @ basis
    if np.linalg.norm(check - space.form) > 1e-9:
        raise DimensionDefect("quotient basis failed the Darboux check")
    paired = basis.T @ sigma
    half = n - 1
    proj = np.vstack([-paired[half:], paired[:half]])
    return LevelReduction(space=space, u=u, basis=basis, _proj=proj)


def reduced_jacobi_curve(dense: DenseFlow) -> GrassmannCurve:
    """Jacobi curve pushed to the quotient along the energy level of z0."""
    red = level_reduction(dense.sys, dense.state(0.0))
    return red.reduced(jacobi_curve(dense))


# -------------------------------------------------- connection and curvature


def connection_ode2(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    at: Tuple[np.ndarray, np.ndarray],
                    f_x: Optional[Callable] = None) -> np.ndarray:
    """Connection coefficients of a second-order field y'' = f(y', y).

    Half the x-Jacobian of the right side, differentiated numerically
    with step FD_STEP when no Jacobian callback is supplied.
    """
    x = np.asarray(at[0], dtype=float)
    y = np.asarray(at[1], dtype=float)
    if f_x is not None:
        return 0.5 * np.atleast_2d(np.asarray(f_x(x, y), dtype=float))
    return 0.5 * np.atleast_2d(
        core._central_difference(lambda u: f(u, y), x, FD_STEP))


def _regular_or_raise(hxx: np.ndarray):
    sv = np.linalg.svd(hxx, compute_uv=False)
    if sv[-1] <= 1e-10 * max(sv[0], 1.0):
        raise NotRegular("xx Hessian block is singular at the point")


def _point(sys: HamiltonianSystem, z: np.ndarray):
    """Field and symmetric Hessian at z, from one eval."""
    _, grad, hess = sys._eval(z)
    return sys._field_of(grad), _symmetric(hess)


def _hxx_rate(sys: HamiltonianSystem, z: np.ndarray,
              zeta: np.ndarray) -> np.ndarray:
    n = sys.n
    if sys.hxx_rate is not None:
        return np.asarray(sys.hxx_rate(z[:n], z[n:]), dtype=float)
    speed = np.linalg.norm(zeta)
    if speed == 0.0:
        return np.zeros((n, n))
    d = THIRD_FD_STEP * (1.0 + np.abs(z).max())
    return core._central_difference(lambda u: sys.hessian(u)[:n, :n], z, d,
                                    [zeta / speed])[..., 0] * speed


def connection_hamiltonian(sys: HamiltonianSystem,
                           at: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Connection matrix C from the Hessian blocks.

    Solves 2 hxx C hxx = (rate of hxx along the flow) - hxy hxx -
    hxx hyx; the result must come out symmetric, which is a structural
    consequence of the flow preserving the symplectic form.
    """
    z = np.concatenate(at, dtype=float)
    return _connection(sys, z, *_point(sys, z))


def _connection(sys: HamiltonianSystem, z: np.ndarray, zeta: np.ndarray,
                h2: np.ndarray) -> np.ndarray:
    """connection_hamiltonian at z, given the field and Hessian there."""
    n = sys.n
    hxx = h2[:n, :n]
    hxy = h2[:n, n:]
    _regular_or_raise(hxx)
    rhs = _hxx_rate(sys, z, zeta) - hxy @ hxx - hxx @ hxy.T
    half = np.linalg.solve(hxx, rhs)
    return _symmetric(0.5 * np.linalg.solve(hxx, half.T).T, "connection")


def curvature_via_brackets(sys: HamiltonianSystem,
                           at: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Curvature operator from the double-bracket formula.

    Brackets the field twice against each vertical basis direction,
    with the horizontal projection taken in the canonical connection;
    derivatives of the horizontal field are acquired by a directional
    finite difference along the flow.
    """
    z0 = np.concatenate(at, dtype=float)
    return _brackets(sys, z0, *_point(sys, z0))


def _brackets(sys: HamiltonianSystem, z0: np.ndarray, zeta0: np.ndarray,
              h2: np.ndarray) -> np.ndarray:
    """curvature_via_brackets at z0, given the field and Hessian there;
    each finite-difference point costs one more eval."""
    n = sys.n
    c0 = _connection(sys, z0, zeta0, h2)
    dzeta0 = sys._minus_j(h2)
    speed = np.linalg.norm(zeta0)

    def phi_fields(hess, cz):
        """Row i: the horizontal field over vertical direction i, from
        the Hessian and the connection at a point."""
        b = -hess[:n, :n]    # symmetric, so row i is column i
        return np.array([np.concatenate([cz.T @ row, row]) for row in b])

    def phi_at(z):
        zeta, hess = _point(sys, z)
        return phi_fields(hess, _connection(sys, z, zeta, hess))

    phi0 = phi_fields(h2, c0)
    dphi = np.zeros_like(phi0)
    if speed != 0.0:
        d = THIRD_FD_STEP * (1.0 + np.abs(z0).max())
        dphi = core._central_difference(phi_at, z0, d,
                                        [zeta0 / speed])[..., 0] * speed
    rmat = np.empty((n, n))
    for i in range(n):
        br = dphi[i] - dzeta0 @ phi0[i]
        ver = br[:n] - c0.T @ br[n:]
        rmat[:, i] = -ver
    return rmat


def curvature_operator_field(sys: HamiltonianSystem,
                             at: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Curvature operator of the field in the fiber basis: Hess U for a
    natural system (x Hessian rows [I | 0] within 1e-8), else brackets,
    which there agree at ~9x the cost (and give -0.0 for Hess U's 0)."""
    z = np.concatenate(at, dtype=float)
    return _field_curvature(sys, z, *_point(sys, z))


def _field_curvature(sys: HamiltonianSystem, z: np.ndarray, zeta: np.ndarray,
                     h2: np.ndarray) -> np.ndarray:
    """curvature_operator_field at z, given the field and Hessian there."""
    n = sys.n
    if not sys.natural:
        return _brackets(sys, z, zeta, h2)
    if np.linalg.norm(h2[:n] - np.eye(n, 2 * n)) > 1e-8:
        raise ValueError("natural system must have x Hessian rows [I | 0]")
    return h2[n:, n:].copy()


# ------------------------------------------------------------- monotonicity


def _subsample(count: int, want: int) -> np.ndarray:
    """At most want indices spread evenly over range(count), ends included."""
    return np.unique(np.linspace(0, count - 1,
                                 min(count, want)).astype(int))


@dataclass(frozen=True)
class MonotonicityReport:
    uniform_definite: bool
    sign: int


def monotonicity_test(traj: Trajectory) -> MonotonicityReport:
    """Legendre scan: the definite sign (core._definite_sign's rule) of
    the xx Hessian block at up to 201 trajectory samples, read in one
    stacked inertia pass, their common sign, or 0 when they disagree or
    one is not definite."""
    n = traj.sys.n
    blocks = np.array([core._finite(traj.sys.hessian(traj.states[k])[:n, :n])
                       for k in _subsample(len(traj.times), 201)])
    neg, _, pos = core._inertias(blocks)
    signs = set(core._definite_signs(neg, pos, n).tolist())
    sign = signs.pop() if len(signs) == 1 else 0
    return MonotonicityReport(uniform_definite=sign != 0, sign=sign)
