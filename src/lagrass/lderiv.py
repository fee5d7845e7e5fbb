"""Constrained critical points and their phase-space linearizations.

A finite-dimensional variational problem is a scalar objective together
with a vector constraint map.  At a critical point of the objective
restricted to a level set of the constraint, the second-order data is a
pair (A, Q): the constraint Jacobian and the multiplier-corrected
Hessian.  This module extracts that pair, restricts the Hessian to the
constraint kernel, and maps the pair to a Lagrangian subspace of the
standard symplectic space on the constraint target,

    L(A, Q) = {(zeta, A v) : zeta A + v^T Q = 0},

whose position relative to the fiber {(zeta, 0)} mirrors the
degeneracy of the restricted Hessian.  Index deltas along parametric
families are computed by running the intersection count of
:mod:`lagrass.maslov` over the resulting curve of subspaces and are
cross-checked against direct inertia bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import core
from .curve import GrassmannCurve
from .errors import DimensionDefect, EndpointDegenerate, RankDrop
from .maslov import maslov_index

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 60
FD_STEP = 1e-6


# --------------------------------------------------------------- the problem


@dataclass
class FiniteProblem:
    """Objective and constraint with optional analytic derivatives.

    Derivative callbacks left as None are replaced by the differences of
    :mod:`lagrass.core`, with step ``FD_STEP`` scaled by the point.
    The ``fd_fallback`` flag records that substitution so reports can
    mark derived quantities as approximate.
    """

    dim_w: int
    m: int
    j_value: Callable[[np.ndarray], float]
    phi_value: Callable[[np.ndarray], np.ndarray]
    j_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    j_hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    phi_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    phi_hess: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def fd_fallback(self) -> bool:
        return any(cb is None for cb in
                   (self.j_grad, self.j_hess, self.phi_jac, self.phi_hess))

    def _h(self, w: np.ndarray) -> float:
        return FD_STEP * (1.0 + float(np.abs(w).max(initial=0.0)))

    def grad_j(self, w: np.ndarray) -> np.ndarray:
        if self.j_grad is not None:
            return np.asarray(self.j_grad(w), dtype=float)
        return core._central_difference(self.j_value, w, self._h(w))

    def hess_j(self, w: np.ndarray) -> np.ndarray:
        if self.j_hess is not None:
            mat = np.asarray(self.j_hess(w), dtype=float)
            return 0.5 * (mat + mat.T)
        return core._mixed_difference(self.j_value, w, self._h(w))

    def jac_phi(self, w: np.ndarray) -> np.ndarray:
        if self.phi_jac is not None:
            return np.atleast_2d(np.asarray(self.phi_jac(w), dtype=float))
        return np.atleast_2d(
            core._central_difference(self.phi_value, w, self._h(w)))

    def hess_phi(self, w: np.ndarray) -> np.ndarray:
        """Stack of component Hessians, shape (m, dim_w, dim_w)."""
        if self.phi_hess is not None:
            ten = np.asarray(self.phi_hess(w), dtype=float)
            return 0.5 * (ten + np.swapaxes(ten, 1, 2))
        ten = core._mixed_difference(self.phi_value, w, self._h(w))
        return ten.reshape(self.m, self.dim_w, self.dim_w)

    def corrected_hessian(self, w: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        """Objective Hessian minus the multiplier-weighted constraint one."""
        mat = self.hess_j(w) - np.tensordot(np.asarray(zeta, dtype=float),
                                            self.hess_phi(w), axes=1)
        return 0.5 * (mat + mat.T)


@dataclass(frozen=True)
class LagrangianPoint:
    """Candidate critical point with its row of multipliers."""

    w: np.ndarray
    zeta: np.ndarray


def stationarity_residual(problem: FiniteProblem,
                          point: LagrangianPoint) -> float:
    """Norm of zeta d(phi) - dJ at the point; a non-finite one is refused."""
    r = point.zeta @ problem.jac_phi(point.w) - problem.grad_j(point.w)
    return float(core._finite(np.linalg.norm(r), "stationarity residual"))


def lagrangian_point(problem: FiniteProblem,
                     w0: np.ndarray,
                     zeta0: np.ndarray,
                     target: np.ndarray) -> LagrangianPoint:
    """Damped Newton refinement of the multiplier equations, with the
    constraint value pinned at ``target``.

    Raises ValueError when the residual fails to reach ``NEWTON_TOL``
    within ``NEWTON_MAX_ITER`` iterations.
    """
    w = np.asarray(w0, dtype=float).copy()
    zeta = np.asarray(zeta0, dtype=float).copy()

    def residual(w_, zeta_):
        a_ = problem.jac_phi(w_)
        r = zeta_ @ a_ - problem.grad_j(w_)
        return np.concatenate([r, np.asarray(problem.phi_value(w_),
                                             dtype=float) - target]), a_

    r, a = residual(w, zeta)
    for _ in range(NEWTON_MAX_ITER):
        norm = np.linalg.norm(r)
        if norm <= NEWTON_TOL:
            return LagrangianPoint(w=w, zeta=zeta)
        q = problem.corrected_hessian(w, zeta)
        jac = np.vstack([np.hstack([-q, a.T]),
                         np.hstack([a, np.zeros((problem.m, problem.m))])])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam = 1.0
        while True:
            w_try = w + lam * step[:problem.dim_w]
            z_try = zeta + lam * step[problem.dim_w:]
            r_try, a_try = residual(w_try, z_try)
            if np.linalg.norm(r_try) <= (1.0 - 0.25 * lam) * norm:
                break
            lam *= 0.5
            if lam < 1e-8:
                break
        w, zeta, r, a = w_try, z_try, r_try, a_try
    if np.linalg.norm(r) <= NEWTON_TOL:
        return LagrangianPoint(w=w, zeta=zeta)
    raise ValueError(
        f"no stationary point within {NEWTON_MAX_ITER} iterations, "
        f"residual {np.linalg.norm(r):.3e}")


# ---------------------------------------------------------- second variation


@dataclass(frozen=True)
class LDerivData:
    """Constraint Jacobian A and corrected Hessian Q at a critical point."""

    A: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(core._finite(self.A, "A"))
        q = np.atleast_2d(core._finite(self.Q, "Q"))
        if q.shape[0] != q.shape[1] or a.shape[1] != q.shape[0]:
            raise ValueError("incompatible shapes for A and Q")
        skew = np.linalg.norm(q - q.T)
        if skew > 1e-8 * (1.0 + np.linalg.norm(q)):
            raise ValueError(f"Q not symmetric, defect {skew:.3e}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "Q", 0.5 * (q + q.T))

    @property
    def m(self) -> int:
        return self.A.shape[0]


def lderiv_data(problem: FiniteProblem, point: LagrangianPoint) -> LDerivData:
    return LDerivData(A=problem.jac_phi(point.w),
                      Q=problem.corrected_hessian(point.w, point.zeta))


def _kernel_restriction(data: LDerivData) -> np.ndarray:
    """Q restricted to ker A. A rank-deficient A is refused: the
    multiplier rule itself degenerates there."""
    rank = core.rank(data.A)
    if rank < data.m:
        raise RankDrop("constraint Jacobian is rank deficient "
                       f"(rank {rank} < {data.m})")
    k = core.nullspace(data.A)
    return k.T @ data.Q @ k


def hessian_on_kernel(problem: FiniteProblem,
                      point: LagrangianPoint) -> core.QuadraticForm:
    """Corrected Hessian restricted to the constraint kernel."""
    mat = _kernel_restriction(lderiv_data(problem, point))
    return core.QuadraticForm(dim=mat.shape[0], matrix=mat)


def l_derivative(data: LDerivData) -> core.LagrangianFrame:
    """Lagrangian subspace attached to the pair (A, Q).

    Solutions (zeta, v) of zeta A + v^T Q = 0 are pushed to phase
    space as (zeta, A v).  The image is Lagrangian whenever it has the
    full dimension m; a computed shortfall signals that the kernel
    extraction lost directions to cancellation.
    """
    m = data.m
    null = core.nullspace(np.hstack([data.A.T, data.Q]))
    zeta = null[:m]
    v = null[m:]
    cols = core.span(np.vstack([zeta, data.A @ v]))
    if cols.shape[1] != m:
        raise DimensionDefect(
            f"solution space maps to dimension {cols.shape[1]}, expected {m}")
    return core.make_frame(core.standard_space(m), cols)


@dataclass(frozen=True)
class DualityCheck:
    hessian_nondegenerate: bool
    transversal_to_fiber: bool
    kernel: core.Inertia  # of Q restricted to ker A
    frame: core.LagrangianFrame  # L(A, Q)


def duality_check(data: LDerivData) -> DualityCheck:
    """Both sides of the degeneracy correspondence, computed separately.

    dim(L(A, Q) meet fiber) = dim ker(Q on ker A) - dim(ker A meet ker Q),
    so nondegeneracy of the kernel restriction and transversality of
    L(A, Q) to the fiber are equivalent when ker A and ker Q meet only in
    0. Verdicts that disagree raise ArithmeticError: where ker A meets
    ker Q (A = [[1, 0, 0]] with Q = diag(1, 0, 3)), its text states that
    dimension; elsewhere a rank rule misjudged a badly scaled pair. Both
    booleans are returned so tests confirm the equivalence, not assume
    it.
    """
    kernel = core.inertia(_kernel_restriction(data))
    nondeg = kernel.zero == 0
    frame = l_derivative(data)
    fiber = core.vertical_frame(core.standard_space(data.m))
    trans = core.intersection_dim(frame, fiber) == 0
    if nondeg != trans:
        # a kernel shared by A and Q can only split the verdicts this way
        shared = 0 if nondeg else core.nullspace(
            np.vstack([data.A, data.Q])).shape[1]
        raise ArithmeticError(
            f"duality disagrees: hessian_nondegenerate={nondeg}, "
            f"transversal_to_fiber={trans}"
            + (f"; dim(ker A meet ker Q) = {shared}, so L(A, Q) stays "
               "transversal to the fiber while Q on ker A is singular"
               if shared else ""))
    return DualityCheck(hessian_nondegenerate=nondeg,
                        transversal_to_fiber=trans, kernel=kernel,
                        frame=frame)


def family_index_delta(family: Callable[[float], LDerivData],
                       tau0: float,
                       tau1: float) -> int:
    """Drop in the restricted-Hessian index across a parameter interval.

    The family is mapped to a curve of Lagrangian subspaces and the
    intersection count with the fiber is accumulated; the result is
    cross-checked against the endpoint inertias and must match, so a
    family that violates the continuity assumptions in between raises
    instead of returning a silently wrong integer.
    """
    tau0, tau1 = float(tau0), float(tau1)
    pairs, ends = [], []
    for tau in (tau0, tau1):
        pairs.append(family(tau))
        ine = core.inertia(_kernel_restriction(pairs[-1]))
        if ine.zero:
            raise EndpointDegenerate(
                f"restricted Hessian singular at tau={tau:g}")
        ends.append(ine.neg)
    space = core.standard_space(pairs[0].m)
    # the count reads the endpoint pairs built above, not new ones
    known = dict(zip((tau0, tau1), pairs))
    curve = GrassmannCurve(
        space=space, domain=(tau0, tau1),
        eval=lambda tau: l_derivative(known[tau] if tau in known
                                      else family(tau)))
    report = maslov_index(curve, core.vertical_frame(space))
    direct = ends[0] - ends[1]
    if report.value != direct:
        raise ArithmeticError(
            f"intersection count {report.value} disagrees with endpoint "
            f"inertia drop {direct}")
    return report.value
