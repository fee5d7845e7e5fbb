"""Reference answers the benchmark checks each op against.

Everything here is plain numpy and independent of lagrass: closed forms
for constant-Hessian systems and rotating curves, the inertia of kernel
restrictions, and structural checks on projector rows.  A check returns
None when the answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

# relative tolerances, fixed before the workloads were sized
TIME_TOL = 1e-6         # conjugate times, of the horizon
FRAME_TOL = 1e-6        # Jacobi-curve projectors against expm
ENERGY_TOL = 1e-6       # flow energy drift, of 1 + |H(z0)|
EIG_TOL = 1e-6          # closed-form curvature eigenvalues, of 1 + |eig|
# finite-difference curvature of a rotating curve: truncation error is
# below 1e-3 of 1 + max omega^2 on unconjugated curves, and the known
# defects are off by more than 1, so this separates the two cleanly
CURVE_EIG_TOL = 1e-2
# transport drift, symplectic defect and propagator trace: RK4 at the
# default 200 steps per curve length stays below 1e-5 on plain curves
TRANSPORT_TOL = 1e-3
LDERIV_TOL = 1e-8       # Newton point against the KKT solve


def jstd(n: int) -> np.ndarray:
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=1).max()) if a.size else 0.0
    squarings = (max(0, int(math.ceil(math.log2(norm))) + 1)
                 if norm > 0.5 else 0)
    scaled = a / (2.0 ** squarings)
    term = np.eye(a.shape[0])
    out = term.copy()
    for k in range(1, 20):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def linear_field(hess: np.ndarray) -> np.ndarray:
    """Matrix of the Hamiltonian field x' = -H_y, y' = H_x for constant H''."""
    n = hess.shape[0] // 2
    return np.block([[-hess[n:, :n], -hess[n:, n:]],
                     [hess[:n, :n], hess[:n, n:]]])


def quadratic_hessian(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Hessian of H = x^T G x / 2 + y^T K y / 2."""
    n = g.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n], out[n:, n:] = g, k
    return out


def frequencies(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Frequencies sqrt(eig(G K)) of a positive quadratic system."""
    lam = np.sort(np.linalg.eigvals(g @ k).real)
    if lam.min() <= 0:
        raise ValueError("frequencies need G K with positive spectrum")
    return np.sqrt(lam)


def crossing_times(omegas: Sequence[float], t_lo: float, t_hi: float,
                   merge: float = 1e-9) -> List[Tuple[float, int]]:
    """Times k pi / omega_i in (t_lo, t_hi] with multiplicities."""
    times = []
    for om in omegas:
        k = 1
        while k * math.pi / om <= t_hi:
            t = k * math.pi / om
            if t > t_lo:
                times.append(t)
            k += 1
    times.sort()
    out: List[Tuple[float, int]] = []
    for t in times:
        if out and abs(t - out[-1][0]) <= merge * max(1.0, t):
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((t, 1))
    return out


def distance_to_crossings(omegas, t: float) -> float:
    """Distance from t to the nearest k pi / omega_i, k >= 0."""
    return min(abs(t - round(t * om / math.pi) * math.pi / om)
               for om in omegas)


def inertia(mat: np.ndarray, tol: float = 1e-9) -> Tuple[int, int, int]:
    """(neg, zero, pos) of a symmetric matrix, zero threshold relative."""
    if mat.size == 0:
        return 0, 0, 0
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    thr = tol * max(np.abs(eigs).max(), 1e-300)
    neg, pos = int((eigs < -thr).sum()), int((eigs > thr).sum())
    return neg, len(eigs) - neg - pos, pos


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal right nullspace of a full-row-rank matrix, by QR."""
    m, d = mat.shape
    q, _ = np.linalg.qr(mat.T, mode="complete")
    return q[:, m:d]


def projector(cols: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(cols)
    return q @ q.T


def jacobi_projector(field: np.ndarray, t: float) -> np.ndarray:
    """Projector onto the Jacobi-curve point Phi(t)^-1 (vertical)."""
    n = field.shape[0] // 2
    phi = expm(field * t)
    j = jstd(n)
    gamma = -j @ phi.T @ j
    return projector(gamma[:, :n])


# ------------------------------------------------------------ comparisons


def near(got, want, tol: float, what: str) -> Optional[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    if not np.all(np.isfinite(got)):
        return f"{what}: non-finite value"
    err = float(np.abs(got - want).max()) if got.size else 0.0
    if err > tol:
        return f"{what}: off by {err:.3g} (tol {tol:.3g})"
    return None


def same_crossings(rows: np.ndarray, want: List[Tuple[float, int]],
                   scale: float) -> Optional[str]:
    """Compare (t, multiplicity) rows with the expected crossing list."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 2)
    if len(rows) != len(want):
        return (f"{len(rows)} crossings, expected {len(want)} "
                f"(got {np.round(rows[:, 0], 4).tolist()}, "
                f"want {[round(t, 4) for t, _ in want]})")
    for (t, mult), (wt, wm) in zip(rows, want):
        if abs(t - wt) > TIME_TOL * scale:
            return f"crossing at {t:.9g}, expected {wt:.9g}"
        if int(round(mult)) != wm:
            return f"multiplicity {int(mult)} at t={t:.6g}, expected {wm}"
    return None


def lagrangian_projector_rows(rows: np.ndarray, n: int,
                              tol: float = 1e-8) -> Optional[str]:
    """Each row is a flattened orthogonal projector onto a Lagrangian plane."""
    j = jstd(n)
    for row in rows:
        p = np.asarray(row, dtype=float).reshape(2 * n, 2 * n)
        if not np.all(np.isfinite(p)):
            return "non-finite projector entry"
        if np.abs(p - p.T).max() > tol or np.abs(p @ p - p).max() > tol:
            return "row is not an orthogonal projector"
        if abs(np.trace(p) - n) > tol:
            return f"projector rank {np.trace(p):.6g}, expected {n}"
        if np.abs(p @ j @ p).max() > tol:
            return "projected plane is not Lagrangian"
    return None


def poly_value(terms, z) -> float:
    """Value of sum c * prod z^e over (coeff, exponents) terms."""
    z = np.asarray(z, dtype=float)
    return float(sum(c * np.prod(z ** np.asarray(e, dtype=float))
                     for c, e in terms))


def poly_hessian(terms, z) -> np.ndarray:
    """Exact Hessian of a polynomial given by monomial terms."""
    z = np.asarray(z, dtype=float)
    d = len(z)
    out = np.zeros((d, d))
    for c, e in terms:
        e = np.asarray(e, dtype=float)
        for i in range(d):
            for j in range(d):
                f = e.copy()
                coef = c * f[i]
                f[i] -= 1
                coef *= f[j]
                f[j] -= 1
                if coef != 0.0:
                    out[i, j] += coef * np.prod(z ** f)
    return out
