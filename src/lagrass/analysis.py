"""Orbit-level analyses assembled from flows, curves and index counts.

Four consumers of the lower layers live here, and each reads the one
orbit its caller integrated. comparison_check samples the curvature
operator along an orbit and confronts the conjugate-point spacing with
the sqrt-of-curvature bounds: spacings are bounded below through the
largest eigenvalue and a window bound through the mean of the trace
forces a conjugate time when the latter stays positive.
certify_negative_curvature issues hyperbolicity certificates, either
through reduced curvature along one energy level, given a DenseFlow, or
through full curvature plus linearization spectra of any equilibria the
orbit lands on, given the Trajectory of flow(). morse_pipeline packages
the Legendre sign scan, the conjugate-point sweep and a trimmed-interval
index computation, cross-checking the two counts against each other.
reduction_comparison measures index and curvature-form gaps between a
Jacobi curve and its energy-level reduction in a shared basis of the
common subspace. No analysis reads a Jacobi frame twice: the scans of
one curve share one curve.cached memo of its frames, and a scan reads
its many times in stacked passes.

All sampled verdicts are certificates about the sample grid, not
proofs; the margins and filters below keep the honest failure modes
(refusal, exception) ahead of silently wrong answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from . import core, maslov
from .curve import (FrameReader, GrassmannCurve, _curvature_form, _stencils,
                    cached, curvatures)
from .errors import NotMonotone, TangentFiber
from .hamflow import (
    EQUILIBRIUM_TOL,
    DenseFlow,
    Trajectory,
    _field_curvature,
    _point,
    _subsample,
    jacobi_curve,
    level_reduction,
    monotonicity_test,
    reduced_jacobi_curve,
)

CURVATURE_SAMPLES = 48
REDUCED_SAMPLES = 17
NEGATIVITY_MARGIN = 1e-6   # scaled by 1 + Hessian norm
GRAZE_TOL = 0.05           # flow direction vs curve, smallest sine
NOISE_TOL = 1e-5           # step-halving drift that disqualifies a sample
CONGRUENCE_TOL = 1e-6


def _orbit_curvature(traj: Trajectory, count: int):
    """Extreme eigenvalue and trace statistics over sampled states."""
    sys = traj.sys
    idx = _subsample(len(traj.states), count)
    eig_hi, tr_lo, hess_hi = -math.inf, math.inf, 0.0
    for k in idx:
        z = traj.states[k]
        zeta, h2 = _point(sys, z)
        r = _field_curvature(sys, z, zeta, h2)
        eigs = np.linalg.eigvals(r).real
        eig_hi = max(eig_hi, float(eigs.max()))
        tr_lo = min(tr_lo, float(np.trace(r)) / sys.n)
        hess_hi = max(hess_hi, float(np.linalg.norm(h2, 2)))
    return eig_hi, tr_lo, hess_hi


# ----------------------------------------------------------- spacing bounds


@dataclass(frozen=True)
class ComparisonReport:
    """Conjugate spacings of one orbit against its curvature bounds.

    The spacing ladder starts at the initial time (the curve begins on
    the train); min_gap ignores the trailing stub to the horizon while
    the window check includes it.
    """

    eig_upper: float
    trace_lower: float
    min_gap: float
    bound_gap: float
    bound_hit: float
    conjugate_times: Tuple[float, ...]
    multiplicities: Tuple[int, ...]
    gap_bound_ok: bool
    window_bound_ok: bool


def comparison_check(dense: DenseFlow) -> ComparisonReport:
    horizon, step = dense.horizon, dense.step
    jc = jacobi_curve(dense)
    eig_hi, tr_lo, _ = _orbit_curvature(dense.window(), CURVATURE_SAMPLES)
    pts = maslov.conjugate_points(jc, core.vertical_frame(jc.space))
    times = [p.t for p in pts]
    bound_gap = math.pi / math.sqrt(eig_hi) if eig_hi > 0 else math.inf
    bound_hit = math.pi / math.sqrt(tr_lo) if tr_lo > 0 else math.inf
    lead = np.diff(np.concatenate([[0.0], times]))
    min_gap = float(lead.min()) if times else math.inf
    windows = np.diff(np.concatenate([[0.0], times, [horizon]]))
    window_ok = tr_lo <= 0 or float(windows.max()) <= bound_hit + step
    return ComparisonReport(
        eig_upper=eig_hi, trace_lower=tr_lo, min_gap=min_gap,
        bound_gap=bound_gap, bound_hit=bound_hit,
        conjugate_times=tuple(times),
        multiplicities=tuple(p.multiplicity for p in pts),
        gap_bound_ok=min_gap >= bound_gap - step,
        window_bound_ok=window_ok)


# ------------------------------------------------------------- certificates


@dataclass(frozen=True)
class EquilibriumInfo:
    z: np.ndarray
    spectrum: np.ndarray
    hyperbolic: bool


@dataclass(frozen=True)
class HyperbolicityCertificate:
    kind: str                  # reduced_flow | equilibrium_set
    max_eig: float
    alpha_estimate: float
    verdict: bool
    margin: float
    diagnostics: Tuple[str, ...]
    equilibria: Tuple[EquilibriumInfo, ...] = ()


def _find_equilibria(traj: Trajectory):
    """Orbit states where the field vanishes, one entry per cluster."""
    sys = traj.sys
    if len(traj.times) < 2:
        return []
    speeds = np.linalg.norm(np.diff(traj.states, axis=0), axis=1) \
        / np.diff(traj.times)
    speeds = np.append(speeds, speeds[-1])
    sizes = 1.0 + np.linalg.norm(traj.states, axis=1)
    coarse = np.nonzero(speeds < 1e-5 * sizes)[0]
    clusters = []
    for k in coarse:
        z = traj.states[k]
        resid = np.linalg.norm(sys.field(z))
        if resid > EQUILIBRIUM_TOL * sizes[k]:
            continue
        for cl in clusters:
            if np.linalg.norm(z - cl["z"]) <= 1e-6 * sizes[k]:
                if resid < cl["resid"]:
                    cl["z"], cl["resid"] = z, resid
                break
        else:
            clusters.append({"z": z, "resid": resid})
    out = []
    for cl in clusters:
        spec = np.linalg.eigvals(sys.linearization(cl["z"]))
        floor = core.RANK_TOL * (1.0 + float(np.abs(spec).max()))
        out.append(EquilibriumInfo(z=cl["z"], spectrum=spec,
                                   hyperbolic=bool(
                                       np.abs(spec.real).min() > floor)))
    return out


def certify_negative_curvature(orbit: Union[DenseFlow, Trajectory]
                               ) -> HyperbolicityCertificate:
    """Negative-curvature certificate along one orbit.

    The mode follows the orbit's type. A DenseFlow gives the reduced
    certificate: the eigenvalues come from the energy-level reduction
    of the Jacobi curve, whose curvature at parameter t is conjugate to
    the reduced operator at the transported point. A Trajectory, as
    flow() returns it, gives the full certificate: the full operator is
    sampled pointwise and any equilibria the orbit reaches must have
    linearization spectra clear of the imaginary axis. The full mode
    reads states only, so flow() integrates the state alone, which
    stays under the norm cap where the fundamental matrix may not.
    """
    diagnostics = []
    equilibria: Tuple[EquilibriumInfo, ...] = ()
    alpha = math.nan
    if isinstance(orbit, DenseFlow):
        rc = reduced_jacobi_curve(orbit)
        states = orbit.window().states
        hess_hi = max(float(np.linalg.norm(orbit.sys.hessian(z), 2))
                      for z in states[_subsample(len(states), 33)])
        max_eig = -math.inf
        for op in curvatures(rc, np.linspace(0.0, orbit.horizon,
                                             REDUCED_SAMPLES)):
            eigs = np.linalg.eigvals(op.matrix).real
            max_eig = max(max_eig, float(eigs.max()))
        kind = "reduced_flow"
        diagnostics.append(
            f"reduced curvature over {REDUCED_SAMPLES} samples "
            f"peaks at {max_eig:.6g}")
        eq_ok = True
    else:
        max_eig, _, hess_hi = _orbit_curvature(orbit, CURVATURE_SAMPLES)
        kind = "equilibrium_set"
        diagnostics.append(
            f"curvature over {CURVATURE_SAMPLES} samples "
            f"peaks at {max_eig:.6g}")
        equilibria = tuple(_find_equilibria(orbit))
        if equilibria:
            alpha = min(float(np.abs(eq.spectrum.real).min())
                        for eq in equilibria)
            for eq in equilibria:
                diagnostics.append(
                    f"equilibrium |z| = {np.linalg.norm(eq.z):.3g}: "
                    f"min |Re| = {np.abs(eq.spectrum.real).min():.6g}, "
                    f"{'hyperbolic' if eq.hyperbolic else 'degenerate'}")
        else:
            diagnostics.append("no equilibria detected along the orbit")
        eq_ok = all(eq.hyperbolic for eq in equilibria)
    margin = NEGATIVITY_MARGIN * (1.0 + hess_hi)
    return HyperbolicityCertificate(
        kind=kind, max_eig=max_eig, alpha_estimate=alpha,
        verdict=bool(max_eig < -margin and eq_ok), margin=margin,
        diagnostics=tuple(diagnostics), equilibria=equilibria)


def decay_rate(traj: Trajectory) -> float:
    """Exponential rate fitted to |z(t)| by least squares, positive
    for decay.

    The fit window drops the leading fifth of the time span, a
    transient, and every norm below 1e-6 (1 + |z(0)|), where rounding
    feeds the unstable branch.
    """
    norms = np.linalg.norm(traj.states, axis=1)
    start = traj.times[0] + 0.2 * (traj.times[-1] - traj.times[0])
    mask = (traj.times >= start) & (norms > 1e-6 * (1.0 + norms[0]))
    if int(mask.sum()) < 8:
        raise ValueError("too few samples above the floor for a rate fit")
    slope = np.polyfit(traj.times[mask], np.log(norms[mask]), 1)[0]
    return -float(slope)


# ------------------------------------------------------------ Morse pipeline


@dataclass(frozen=True)
class MorsePipeline:
    index: int
    conjugate_points: Tuple[maslov.ConjugatePoint, ...]
    legendre: object
    trimmed_maslov: int
    trim: float


def morse_pipeline(dense: DenseFlow,
                   trim: Optional[float] = None) -> MorsePipeline:
    """Morse index of the extremal plus its cross-checks.

    The index is the multiplicity sum of the points of
    maslov._extremal_scan, the scan morse_index_regular_extremal runs;
    the same number must come back (up to the monotonicity sign) from the
    intersection index over a trimmed interval, computed with charts
    and no conjugate-point machinery. Disagreement raises instead of
    picking a side.
    """
    horizon = dense.horizon
    legendre = monotonicity_test(dense.window())
    if not legendre.uniform_definite:
        raise NotMonotone("the fiber Hessian changes type along the orbit")
    jc, train, pts = maslov._extremal_scan(jacobi_curve(dense))
    index = int(sum(p.multiplicity for p in pts))
    first = pts[0].t if pts else horizon
    if trim is None:
        trim = 0.01 * horizon
    if not 0.0 < trim < first:
        raise ValueError(f"trim {trim:g} must fall before the first "
                         f"conjugate time {first:g}")
    sub = GrassmannCurve(space=jc.space, eval=jc.eval, domain=(trim, horizon))
    rep = maslov.maslov_index(sub, train)
    expected = -legendre.sign * index
    if rep.value != expected:
        raise ArithmeticError(
            f"trimmed index {rep.value} disagrees with conjugate "
            f"count {index}")
    return MorsePipeline(index=index, conjugate_points=tuple(pts),
                         legendre=legendre, trimmed_maslov=rep.value,
                         trim=trim)


# --------------------------------------------------------- reduction bounds


@dataclass(frozen=True)
class ReductionComparison:
    """Index and curvature-form gaps between a curve and its reduction.

    Indices are intersection counts of the time-reversed (monotone
    increasing) curves over a trimmed interval. dominance_defect is the
    most negative eigenvalue of reduced-minus-restricted curvature
    forms in the shared basis, scaled; rank_excess the scaled
    second-largest magnitude, both over the reliable samples.  Both are
    stencil residues: third differences of curvature_form at the
    curve's fd_step leave about 1e-8 on n = 3 orbits, and a last-bit
    change in the orbit moves them by up to ~2.4e-9.
    """

    mu_full: int
    mu_reduced: int
    dominance_defect: float
    rank_excess: float
    graze_margin: float
    samples: Tuple[float, ...]


def reduction_comparison(dense: DenseFlow,
                         trim: Optional[float] = None) -> ReductionComparison:
    """Compare a Jacobi curve with its energy-level reduction.

    Refuses orbits whose velocity direction grazes the curve: the
    reduced curve then develops boundary layers faster than any sample
    schedule, and the comparison would certify garbage. Nine curvature-form
    samples validate themselves by step halving; samples whose forms
    drift are dropped.
    """
    horizon = dense.horizon
    if trim is None:
        trim = 0.05 * horizon
    jc = cached(jacobi_curve(dense))
    red = level_reduction(dense.sys, dense.state(0.0))
    rc = cached(red.reduced(jc))
    uhat = red.u / np.linalg.norm(red.u)
    graze = math.inf
    for frame in jc.read(np.linspace(0.0, horizon, 129)):
        cols = frame.columns
        graze = min(graze,
                    float(np.linalg.norm(uhat - cols @ (cols.T @ uhat))))
    if graze < GRAZE_TOL:
        raise TangentFiber(
            f"flow direction grazes the curve (margin {graze:.3g}); "
            "the reduction is numerically unresolvable")

    def reversed_curve(c):
        return GrassmannCurve(
            space=c.space,
            eval=FrameReader(lambda u: c.eval(trim + horizon - u),
                             lambda us: c.read(trim + horizon
                                               - np.asarray(us, dtype=float))),
            domain=(trim, horizon))

    vert = core.vertical_frame(jc.space)
    rvert = red.reduce_frame(vert)
    rev_full = reversed_curve(jc)
    rev_red = reversed_curve(rc)
    mu_full = maslov.maslov_index(rev_full, vert, seed=0).value
    mu_red = maslov.maslov_index(rev_red, rvert, seed=0).value
    check = maslov.maslov_index(rev_red, rvert, seed=1).value
    if check != mu_red:
        raise ArithmeticError(
            f"reduced index unstable across chart schedules "
            f"({mu_red} vs {check})")

    span = horizon - trim

    # rev_red has rev_full's domain, hence its default step
    half = 0.5 * rev_full.fd_step
    ts = np.linspace(trim + 0.05 * span, horizon - 0.05 * span, 9)
    # each curve's nine stencils are read in one block; a failed stencil
    # raises when the loop below reaches it
    full1, red1, full2, red2 = (
        list(_stencils(c, ts)) for c in (
            rev_full, rev_red, replace(rev_full, fd_step=half),
            replace(rev_red, fd_step=half)))

    def shared_forms(stencil_full, stencil_red):
        cf = _curvature_form(stencil_full)
        cr = _curvature_form(stencil_red)
        frame = stencil_full.chart.pi_frame   # the stencil's centre, at t
        w = frame.columns @ red.level_kernel(frame)
        c_f, *_ = np.linalg.lstsq(cf.basis, w, rcond=None)
        c_r, *_ = np.linalg.lstsq(cr.basis, red.project(w), rcond=None)
        return c_f.T @ cf.form @ c_f, c_r.T @ cr.form @ c_r

    kept, worst_min, worst_second = [], 0.0, 0.0
    for i, t in enumerate(ts):
        mf1, mr1 = shared_forms(full1[i], red1[i])
        mf2, mr2 = shared_forms(full2[i], red2[i])
        scale = 1.0 + max(np.linalg.norm(mf2), np.linalg.norm(mr2))
        drift = (np.linalg.norm(mf1 - mf2)
                 + np.linalg.norm(mr1 - mr2)) / scale
        if drift > NOISE_TOL:
            continue
        eigs = np.sort(np.linalg.eigvalsh(mr2 - mf2))
        kept.append(float(t))
        worst_min = min(worst_min, float(eigs[0]) / scale)
        if len(eigs) > 1:
            worst_second = max(
                worst_second, float(np.sort(np.abs(eigs))[-2]) / scale)
    if len(kept) < 3:
        raise ArithmeticError(
            "too few curvature samples survived the step-halving filter")
    return ReductionComparison(mu_full=mu_full, mu_reduced=mu_red,
                               dominance_defect=worst_min,
                               rank_excess=worst_second,
                               graze_margin=graze, samples=tuple(kept))
