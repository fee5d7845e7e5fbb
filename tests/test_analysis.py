"""Tests for orbit-level analyses: spacing bounds, certificates, pipelines.

Closed forms and values frozen before implementation:
  * isotropic oscillator, curvature I: conjugate ladder k pi (double
    multiplicity for n=2), spacing bound pi, trace bound pi;
  * inverted oscillator, curvature -I: no conjugate points, infinite
    bounds; equilibrium at the origin with linearization spectrum
    {-1, -1, 1, 1}; bounded semi-trajectories live on x = -y and decay
    at unit rate;
  * K = diag(4, 1): crossings at k pi/2 with multiplicity 1, 2, 1, 2;
    smallest spacing pi/2 = pi/sqrt(4); trace bound pi/sqrt(5/2);
  * K = diag(2.25, 4) concave well: mixed stable data decays at the
    slowest-mode rate sqrt(2.25) = 1.5 (measured 1.5036 at horizon 12);
  * reduced inverted oscillator from (1, .3, .2, -.4): curvature samples
    in [-1, -0.3] (floor -1 is the restriction comparison bound), while
    the plain oscillator reduces to curvature samples above +0.5;
  * seeded wells K = A A^T + 0.3 I: full/reduced index pairs frozen at
    (1, 1) for seed 7 (n=2) and (3, 4) for seed 11 (n=3).
"""

import dataclasses
import math

import numpy as np
import pytest

from lagrass import analysis, core, hamflow, maslov
from lagrass.errors import (
    DegenerateEndpoint,
    NotMonotone,
    ReductionRefused,
    TangentFiber,
)


def oscillator(n=1, k_mat=None):
    if k_mat is None:
        k_mat = np.eye(n)
    return hamflow.quadratic_potential_system(np.asarray(k_mat, dtype=float))


def saddle_system():
    terms = [(1.0, (1, 1, 0, 0)), (0.5, (0, 0, 2, 0)), (0.5, (0, 0, 0, 2))]
    return hamflow.polynomial_system(2, terms)


def seeded_well(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    k = a @ a.T + 0.3 * np.eye(n)
    return oscillator(n, k), rng.standard_normal(2 * n)


# ------------------------------------------------------------- spacing bounds


def test_comparison_isotropic_sharp():
    rep = analysis.comparison_check(hamflow.DenseFlow(
        oscillator(2), np.array([0.7, -0.4, 1.1, 0.5]), horizon=7.0,
        step=1e-3))
    assert rep.eig_upper == pytest.approx(1.0, abs=1e-12)
    assert rep.trace_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.bound_gap == pytest.approx(np.pi, abs=1e-12)
    assert rep.bound_hit == pytest.approx(np.pi, abs=1e-12)
    assert rep.multiplicities == (2, 2)
    assert np.allclose(rep.conjugate_times, [np.pi, 2.0 * np.pi], atol=2e-3)
    assert abs(rep.min_gap - np.pi) <= 1e-3
    assert rep.gap_bound_ok and rep.window_bound_ok


def test_comparison_inverted_no_conjugates():
    rep = analysis.comparison_check(hamflow.DenseFlow(
        oscillator(2, -np.eye(2)), np.array([0.7, -0.4, 1.1, 0.5]),
        horizon=8.0, step=1e-3))
    assert rep.conjugate_times == ()
    assert rep.eig_upper == pytest.approx(-1.0, abs=1e-12)
    assert math.isinf(rep.min_gap)
    assert math.isinf(rep.bound_gap)
    assert math.isinf(rep.bound_hit)
    assert rep.gap_bound_ok and rep.window_bound_ok


def test_comparison_anisotropic_trace_window():
    rep = analysis.comparison_check(hamflow.DenseFlow(
        oscillator(2, np.diag([4.0, 1.0])), np.array([0.7, -0.4, 1.1, 0.5]),
        horizon=7.0, step=1e-3))
    assert rep.bound_gap == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert rep.bound_hit == pytest.approx(np.pi / np.sqrt(2.5), abs=1e-12)
    assert abs(rep.min_gap - np.pi / 2.0) <= 1e-6
    expected = [(0.5 * np.pi, 1), (np.pi, 2), (1.5 * np.pi, 1), (2.0 * np.pi, 2)]
    assert rep.multiplicities == tuple(m for _, m in expected)
    assert np.allclose(rep.conjugate_times, [t for t, _ in expected], atol=2e-3)
    assert rep.gap_bound_ok and rep.window_bound_ok


def test_comparison_requires_monotone_curve():
    dense = hamflow.DenseFlow(saddle_system(),
                              np.array([0.4, 0.3, 0.2, 0.1]),
                              horizon=1.0, step=1e-3)
    with pytest.raises(NotMonotone):
        analysis.comparison_check(dense)


def test_comparison_samples_the_states_flow_returns():
    # the off-grid horizon ends flow() one short step past the last
    # checkpoint, and the curvature scan samples that end state too
    sysn = hamflow.polynomial_system(
        1, [(0.5, (2, 0)), (1.0, (0, 2)), (0.3, (0, 4))])
    z0, horizon, step = np.array([0.4, 0.9]), 1.005, 1e-2
    rep = analysis.comparison_check(hamflow.DenseFlow(sysn, z0, horizon, step))
    eig_hi, tr_lo, _ = analysis._orbit_curvature(
        hamflow.flow(sysn, z0, horizon, step), analysis.CURVATURE_SAMPLES)
    assert (rep.eig_upper, rep.trace_lower) == (eig_hi, tr_lo)


# --------------------------------------------------------------- certificates


def test_certificate_stable_orbit_finds_hyperbolic_equilibrium():
    cert = analysis.certify_negative_curvature(hamflow.flow(
        oscillator(2, -np.eye(2)), np.array([-0.8, 0.6, 0.8, -0.6]),
        horizon=25.0, step=1e-3))
    assert cert.kind == "equilibrium_set"
    assert cert.verdict
    assert cert.max_eig == pytest.approx(-1.0, abs=1e-12)
    assert cert.max_eig < -1e-9
    assert len(cert.equilibria) == 1
    eq = cert.equilibria[0]
    assert np.linalg.norm(eq.z) <= 1e-6
    assert eq.hyperbolic
    assert np.allclose(np.sort(eq.spectrum.real), [-1.0, -1.0, 1.0, 1.0],
                       atol=1e-8)
    assert np.max(np.abs(eq.spectrum.imag)) <= 1e-8
    assert cert.alpha_estimate == pytest.approx(1.0, abs=1e-8)


def test_certificate_positive_curvature_rejected():
    cert = analysis.certify_negative_curvature(hamflow.flow(
        oscillator(2), np.array([1.0, 0.0, 0.0, 1.0]),
        horizon=1.0, step=1e-3))
    assert not cert.verdict
    assert cert.max_eig == pytest.approx(1.0, abs=1e-12)
    assert cert.equilibria == ()
    assert math.isnan(cert.alpha_estimate)


def test_certificate_reduced_inverted_oscillator():
    cert = analysis.certify_negative_curvature(hamflow.DenseFlow(
        oscillator(2, -np.eye(2)), np.array([1.0, 0.3, 0.2, -0.4]),
        horizon=2.0, step=1e-3))
    assert cert.kind == "reduced_flow"
    assert cert.verdict
    assert -1.0 - 1e-4 <= cert.max_eig <= -0.3
    assert math.isnan(cert.alpha_estimate)


def test_certificate_reduced_oscillator_fails():
    cert = analysis.certify_negative_curvature(hamflow.DenseFlow(
        oscillator(2), np.array([1.0, 0.3, 0.2, -0.4]),
        horizon=2.0, step=1e-3))
    assert not cert.verdict
    assert cert.max_eig >= 0.5


def test_certificate_mode_follows_the_orbit():
    # a DenseFlow can only give the reduced certificate and a flow()
    # trajectory the full one; the full certificate of the dense flow's
    # window, the same states bit for bit, is the same certificate
    sysn = oscillator(2, -np.eye(2))
    z0 = np.array([1.0, 0.3, 0.2, -0.4])
    dense = hamflow.DenseFlow(sysn, z0, horizon=2.005, step=1e-2)
    assert analysis.certify_negative_curvature(dense).kind == "reduced_flow"
    full = analysis.certify_negative_curvature(
        hamflow.flow(sysn, z0, 2.005, 1e-2))
    window = analysis.certify_negative_curvature(dense.window())
    assert full.kind == window.kind == "equilibrium_set"

    def fields(cert):
        return (cert.max_eig, cert.verdict, cert.margin, cert.diagnostics,
                cert.equilibria)

    assert fields(window) == fields(full)
    assert math.isnan(window.alpha_estimate) and math.isnan(full.alpha_estimate)


def test_certificate_reduced_reads_hessians_not_field_curvatures(
        monkeypatch):
    # the reduced certificate keeps only the Hessian peak of the window
    # states; a field curvature there would be computed and thrown away
    def refused(*args):
        raise AssertionError("field curvature in the reduced certificate")

    monkeypatch.setattr(analysis, "_field_curvature", refused)
    # x Hessian moves with y: not natural, so a field curvature would
    # take the bracket route
    sysn = hamflow.polynomial_system(2, [
        (0.5, (2, 0, 0, 0)), (0.5, (0, 2, 0, 0)), (0.3, (2, 0, 1, 0)),
        (-0.5, (0, 0, 2, 0)), (-0.25, (0, 0, 0, 2))])
    assert not sysn.natural
    dense = hamflow.DenseFlow(sysn, np.array([0.6, 0.3, 0.2, -0.4]),
                              horizon=1.5, step=1e-2)
    cert = analysis.certify_negative_curvature(dense)
    assert cert.kind == "reduced_flow" and cert.verdict
    states = dense.window().states
    peak = max(np.linalg.norm(sysn.hessian(z), 2)
               for z in states[hamflow._subsample(len(states), 33)])
    assert cert.margin == analysis.NEGATIVITY_MARGIN * (1.0 + peak)


def test_certificate_reduced_refuses_one_degree():
    dense = hamflow.DenseFlow(oscillator(1, [[-1.0]]), np.array([1.0, 0.5]),
                              horizon=1.0, step=1e-3)
    with pytest.raises(ReductionRefused):
        analysis.certify_negative_curvature(dense)


# ----------------------------------------------------------------- decay rate


def test_decay_rate_stable_line_unit():
    traj = hamflow.flow(oscillator(2, -np.eye(2)),
                        np.array([-0.8, 0.6, 0.8, -0.6]), 12.0, 1e-3)
    assert analysis.decay_rate(traj) == pytest.approx(1.0, abs=1e-9)


def test_decay_rate_concave_well_slowest_mode():
    k = np.diag([2.25, 4.0])
    y0 = np.array([0.7, -0.5])
    z0 = np.concatenate([-np.sqrt(np.diag(k)) * y0, y0])
    traj = hamflow.flow(oscillator(2, -k), z0, 12.0, 1e-3)
    assert analysis.decay_rate(traj) == pytest.approx(1.5, abs=0.15)


def test_decay_rate_needs_enough_samples():
    traj = hamflow.flow(oscillator(2, -np.eye(2)),
                        np.array([-0.8, 0.6, 0.8, -0.6]), 0.005, 1e-3)
    with pytest.raises(ValueError):
        analysis.decay_rate(traj)


# -------------------------------------------------------------- Morse pipeline


def test_morse_pipeline_free_particle():
    out = analysis.morse_pipeline(hamflow.DenseFlow(
        oscillator(2, np.zeros((2, 2))), np.array([0.4, -1.1, 0.2, 0.9]),
        horizon=3.0, step=1e-3))
    assert out.index == 0
    assert out.conjugate_points == ()
    assert out.trimmed_maslov == 0
    assert out.legendre.uniform_definite and out.legendre.sign == 1


def test_morse_pipeline_oscillator_ladder():
    out = analysis.morse_pipeline(hamflow.DenseFlow(
        oscillator(), np.array([0.8, -0.3]), horizon=2.5 * np.pi, step=1e-3))
    assert out.index == 2
    assert out.trimmed_maslov == -2
    times = [p.t for p in out.conjugate_points]
    assert np.allclose(times, [np.pi, 2.0 * np.pi], atol=2e-3)
    assert all(p.multiplicity == 1 for p in out.conjugate_points)
    assert out.trim == pytest.approx(0.025 * np.pi)


def test_morse_pipeline_integrates_the_orbit_once(monkeypatch):
    built, flows = [], []
    init = hamflow.DenseFlow.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_flow(*args, **kwargs):
        flows.append(args)
        return flow(*args, **kwargs)

    flow = hamflow.flow
    monkeypatch.setattr(hamflow.DenseFlow, "__init__", counted_init)
    monkeypatch.setattr(hamflow, "flow", counted_flow)
    # analysis binds no flow() that could integrate past the count
    assert not hasattr(analysis, "flow")
    out = analysis.morse_pipeline(hamflow.DenseFlow(
        oscillator(), np.array([0.8, -0.3]), horizon=4.0, step=1e-2))
    assert out.index == 1
    assert len(built) == 1 and flows == []


def test_morse_pipeline_degenerate_horizon():
    dense = hamflow.DenseFlow(oscillator(), np.array([0.8, -0.3]),
                              horizon=np.pi, step=1e-3)
    with pytest.raises(DegenerateEndpoint):
        analysis.morse_pipeline(dense)


def test_morse_pipeline_refuses_a_trim_past_the_first_conjugate_time():
    dense = hamflow.DenseFlow(hamflow.quadratic_potential_system(np.eye(1)),
                              [0.3, 0.2], 4.0)
    with pytest.raises(ValueError, match="^trim 3.5 must fall before the "
                       "first conjugate time 3.14159$"):
        analysis.morse_pipeline(dense, trim=3.5)


def test_morse_pipeline_requires_legendre():
    dense = hamflow.DenseFlow(saddle_system(),
                              np.array([0.4, 0.3, 0.2, 0.1]),
                              horizon=1.0, step=1e-3)
    with pytest.raises(NotMonotone):
        analysis.morse_pipeline(dense)


def test_morse_pipeline_trim_stable_over_decade():
    dense = hamflow.DenseFlow(oscillator(), np.array([0.8, -0.3]),
                              horizon=2.5 * np.pi, step=1e-3)
    runs = [analysis.morse_pipeline(dense, trim=trim)
            for trim in (0.04, 0.126, 0.4)]
    assert all(r.index == 2 and r.trimmed_maslov == -2 for r in runs)
    base = [p.t for p in runs[0].conjugate_points]
    for r in runs[1:]:
        assert np.allclose([p.t for p in r.conjugate_points], base, atol=1e-6)


# ---------------------------------------------------------- reduction bounds


def test_reduction_comparison_seeded_wells():
    frozen = {(7, 2): (1, 1), (11, 3): (3, 4)}
    for (seed, n), mu in frozen.items():
        sysn, z0 = seeded_well(seed, n)
        rep = analysis.reduction_comparison(
            hamflow.DenseFlow(sysn, z0, horizon=4.0, step=1e-3))
        assert (rep.mu_full, rep.mu_reduced) == mu
        assert 0 <= rep.mu_reduced - rep.mu_full <= 1
        assert rep.dominance_defect >= -analysis.CONGRUENCE_TOL
        assert rep.rank_excess <= analysis.CONGRUENCE_TOL
        assert len(rep.samples) >= 3
        assert rep.graze_margin >= analysis.GRAZE_TOL


def test_reduction_comparison_reads_its_samples_through_the_stencils(
        monkeypatch):
    # the shared basis at a sample time is the centre frame of the full
    # curve's stencil there; once the four blocks of nine stencils are
    # read, no sample time is read again
    plain_curve, plain_stencils = analysis.jacobi_curve, analysis._stencils
    blocks, late = [], []

    def counted(dense):
        jc = plain_curve(dense)

        def ev(t):
            if len(blocks) == 4:
                late.append(t)
            return jc.eval(t)
        return dataclasses.replace(jc, eval=ev)

    def stencils(c, ts):
        yield from plain_stencils(c, ts)
        blocks.append(ts)

    monkeypatch.setattr(analysis, "jacobi_curve", counted)
    monkeypatch.setattr(analysis, "_stencils", stencils)
    sysn, z0 = seeded_well(7, 2)
    horizon = 4.0
    rep = analysis.reduction_comparison(
        hamflow.DenseFlow(sysn, z0, horizon=horizon, step=1e-3))
    assert len(blocks) == 4 and len(rep.samples) >= 3
    trim = 0.05 * horizon
    centres = {trim + horizon - t for t in blocks[0]}
    assert len(centres) == 9
    assert [t for t in late if t in centres] == []


def test_reduction_comparison_reads_each_frame_once(monkeypatch):
    # the graze scan, both index scans, the second-schedule check and the
    # four stencil blocks share one frame cache; the half-step stencils
    # reuse five of their seven frames from the full-step ones
    reads = []
    gammas = hamflow.DenseFlow.gammas

    def counted(self, ts):
        reads.extend(map(float, ts))
        return gammas(self, ts)

    monkeypatch.setattr(hamflow.DenseFlow, "gammas", counted)
    dense = hamflow.DenseFlow(oscillator(2, np.diag([1.0, 2.3])),
                              np.array([0.7, -0.4, 1.1, 0.5]), horizon=6.0,
                              step=1e-3)
    rep = analysis.reduction_comparison(dense)
    assert (rep.mu_full, rep.mu_reduced) == (3, 4)
    assert len(reads) == len(set(reads)) <= 440


def test_morse_index_regular_extremal_reads_each_frame_once(monkeypatch):
    # the endpoint reads at t0 and t1 and the conjugate scan share one
    # frame cache
    reads = []
    gammas = hamflow.DenseFlow.gammas

    def counted(self, ts):
        reads.extend(map(float, ts))
        return gammas(self, ts)

    monkeypatch.setattr(hamflow.DenseFlow, "gammas", counted)
    dense = hamflow.DenseFlow(oscillator(2, np.diag([1.0, 2.3])),
                              np.array([0.7, -0.4, 1.1, 0.5]), horizon=6.0,
                              step=1e-3)
    jc = hamflow.jacobi_curve(dense)
    assert maslov.morse_index_regular_extremal(jc) == 3
    assert reads and len(reads) == len(set(reads))


def test_conjugate_points_reads_its_frames_in_stacks(monkeypatch):
    # the acceptance conjugate config: the scan samples, the pieces'
    # samples, the stencils and each bisection's next levels come in
    # stacked reads; one-time reads are left to the trims and piece splits
    sizes = []
    gammas = hamflow.DenseFlow.gammas

    def counted(self, ts):
        sizes.append(len(ts))
        return gammas(self, ts)

    monkeypatch.setattr(hamflow.DenseFlow, "gammas", counted)
    dense = hamflow.DenseFlow(oscillator(1), np.array([0.8, -0.3]),
                              horizon=4.0, step=1e-3)
    jc = hamflow.jacobi_curve(dense)
    pts = maslov.conjugate_points(jc, core.vertical_frame(jc.space))
    assert [p.multiplicity for p in pts] == [1]
    assert abs(pts[0].t - np.pi) <= 1e-8
    assert sizes.count(1) <= 10


@pytest.mark.parametrize("system, z0, horizon", [
    (oscillator(2, np.diag([1.0, 2.3])), [0.7, -0.4, 1.1, 0.5], 6.0),
    (hamflow.polynomial_system(2, [
        (0.5, (2, 0, 0, 0)), (0.5, (0, 2, 0, 0)), (0.5, (0, 0, 2, 0)),
        (1.0, (0, 0, 0, 2)), (0.1, (0, 0, 4, 0)), (0.05, (0, 0, 1, 2))]),
     [0.4, 0.1, -0.3, 0.2], 5.0),
], ids=["constant-hessian", "polynomial"])
def test_scans_agree_on_a_plain_eval_and_its_frame_reader(system, z0,
                                                          horizon):
    # a plain function in place of the FrameReader is read one time at a
    # time, and every scan returns the same values
    dense = hamflow.DenseFlow(system, np.array(z0), horizon=horizon,
                              step=1e-3)
    jc = hamflow.jacobi_curve(dense)
    plain = dataclasses.replace(jc, eval=lambda t: jc.eval(t))
    train = jc.eval(0.0)
    off = core.vertical_frame(jc.space)

    def scans(c):
        sub = dataclasses.replace(c, domain=(0.01 * horizon, horizon))
        rep = maslov.maslov_index(sub, train)
        return (maslov.conjugate_points(c, train),
                maslov.conjugate_points(c, off),
                (rep.value, rep.subdivision, rep.charts_used),
                maslov.morse_index_regular_extremal(c))

    assert scans(plain) == scans(jc)


def test_reduction_comparison_refuses_grazing_direction():
    sysn, z0 = seeded_well(67, 2)
    dense = hamflow.DenseFlow(sysn, z0, horizon=4.0, step=1e-3)
    with pytest.raises(TangentFiber):
        analysis.reduction_comparison(dense)
