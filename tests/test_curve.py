import dataclasses

import numpy as np
import pytest

from lagrass import core, curve
from lagrass.errors import (
    ChartFailure,
    NotMonotone,
    NotRegular,
    NotTransversal,
    SearchExhausted,
)


def line_curve(n, slope=1.0):
    return curve.from_chart_family(n, lambda t: slope * t * np.eye(n),
                                   (-1.0, 1.0))


def oscillator_curve(halfwidth=0.5):
    # decreasing curve with unit curvature
    return curve.from_chart_family(1, lambda t: [[-np.tan(t)]],
                                   (-halfwidth, halfwidth))


def test_velocity_form_identity_line():
    c = line_curve(2)
    vf = curve.velocity_form(c, 0.0)
    assert np.allclose(vf.form, np.eye(2), atol=1e-9)
    ine = vf.inertia
    assert (ine.neg, ine.zero, ine.pos) == (0, 0, 2)


def test_velocity_form_indefinite_line():
    c = curve.from_chart_family(2, lambda t: np.diag([t, -t]), (-1.0, 1.0))
    ine = curve.velocity_form(c, 0.0).inertia
    assert (ine.neg, ine.zero, ine.pos) == (1, 0, 1)


def test_velocity_form_decreasing():
    c = line_curve(3, slope=-1.0)
    for t in (-0.5, 0.0, 0.4):
        ine = curve.velocity_form(c, t).inertia
        assert (ine.neg, ine.zero, ine.pos) == (3, 0, 0)


def test_velocity_form_wraps_search_failure(monkeypatch):
    c = line_curve(1)

    def no_luck(space, cols, avoid, seed):
        return cols, [SearchExhausted("forced")] * len(cols)

    monkeypatch.setattr(core, "_complements", no_luck)
    with pytest.raises(ChartFailure):
        curve.velocity_form(c, 0.0)


def test_cross_ratio_frozen_scalar():
    """Four lines with chart values 0, 1, 2, 3 give ratio -3."""
    sp = core.standard_space(1)
    frames = [core.make_frame(sp, np.array([[1.0], [s]]))
              for s in (0.0, 1.0, 2.0, 3.0)]
    op = curve.cross_ratio(*frames)
    assert op.matrix.shape == (1, 1)
    assert op.matrix[0, 0] == pytest.approx(-3.0, abs=1e-10)


def test_cross_ratio_degenerate_identity():
    sp = core.standard_space(2)
    rng = np.random.default_rng(2)
    v0 = core.random_lagrangian(sp, rng)
    v1 = core.random_lagrangian(sp, rng)
    v3 = core.random_lagrangian(sp, rng)
    op = curve.cross_ratio(v0, v1, v0, v3)
    assert np.allclose(op.matrix, np.eye(2), atol=1e-8)


def test_cross_ratio_symplectic_equivariance():
    sp = core.standard_space(2)
    rng = np.random.default_rng(4)
    frames = []
    for _ in range(4):
        s = rng.standard_normal((2, 2))
        frames.append(core.make_frame(sp, np.vstack([np.eye(2), s + s.T])))
    base = np.sort(np.linalg.eigvals(curve.cross_ratio(*frames).matrix))
    for _ in range(5):
        t = core.random_symplectic(sp, rng)
        moved = [core.make_frame(sp, t @ fr.columns) for fr in frames]
        got = np.sort(np.linalg.eigvals(curve.cross_ratio(*moved).matrix))
        assert np.allclose(got, base, atol=1e-7)


def test_infinitesimal_cross_ratio_frozen():
    c0 = curve.from_chart_family(1, lambda t: [[t]], (-1.0, 1.0))
    c1 = curve.from_chart_family(1, lambda t: [[1.0 + t]], (-1.0, 1.0))
    op = curve.infinitesimal_cross_ratio(c0, c1, 0.3)
    assert op.matrix[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_infinitesimal_cross_ratio_constant_factor():
    c0 = curve.from_chart_family(1, lambda t: [[2.0]], (-1.0, 1.0))
    c1 = curve.from_chart_family(1, lambda t: [[1.0 + t]], (-1.0, 1.0))
    op = curve.infinitesimal_cross_ratio(c0, c1, 0.3)
    assert op.matrix[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_infinitesimal_cross_ratio_needs_transversality():
    c0 = curve.from_chart_family(1, lambda t: [[t]], (-1.0, 1.0))
    with pytest.raises(NotTransversal):
        curve.infinitesimal_cross_ratio(c0, c0, 0.2)


def test_pair_ratio_expansion():
    """Merging-times expansion: ratio = gap^-2 + curvature/3 + O(gap)."""
    c = oscillator_curve(0.7)
    r = curve.curvature(c, 0.0).matrix[0, 0]
    for gap in (0.05, 0.08):
        m = curve.pair_ratio(c, gap, 0.0).matrix[0, 0]
        assert 3.0 * (m - gap ** -2) == pytest.approx(r, abs=5e-3)


def test_derivative_curve_of_line_is_horizontal():
    sp = core.standard_space(2)
    horiz = core.horizontal_frame(sp)
    c = line_curve(2)
    for t in (-0.3, 0.0, 0.5):
        got = curve.derivative_curve(c, t)
        assert core.same_subspace(got, horiz, tol=1e-7)


def test_derivative_curve_oscillator_center():
    sp = core.standard_space(1)
    got = curve.derivative_curve(oscillator_curve(), 0.0)
    assert core.same_subspace(got, core.horizontal_frame(sp), tol=1e-7)


def test_derivative_curve_stationary_for_flat():
    c = line_curve(2, slope=-1.0)
    ref = curve.derivative_curve(c, -0.4)
    for t in (-0.1, 0.2, 0.5):
        assert core.same_subspace(curve.derivative_curve(c, t), ref, tol=1e-7)


def test_derivative_curve_singular_velocity():
    c = curve.from_chart_family(2, lambda t: np.diag([t, 0.0]), (-1.0, 1.0))
    with pytest.raises(NotRegular):
        curve.derivative_curve(c, 0.0)


def test_double_derivative_recovers_symmetric_curve():
    c = oscillator_curve(0.7)
    dc = curve.derivative_family(c)
    back = curve.derivative_curve(dc, 0.1)
    assert core.same_subspace(back, c.eval(0.1), tol=1e-4)


def test_curvature_oscillator():
    c = oscillator_curve()
    for t in (-0.2, 0.0, 0.3):
        r = curve.curvature(c, t)
        assert r.matrix[0, 0] == pytest.approx(1.0, abs=1e-5)


def test_curvature_flat_line():
    c = line_curve(2)
    r = curve.curvature(c, 0.2)
    assert np.linalg.norm(r.matrix) < 1e-6


def test_curvature_diagonal_frequencies():
    c = curve.from_chart_family(
        2, lambda t: np.diag([np.tan(t), np.tan(2.0 * t)]), (-0.4, 0.4))
    r = curve.curvature(c, 0.1)
    assert np.allclose(r.matrix, np.diag([1.0, 4.0]), atol=1e-5)


def test_curvature_two_paths_agree():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        for _ in range(3):
            b = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            om = rng.uniform(0.5, 1.5, size=n)

            def fam(t, b=b, om=om):
                return b.T @ np.diag(np.tan(om * t)) @ b

            c = curve.from_chart_family(n, fam, (-0.4, 0.4))
            r1 = curve.curvature(c, 0.1)
            r2 = curve.curvature_via_cross_ratio(c, 0.1)
            scale = np.linalg.norm(r1.matrix)
            assert np.allclose(r1.basis, r2.basis, atol=1e-12)
            assert np.linalg.norm(r1.matrix - r2.matrix) <= 1e-5 * scale


@pytest.mark.parametrize("domain, fd_step", [
    ((-1.0, 1.0), 0.0), ((-1.0, 1.0), -1e-3), ((-1.0, 1.0), np.nan),
    ((-1.0, 1.0), np.inf), ((0.0, np.inf), None), ((0.0, np.inf), 1e-3),
    ((-np.inf, 0.0), 1e-3), ((0.0, 5e-324), None), ((-1.0, 1.0), 0.3)])
def test_curves_refuse_a_step_they_cannot_differentiate_with(domain, fd_step):
    # the default step of a 5e-324 domain underflows to 0; a 0.3 step
    # is a step, but leaves (-1, 1) no room for a stencil, so the curve
    # is built and classify refuses it
    with pytest.raises(ValueError, match="fd_step .* domain") as info:
        curve.classify(dataclasses.replace(curve.from_chart_family(
            1, lambda t: [[t]], domain), fd_step=fd_step))
    if fd_step == 0.3:
        assert str(info.value).startswith("no room for a stencil")
    else:
        with pytest.raises(ValueError, match="cannot differentiate"):
            dataclasses.replace(line_curve(1), domain=domain, fd_step=fd_step)


def test_cross_ratio_curvature_of_a_plain_rotating_curve():
    # at these times J*c1(t) nearly equals the derivative curve and a
    # graph {(z, +-z)} nearly equals c1(t): a chart transversal only up
    # to round-off made S0 huge there, a margin-scored chart does not
    om = 1.3
    sp = core.standard_space(1)
    c = curve.GrassmannCurve(
        space=sp, domain=(0.0, 4.0),
        eval=lambda t: core.make_frame(
            sp, np.array([[np.cos(om * t)], [np.sin(om * t)]])))
    for phase in (0.775, 2.35):
        r = curve.curvature_via_cross_ratio(c, phase / om).matrix
        assert abs(r[0, 0] - om ** 2) <= 1e-6


def test_stencil_reads_its_frames_in_one_call_each(monkeypatch):
    # one stencil on a plain rotating curve, whose first candidate wins:
    # svd once for that candidate's margins against all seven frames,
    # once for darboux_chart's rank, once for the rank rule over the
    # seven chart matrices and once for the regularity check; one solve
    # gives the seven chart matrices
    om = np.array([1.0, 1.7])
    sp = core.standard_space(2)
    c = curve.GrassmannCurve(
        space=sp, domain=(0.0, 3.0),
        eval=lambda t: core.make_frame(
            sp, np.vstack([np.diag(np.cos(om * t)), np.diag(np.sin(om * t))])))
    calls = {"svd": 0, "solve": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    curve._stencil_geometry(c, 1.1)
    assert calls == {"svd": 4, "solve": 1}


def test_curvature_self_adjoint_in_velocity_gauge():
    rng = np.random.default_rng(21)
    for _ in range(5):
        b = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)

        def fam(t, b=b):
            return b.T @ np.diag([np.tan(t), np.tan(1.3 * t)]) @ b

        c = curve.from_chart_family(2, fam, (-0.4, 0.4))
        op = curve.transport_generator(c, 0.1)
        asym = np.linalg.norm(op.matrix - op.matrix.T)
        assert asym <= 1e-6 * (1.0 + np.linalg.norm(op.matrix))


def test_curvature_form_oscillator():
    c = oscillator_curve()
    cf = curve.curvature_form(c, 0.1)
    assert cf.sign == -1.0
    ine = cf.inertia
    assert (ine.neg, ine.zero, ine.pos) == (1, 0, 0)


def test_curvature_form_matches_derivative_velocity():
    """Inertia of sym(Sdot R) equals the derivative curve's velocity inertia."""
    for fam, n in [
        (lambda t: [[-np.tan(t)]], 1),
        (lambda t: [[np.tan(t)]], 1),
        (lambda t: np.diag([np.tan(t), np.tan(2.0 * t)]), 2),
    ]:
        c = curve.from_chart_family(n, fam, (-0.4, 0.4))
        cf = curve.curvature_form(c, 0.1)
        dv = curve.velocity_form(curve.derivative_family(c), 0.1)
        a, b = cf.inertia, dv.inertia
        assert (a.neg, a.zero, a.pos) == (b.neg, b.zero, b.pos)


def test_curvature_form_requires_monotone():
    c = curve.from_chart_family(2, lambda t: np.diag([t, -t]), (-1.0, 1.0))
    with pytest.raises(NotMonotone):
        curve.curvature_form(c, 0.0)


def test_transport_flat_shear():
    c = line_curve(2)
    res = curve.transport(c, 0.0, 1.0 - 5e-3)
    span = res.t1 - res.t0
    eye = np.eye(2)
    want = np.block([[eye, -span * eye], [np.zeros((2, 2)), eye]])
    assert np.allclose(res.matrix, want, atol=1e-5)
    assert res.drift < 1e-6


def test_transport_constant_curvature_rotation():
    # curvature 4 everywhere: the propagator is a 2-frequency rotation
    c = curve.from_chart_family(1, lambda t: [[0.5 * np.tan(2.0 * t)]],
                                (-0.1, 0.6))
    res = curve.transport(c, 0.0, 0.5)
    th = 2.0 * 0.5
    want = np.array([[np.cos(th), -np.sin(th) / 2.0],
                     [2.0 * np.sin(th), np.cos(th)]])
    assert np.allclose(res.matrix, want, atol=1e-5)
    for _, a in res.generators:
        assert a[0, 0] == pytest.approx(4.0, abs=1e-4)


def test_transport_is_symplectic():
    sp = core.standard_space(2)
    c = curve.from_chart_family(
        2, lambda t: np.diag([np.tan(t), np.tan(1.7 * t)]), (-0.45, 0.45))
    res = curve.transport(c, -0.3, 0.3)
    assert core.symplectic_defect(core.standard_space(2), res.matrix) < 1e-8
    assert res.drift < 1e-5
    del sp


def test_transport_requires_definite_velocity():
    c = curve.from_chart_family(2, lambda t: np.diag([t, -t]), (-1.0, 1.0))
    with pytest.raises(NotMonotone):
        curve.transport(c, -0.5, 0.5)


def test_fundamental_matrix_random_smooth_family():
    rng = np.random.default_rng(13)
    sp = core.standard_space(3)
    for _ in range(5):
        coeffs = [rng.standard_normal((3, 3)) for _ in range(3)]
        coeffs = [0.5 * (m + m.T) for m in coeffs]

        def a_func(t, coeffs=coeffs):
            return coeffs[0] + t * coeffs[1] + t * t * coeffs[2]

        gamma = curve.fundamental_matrix(a_func, 0.0, 1.0)
        assert core.symplectic_defect(sp, gamma) < 1e-8


def test_reparametrize_identity():
    c = oscillator_curve(0.7)
    c2 = curve.reparametrize(c, lambda t: t, (-0.5, 0.5))
    r1 = curve.curvature(dataclasses.replace(c, fd_step=1e-3),
                         0.1).matrix[0, 0]
    r2 = curve.curvature(c2, 0.1).matrix[0, 0]
    assert r2 == pytest.approx(r1, abs=1e-10)


def test_reparametrize_scaling_keeps_flat():
    c = line_curve(2)
    c2 = curve.reparametrize(c, lambda t: 2.0 * t, (-0.45, 0.45))
    assert np.linalg.norm(curve.curvature(c2, 0.1).matrix) < 1e-7


def test_reparametrize_arctan_makes_nonpositive():
    c = line_curve(1)
    c2 = dataclasses.replace(curve.reparametrize(c, np.arctan, (-1.0, 1.0)),
                             fd_step=5e-4)
    for t in (-0.6, 0.0, 0.7):
        r = curve.curvature(c2, t).matrix[0, 0]
        want = -1.0 / (1.0 + t * t) ** 2
        assert r == pytest.approx(want, abs=1e-5)
        assert r <= 0.0


def test_chain_rule_quadratic_time_change():
    def fam(t):
        return np.diag([np.tan(t), np.tan(1.3 * t)])

    c = curve.from_chart_family(2, fam, (-0.6, 0.6))
    phi = lambda t: t + 0.1 * t * t
    cr = curve.reparametrize(c, phi, (-0.45, 0.45))
    t = 0.2
    m_r = curve.curvature(cr, t)
    m_o = curve.curvature(c, phi(t))
    phid = 1.0 + 0.2 * t
    r_phi = -0.75 * (0.2 / phid) ** 2
    cmat, *_ = np.linalg.lstsq(m_r.basis, m_o.basis, rcond=None)
    aligned = cmat @ m_o.matrix @ np.linalg.inv(cmat)
    want = phid ** 2 * aligned + r_phi * np.eye(2)
    assert np.linalg.norm(m_r.matrix - want) <= 1e-5 * (1.0 +
                                                        np.linalg.norm(want))


def test_schwarzian_of_moebius_vanishes():
    assert curve.schwarzian(lambda t: (2.0 * t + 1.0) / (t + 3.0),
                            0.4) == pytest.approx(0.0, abs=1e-7)


def test_classify_flat_decreasing():
    c = line_curve(2, slope=-1.0)
    cl = curve.classify(c)
    assert cl.regular and cl.monotone == "decreasing"
    assert cl.flat and cl.symmetric


def test_classify_oscillator():
    cl = curve.classify(oscillator_curve())
    assert cl.regular and cl.monotone == "decreasing"
    assert not cl.flat
    assert cl.symmetric


def test_classify_irregular():
    c = curve.from_chart_family(2, lambda t: np.diag([t, t ** 3]),
                                (-1.0, 1.0))
    cl = curve.classify(c)
    assert not cl.regular
    assert cl.flat is None and cl.symmetric is None


def test_classify_asymmetric():
    def fam(t):
        return np.diag([np.tan(t), np.tan(t + 0.5 * t * t)])

    cl = curve.classify(curve.from_chart_family(2, fam, (-0.4, 0.4)))
    assert cl.regular and cl.monotone == "increasing"
    assert not cl.flat
    assert cl.symmetric is False


def test_classify_regular_but_not_monotone():
    # the velocity diag(1, -1 - 3t^2) is regular and indefinite: flatness
    # is still read, symmetry is not
    c = curve.from_chart_family(2, lambda t: np.diag([t, -t - t ** 3]),
                                (-1.0, 1.0))
    assert curve.classify(c) == curve.CurveClassification(
        regular=True, monotone=None, flat=False, symmetric=None)


def test_classify_counts_a_failed_chart_search_as_irregular(monkeypatch):
    # no complement clears a margin of 2, so every sample's chart search
    # fails and no flag can be read
    monkeypatch.setattr(core, "MIN_MARGIN", 2.0)
    monkeypatch.setattr(core, "GOOD_MARGIN", 2.0)
    c = curve.from_chart_family(2, lambda t: np.diag([t, 2.0 * t]),
                                (-1.0, 1.0))
    assert curve.classify(c) == curve.CurveClassification(
        regular=False, monotone=None, flat=None, symmetric=None)


def test_fundamental_matrix_backward_matches_expm():
    # counting the steps from |t1 - t0| integrates [2, 0] in 2,000 steps
    # too, not in one
    from scipy.linalg import expm

    gen = np.array([[0.0, -1.0], [2.0, 0.0]])
    back = curve.fundamental_matrix(lambda t: [[2.0]], 2.0, 0.0)
    fwd = curve.fundamental_matrix(lambda t: [[2.0]], 0.0, 2.0)
    assert np.abs(back - expm(-2.0 * gen)).max() < 1e-9
    assert np.abs(back - np.linalg.inv(fwd)).max() < 1e-9
    assert np.abs(fwd - expm(2.0 * gen)).max() < 1e-9


# ------------------------------------------------- stacked stencil blocks


def rotating_curve(om, sympl=None, length=3.0):
    om = np.asarray(om, dtype=float)
    sp = core.standard_space(len(om))

    def ev(t):
        cols = np.vstack([np.diag(np.cos(om * t)), np.diag(np.sin(om * t))])
        return core.make_frame(sp, cols if sympl is None else sympl @ cols)

    return curve.GrassmannCurve(space=sp, eval=ev, domain=(0.0, length))


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - a refusal is an outcome
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    (chart, *mats), (chart_want, *mats_want) = got, want
    for m, m_want in zip([chart.basis, chart.basis_inv, *mats],
                         [chart_want.basis, chart_want.basis_inv,
                          *mats_want]):
        assert np.array_equal(m, m_want)


def _block_curves():
    for n in range(1, 5):
        om = np.linspace(0.9, 2.1, n)
        sp = core.standard_space(n)
        yield rotating_curve(om)
        yield rotating_curve(om, core.random_symplectic(
            sp, np.random.default_rng(n)))
    yield curve.from_chart_family(
        2, lambda t: np.diag([np.tan(t), np.tan(1.3 * t)]), (-0.5, 0.5))


@pytest.mark.parametrize("c", list(_block_curves()))
def test_stacked_stencils_equal_one_time_stencils(c):
    # 45 times cross a block boundary and are no multiple of the block
    count = curve._STENCIL_BLOCK + 13
    ts = curve._interior(c, count)
    stacked = list(curve._stencils(c, ts))
    assert len(stacked) == count
    for t, st in zip(ts, stacked):
        _assert_same_outcome(
            _outcome(lambda: curve._geometry(st)),
            _outcome(lambda: curve._stencil_geometry(c, t)))


def test_block_members_below_good_margin_search_on_as_alone(monkeypatch):
    # with GOOD_MARGIN at the median first-candidate score, about half the
    # members of a block go on through the schedule; each must pick the
    # complement the plain one-candidate-at-a-time search picks
    sp = core.standard_space(2)
    c = rotating_curve([1.1, 1.9], core.random_symplectic(
        sp, np.random.default_rng(5)))
    ts = curve._interior(c, 20)
    stencils = [c.read(curve._stencil_times(c, [t])) for t in ts]
    first = [float(core._margin(
        core.make_frame(sp, sp.form @ frs[3].columns).columns,
        np.stack([fr.columns for fr in [frs[3]] + frs[:3] + frs[4:]])).min())
        for frs in stencils]
    good = float(np.median(first))
    monkeypatch.setattr(core, "GOOD_MARGIN", good)
    assert 0 < sum(score < good for score in first) < len(ts)
    for frs, st in zip(stencils, curve._stencils(c, ts)):
        center, avoid = frs[3], frs[:3] + frs[4:]
        best, best_score = None, -np.inf
        for cols in core._candidates(center, avoid, 0):
            cand = core.make_frame(sp, cols)
            score = min(float(core._margin(cand.columns, other.columns))
                        for other in (center, *avoid))
            if score >= best_score:
                best, best_score = cand, score
            if best_score >= good:
                break
        assert np.array_equal(st.chart.delta_frame.columns, best.columns)


def test_block_refuses_exhausted_members_alone_and_reads_once(monkeypatch):
    # with no GOOD_MARGIN to stop at and MIN_MARGIN at the median best
    # score, about half the members of a block exhaust their search; each
    # is refused alone, the others keep their stencils, and every time's
    # seven frames are read once
    sp = core.standard_space(2)
    c = rotating_curve([1.1, 1.9], core.random_symplectic(
        sp, np.random.default_rng(5)))
    ts = curve._interior(c, 20)
    best = []
    for frs in (c.read(curve._stencil_times(c, [t])) for t in ts):
        center, avoid = frs[3], frs[:3] + frs[4:]
        best.append(max(
            min(float(core._margin(core.make_frame(sp, cols).columns,
                                   other.columns))
                for other in (center, *avoid))
            for cols in core._candidates(center, avoid, 0)))
    monkeypatch.setattr(core, "GOOD_MARGIN", 2.0)
    monkeypatch.setattr(core, "MIN_MARGIN", float(np.median(best)))
    reads = []

    def ev(t):
        reads.append(t)
        return c.eval(t)

    stacked = list(curve._stencils(dataclasses.replace(c, eval=ev), ts))
    assert len(reads) == len(curve._OFFSETS) * len(ts)
    refused = [isinstance(st, ChartFailure) for st in stacked]
    assert 0 < sum(refused) < len(ts)
    for t, st in zip(ts, stacked):
        _assert_same_outcome(
            _outcome(lambda: curve._geometry(st)),
            _outcome(lambda: curve._stencil_geometry(c, t)))


def test_block_refuses_a_non_lagrangian_member_alone():
    # only the frame at 0.2 + h is not Lagrangian, so the chart matrices
    # refuse the stencil at 0.2 alone (core._refusal's ValueError in
    # _centered_charts) and the stencil at 0.4 reads on
    base = curve.from_chart_family(2, lambda t: np.diag([t, 2.0 * t]),
                                   (-1.0, 1.0))
    h = base.fd_step

    def ev(t):
        if t != 0.2 + h:
            return base.eval(t)
        s = np.diag([t, 2.0 * t])
        s[0, 1] += 0.3
        cols = np.linalg.qr(np.vstack([np.eye(2), s]))[0]
        return core.LagrangianFrame(base.space, cols)

    c = dataclasses.replace(base, eval=ev)
    bad, good = curve._stencil_block(c, [0.2, 0.4])
    assert type(bad) is ValueError
    assert str(bad).startswith("chart matrix asymmetric (")
    assert str(bad).endswith("); input subspace is not Lagrangian")
    _assert_same_outcome(bad, curve._stencil_block(c, [0.2])[0])
    assert isinstance(good, curve._Stencil)
    _assert_same_outcome(_outcome(lambda: curve._geometry(good)),
                         _outcome(lambda: curve._stencil_geometry(c, 0.4)))


def test_transport_raises_a_later_irregular_stencil_as_alone():
    # S = min(t, 0.5) stops moving: the first march stencil whose inner
    # frames all sit past 0.5 has Sdot = 0, in the third block of times
    c = curve.from_chart_family(1, lambda t: [[min(t, 0.5)]], (-1.0, 2.0))
    with pytest.raises(NotRegular) as info:
        curve.transport(c, 0.0, 1.0)
    t_bad = float(str(info.value).split("t=")[1].split()[0])
    assert 0.5 < t_bad < 0.6
    with pytest.raises(NotRegular) as alone:
        curve._stencil_geometry(c, t_bad)
    assert str(alone.value) == str(info.value)


class LeftChart(Exception):
    pass


def _chart_until(limit, matrix_func):
    def fam(t):
        if t > limit:
            raise LeftChart(f"left the chart at t={t:.6f}")
        return matrix_func(t)

    return fam


def test_transport_raises_a_later_chart_exit_when_it_reaches_it():
    c = curve.from_chart_family(1, _chart_until(0.6, lambda t: [[t]]),
                                (-1.0, 2.0))
    with pytest.raises(LeftChart, match=r"left the chart at t=0\.60"):
        curve.transport(c, 0.0, 1.0)


def test_transport_refuses_at_t0_before_a_later_stencil_fails():
    # the block of t0 also reads the stencils past 0.2, which fail, but
    # the march refuses the indefinite velocity at t0 first
    c = curve.from_chart_family(
        2, _chart_until(0.2, lambda t: np.diag([t, -t])), (-1.0, 1.0))
    with pytest.raises(NotMonotone):
        curve.transport(c, 0.0, 0.5)


def _count_svd(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_transport_reads_its_stencils_in_blocks(monkeypatch):
    # N steps read 2N + 1 stencil times, here two blocks, with four
    # stacked svd calls a block (first-candidate margins, Darboux rank,
    # chart-matrix rank, regularity), not four for each time
    c = rotating_curve([1.0, 1.7])
    calls = _count_svd(monkeypatch)
    res = curve.transport(c, 0.5, 0.5 + 0.1 * c.length)
    assert len(calls) == 8
    times = 2 * (len(res.generators) - 1) + 1
    assert curve._STENCIL_BLOCK < times < 2 * curve._STENCIL_BLOCK


def test_classify_reads_each_sample_stencil_once():
    # a flat line needs no transport: nine sample stencils of seven
    # frames, each read once for both its velocity form and its curvature
    c = line_curve(2)
    calls = []
    ev = c.eval

    def counted(t):
        calls.append(t)
        return ev(t)

    c.eval = counted
    cl = curve.classify(c)
    assert cl.flat and cl.symmetric
    assert len(calls) == 9 * len(curve._OFFSETS)
