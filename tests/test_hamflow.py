"""Tests for Hamiltonian flows, Jacobi curves, connections, curvature.

Closed forms frozen before implementation:
  * free particle: x constant, y(t) = y0 + t x0; backward transport
    [[I, 0], [-tI, I]]; Jacobi chart S(t) = -t I; flat reduction;
  * oscillator U = y^2/2: states rotate by t, transport rotates by -t,
    Jacobi chart -tan(t), conjugate times k pi;
  * inverted oscillator U = -y^2/2: curvature operator -I;
  * cubic Hamiltonian h = |x|^2/2 + 0.1 x1^3 + 0.4 x1 x2 y1 + |y|^2/2:
    xx-Hessian [[1 + 0.6 x1, 0.4 y1], [0.4 y1, 1]], whose flow rate is
    [[0.6, 0], [0, 0]] xdot1 + [[0, 0.4], [0.4, 0]] ydot1.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lagrass import analysis, core, curve, hamflow, maslov
from lagrass.errors import BlowUp, NotRegular, ReductionRefused, TangentFiber


def oscillator(n=1, k_mat=None):
    if k_mat is None:
        k_mat = np.eye(n)
    return hamflow.quadratic_potential_system(np.asarray(k_mat, dtype=float))


def pendulum():
    return hamflow.natural_system(
        1,
        u_value=lambda y: -float(np.cos(y[0])),
        u_grad=lambda y: np.array([np.sin(y[0])]),
        u_hess=lambda y: np.array([[np.cos(y[0])]]))


def curved_metric(with_potential=False):
    def g(y):
        return np.array([[1.0 + 0.2 * y[1] ** 2, 0.0], [0.0, 1.0]])

    def dg(y):
        out = np.zeros((2, 2, 2))
        out[1, 0, 0] = 0.4 * y[1]
        return out

    def d2g(y):
        out = np.zeros((2, 2, 2, 2))
        out[1, 1, 0, 0] = 0.4
        return out

    if with_potential:
        return hamflow.metric_system(
            2, g, dg=dg, d2g=d2g,
            u_value=lambda y: 0.3 * float(y[0] ** 2) + 0.1 * float(y[1]),
            u_grad=lambda y: np.array([0.6 * y[0], 0.1]),
            u_hess=lambda y: np.array([[0.6, 0.0], [0.0, 0.0]]))
    return hamflow.metric_system(2, g, dg=dg, d2g=d2g)


def cubic_poly_system():
    terms = [(0.5, (2, 0, 0, 0)), (0.5, (0, 2, 0, 0)),
             (0.1, (3, 0, 0, 0)), (0.4, (1, 1, 1, 0)),
             (0.5, (0, 0, 2, 0)), (0.5, (0, 0, 0, 2))]
    return hamflow.polynomial_system(2, terms)


# ----------------------------------------------------------------- the flow


@pytest.mark.parametrize("z0", [0.3, [0.3], [0.3, 0.1, -0.2, 0.4, 0.5]],
                         ids=["scalar", "one", "2n+1"])
def test_integrators_refuse_a_malformed_initial_state(z0):
    sys = hamflow.quadratic_potential_system(np.eye(2))
    match = r"^initial state must have shape \(4,\)$"
    with pytest.raises(ValueError, match=match):
        hamflow.flow(sys, z0, 1.0, 0.1)
    with pytest.raises(ValueError, match=match):
        hamflow.DenseFlow(sys, z0, 1.0, 0.1)


@pytest.mark.parametrize("integrator", [hamflow.flow, hamflow.DenseFlow],
                         ids=["flow", "DenseFlow"])
@pytest.mark.parametrize("horizon, step, match", [
    (-1.0, 0.1, r"^horizon must be positive$"),
    (0.0, 0.1, r"^horizon must be positive$"),
    (float("nan"), 0.1, r"^horizon must be finite, not nan$"),
    (float("inf"), 0.1, r"^horizon must be finite, not inf$"),
    (1.0, float("nan"), r"^step must be finite, not nan$"),
], ids=["negative", "zero", "nan", "inf", "nan-step"])
def test_integrators_refuse_a_bad_horizon_or_step(integrator, horizon, step,
                                                  match):
    sys = hamflow.quadratic_potential_system(np.eye(1))
    with pytest.raises(ValueError, match=match):
        integrator(sys, [0.3, 0.2], horizon, step)


@pytest.mark.parametrize("horizon", [1e-15, 5e-324])
@pytest.mark.parametrize("system", [oscillator, pendulum])
def test_flow_grid_starts_at_zero_for_a_horizon_below_the_step(system,
                                                               horizon):
    # _grid gives two times at least, so _march always has a step to take
    # and the first row is z0 at time 0, not at the horizon
    z0 = np.array([0.3, 0.2])
    traj = hamflow.flow(system(), z0, horizon, step=1e-3)
    assert traj.times.tolist() == [0.0, horizon]
    assert np.array_equal(traj.states[0], z0)
    assert np.allclose(traj.states[1], z0, atol=1e-14)


def test_asymmetric_hessians_are_refused():
    # reaches _symmetric's refusal, through quadratic_system's M and
    # through the Hessian callback of a hand-written system
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    refusal = r"^Hessian callback asymmetric, defect 7\.071e-01$"
    with pytest.raises(ValueError, match=refusal):
        hamflow.quadratic_system(m)
    sys = hamflow.HamiltonianSystem(
        n=1, eval=lambda x, y: (0.0, np.zeros(2), m))
    with pytest.raises(ValueError, match=refusal):
        sys.hessian(np.zeros(2))


def test_hessian_callback_of_the_wrong_shape_is_refused():
    sys = hamflow.HamiltonianSystem(
        n=1, eval=lambda x, y: (0.0, np.zeros(2), np.eye(3)))
    with pytest.raises(ValueError, match=r"^Hessian callback must return a "
                       r"\(2, 2\) matrix$"):
        hamflow.DenseFlow(sys, [0.3, 0.2], 1.0)


def test_flow_free_particle_closed_form():
    sys = hamflow.quadratic_potential_system(np.zeros((2, 2)))
    z0 = np.array([0.4, -1.1, 0.2, 0.9])
    traj = hamflow.flow(sys, z0, horizon=3.0, step=1e-3)
    t = traj.times[-1]
    assert np.allclose(traj.states[-1][:2], z0[:2], atol=1e-12)
    assert np.allclose(traj.states[-1][2:], z0[2:] + t * z0[:2], atol=1e-10)


def test_flow_oscillator_rotation_and_energy():
    sys = oscillator()
    z0 = np.array([0.8, -0.3])
    traj = hamflow.flow(sys, z0, horizon=2.0 * np.pi, step=1e-3)
    assert traj.energy_drift <= 1e-10
    t = traj.times[-1]
    exact = np.array([z0[0] * np.cos(t) - z0[1] * np.sin(t),
                      z0[0] * np.sin(t) + z0[1] * np.cos(t)])
    assert np.linalg.norm(traj.states[-1] - exact) <= 1e-10


def test_flow_pendulum_energy_self_convergence():
    sys = pendulum()
    z0 = np.array([0.3, 2.1])
    d1 = hamflow.flow(sys, z0, horizon=10.0, step=1e-3).energy_drift
    d2 = hamflow.flow(sys, z0, horizon=10.0, step=5e-4).energy_drift
    assert d1 <= 1e-9
    assert d2 <= max(d1 / 4.0, 1e-12)


def test_flow_blowup_detected():
    sys = hamflow.natural_system(
        1,
        u_value=lambda y: -0.25 * float(y[0] ** 4),
        u_grad=lambda y: np.array([-y[0] ** 3]),
        u_hess=lambda y: np.array([[-3.0 * y[0] ** 2]]))
    with pytest.raises(BlowUp):
        hamflow.flow(sys, np.array([2.0, 2.0]), horizon=10.0, step=1e-2)


def test_flow_validates_inputs():
    sys = oscillator()
    with pytest.raises(ValueError):
        hamflow.flow(sys, np.array([1.0, 0.0]), horizon=1.0, step=0.0)
    with pytest.raises(ValueError):
        hamflow.flow(sys, np.array([1.0, 0.0, 0.0]), horizon=1.0, step=1e-2)


# ------------------------------------------------------------- variational


def test_variational_free_particle_shear():
    sys = hamflow.quadratic_potential_system(np.zeros((2, 2)))
    dense = hamflow.DenseFlow(sys, np.array([0.5, 0.2, 0.0, 1.0]), 2.0, 1e-2)
    t = 2.0
    expect = np.block([[np.eye(2), np.zeros((2, 2))],
                       [-t * np.eye(2), np.eye(2)]])
    assert np.allclose(dense.gamma(t), expect, atol=1e-11)


def test_variational_oscillator_rotation():
    sys = oscillator()
    dense = hamflow.DenseFlow(sys, np.array([1.0, 0.0]), 2.5, 1e-3)
    t = 2.5
    expect = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.allclose(dense.gamma(t), expect, atol=1e-9)


def test_variational_quadratic_matches_matrix_exponential():
    rng = np.random.default_rng(77)
    n = 2
    m = rng.standard_normal((2 * n, 2 * n))
    m = 0.5 * (m + m.T)
    m *= 1.2 / np.linalg.norm(m, 2)

    def ev(x, y):
        z = np.concatenate([x, y])
        return 0.5 * float(z @ m @ z), m @ z, m

    sys = hamflow.HamiltonianSystem(n=n, eval=ev)
    dense = hamflow.DenseFlow(sys, rng.standard_normal(2 * n), 2.0, 1e-3)
    j = core.standard_space(n).form
    t = 2.0
    assert np.allclose(dense.gamma(t), scipy.linalg.expm(t * j @ m),
                       atol=1e-9)


def test_energy_and_symplecticity_invariants_on_builtins():
    cases = [
        (oscillator(2, [[2.0, 0.3], [0.3, 1.0]]),
         np.array([0.4, -0.2, 1.0, 0.5])),
        (pendulum(), np.array([0.3, 2.1])),
        (curved_metric(with_potential=True),
         np.array([0.5, -0.4, 0.3, 0.6])),
    ]
    for sys, z0 in cases:
        dense = hamflow.DenseFlow(sys, z0, horizon=10.0, step=1e-3)
        traj = dense.window()
        assert traj.energy_drift <= 1e-8
        j = core.standard_space(sys.n).form
        defect = max(np.linalg.norm(g.T @ j @ g - j)
                     for g in map(dense.gamma, traj.times))
        assert defect <= 1e-8


# ------------------------------------------------------------- jacobi curves


def test_jacobi_free_particle_chart():
    sys = hamflow.quadratic_potential_system(np.zeros((2, 2)))
    jc = hamflow.jacobi_curve(
        hamflow.DenseFlow(sys, np.array([0.3, -0.7, 0.1, 0.4]), 3.0))
    chart = core.standard_chart(jc.space)
    for t in (0.5, 1.25, 2.8):
        rep = core.chart_coords(jc.eval(t), chart)
        assert np.allclose(rep.S, -t * np.eye(2), atol=1e-10)


def test_jacobi_oscillator_conjugate_times_and_morse():
    sys = oscillator()
    jc = hamflow.jacobi_curve(hamflow.DenseFlow(sys, np.array([0.9, 0.2]), 10.0))
    assert maslov.morse_index_regular_extremal(jc) == 3
    pts = maslov.conjugate_points(jc, core.vertical_frame(jc.space))
    assert [p.multiplicity for p in pts] == [1, 1, 1]
    assert np.allclose([p.t for p in pts], [np.pi, 2 * np.pi, 3 * np.pi],
                       atol=1e-6)


def test_jacobi_curvature_matches_potential_hessian():
    rng = np.random.default_rng(4)
    k = rng.standard_normal((2, 2))
    k = 0.5 * (k + k.T) + 1.5 * np.eye(2)
    sys = hamflow.quadratic_potential_system(k)
    z0 = rng.standard_normal(4)
    field_r = hamflow.curvature_operator_field(sys, (z0[:2], z0[2:]))
    assert np.allclose(field_r, k, atol=1e-12)
    jc = hamflow.jacobi_curve(hamflow.DenseFlow(sys, z0, 2.0))
    curve_r = curve.curvature(jc, 0.0).matrix
    want = np.sort(np.linalg.eigvalsh(k))
    got = np.sort(np.linalg.eigvals(curve_r).real)
    assert np.abs(np.linalg.eigvals(curve_r).imag).max() <= 1e-8
    assert np.abs(got - want).max() <= 1e-5 * (1.0 + np.abs(want).max())


def test_dense_flow_and_derivative_family_follow_the_stencil_reach():
    # the curves read the system, horizon and z0 from the one dense flow
    # they are given; the horizon is off the step grid
    sys = oscillator(2, np.diag([1.0, 2.5]))
    z0 = np.array([0.3, -0.2, 0.5, 0.1])
    horizon = 2.0004
    dense = hamflow.DenseFlow(sys, z0, horizon)
    assert np.array_equal(dense.state(0.0), z0)
    jc = hamflow.jacobi_curve(dense)
    reach = curve.REACH * jc.fd_step
    assert jc.domain == (0.0, dense.horizon) == (0.0, horizon)
    red = hamflow.level_reduction(sys, z0)
    rc = hamflow.reduced_jacobi_curve(dense)
    assert rc.domain == jc.domain
    for t in (0.0, 0.7, horizon):
        assert np.array_equal(rc.eval(t).columns,
                              red.reduce_frame(jc.eval(t)).columns)
    assert jc.fd_step == curve.FD_STEP_FRACTION * horizon
    assert dense.t_lo <= -reach and dense.t_hi >= horizon + reach
    seen = []

    def ev(t):
        seen.append(t)
        return jc.eval(t)

    probe = dataclasses.replace(jc, eval=ev)
    for t in (0.0, horizon):
        curve.curvature(probe, t)
    assert min(seen) == -reach and max(seen) == horizon + reach
    assert dense.t_lo <= min(seen) and max(seen) <= dense.t_hi
    fam = curve.derivative_family(jc)
    assert fam.domain == (reach, horizon - reach)
    assert fam.fd_step == jc.fd_step


# ------------------------------------------------------- stacked frame reads


def _bytes(frames):
    return [fr.columns.tobytes() for fr in frames]


def _one_time_gamma(dense, t):
    """Gamma at t by the one-time expressions of a scalar read: the
    checkpoint's row of phis, or one RK4 step of Phi from it."""
    sysn = dense.sys
    k, dt = hamflow._checkpoint(dense.times, t)
    phi = dense.phis[k]
    if dt and sysn.constant_hessian is not None:
        phi = sysn._increment(dt) @ phi + phi
    elif dt:
        stages = hamflow._StageHessians(sysn, 1)
        curve._rk4(stages, dense.times[k], (dense.states[k],), dt)
        sym, _ = hamflow._symmetrized(stages.buf)
        phi = hamflow._stage_increments(sysn, sym, np.array([dt]))[0] @ phi \
            + phi
    j = core.standard_space(sysn.n).form
    return -j @ phi.T @ j


def _one_time_frame(dense, red, t):
    """The Jacobi frame at t, reduced when red is given, by one-frame
    calls: make_frame, level_kernel's rule, nullspace and span."""
    space = core.standard_space(dense.sys.n)
    frame = core.make_frame(
        space, _one_time_gamma(dense, t) @ core.vertical_frame(space).columns)
    if red is None:
        return frame
    r = np.atleast_2d(red.u @ space.form @ frame.columns)
    kernel = (np.eye(r.shape[1]) if np.abs(r).max() <= core.RANK_TOL
              else core.nullspace(r))
    return core.make_frame(red.space,
                           core.span(red._proj @ frame.columns @ kernel))


@st.composite
def read_cases(draw):
    kind = draw(st.sampled_from(["constant", "polynomial", "reduced"]))
    n = draw(st.sampled_from([1, 2, 3])) if kind == "constant" else 2
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "polynomial" or (kind == "reduced" and draw(st.booleans())):
        sysn = cubic_poly_system()
    else:
        k = rng.standard_normal((n, n))
        sysn = oscillator(n, k @ k.T + 0.5 * np.eye(n))
    z0 = 0.5 * rng.standard_normal(2 * sysn.n)
    horizon = draw(st.floats(0.05, 0.6))
    step = draw(st.sampled_from([1e-2, 7e-3]))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    grid = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    return kind == "reduced", sysn, z0, horizon, step, fractions, grid


@seed(20261021)
@settings(max_examples=30, deadline=None, database=None)
@given(read_cases())
def test_stacked_reads_equal_one_time_reads_bit_for_bit(case):
    # times anywhere in the integrated window, stencil margins included:
    # off-grid times, grid times and repeats, in the order drawn, which
    # runs forward and backward, then reversed
    reduced, sysn, z0, horizon, step, fractions, grid = case
    dense = hamflow.DenseFlow(sysn, z0, horizon, step)
    red = hamflow.level_reduction(sysn, z0) if reduced else None
    jc = (hamflow.reduced_jacobi_curve if reduced else hamflow.jacobi_curve)(
        dense)
    ts = [dense.t_lo + f * (dense.t_hi - dense.t_lo) for f in fractions]
    ts += [float(dense.times[int(g * (len(dense.times) - 1))]) for g in grid]
    ts += ts[:2]
    stacked = jc.read(ts)
    assert _bytes(stacked) == _bytes([jc.eval(t) for t in ts])
    assert _bytes(stacked) == _bytes([_one_time_frame(dense, red, t)
                                      for t in ts])
    assert _bytes(jc.read(ts[::-1])) == _bytes(stacked[::-1])
    gammas = dense.gammas(ts)
    assert [g.tobytes() for g in gammas] == [
        _one_time_gamma(dense, t).tobytes() for t in ts]


def test_a_replaced_eval_takes_the_stacked_read_with_it():
    # read follows eval: a plain function installed by replace is called
    # once per time, and DenseFlow.gammas is never read in a stack
    dense = hamflow.DenseFlow(oscillator(2, np.diag([1.0, 2.5])),
                              np.array([0.3, -0.2, 0.5, 0.1]), 1.0)
    jc = hamflow.jacobi_curve(dense)
    seen = []

    def ev(t):
        seen.append(t)
        return jc.eval(t)

    plain = dataclasses.replace(jc, eval=ev)
    ts = [0.1, 0.25, 0.7]
    assert jc.read([]) == plain.read([]) == []
    assert _bytes(plain.read(ts)) == _bytes(jc.read(ts))
    assert seen == ts
    cached = curve.cached(plain)
    assert _bytes(cached.read(ts + ts)) == _bytes(jc.read(ts + ts))
    assert cached.eval(0.25) is cached.read([0.25])[0]
    assert seen == ts + ts


def test_a_stacked_read_refuses_as_the_first_time_would():
    dense = hamflow.DenseFlow(oscillator(1), np.array([0.5, 0.2]), 1.0)
    jc = hamflow.jacobi_curve(dense)
    with pytest.raises(ValueError) as alone:
        jc.eval(5.0)
    with pytest.raises(ValueError) as stacked:
        jc.read([0.3, 5.0, 0.4, -7.0])
    assert str(stacked.value) == str(alone.value) == \
        "time 5 outside the integrated window"


# ------------------------------------------------------ connection operators


def test_connection_ode2_basics():
    c = hamflow.connection_ode2(lambda x, y: np.array([y[0], -y[1]]),
                                (np.zeros(2), np.array([0.3, 0.8])))
    assert np.allclose(c, np.zeros((2, 2)), atol=1e-9)
    a = np.array([[0.2, -0.5], [0.1, 0.7]])
    c = hamflow.connection_ode2(lambda x, y: a @ x,
                                (np.array([0.4, -0.2]), np.zeros(2)))
    assert np.allclose(c, 0.5 * a, atol=1e-8)
    c = hamflow.connection_ode2(lambda x, y: a @ x,
                                (np.array([0.4, -0.2]), np.zeros(2)),
                                f_x=lambda x, y: a)
    assert np.allclose(c, 0.5 * a, atol=1e-14)


def test_connection_natural_is_zero():
    sys = pendulum()
    c = hamflow.connection_hamiltonian(sys, (np.array([0.4]),
                                             np.array([1.2])))
    assert np.abs(c).max() <= 1e-12


def test_connection_shared_between_metric_and_metric_plus_potential():
    at = (np.array([0.5, -0.4]), np.array([0.3, 0.6]))
    c_free = hamflow.connection_hamiltonian(curved_metric(False), at)
    c_pot = hamflow.connection_hamiltonian(curved_metric(True), at)
    assert np.allclose(c_free, c_pot, atol=1e-12)
    assert np.abs(c_free).max() > 1e-3


def test_connection_refuses_a_singular_xx_block():
    # H = y^2: no x dependence at all
    sys = hamflow.polynomial_system(1, [(1.0, (0, 2))])
    with pytest.raises(NotRegular,
                       match="xx Hessian block is singular at the point"):
        hamflow.connection_hamiltonian(sys, ([0.3], [0.2]))


def test_finite_difference_hessian_rate_vanishes_at_an_equilibrium():
    # no hxx_rate callback and no motion: the directional difference has
    # no direction, and the rate is zero
    sys = hamflow.HamiltonianSystem(
        n=1, eval=lambda x, y: (0.5 * (x @ x + y @ y),
                                np.concatenate([x, y]), np.eye(2)))
    z = np.zeros(2)
    rate = hamflow._hxx_rate(sys, z, sys.field(z))
    assert np.array_equal(rate, np.zeros((1, 1)))


def test_cubic_hessian_rate_hand_oracle():
    sys = cubic_poly_system()
    x = np.array([0.7, -0.5])
    y = np.array([0.3, 0.8])
    xdot1 = -(0.4 * x[0] * x[1] + y[0])
    ydot1 = x[0] + 0.3 * x[0] ** 2 + 0.4 * x[1] * y[0]
    want = (np.array([[0.6, 0.0], [0.0, 0.0]]) * xdot1
            + np.array([[0.0, 0.4], [0.4, 0.0]]) * ydot1)
    assert np.allclose(sys.hxx_rate(x, y), want, atol=1e-12)
    fd_sys = hamflow.HamiltonianSystem(n=2, eval=sys.eval)
    z = np.concatenate([x, y])
    got = hamflow._hxx_rate(fd_sys, z, fd_sys.field(z))
    assert np.allclose(got, want, atol=1e-7)
    c = hamflow.connection_hamiltonian(sys, (x, y))
    assert np.allclose(c, c.T, atol=1e-12)


def test_bracket_identity_for_builtin_systems():
    # the canonical splitting balances the vertical part of the double
    # bracket against half of the full one, base components compared
    systems = [
        (pendulum(), np.array([0.4, 1.1])),
        (curved_metric(True), np.array([0.5, -0.4, 0.3, 0.6])),
    ]
    for sys, z0 in systems:
        n = sys.n
        d = 1e-4 * (1.0 + np.abs(z0).max())

        def lie(field_a, field_b, z):
            da = np.zeros((2 * n, 2 * n))
            for k in range(2 * n):
                e = np.zeros(2 * n)
                e[k] = d
                da[:, k] = (field_b(z + e) - field_b(z - e)) / (2.0 * d)
            db = np.zeros((2 * n, 2 * n))
            for k in range(2 * n):
                e = np.zeros(2 * n)
                e[k] = d
                db[:, k] = (field_a(z + e) - field_a(z - e)) / (2.0 * d)
            return da @ field_a(z) - db @ field_b(z)

        for i in range(n):
            def beta(z, i=i):
                return -sys.linearization(z)[:, i]

            def beta_ver(z, i=i):
                b = beta(z, i)
                cz = hamflow.connection_hamiltonian(sys, (z[:n], z[n:]))
                return np.concatenate([b[:n] - cz.T @ b[n:], np.zeros(n)])

            lhs = lie(sys.field, beta, z0)[n:]
            rhs = 2.0 * lie(sys.field, beta_ver, z0)[n:]
            scale = 1.0 + np.abs(lhs).max()
            assert np.abs(lhs - rhs).max() <= 1e-4 * scale


# ------------------------------------------------------- curvature operators


def test_curvature_field_inverted_oscillator():
    sys = hamflow.quadratic_potential_system(-np.eye(2))
    at = (np.array([0.3, 0.1]), np.array([0.7, -0.2]))
    assert np.allclose(hamflow.curvature_operator_field(sys, at),
                       -np.eye(2), atol=1e-12)
    # generic path must reproduce the shortcut
    custom = hamflow.HamiltonianSystem(n=2, eval=sys.eval)
    assert np.allclose(hamflow.curvature_via_brackets(custom, at),
                       -np.eye(2), atol=1e-8)


def test_curvature_brackets_match_natural_shortcut():
    sys = pendulum()
    at = (np.array([0.4]), np.array([1.2]))
    want = np.array([[np.cos(1.2)]])
    custom = hamflow.HamiltonianSystem(n=1, eval=sys.eval,
                                       hxx_rate=sys.hxx_rate)
    assert np.allclose(hamflow.curvature_via_brackets(custom, at), want,
                       atol=1e-8)


def _quad_blocks(xx, xy, yy):
    return np.block([[np.asarray(xx, float), np.asarray(xy, float)],
                     [np.asarray(xy, float).T, np.asarray(yy, float)]])


@pytest.mark.parametrize("make,natural", [
    pytest.param(lambda: oscillator(2, np.diag([2.0, 3.0])), True,
                 id="quadratic-potential"),
    pytest.param(pendulum, True, id="natural-system"),
    pytest.param(lambda: hamflow.polynomial_system(
        1, [(0.5, (2, 0)), (3.0, (0, 2)), (0.1, (0, 4))]), True,
        id="polynomial-well"),
    pytest.param(lambda: hamflow.polynomial_system(
        1, [(0.25, (2, 0)), (0.25, (2, 0)), (1.0, (0, 2)), (0.2, (0, 3))]),
        True, id="split-kinetic"),
    pytest.param(lambda: hamflow.quadratic_system(_quad_blocks(
        np.eye(2), [[0.0, 0.3], [0.0, 0.0]], np.eye(2))), False,
        id="xy-coupling"),
    pytest.param(lambda: hamflow.quadratic_system(_quad_blocks(
        np.diag([1.0, 2.0]), np.zeros((2, 2)), np.eye(2))), False,
        id="metric-not-identity"),
    pytest.param(lambda: curved_metric(False), False, id="metric-callback"),
    pytest.param(cubic_poly_system, False, id="x-dependent-xx-block"),
    pytest.param(lambda: hamflow.polynomial_system(
        1, [(0.5, (2, 0)), (0.3, (1, 1)), (0.1, (1, 2)), (2.5, (0, 2)),
            (0.2, (0, 4))]), False, id="custom1-coupling"),
])
def test_natural_follows_the_structure(make, natural):
    assert make().natural is natural


def test_natural_route_reads_hess_u_exactly():
    # the brackets agree in value but return -0.0 for Hess U's zeros
    sys = oscillator(2, np.diag([2.0, 3.0]))
    at = (np.array([0.3, -0.2]), np.array([0.5, 0.7]))
    got = hamflow.curvature_operator_field(sys, at)
    assert got.tobytes() == np.diag([2.0, 3.0]).tobytes()
    assert np.array_equal(hamflow.curvature_via_brackets(sys, at), got)


def test_wrong_natural_claim_is_refused():
    # a hand-written system that calls itself natural but couples x and
    # y must not get h_yy back as its curvature
    coupled = hamflow.polynomial_system(
        1, [(0.5, (2, 0)), (1.0, (0, 2)), (0.3, (1, 1))])
    at = (np.array([0.4]), np.array([0.2]))
    assert not coupled.natural
    r = hamflow.curvature_operator_field(coupled, at)
    assert np.array_equal(r, hamflow.curvature_via_brackets(coupled, at))
    liar = hamflow.HamiltonianSystem(n=1, eval=coupled.eval, natural=True)
    with pytest.raises(ValueError, match=r"x Hessian rows \[I \| 0\]"):
        hamflow.curvature_operator_field(liar, at)


def test_orbit_curvature_reads_each_sample_from_one_eval():
    # the curvature and the Hessian norm of a sample share its eval: the
    # sample and the two finite-difference points, three calls each
    sys = cubic_poly_system()
    traj = hamflow.flow(sys, np.array([0.3, -0.2, 0.5, 0.1]), 1.0, 0.1)
    calls = []

    def counted(x, y):
        calls.append(1)
        return sys.eval(x, y)

    got = analysis._orbit_curvature(
        dataclasses.replace(traj, sys=dataclasses.replace(sys, eval=counted)),
        11)
    assert len(calls) == 33
    want = (-np.inf, np.inf, 0.0)
    for z in traj.states:
        r = hamflow.curvature_operator_field(sys, (z[:2], z[2:]))
        want = (max(want[0], float(np.linalg.eigvals(r).real.max())),
                min(want[1], float(np.trace(r)) / 2),
                max(want[2], float(np.linalg.norm(sys.hessian(z), 2))))
    assert got == want


def test_field_curvature_evaluates_each_point_once():
    # the point itself and the two finite-difference points along the
    # flow: one eval each, every quantity at a point read from that eval
    sys = cubic_poly_system()
    seen = []

    def counted(x, y):
        seen.append(np.concatenate([x, y]))
        return sys.eval(x, y)

    at = (np.array([0.3, -0.2]), np.array([0.5, 0.1]))
    got = hamflow.curvature_operator_field(
        dataclasses.replace(sys, eval=counted), at)
    assert len(seen) == 3
    assert len({z.tobytes() for z in seen}) == 3
    assert np.array_equal(got, hamflow.curvature_via_brackets(sys, at))


def test_flat_metric_with_potential_reduces_to_natural():
    def g(y):
        return np.eye(2)

    sys = hamflow.metric_system(
        2, g, dg=lambda y: np.zeros((2, 2, 2)),
        d2g=lambda y: np.zeros((2, 2, 2, 2)),
        u_value=lambda y: 0.5 * float(y @ np.diag([3.0, 1.0]) @ y),
        u_grad=lambda y: np.diag([3.0, 1.0]) @ y,
        u_hess=lambda y: np.diag([3.0, 1.0]))
    at = (np.array([0.2, -0.6]), np.array([0.9, 0.4]))
    got = hamflow.curvature_operator_field(sys, at)
    assert np.allclose(got, np.diag([3.0, 1.0]), atol=1e-7)


def test_curved_metric_curvature_consistent_with_jacobi_curve():
    sys = curved_metric(False)
    z0 = np.array([0.5, -0.4, 0.3, 0.6])
    field_r = hamflow.curvature_operator_field(sys, (z0[:2], z0[2:]))
    jc = hamflow.jacobi_curve(hamflow.DenseFlow(sys, z0, 2.0))
    curve_r = curve.curvature(jc, 0.0).matrix
    want = np.sort(np.linalg.eigvals(field_r).real)
    got = np.sort(np.linalg.eigvals(curve_r).real)
    assert np.abs(np.linalg.eigvals(field_r).imag).max() <= 1e-8
    assert np.abs(got - want).max() <= 1e-5 * (1.0 + np.abs(want).max())


# ----------------------------------------------------------------- reduction


def test_reduction_refused_for_one_degree_of_freedom():
    with pytest.raises(ReductionRefused):
        hamflow.level_reduction(oscillator(), np.array([1.0, 0.0]))


def test_reduction_rejects_vertical_flow_direction():
    sys = oscillator(2)
    with pytest.raises(TangentFiber):
        hamflow.level_reduction(sys, np.array([0.0, 0.0, 1.0, 0.0]))
    with pytest.raises(TangentFiber):
        hamflow.level_reduction(sys, np.zeros(4))


def test_reduction_basis_is_darboux():
    sys = oscillator(2, [[2.0, 0.3], [0.3, 1.0]])
    z0 = np.array([0.4, -0.2, 1.0, 0.5])
    red = hamflow.level_reduction(sys, z0)
    sigma = core.standard_space(2).form
    assert np.allclose(red.basis.T @ sigma @ red.basis,
                       core.standard_space(1).form, atol=1e-10)
    train = red.reduce_frame(core.vertical_frame(core.standard_space(2)))
    assert train.columns.shape == (2, 1)


@pytest.mark.parametrize("scale", [1e-5, 1e5])
def test_reduction_holds_at_small_and_large_speeds(scale):
    # the rows u sigma and v sigma have norms |u| and 1/|u|: the quotient
    # basis must not depend on a rank rule between them, and for a
    # quadratic H the reduced curvature does not depend on the scale of z0
    sys = oscillator(2, np.diag([1.0, 2.5]))
    w = np.array([0.4, -0.2, 1.0, 0.5])
    red = hamflow.level_reduction(sys, scale * w)
    sigma = core.standard_space(2).form
    assert np.allclose(red.basis.T @ sigma @ red.basis,
                       core.standard_space(1).form, atol=1e-10)

    def reduced(z0):
        rc = hamflow.reduced_jacobi_curve(hamflow.DenseFlow(sys, z0, 1.0))
        return curve.curvature(rc, 0.5).matrix

    assert np.allclose(reduced(scale * w), reduced(w), atol=1e-6)


def test_reduced_free_particle_is_flat():
    sys = hamflow.quadratic_potential_system(np.zeros((2, 2)))
    rc = hamflow.reduced_jacobi_curve(
        hamflow.DenseFlow(sys, np.array([1.0, 0.3, 0.2, -0.5]), horizon=2.0))
    for t in (0.7, 1.3):
        assert np.abs(curve.curvature(rc, t).matrix).max() <= 1e-6


# -------------------------------------------------------------- monotonicity


def test_monotonicity_reports():
    traj = hamflow.flow(oscillator(2), np.array([0.4, -0.2, 1.0, 0.5]),
                        horizon=1.0, step=1e-2)
    rep = hamflow.monotonicity_test(traj)
    assert rep.uniform_definite and rep.sign == 1

    saddle = hamflow.polynomial_system(
        2, [(1.0, (1, 1, 0, 0)), (0.5, (0, 0, 2, 0)), (0.5, (0, 0, 0, 2))])
    traj = hamflow.flow(saddle, np.array([0.3, 0.2, 0.1, -0.4]),
                        horizon=1.0, step=1e-2)
    rep = hamflow.monotonicity_test(traj)
    assert not rep.uniform_definite and rep.sign == 0

    lorentz = hamflow.metric_system(
        2, lambda y: np.diag([1.0, -1.0]),
        dg=lambda y: np.zeros((2, 2, 2)),
        d2g=lambda y: np.zeros((2, 2, 2, 2)))
    traj = hamflow.flow(lorentz, np.array([0.3, 0.2, 0.1, -0.4]),
                        horizon=1.0, step=1e-2)
    rep = hamflow.monotonicity_test(traj)
    assert not rep.uniform_definite and rep.sign == 0


def quartic_well():
    return hamflow.polynomial_system(
        1, [(0.5, (2, 0)), (3.0, (0, 2)), (0.1, (0, 4))])


def test_dense_flow_makes_four_callback_calls_per_step():
    sysn = quartic_well()
    calls = []
    inner = sysn.eval

    def counted(x, y):
        calls.append(1)
        return inner(x, y)

    sysn.eval = counted
    dense = hamflow.DenseFlow(sysn, np.array([0.6, -0.4]), 0.5031, step=1e-2)
    assert len(calls) == 4 * (len(dense.times) - 1)
    # an off-grid read and window()'s off-grid last step: one RK4 step each
    for read in (lambda: dense.gamma(0.1234), dense.window):
        calls.clear()
        read()
        assert len(calls) == 4


def test_constant_hessian_dense_flow_makes_no_callback_per_step():
    sysn = oscillator(2, [[2.0, 0.3], [0.3, -1.0]])
    calls = []
    inner = sysn.eval

    def counted(x, y):
        calls.append(1)
        return inner(x, y)

    sysn.eval = counted
    dense = hamflow.DenseFlow(sysn, np.array([0.6, -0.4, 0.2, 0.1]), 2.0,
                              step=1e-2)
    assert np.isfinite(dense.window().energy_drift)
    assert np.isfinite(dense.state(1.2345)).all()
    assert len(dense.times) > 200 and calls == []


def saddle_quadratic():
    return oscillator(2, [[-1.0, 0.0], [0.0, -1.0]])


# the quartic well marches by callbacks, the saddle by its RK4 step matrix
DENSE_CASES = [
    pytest.param(quartic_well, np.array([0.6, -0.4]), 2.0, True,
                 id="2.0-True"),
    pytest.param(quartic_well, np.array([0.6, -0.4]), 1.6537, False,
                 id="1.6537-False"),
    pytest.param(saddle_quadratic, np.array([0.6, -0.4, 0.2, 0.1]), 2.0,
                 True, id="quadratic-2.0-True"),
    pytest.param(saddle_quadratic, np.array([0.6, -0.4, 0.2, 0.1]), 1.6537,
                 False, id="quadratic-1.6537-False"),
]


@pytest.mark.parametrize("make,z0,horizon,on_grid", DENSE_CASES)
def test_dense_window_equals_flow_bit_for_bit(make, z0, horizon, on_grid):
    sysn, step = make(), 1e-2
    dense = hamflow.DenseFlow(sysn, z0, horizon, step)
    assert bool((dense.times == horizon).any()) == on_grid
    view = dense.window()
    traj = hamflow.flow(sysn, z0, horizon, step)
    assert np.array_equal(view.times, traj.times)
    assert np.array_equal(view.states, traj.states)
    assert np.array_equal(view.energies, traj.energies)


@pytest.mark.parametrize("make,z0", [
    pytest.param(quartic_well, np.array([0.6, -0.4]), id="quartic"),
    pytest.param(saddle_quadratic, np.array([0.6, -0.4, 0.2, 0.1]),
                 id="quadratic")])
def test_flow_states_read_as_dense_states(make, z0):
    # same checkpoints, one step from the one below: equal bit for bit
    sysn, horizon, step = make(), 1.6537, 1e-2
    dense = hamflow.DenseFlow(sysn, z0, horizon, step)
    traj = hamflow.flow(sysn, z0, horizon, step)
    for t in np.linspace(0.0, horizon, 17):
        assert np.array_equal(traj.state(t), dense.state(t))
    with pytest.raises(ValueError):
        traj.state(horizon + 0.1)


def _relative_gap(a, b):
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


@st.composite
def quadratic_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    entry = st.floats(-2.0, 2.0, allow_nan=False)
    m = np.array(draw(st.lists(entry, min_size=4 * n * n,
                               max_size=4 * n * n))).reshape(2 * n, 2 * n)
    z0 = np.array(draw(st.lists(entry, min_size=2 * n, max_size=2 * n)))
    horizon = draw(st.floats(0.02, 0.2))
    step = draw(st.sampled_from([1e-3, 7e-3, 2e-2]))
    reads = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return m + m.T, z0, horizon, step, reads


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(quadratic_cases())
def test_transfer_step_equals_generic_rk4_step(case):
    # the same quadratic system, once with its stored Hessian and once as
    # a plain callback bundle that the generic stepper marches
    m, z0, horizon, step, reads = case
    fast = hamflow.quadratic_system(m)
    plain = dataclasses.replace(fast, constant_hessian=None)
    dense = hamflow.DenseFlow(fast, z0, horizon, step)
    ref = hamflow.DenseFlow(plain, z0, horizon, step)
    assert np.array_equal(dense.times, ref.times)
    assert _relative_gap(dense.states, ref.states) <= 1e-13
    assert _relative_gap(dense.phis, ref.phis) <= 1e-13
    for t in [horizon * r for r in reads]:
        assert _relative_gap(dense.state(t), ref.state(t)) <= 1e-13
        assert _relative_gap(dense.gamma(t), ref.gamma(t)) <= 1e-13
    traj, generic = (hamflow.flow(s, z0, horizon, step) for s in (fast, plain))
    assert _relative_gap(traj.states, generic.states) <= 1e-13
    assert _relative_gap(traj.energies, generic.energies) <= 1e-13


def test_saddle_blowup_time_is_the_same_on_both_paths():
    # Phi grows like e^t and first crosses the cap at t = 19.114; the
    # state decays, so only the per-block Phi check can find the time
    fast = saddle_quadratic()
    plain = dataclasses.replace(fast, constant_hessian=None)
    poly = hamflow.polynomial_system(2, [
        (0.5, (2, 0, 0, 0)), (0.5, (0, 2, 0, 0)),
        (-0.5, (0, 0, 2, 0)), (-0.5, (0, 0, 0, 2))])
    z0 = np.array([-0.8, 0.6, 0.8, -0.6])
    for sysn in (fast, plain, poly):
        with pytest.raises(BlowUp, match=r"near t=19\.114$"):
            hamflow.DenseFlow(sysn, z0, 25.0, 1e-3)


def _reference_pair_step(sysn, z, phi, dt):
    """One RK4 step of (z, Phi)' = (field, -J Hess Phi), one callback
    call per stage, the stage-by-stage march the two phases replace."""
    n = sysn.n

    def minus_j(a):
        return np.concatenate([-a[n:], a[:n]])

    def rhs(t, state):
        _, grad, hess = sysn.eval(state[0][:n], state[0][n:])
        return minus_j(grad), minus_j(0.5 * (hess + hess.T)) @ state[1]

    return curve._rk4(rhs, 0.0, (z, phi), dt)


def _reference_dense(sysn, dense):
    """States and Phis of dense.times, marched out from the origin."""
    origin = int(np.flatnonzero(dense.times == 0.0)[0])
    states = np.empty_like(dense.states)
    phis = np.empty_like(dense.phis)
    states[origin], phis[origin] = dense.states[origin], np.eye(2 * sysn.n)
    for rows in (range(origin, len(dense.times) - 1), range(origin, 0, -1)):
        for k in rows:
            nxt = k + 1 if rows.step == 1 else k - 1
            states[nxt], phis[nxt] = _reference_pair_step(
                sysn, states[k], phis[k], dense.times[nxt] - dense.times[k])
    return states, phis


def custom_coupling():
    return hamflow.polynomial_system(
        1, [(0.5, (2, 0)), (0.4, (1, 1)), (1.0, (0, 2)), (0.1, (1, 3))])


def natural_poly():
    return hamflow.polynomial_system(
        2, [(0.5, (2, 0, 0, 0)), (0.5, (0, 2, 0, 0)), (1.0, (0, 0, 2, 0)),
            (1.5, (0, 0, 0, 2)), (0.3, (0, 0, 2, 2)), (0.1, (0, 0, 4, 0))])


@pytest.mark.parametrize("block", [7, hamflow.STAGE_BLOCK])
@pytest.mark.parametrize("make,z0", [
    pytest.param(quartic_well, np.array([0.6, -0.4]), id="quartic"),
    pytest.param(custom_coupling, np.array([0.5, 0.3]), id="coupling"),
    pytest.param(natural_poly, np.array([0.3, -0.2, 0.5, 0.1]),
                 id="natural-n2")])
def test_two_phase_march_matches_the_stage_by_stage_reference(
        make, z0, block, monkeypatch):
    monkeypatch.setattr(hamflow, "STAGE_BLOCK", block)
    sysn, horizon, step = make(), 1.3037, 2e-3
    dense = hamflow.DenseFlow(sysn, z0, horizon, step)
    states, phis = _reference_dense(sysn, dense)
    assert np.array_equal(dense.states, states)
    assert _relative_gap(dense.phis, phis) <= 1e-13
    traj = hamflow.flow(sysn, z0, horizon, step)
    assert np.array_equal(dense.window().states, traj.states)
    j = core.standard_space(sysn.n).form
    for t in (-0.0031, 0.4567, horizon, horizon + 0.0029):
        k, dt = hamflow._checkpoint(dense.times, t)
        z, phi = _reference_pair_step(sysn, states[k], phis[k], dt)
        assert np.array_equal(dense.state(t), z)
        assert _relative_gap(dense.gamma(t), -j @ phi.T @ j) <= 1e-13


def test_asymmetric_hessian_is_refused_by_build_and_read():
    sysn = quartic_well()
    dense = hamflow.DenseFlow(sysn, np.array([0.6, -0.4]), 0.5, step=1e-2)
    inner = sysn.eval

    def skewed(x, y):
        h, grad, hess = inner(x, y)
        return h, grad, hess + np.array([[0.0, 1e-3], [0.0, 0.0]])

    sysn.eval = skewed
    match = r"^Hessian callback asymmetric, defect 1\.414e-03$"
    with pytest.raises(ValueError, match=match):
        dense.gamma(0.1234)
    with pytest.raises(ValueError, match=match):
        hamflow.DenseFlow(sysn, np.array([0.6, -0.4]), 0.5, step=1e-2)


def test_stage_hessians_stay_within_one_block():
    # a buffer of all the march's stage Hessians would be 4x phis
    sysn = quartic_well()
    tracemalloc.start()
    try:
        dense = hamflow.DenseFlow(sysn, np.array([0.6, -0.4]), 20.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dense.times) > 20_000
    assert peak < 2 * dense.phis.nbytes


# ------------------------------------------------------ compiled polynomials


def _ref_diff(terms, k):
    out = []
    for coeff, exps in terms:
        if exps[k] > 0:
            new = list(exps)
            new[k] -= 1
            out.append((coeff * exps[k], tuple(new)))
    return out


def _ref_eval(terms, z):
    """One monomial after the other, summed left to right from 0.0."""
    total = 0.0
    for coeff, exps in terms:
        total += coeff * float(np.prod(z ** np.asarray(exps)))
    return total


@st.composite
def polynomials(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    coeff = st.one_of(st.integers(-5, 5),
                      st.floats(-1e3, 1e3, allow_nan=False))
    exps = st.lists(st.integers(0, 4), min_size=2 * n, max_size=2 * n)
    terms = draw(st.lists(st.tuples(coeff, exps.map(tuple)), max_size=8))
    points = draw(st.lists(
        st.lists(st.floats(-3.0, 3.0), min_size=2 * n, max_size=2 * n),
        min_size=1, max_size=3))
    # zero coordinates make -0.0 terms of the negative coefficients
    zeros = draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n))
    points.append(np.where(zeros, 0.0, points[0]))
    return n, terms, [np.array(z) for z in points]


def _same_bits(a, b):
    """Equal values and equal signs of zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(polynomials())
def test_compiled_polynomial_equals_term_by_term_sum(case):
    n, raw, points = case
    dim = 2 * n
    terms = [(float(c), exps) for c, exps in raw]
    grads = [_ref_diff(terms, k) for k in range(dim)]
    hesses = [[_ref_diff(grads[k], l) for l in range(dim)]
              for k in range(dim)]
    sysn = hamflow.polynomial_system(n, raw)
    table = hamflow.PolynomialTable([raw], dim)
    for z in points:
        h, grad, hess = sysn.eval(z[:n], z[n:])
        assert _same_bits(h, _ref_eval(terms, z))
        assert _same_bits(table(z)[0], _ref_eval(raw, z))
        assert _same_bits(grad, [_ref_eval(g, z) for g in grads])
        assert _same_bits(hess, [[_ref_eval(hkl, z) for hkl in row]
                                 for row in hesses])
        zdot = np.concatenate([-grad[n:], grad[:n]])
        rate = [[sum(_ref_eval(_ref_diff(hesses[i][j], k), z) * zdot[k]
                     for k in range(dim)) for j in range(n)]
                for i in range(n)]
        assert _same_bits(sysn.hxx_rate(z[:n], z[n:]), rate)
