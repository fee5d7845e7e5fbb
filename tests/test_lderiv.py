"""Tests for the Lagrange-multiplier workbench.

Hand oracles frozen before implementation:
  * J = |w|^2, constraint w_1, critical point at the origin: kernel
    restriction 2*I on the two remaining directions;
  * J = w_1^2 - w_2^2, constraint w_1 + w_2 at w = (1, -1), zeta = 2:
    the kernel direction (1, -1) gives 2 - 2 = 0, a degenerate
    one-dimensional restriction;
  * family A = [0, 1], Q(tau) = [[tau - 1, 1], [1, 1]] on [0, 1.9]:
    chart slope (tau-1)/(2-tau) increases through zero at tau = 1, so
    the family index is +1 and the restricted Hessian drops from
    index 1 to index 0.
"""

import inspect

import numpy as np
import pytest

from lagrass import core, curve, lderiv, maslov
from lagrass.errors import DimensionDefect, EndpointDegenerate, RankDrop


def sym(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def quadratic_problem(m_mat, b, c_mat):
    dim_w = m_mat.shape[0]
    m = c_mat.shape[0]
    return lderiv.FiniteProblem(
        dim_w=dim_w, m=m,
        j_value=lambda w: 0.5 * w @ m_mat @ w + b @ w,
        phi_value=lambda w: c_mat @ w,
        j_grad=lambda w: m_mat @ w + b,
        j_hess=lambda w: m_mat,
        phi_jac=lambda w: c_mat,
        phi_hess=lambda w: np.zeros((m, dim_w, dim_w)))


# ------------------------------------------------------- kernel restrictions


def test_kernel_restriction_of_round_bowl():
    problem = quadratic_problem(2.0 * np.eye(3), np.zeros(3),
                                np.array([[1.0, 0.0, 0.0]]))
    point = lderiv.LagrangianPoint(w=np.zeros(3), zeta=np.zeros(1))
    form = lderiv.hessian_on_kernel(problem, point)
    assert form.dim == 2
    assert np.allclose(form.matrix, 2.0 * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("b", [[np.inf, 0.0], [1e200, 1e200]],
                         ids=["inf-gradient", "overflowing-norm"])
def test_stationarity_residual_refuses_a_non_finite_residual(b):
    problem = quadratic_problem(np.eye(2), np.array(b),
                                np.array([[1.0, 1.0]]))
    point = lderiv.LagrangianPoint(w=np.zeros(2), zeta=np.zeros(1))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^stationarity residual has non-finite entries$"):
        lderiv.stationarity_residual(problem, point)


def test_kernel_restriction_saddle_hand_oracle():
    problem = quadratic_problem(np.diag([2.0, -2.0]), np.zeros(2),
                                np.array([[1.0, 1.0]]))
    point = lderiv.LagrangianPoint(w=np.array([1.0, -1.0]),
                                   zeta=np.array([2.0]))
    assert lderiv.stationarity_residual(problem, point) <= 1e-12
    form = lderiv.hessian_on_kernel(problem, point)
    ine = core.inertia(form.matrix)
    assert (ine.neg, ine.zero, ine.pos) == (0, 1, 0)


def test_kernel_restriction_matches_dense_eigensolve():
    rng = np.random.default_rng(1231)
    for _ in range(5):
        m_mat = sym(rng, 4)
        b = rng.standard_normal(4)
        c_mat = rng.standard_normal((2, 4))
        z = rng.standard_normal(2)
        problem = quadratic_problem(m_mat, b, c_mat)
        point = lderiv.lagrangian_point(
            problem, w0=0.1 * rng.standard_normal(4), zeta0=np.zeros(2),
            target=z)
        assert lderiv.stationarity_residual(problem, point) <= 1e-9
        assert np.linalg.norm(c_mat @ point.w - z) <= 1e-9
        form = lderiv.hessian_on_kernel(problem, point)
        # independent kernel basis straight from the constraint rows
        _, _, vt = np.linalg.svd(c_mat)
        k = vt[2:].T
        oracle = np.sort(np.linalg.eigvalsh(k.T @ m_mat @ k))
        assert np.allclose(np.sort(np.linalg.eigvalsh(form.matrix)),
                           oracle, atol=1e-9)


def test_rank_drop_detected():
    problem = quadratic_problem(np.eye(3), np.zeros(3),
                                np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    point = lderiv.LagrangianPoint(w=np.zeros(3), zeta=np.zeros(2))
    with pytest.raises(RankDrop, match=r"^constraint Jacobian is rank "
                                       r"deficient \(rank 1 < 2\)$"):
        lderiv.hessian_on_kernel(problem, point)


# ------------------------------------------------------------ newton refiner


def test_newton_reads_the_jacobian_once_per_point():
    # each step built its KKT matrix from a second jac_phi call at the
    # point whose residual had just read it
    rng = np.random.default_rng(211)
    c_mat = rng.standard_normal((2, 4))
    problem = quadratic_problem(sym(rng, 4) + 6.0 * np.eye(4),
                                rng.standard_normal(4), c_mat)
    seen = []

    def jac(w):
        seen.append(tuple(w))
        return c_mat

    problem.phi_jac = jac
    point = lderiv.lagrangian_point(problem, w0=np.zeros(4),
                                    zeta0=np.zeros(2), target=np.ones(2))
    assert np.linalg.norm(c_mat @ point.w - 1.0) <= 1e-9
    assert len(seen) == len(set(seen)) >= 2


def test_newton_refines_nonlinear_point():
    problem = lderiv.FiniteProblem(
        dim_w=3, m=1,
        j_value=lambda w: 0.5 * w @ w + 0.3 * np.sin(w[0]),
        phi_value=lambda w: np.array([w[0] + 0.5 * w[1] ** 2 + w[2]]),
        j_grad=lambda w: w + np.array([0.3 * np.cos(w[0]), 0.0, 0.0]),
        j_hess=lambda w: np.eye(3) + np.diag([-0.3 * np.sin(w[0]), 0.0, 0.0]),
        phi_jac=lambda w: np.array([[1.0, w[1], 1.0]]),
        phi_hess=lambda w: np.array([[[0.0, 0.0, 0.0],
                                      [0.0, 1.0, 0.0],
                                      [0.0, 0.0, 0.0]]]))
    assert not problem.fd_fallback
    point = lderiv.lagrangian_point(problem, w0=np.full(3, 0.2),
                                    zeta0=np.zeros(1),
                                    target=np.array([0.7]))
    assert lderiv.stationarity_residual(problem, point) <= 1e-10
    assert abs(problem.phi_value(point.w)[0] - 0.7) <= 1e-10


def test_newton_always_pins_the_constraint_level():
    target = inspect.signature(lderiv.lagrangian_point).parameters["target"]
    assert target.default is inspect.Parameter.empty


def test_newton_refuses_after_its_iteration_cap():
    # w^2 = -1 has no solution: the raise after NEWTON_MAX_ITER
    problem = lderiv.FiniteProblem(
        dim_w=1, m=1, j_value=lambda w: float(w[0] ** 2),
        phi_value=lambda w: np.array([w[0] ** 2]))
    with pytest.raises(ValueError, match=(
            rf"^no stationary point within {lderiv.NEWTON_MAX_ITER} "
            r"iterations, residual ")):
        lderiv.lagrangian_point(problem, w0=np.array([0.5]),
                                zeta0=np.array([0.1]),
                                target=np.array([-1.0]))


@pytest.mark.parametrize("a, q, match", [
    (np.ones((1, 3)), np.eye(2), r"^incompatible shapes for A and Q$"),
    (np.ones((1, 2)), np.ones((2, 3)), r"^incompatible shapes for A and Q$"),
    (np.ones((1, 2)), [[1.0, 0.5], [0.0, 1.0]],
     r"^Q not symmetric, defect 7\.071e-01$"),
    ([[20.0, 0.0, 0.0]], np.diag([np.inf, 2.0, 4.0]),
     r"^Q has non-finite entries$"),
    ([[np.nan, 1.0]], np.eye(2), r"^A has non-finite entries$"),
], ids=["wide-A", "non-square-Q", "asymmetric-Q", "inf-Q", "nan-A"])
def test_lderiv_data_refuses_bad_shapes_and_asymmetric_q(a, q, match):
    # the refusals of LDerivData.__post_init__
    with pytest.raises(ValueError, match=match):
        lderiv.LDerivData(A=a, Q=q)


def test_finite_difference_fallback_is_flagged_and_close():
    analytic = lderiv.FiniteProblem(
        dim_w=3, m=1,
        j_value=lambda w: 0.5 * w @ w + 0.3 * np.sin(w[0]),
        phi_value=lambda w: np.array([w[0] + 0.5 * w[1] ** 2 + w[2]]),
        j_grad=lambda w: w + np.array([0.3 * np.cos(w[0]), 0.0, 0.0]),
        j_hess=lambda w: np.eye(3) + np.diag([-0.3 * np.sin(w[0]), 0.0, 0.0]),
        phi_jac=lambda w: np.array([[1.0, w[1], 1.0]]),
        phi_hess=lambda w: np.array([[[0.0, 0.0, 0.0],
                                      [0.0, 1.0, 0.0],
                                      [0.0, 0.0, 0.0]]]))
    numeric = lderiv.FiniteProblem(
        dim_w=3, m=1,
        j_value=analytic.j_value,
        phi_value=analytic.phi_value)
    assert numeric.fd_fallback
    w = np.array([0.3, -0.2, 0.5])
    assert np.linalg.norm(numeric.grad_j(w) - analytic.grad_j(w)) <= 1e-8
    assert np.linalg.norm(numeric.jac_phi(w) - analytic.jac_phi(w)) <= 1e-8
    assert np.linalg.norm(numeric.hess_j(w) - analytic.hess_j(w)) <= 1e-3
    assert np.linalg.norm(numeric.hess_phi(w) - analytic.hess_phi(w)) <= 1e-3


# -------------------------------------------------------------- l derivative


def test_l_derivative_closed_form_for_invertible_q():
    rng = np.random.default_rng(52)
    for _ in range(6):
        dim_w, m = 5, 2
        q = sym(rng, dim_w) + 6.0 * np.eye(dim_w)
        a = rng.standard_normal((m, dim_w))
        frame = lderiv.l_derivative(lderiv.LDerivData(A=a, Q=q))
        closed = core.make_frame(
            core.standard_space(m),
            np.vstack([np.eye(m), -a @ np.linalg.solve(q, a.T)]))
        assert core.subspace_gap(frame, closed) <= 1e-8


def test_l_derivative_of_zero_map_is_fiber():
    q = np.diag([1.0, 2.0, 3.0])
    a = np.zeros((2, 3))
    frame = lderiv.l_derivative(lderiv.LDerivData(A=a, Q=q))
    fiber = core.vertical_frame(core.standard_space(2))
    assert core.subspace_gap(frame, fiber) <= 1e-10


def test_l_derivative_random_instances_are_lagrangian():
    rng = np.random.default_rng(2026)
    shapes = [(1, 3), (2, 3), (2, 5), (3, 4)]
    done = 0
    while done < 120:
        m, dim_w = shapes[done % len(shapes)]
        a = rng.standard_normal((m, dim_w))
        if done % 7 == 0:
            a[0] = 0.0
        q = sym(rng, dim_w)
        stacked = np.vstack([a, q])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] <= 1e-6 * sv[0]:
            continue
        frame = lderiv.l_derivative(lderiv.LDerivData(A=a, Q=q))
        space = core.standard_space(m)
        assert frame.columns.shape == (2 * m, m)
        defect = np.linalg.norm(frame.columns.T @ space.form @ frame.columns)
        assert defect <= 1e-8
        done += 1


def test_l_derivative_dimension_guard(monkeypatch):
    # the span can only collapse through catastrophic cancellation, so
    # the guard is exercised with a stubbed kernel
    data = lderiv.LDerivData(A=np.array([[1.0, 0.0]]), Q=np.eye(2))
    monkeypatch.setattr(core, "nullspace",
                        lambda mat, rank_tol=core.RANK_TOL:
                        np.zeros((mat.shape[1], 0)))
    with pytest.raises(DimensionDefect):
        lderiv.l_derivative(data)


# ------------------------------------------------------------------- duality


def test_duality_booleans_for_clean_instance():
    rng = np.random.default_rng(9)
    q = sym(rng, 4) + 5.0 * np.eye(4)
    a = rng.standard_normal((2, 4))
    check = lderiv.duality_check(lderiv.LDerivData(A=a, Q=q))
    assert check.hessian_nondegenerate
    assert check.transversal_to_fiber


def test_duality_booleans_for_degenerate_restriction():
    # kernel of A is the first axis and Q vanishes there while keeping
    # ker A and ker Q disjoint through the off-diagonal coupling
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    q = np.array([[0.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    check = lderiv.duality_check(lderiv.LDerivData(A=a, Q=q))
    assert not check.hessian_nondegenerate
    assert not check.transversal_to_fiber


def test_duality_check_refuses_verdicts_that_disagree():
    # next to 1.2e15 the relative rank rule on [A^T | Q] reads the column
    # 20 as zero, so L(A, Q) meets the fiber while the restriction
    # diag(2, 4) is nondegenerate; the check returned both verdicts
    data = lderiv.LDerivData(A=[[20.0, 0.0, 0.0]],
                             Q=np.diag([1.2e15, 2.0, 4.0]))
    with pytest.raises(ArithmeticError,
                       match="^duality disagrees: hessian_nondegenerate=True, "
                             "transversal_to_fiber=False$"):
        lderiv.duality_check(data)


def test_duality_check_refuses_a_rank_deficient_jacobian():
    with pytest.raises(RankDrop,
                       match="constraint Jacobian is rank deficient"):
        lderiv.duality_check(lderiv.LDerivData(A=[[1.0, 0.0], [2.0, 0.0]],
                                               Q=np.eye(2)))


def test_duality_check_returns_what_it_read():
    rng = np.random.default_rng(9)
    data = lderiv.LDerivData(A=rng.standard_normal((2, 4)),
                             Q=sym(rng, 4) + 5.0 * np.eye(4))
    check = lderiv.duality_check(data)
    assert check.kernel == core.inertia(lderiv._kernel_restriction(data))
    assert np.array_equal(check.frame.columns,
                          lderiv.l_derivative(data).columns)


def test_duality_booleans_always_agree():
    rng = np.random.default_rng(714)
    done = 0
    attempts = 0
    while done < 40:
        attempts += 1
        assert attempts < 1000
        m, dim_w = (2, 4) if done % 2 else (1, 3)
        a = rng.standard_normal((m, dim_w))
        q = sym(rng, dim_w)
        if done % 3 == 0:
            # degenerate the kernel restriction without letting ker A
            # meet ker Q: push Q v into the row space of A
            _, _, vt = np.linalg.svd(a)
            k = vt[m:].T
            v = k[:, 0]
            s = k @ (k.T @ (q @ v))
            q = q - np.outer(s, v) - np.outer(v, s) \
                + (v @ s) * np.outer(v, v)
        stacked = np.vstack([a, q])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] <= 1e-6 * sv[0]:
            continue
        check = lderiv.duality_check(lderiv.LDerivData(A=a, Q=q))
        assert check.hessian_nondegenerate == check.transversal_to_fiber
        if done % 3 == 0:
            assert not check.hessian_nondegenerate
        done += 1


def test_index_splits_across_kernel_and_image():
    # for nondegenerate Q and full-rank A the inertia of Q splits into
    # the kernel restriction plus the image form A Q^-1 A^T
    rng = np.random.default_rng(31)
    done = 0
    while done < 30:
        m, dim_w = (2, 5) if done % 2 else (3, 6)
        a = rng.standard_normal((m, dim_w))
        q = sym(rng, dim_w)
        eigs = np.linalg.eigvalsh(q)
        if np.abs(eigs).min() <= 1e-3:
            continue
        img = a @ np.linalg.solve(q, a.T)
        if np.abs(np.linalg.eigvalsh(img)).min() <= 1e-6:
            continue
        _, _, vt = np.linalg.svd(a)
        k = vt[m:].T
        ind = (np.linalg.eigvalsh(q) < 0).sum()
        ind_ker = (np.linalg.eigvalsh(k.T @ q @ k) < 0).sum()
        ind_img = (np.linalg.eigvalsh(img) < 0).sum()
        assert ind == ind_ker + ind_img
        done += 1


# ------------------------------------------------------------------ families


def test_constant_family_has_zero_delta():
    rng = np.random.default_rng(3)
    q = sym(rng, 3) + 4.0 * np.eye(3)
    a = rng.standard_normal((1, 3))
    data = lderiv.LDerivData(A=a, Q=q)
    assert lderiv.family_index_delta(lambda tau: data, 0.0, 1.0) == 0


def test_eigenvalue_crossing_family():
    a = np.array([[0.0, 1.0]])

    def family(tau):
        return lderiv.LDerivData(A=a, Q=np.array([[tau - 1.0, 1.0],
                                                  [1.0, 1.0]]))

    assert lderiv.family_index_delta(family, 0.0, 1.9) == 1


def test_family_index_delta_builds_each_endpoint_pair_once():
    # the endpoint inertias and the count's endpoint frames read the
    # same two pairs
    a = np.array([[0.0, 1.0]])
    taus = []

    def family(tau):
        taus.append(float(tau))
        return lderiv.LDerivData(A=a, Q=np.array([[tau - 1.0, 1.0],
                                                  [1.0, 1.0]]))

    assert lderiv.family_index_delta(family, 0.0, 1.9) == 1
    assert taus.count(0.0) == taus.count(1.9) == 1


def test_duality_check_names_a_kernel_that_ker_q_shares():
    # e1 spans ker A meet ker Q: Q on ker A = diag(0, 3) is singular, yet
    # (0, e1) solves zeta A + v^T Q = 0 and maps to 0, so L(A, Q) misses
    # the fiber; the refusal states that dimension
    data = lderiv.LDerivData(A=np.array([[1.0, 0.0, 0.0]]),
                             Q=np.diag([1.0, 0.0, 3.0]))
    fiber = core.vertical_frame(core.standard_space(1))
    assert core.intersection_dim(lderiv.l_derivative(data), fiber) == 0
    with pytest.raises(ArithmeticError, match=(
            r"^duality disagrees: hessian_nondegenerate=False, "
            r"transversal_to_fiber=True; dim\(ker A meet ker Q\) = 1")):
        lderiv.duality_check(data)


def test_family_rejects_degenerate_endpoint():
    a = np.array([[0.0, 1.0]])

    def family(tau):
        return lderiv.LDerivData(A=a, Q=np.array([[tau - 1.0, 1.0],
                                                  [1.0, 1.0]]))

    with pytest.raises(EndpointDegenerate):
        lderiv.family_index_delta(family, 1.0, 1.9)


def test_family_refuses_a_rank_deficient_jacobian():
    # with ker A two-dimensional the endpoint inertias passed, and the
    # count refused later with EndpointOnTrain at t=0
    a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])

    def family(tau):
        return lderiv.LDerivData(A=a,
                                 Q=np.diag([1.0, 2.0, 3.0]) - tau * np.eye(3))

    with pytest.raises(RankDrop, match=r"^constraint Jacobian is rank "
                                       r"deficient \(rank 1 < 2\)$"):
        lderiv.family_index_delta(family, 0.0, 1.5)


def test_discretized_oscillator_family_matches_morse_count():
    # second variation of the oscillator action on [0, tau] rescaled to
    # a fixed grid, with the clamped ends kept as honest constraints so
    # the boundary rows couple to the interior: the count of negative
    # kernel directions jumps by one each time the horizon crosses a
    # multiple of pi
    nodes = 40
    total = nodes + 2
    h = 1.0 / (nodes + 1)
    lap = (np.diag(np.r_[1.0, 2.0 * np.ones(nodes), 1.0])
           - np.diag(np.ones(total - 1), 1)
           - np.diag(np.ones(total - 1), -1))
    mass = np.diag(np.r_[0.0, np.ones(nodes), 0.0])
    a = np.zeros((2, total))
    a[0, 0] = 1.0
    a[1, -1] = 1.0

    def family(tau):
        return lderiv.LDerivData(A=a, Q=lap / (tau * h) - tau * h * mass)

    delta = lderiv.family_index_delta(family, 0.5, 7.5)
    assert delta == -2
    jc = curve.from_chart_family(1, lambda t: [[-np.tan(t)]], (0.0, 7.5))
    assert maslov.morse_index_regular_extremal(jc) == 2
    assert delta == -maslov.morse_index_regular_extremal(jc)
