"""Acceptance sweep: one test per advertised guarantee of the package.

Every test prints a single "[criterion NN] label: PASS/FAIL" line and
pins its seeds, tolerances, and expected values in place, so a rerun
reproduces the same numbers bit for bit.  Constructions are local to
this file on purpose: the sweep should not inherit helpers whose
defaults might drift.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
from scipy.linalg import null_space

from lagrass import analysis, cli, core, curve, hamflow, lderiv, maslov
from lagrass.curve import GrassmannCurve


def report(num, label, failures):
    status = "PASS" if not failures else f"FAIL ({failures[0]})"
    print(f"[criterion {num:02d}] {label}: {status}", flush=True)
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


# ------------------------------------------------------------ local builders


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


def curved_metric():
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

    return hamflow.metric_system(
        2, g, dg=dg, d2g=d2g,
        u_value=lambda y: 0.3 * float(y[0] ** 2) + 0.1 * float(y[1]),
        u_grad=lambda y: np.array([0.6 * y[0], 0.1]),
        u_hess=lambda y: np.array([[0.6, 0.0], [0.0, 0.0]]))


def cubic_poly_system():
    terms = [(0.5, (2, 0, 0, 0)), (0.5, (0, 2, 0, 0)),
             (0.1, (3, 0, 0, 0)), (0.4, (1, 1, 1, 0)),
             (0.5, (0, 0, 2, 0)), (0.5, (0, 0, 0, 2))]
    return hamflow.polynomial_system(2, terms)


def seeded_well(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    k = a @ a.T + 0.3 * np.eye(n)
    return oscillator(n, k), rng.standard_normal(2 * n)


def vertical_train(n):
    return core.vertical_frame(core.standard_space(n))


def graph_frame(n, s):
    space = core.standard_space(n)
    chart = core.standard_chart(space)
    s = np.atleast_2d(np.asarray(s, dtype=float))
    return core.frame_from_chart(core.ChartRep(chart=chart, S=s))


def nondegenerate_symmetric(rng, n, floor=1e-2):
    while True:
        a = rng.standard_normal((n, n))
        s = a + a.T
        if np.abs(np.linalg.eigvalsh(s)).min() > floor:
            return s


def neg_count(m):
    return int((np.linalg.eigvalsh(m) < 0.0).sum())


# -------------------------------------------------- 1: curvature of a well


def test_criterion_01_natural_curvature_spectrum():
    """Constant-Hessian wells: both curvature paths reproduce spec(K)."""
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        m = rng.standard_normal((n, n))
        k = 0.5 * (m + m.T)
        sysn = oscillator(n, k)
        z0 = rng.standard_normal(2 * n)
        want = np.sort(np.linalg.eigvalsh(k))
        scale = max(1.0, np.abs(want).max())
        r_field = hamflow.curvature_operator_field(sysn, (z0[:n], z0[n:]))
        got = np.sort(np.linalg.eigvalsh(0.5 * (r_field + r_field.T)))
        rel = np.abs(got - want).max() / scale
        if rel > 1e-5:
            failures.append(f"field spectrum off by {rel:.2e} at n={n}")
        jc = hamflow.jacobi_curve(hamflow.DenseFlow(sysn, z0, 0.5))
        got = np.sort(np.linalg.eigvals(curve.curvature(jc, 0.0).matrix).real)
        rel = np.abs(got - want).max() / scale
        if rel > 1e-5:
            failures.append(f"curve spectrum off by {rel:.2e} at n={n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    report(1, "well curvature matches potential spectrum", failures)


# ---------------------------------------- 2: conjugate spacing is sharp


def test_criterion_02_conjugate_point_sharpness():
    """Unit well hits k*pi exactly; the inverted well never focuses."""
    failures = []
    start = time.perf_counter()
    step = 1e-3

    sys2 = oscillator(2)
    z2 = np.array([0.7, -0.4, 1.1, 0.5])
    jc = hamflow.jacobi_curve(hamflow.DenseFlow(sys2, z2, 10.0, step))
    pts = maslov.conjugate_points(jc, jc.eval(0.0))
    want = [np.pi, 2.0 * np.pi, 3.0 * np.pi]
    if len(pts) != 3:
        failures.append(f"expected 3 conjugate times, got {len(pts)}")
    for p, tw in zip(pts, want):
        if abs(p.t - tw) > 2.0 * step:
            failures.append(f"time {p.t:.6f} misses {tw:.6f}")
        if p.multiplicity != 2:
            failures.append(f"multiplicity {p.multiplicity} at {p.t:.4f}")

    sysi = oscillator(1, [[-1.0]])
    zi = np.array([0.7, 1.1])
    dense = hamflow.DenseFlow(sysi, zi, 10.0, step)
    jci = hamflow.jacobi_curve(dense)
    # velocity decays like the squared secant of t; cap the sweep where
    # the curve is still numerically regular and corroborate the full
    # horizon with the index, which needs no derivatives
    sub = GrassmannCurve(space=jci.space, eval=jci.eval, domain=(0.0, 9.0))
    if maslov.conjugate_points(sub, sub.eval(0.0)):
        failures.append("inverted well produced a conjugate point")
    tail = GrassmannCurve(space=jci.space, eval=jci.eval, domain=(0.1, 10.0))
    idx = maslov.maslov_index(tail, vertical_train(1))
    if idx.value != 0:
        failures.append(f"inverted index {idx.value} != 0 over the horizon")

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    report(2, "conjugate times sharp at k*pi, none when inverted", failures)


# ------------------------------------------------------- 3: index ladder


def test_criterion_03_morse_index_ladder():
    failures = []
    z1 = np.array([0.8, -0.3])
    for horizon, want in ((0.5 * np.pi, 0), (1.5 * np.pi, 1),
                          (2.5 * np.pi, 2)):
        pipe = analysis.morse_pipeline(
            hamflow.DenseFlow(oscillator(1), z1, horizon))
        if pipe.index != want:
            failures.append(f"index {pipe.index} != {want} "
                            f"at horizon {horizon:.4f}")
    for n in (1, 2, 3):
        z0 = 0.3 + 0.1 * np.arange(2 * n)
        jc = hamflow.jacobi_curve(
            hamflow.DenseFlow(oscillator(n), z0, 1.5 * np.pi))
        idx = maslov.morse_index_regular_extremal(jc)
        if idx != n:
            failures.append(f"isotropic index {idx} != {n} at n={n}")
    report(3, "index ladder 0/1/2 and isotropic index n", failures)


# ------------------------------------- 4: integer index machinery


def test_criterion_04_integer_index_machinery():
    failures = []

    # (a) one positive crossing per eigenvalue of a drifting diagonal
    for n in range(1, 6):
        c = curve.from_chart_family(
            n, lambda t, n=n: np.diag([t - k for k in range(1, n + 1)]),
            (0.0, n + 1.0))
        value = maslov.maslov_index(c, vertical_train(n)).value
        if value != n:
            failures.append(f"diagonal family index {value} != {n}")

    # (b) ordered-pair inertia drop equals the inertia of the inverse
    # difference; the difference of inverses is s0^-1 (s1-s0) s1^-1 and
    # stays nondegenerate because the middle factor is positive
    rng = np.random.default_rng(4242)
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(2, 6))
        s0 = nondegenerate_symmetric(rng, n)
        while True:
            b = rng.standard_normal((n, n))
            s1 = s0 + b @ b.T + 0.1 * np.eye(n)
            if np.abs(np.linalg.eigvalsh(s1)).min() > 1e-6:
                break
        lhs = neg_count(s0) - neg_count(s1)
        rhs = neg_count(np.linalg.inv(s0) - np.linalg.inv(s1))
        if lhs != rhs:
            failures.append(f"inertia identity broke at trial {trial}")
            break
        if trial % 10 == 0:
            got = maslov.pair_index(vertical_train(n), graph_frame(n, s0),
                                    graph_frame(n, s1)).integer()
            if got != rhs:
                failures.append(f"pair index {got} != {rhs} "
                                f"at trial {trial}")
                break
        checked += 1
    if checked != 1000 and not failures:
        failures.append(f"only {checked} ordered pairs checked")

    # (c) triangle inequality on doubled values, degenerate decorations
    # mixed in so half-integer corners are exercised
    rng = np.random.default_rng(31415)
    for trial in range(1000):
        n = int(rng.integers(2, 4))
        space = core.standard_space(n)
        train = core.vertical_frame(space)
        frames = [core.random_lagrangian(space, rng) for _ in range(3)]
        if trial % 3 == 0:
            frames[1] = train
        if trial % 5 == 0:
            frames[2] = frames[0]
        if trial % 7 == 0:
            frames[0] = train
        i02 = maslov.pair_index(train, frames[0], frames[2]).doubled
        i01 = maslov.pair_index(train, frames[0], frames[1]).doubled
        i12 = maslov.pair_index(train, frames[1], frames[2]).doubled
        if i02 > i01 + i12:
            failures.append(f"triangle broke at trial {trial}")
            break
    report(4, "diagonal count, inertia identity, triangle bound", failures)


# ----------------------------------- 5: two curvature paths, one slope


def _monotone_draw(rng, n, quartic=2.0):
    """Sum of two conjugated tangent sweeps plus a quartic drift term.

    The tangent sums keep the velocity positive definite on (-0.3, 0.3);
    the t^4 term leaves low-order derivatives nearly alone but gives the
    curvature a time derivative bounded away from zero, which is what
    makes the gap residual decay at its generic cubic rate.
    """
    b1 = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    b2 = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    om1 = rng.uniform(0.5, 1.5, size=n)
    om2 = rng.uniform(0.5, 1.5, size=n) * 2.0
    c4m = quartic * rng.standard_normal((n, n))
    c4m = c4m + c4m.T
    return lambda t: (b1.T @ np.diag(np.tan(om1 * t)) @ b1
                      + b2.T @ np.diag(np.tan(om2 * t)) @ b2 + t ** 4 * c4m)


def test_criterion_05_curvature_cross_validation():
    failures = []
    rng = np.random.default_rng(55)
    h = 4e-4
    t0 = 0.1
    gaps = np.geomspace(0.005, 0.02, 8)
    for draw in range(20):
        n = 2 + (draw % 2)
        c = dataclasses.replace(curve.from_chart_family(
            n, _monotone_draw(rng, n), (-0.3, 0.3)), fd_step=h)
        r1 = curve.curvature(c, t0)
        r2 = curve.curvature_via_cross_ratio(c, t0)
        rel = (np.linalg.norm(r1.matrix - r2.matrix)
               / np.linalg.norm(r1.matrix))
        if rel > 1e-5:
            failures.append(f"paths disagree by {rel:.2e} at draw {draw}")
        res = [np.linalg.norm(
            g ** 2 * curve.pair_ratio(c, t0 + g, t0).matrix
            - np.eye(n) - (g ** 2 / 3.0) * r1.matrix) for g in gaps]
        slope = np.polyfit(np.log(gaps), np.log(res), 1)[0]
        if not 2.8 <= slope <= 3.2:
            failures.append(f"slope {slope:.3f} outside band at draw {draw}")
    report(5, "cross-ratio agreement and cubic residual slope", failures)


# ----------------------------------------- 6: time-change of curvature


def test_criterion_06_reparametrization_rule():
    """Constant-curvature curves under two closed-form time changes."""
    failures = []
    line = curve.from_chart_family(1, lambda t: np.array([[t]]), (-2.0, 2.0))
    osc = curve.from_chart_family(1, lambda t: np.array([[np.tan(t)]]),
                                  (-1.5, 1.5))
    quad = (lambda t: t + 0.1 * t * t,
            lambda t: (1.0 + 0.2 * t) ** 2,
            lambda t: -0.75 * (0.2 / (1.0 + 0.2 * t)) ** 2,
            (-0.45, 0.45), (-0.3, 0.0, 0.2), "quadratic shift")
    atan = (np.arctan,
            lambda t: 1.0 / (1.0 + t * t) ** 2,
            lambda t: -1.0 / (1.0 + t * t) ** 2,
            (-1.2, 1.2), (-1.0, 0.0, 0.5), "arctangent map")
    for base, r in ((line, 0.0), (osc, 1.0)):
        for phi, dphi_sq, half_schwarz, dom, pts, name in (quad, atan):
            rep = curve.reparametrize(base, phi, dom)
            for tq in pts:
                want = dphi_sq(tq) * r + half_schwarz(tq)
                got = float(curve.curvature(rep, tq).matrix[0, 0])
                if abs(got - want) > 1e-5:
                    failures.append(
                        f"{name}: residual {abs(got - want):.2e} "
                        f"at t={tq:g}, r={r:g}")
    report(6, "chain rule for curvature under time changes", failures)


# ------------------------------------- 7: symplectic defect of flows


def test_criterion_07_symplectic_integrity():
    failures = []
    cases = [
        ("well", oscillator(2, [[2.0, 0.3], [0.3, 1.0]]),
         np.array([0.4, -0.2, 1.0, 0.5])),
        ("pendulum", pendulum(), np.array([0.3, 2.1])),
        ("metric", curved_metric(), np.array([0.5, -0.4, 0.3, 0.6])),
        ("cubic", cubic_poly_system(), np.array([0.4, -0.2, 0.3, 0.1])),
    ]
    for name, sysn, z0 in cases:
        dense = hamflow.DenseFlow(sysn, z0, horizon=10.0, step=1e-3)
        space = core.standard_space(sysn.n)
        j = space.form
        defect = max(np.linalg.norm(g.T @ j @ g - j)
                     for g in map(dense.gamma, dense.window().times))
        if defect > 1e-8:
            failures.append(f"{name}: variational defect {defect:.2e}")
        jc = hamflow.jacobi_curve(hamflow.DenseFlow(sysn, z0, 2.0))
        res = curve.transport(jc, 0.3, 1.2)
        tdef = core.symplectic_defect(space, res.matrix)
        if tdef > 1e-8:
            failures.append(f"{name}: transport defect {tdef:.2e}")
        if res.drift > 1e-6:
            failures.append(f"{name}: transport drift {res.drift:.2e}")
    report(7, "variational and transport propagators stay symplectic",
           failures)


# ------------------------------ 8: solution spaces of constrained Hessians


def _corner_distance(a, q0, q1, m, nw, pts=2001):
    """Smallest multiplier-block singular value along the family.

    Near-zero values mean solutions become almost multiplier-free
    somewhere, the attached subspace then spins through the fiber too
    fast for any sampled index accounting, and the family builder is
    expected to refuse such data rather than count it.
    """
    taus = np.linspace(0.0, 1.0, pts)
    stacks = np.empty((pts, nw, m + nw))
    stacks[:, :, :m] = a.T
    stacks[:, :, m:] = q0[None] + taus[:, None, None] * q1[None]
    _, sv, vt = np.linalg.svd(stacks)
    if sv[:, -1].min() < 1e-8:
        return 0.0
    zsv = np.linalg.svd(vt[:, nw:, :m], compute_uv=False)
    return float(zsv[:, -1].min())


def test_criterion_08_constrained_hessian_suite():
    failures = []

    rng = np.random.default_rng(8080)
    shapes = [(1, 3), (2, 3), (2, 5), (3, 4)]
    forms = {}
    for trial in range(1000):
        m, nw = shapes[trial % 4]
        while True:
            a = rng.standard_normal((m, nw))
            if np.linalg.matrix_rank(a) == m:
                break
        q = rng.standard_normal((nw, nw))
        q = q + q.T
        data = lderiv.LDerivData(A=a, Q=q)
        frame = lderiv.l_derivative(data)
        if frame.columns.shape != (2 * m, m):
            failures.append(f"trial {trial}: frame shape "
                            f"{frame.columns.shape}")
            break
        if m not in forms:
            forms[m] = core.standard_space(m).form
        iso = np.linalg.norm(frame.columns.T @ forms[m] @ frame.columns)
        if iso > 1e-8:
            failures.append(f"trial {trial}: isotropy defect {iso:.2e}")
            break
        chk = lderiv.duality_check(data)
        if chk.hessian_nondegenerate != chk.transversal_to_fiber:
            failures.append(f"trial {trial}: duality booleans split")
            break

    rng = np.random.default_rng(9090)
    for trial in range(100):
        m, nw = (1, 3) if trial % 2 == 0 else (2, 4)
        while True:
            a = rng.standard_normal((m, nw))
            if np.linalg.matrix_rank(a) < m:
                continue
            q0 = rng.standard_normal((nw, nw))
            q0 = q0 + q0.T
            q1 = rng.standard_normal((nw, nw))
            q1 = q1 + q1.T
            k = null_space(a)
            e0 = np.linalg.eigvalsh(k.T @ q0 @ k)
            e1 = np.linalg.eigvalsh(k.T @ (q0 + q1) @ k)
            if min(np.abs(e0).min(), np.abs(e1).min()) <= 1e-3:
                continue
            if _corner_distance(a, q0, q1, m, nw) < 0.05:
                continue
            break
        fam = (lambda tau, a=a, q0=q0, q1=q1:
               lderiv.LDerivData(A=a, Q=q0 + tau * q1))
        delta = lderiv.family_index_delta(fam, 0.0, 1.0)
        direct = int((e0 < 0).sum()) - int((e1 < 0).sum())
        if delta != direct:
            failures.append(f"family {trial}: delta {delta} != {direct}")
            break
    report(8, "solution-space invariants, duality, family index",
           failures)


# ------------------------------------------- 9: connection coefficients


def test_criterion_09_connection_formulas():
    failures = []

    # natural kinetic part means a flat connection
    for sysn, states in (
            (pendulum(), [np.array([0.3, 2.1]), np.array([-1.1, 0.4]),
                          np.array([0.7, -2.0])]),
            (oscillator(2, [[2.0, 0.3], [0.3, 1.0]]),
             [np.array([0.4, -0.2, 1.0, 0.5]),
              np.array([-0.6, 0.8, 0.2, -0.4])])):
        n = sysn.n
        for z in states:
            c = hamflow.connection_hamiltonian(sysn, (z[:n], z[n:]))
            if np.linalg.norm(c) > 1e-8:
                failures.append(
                    f"natural connection {np.linalg.norm(c):.2e} != 0")

    # second-order fields against hand-written jacobians
    fields = [
        (2,
         lambda x, y: np.array([x[0] ** 2 + 2 * x[0] * x[1] + y[0],
                                x[1] ** 2 - y[1]]),
         lambda x, y: np.array([[2 * x[0] + 2 * x[1], 2 * x[0]],
                                [0.0, 2 * x[1]]])),
        (2,
         lambda x, y: np.array([x[0] * x[1] * y[0],
                                x[0] ** 2 - x[1] * y[1]]),
         lambda x, y: np.array([[x[1] * y[0], x[0] * y[0]],
                                [2 * x[0], -y[1]]])),
        (1,
         lambda x, y: np.array([x[0] ** 3 + 2 * x[0] * y[0] + y[0] ** 2]),
         lambda x, y: np.array([[3 * x[0] ** 2 + 2 * y[0]]])),
    ]
    rng = np.random.default_rng(1212)
    for n, f, jac in fields:
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        got = hamflow.connection_ode2(f, (x, y))
        err = np.linalg.norm(got - 0.5 * jac(x, y))
        if err > 1e-6:
            failures.append(f"ode2 half-jacobian off by {err:.2e}")

    # seeded cubic Hamiltonians: the defining balance must hold with an
    # independently differenced Hessian rate, and the solved matrix is
    # symmetric by construction only if that balance is consistent
    rng = np.random.default_rng(777)
    cubic_monos = [(1, 0, 2, 0), (0, 1, 1, 1), (1, 1, 0, 1),
                   (1, 0, 1, 1), (0, 0, 3, 0), (0, 0, 2, 1)]
    for trial in range(20):
        a = rng.standard_normal((2, 2))
        mkin = a @ a.T + 0.5 * np.eye(2)
        terms = [(0.5 * mkin[0, 0], (2, 0, 0, 0)),
                 (0.5 * mkin[1, 1], (0, 2, 0, 0)),
                 (mkin[0, 1], (1, 1, 0, 0))]
        terms += [(0.3 * rng.standard_normal(), mono)
                  for mono in cubic_monos]
        sysn = hamflow.polynomial_system(2, terms)
        z = 0.3 * rng.standard_normal(4)
        try:
            c = hamflow.connection_hamiltonian(sysn, (z[:2], z[2:]))
        except ValueError as exc:
            failures.append(f"trial {trial}: {exc}")
            continue
        if np.linalg.norm(c - c.T) != 0.0:
            failures.append(f"trial {trial}: returned matrix asymmetric")
        h2 = sysn.hessian(z)
        hxx, hxy = h2[:2, :2], h2[:2, 2:]
        zeta = sysn.field(z)
        speed = np.linalg.norm(zeta)
        d = 5e-5 * (1.0 + np.abs(z).max())
        unit = zeta / speed
        rate = (sysn.hessian(z + d * unit)[:2, :2]
                - sysn.hessian(z - d * unit)[:2, :2]) / (2.0 * d) * speed
        rhs = rate - hxy @ hxx - hxx @ hxy.T
        resid = np.linalg.norm(2.0 * hxx @ c @ hxx - rhs)
        if resid > 1e-6 * (1.0 + np.linalg.norm(rhs)):
            failures.append(f"trial {trial}: balance residual {resid:.2e}")
    report(9, "flat natural connection, half-jacobian, cubic balance",
           failures)


# ------------------------------------ 10: reduction squeezes the index


def test_criterion_10_reduction_bounds():
    """Frozen seeded wells: reduced index dominates by at most one.

    The expected index pairs were measured once and pinned; seeds whose
    orbits graze the fiber direction are refused upstream and are not in
    the list, so the sweep is reproducible rather than survivorship.
    """
    frozen = {
        (7, 2): (1, 1), (5, 2): (2, 2), (31, 2): (1, 2), (41, 2): (1, 2),
        (59, 2): (4, 5), (73, 2): (1, 2), (11, 3): (3, 4), (29, 3): (1, 2),
        (43, 3): (4, 4), (61, 3): (4, 5),
    }
    failures = []
    for (seed, n), want in frozen.items():
        sysn, z0 = seeded_well(seed, n)
        rep = analysis.reduction_comparison(
            hamflow.DenseFlow(sysn, z0, horizon=4.0, step=1e-3))
        got = (rep.mu_full, rep.mu_reduced)
        if got != want:
            failures.append(f"seed {seed}: index pair {got} != {want}")
        if not 0 <= rep.mu_reduced - rep.mu_full <= 1:
            failures.append(f"seed {seed}: index gap "
                            f"{rep.mu_reduced - rep.mu_full}")
        if rep.dominance_defect < -analysis.CONGRUENCE_TOL:
            failures.append(f"seed {seed}: dominance defect "
                            f"{rep.dominance_defect:.2e}")
        if rep.rank_excess > analysis.CONGRUENCE_TOL:
            failures.append(f"seed {seed}: rank excess "
                            f"{rep.rank_excess:.2e}")
        if len(rep.samples) < 3:
            failures.append(f"seed {seed}: only {len(rep.samples)} samples")
    report(10, "reduced index within one, forms dominate rank-one",
           failures)


# ---------------------------------------------- 11: hyperbolic repeller


def test_criterion_11_hyperbolicity_certificate():
    failures = []
    inv = oscillator(2, -np.eye(2))
    cert = analysis.certify_negative_curvature(
        hamflow.flow(inv, np.array([-0.8, 0.6, 0.8, -0.6]), horizon=25.0))
    if not cert.verdict:
        failures.append("certificate verdict is False")
    if cert.kind != "equilibrium_set":
        failures.append(f"unexpected certificate kind {cert.kind}")
    if len(cert.equilibria) != 1:
        failures.append(f"{len(cert.equilibria)} equilibria found")
    for eq in cert.equilibria:
        lam = np.asarray(eq.spectrum)
        re = np.sort(lam.real)
        if np.abs(re - np.array([-1.0, -1.0, 1.0, 1.0])).max() > 1e-8:
            failures.append(f"spectrum real parts {np.round(re, 6)}")
        if np.abs(lam.imag).max() > 1e-8:
            failures.append("spectrum has imaginary parts")
    rng = np.random.default_rng(606)
    for draw in range(10):
        y0 = rng.standard_normal(2)
        y0 *= (0.5 + rng.random()) / np.linalg.norm(y0)
        traj = hamflow.flow(inv, np.concatenate([-y0, y0]),
                            horizon=12.0, step=1e-3)
        rate = analysis.decay_rate(traj)
        if not 0.9 <= rate <= 1.1:
            failures.append(f"draw {draw}: decay rate {rate:.4f}")
    report(11, "repeller certified, unit spectrum, unit decay rate",
           failures)


# --------------------------------------------- 12: CLI reproducibility


def _base_config(**overrides):
    cfg = {
        "system": {"family": "natural", "n": 1,
                   "potential": {"k": [[1.0]]}},
        "initial": [0.8, -0.3],
        "horizon": 4.0,
        "step": 1e-3,
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def _command_cases():
    well = _base_config(horizon=4.0, step=2e-3)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2))
    well["system"] = {"family": "natural", "n": 2,
                      "potential": {"k": (a @ a.T + 0.3 * np.eye(2)).tolist()}}
    well["initial"] = rng.standard_normal(4).tolist()
    inverted = _base_config(horizon=2.0)
    inverted["system"]["potential"] = {"k": [[-1.0]]}
    lder = {
        "problem": {
            "dim_w": 2, "m": 1,
            "objective": {"terms": [[1.0, [2, 0]], [-1.0, [0, 2]]]},
            "constraints": [{"terms": [[1.0, [1, 1]], [-1.0, [0, 0]]]}],
        },
        "point": {"w": [1.0, 1.0], "zeta": [0.0]},
        "seed": 0,
    }
    return [
        ("flow", _base_config(horizon=2.0)),
        ("jacobi", _base_config(horizon=1.0)),
        ("curvature", _base_config(horizon=1.0)),
        ("conjugate", _base_config()),
        ("morse", _base_config()),
        ("maslov", _base_config()),
        ("compare", _base_config()),
        ("hyperbolic", inverted),
        ("reduce", well),
        ("lderiv", lder),
    ]


def test_criterion_12_cli_determinism(tmp_path):
    failures = []
    for command, cfg in _command_cases():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        outs = (tmp_path / f"{command}-a", tmp_path / f"{command}-b")
        ok = True
        for out in outs:
            rc = cli.main([command, "--config", str(path),
                           "--out", str(out)])
            if rc != 0:
                failures.append(f"{command}: exit code {rc}")
                ok = False
                break
        if not ok:
            continue
        for name in (f"{command}.csv", f"{command}.json"):
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                failures.append(f"{command}/{name} differs between runs")
        provs = [json.loads((out / "provenance.json").read_text(
            encoding="utf-8")) for out in outs]
        for p in provs:
            p.pop("wall_time_s", None)
        if provs[0] != provs[1]:
            failures.append(f"{command}: provenance drifted")
    report(12, "every command byte-identical across reruns", failures)
