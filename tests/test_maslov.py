"""Frozen-value and property tests for the integer-index machinery.

Hand-checked oracles, fixed before the implementation:
  * diagonal family diag(t-1, ..., t-n) on [0, n+1]: every eigenvalue
    crosses zero once with positive velocity, index +n;
  * scalar family -tan(t): crossings at multiples of pi with negative
    velocity, index -k over (eps, k*pi + eps);
  * pair of (vertical, graph of the identity) against the vertical:
    the quadratic form vanishes and the dimension correction leaves the
    half integer 1/2, i.e. a doubled value of exactly 1.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lagrass import core, curve, maslov
from lagrass.errors import (
    DegenerateEndpoint,
    EndpointOnTrain,
    NotMonotone,
    NotRegular,
    SubdivisionFailure,
)


def vertical_train(n):
    return core.vertical_frame(core.standard_space(n))


def graph_frame(n, s):
    space = core.standard_space(n)
    chart = core.standard_chart(space)
    s = np.atleast_2d(np.asarray(s, dtype=float))
    return core.frame_from_chart(core.ChartRep(chart=chart, S=s))


def diag_family(n):
    return curve.from_chart_family(
        n, lambda t: np.diag([t - k for k in range(1, n + 1)]),
        (0.0, n + 1.0))


def tan_family(n, sign=-1.0, domain=(0.3, 2.0 * np.pi + 0.3)):
    return curve.from_chart_family(
        n, lambda t: sign * np.tan(t) * np.eye(n), domain)


def neg_count(m):
    return int((np.linalg.eigvalsh(m) < 0.0).sum())


def nondegenerate_symmetric(rng, n, floor=1e-2):
    while True:
        a = rng.standard_normal((n, n))
        s = a + a.T
        if np.abs(np.linalg.eigvalsh(s)).min() > floor:
            return s


# ---------------------------------------------------------------- pair index


def test_pair_index_matches_inverse_difference_when_transversal():
    rng = np.random.default_rng(407)
    for _ in range(12):
        n = int(rng.integers(2, 4))
        train = vertical_train(n)
        s0 = nondegenerate_symmetric(rng, n)
        while True:
            s1 = nondegenerate_symmetric(rng, n)
            if np.abs(np.linalg.eigvalsh(s0 - s1)).min() > 1e-2:
                break
        expected = neg_count(np.linalg.inv(s0) - np.linalg.inv(s1))
        got = maslov.pair_index(train, graph_frame(n, s0), graph_frame(n, s1))
        assert got.integer() == expected


def test_ordered_pairs_inertia_difference_identity():
    # for nondegenerate s1 >= s0 the chart inertia drop equals the
    # inertia of the inverse difference; 50 seeded draws
    rng = np.random.default_rng(2641)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        s0 = nondegenerate_symmetric(rng, n)
        while True:
            b = rng.standard_normal((n, n))
            s1 = s0 + b @ b.T + 0.1 * np.eye(n)
            if np.abs(np.linalg.eigvalsh(s1)).min() > 1e-6:
                break
        lhs = neg_count(s0) - neg_count(s1)
        rhs = neg_count(np.linalg.inv(s0) - np.linalg.inv(s1))
        assert lhs == rhs
        train = vertical_train(n)
        via_frames = maslov.pair_index(train, graph_frame(n, s0),
                                       graph_frame(n, s1))
        assert via_frames.integer() == rhs


def test_pair_index_of_equal_arguments_vanishes():
    n = 2
    train = vertical_train(n)
    lam = graph_frame(n, np.eye(n))
    assert maslov.pair_index(train, lam, lam).doubled == 0
    # full degeneracy: both arguments equal to the reference itself
    assert maslov.pair_index(train, train, train).doubled == 0


def test_pair_index_half_integer_when_one_leg_is_the_reference():
    train = vertical_train(1)
    lam = graph_frame(1, [[1.0]])
    idx = maslov.pair_index(train, train, lam)
    assert idx.doubled == 1
    assert idx.value == 0.5
    with pytest.raises(ValueError):
        idx.integer()


def test_pair_index_triangle_inequality():
    rng = np.random.default_rng(977)
    for trial in range(60):
        n = int(rng.integers(2, 4))
        space = core.standard_space(n)
        train = vertical_train(n)
        frames = [core.random_lagrangian(space, rng) for _ in range(3)]
        if trial % 3 == 0:
            frames[1] = train
        if trial % 5 == 0:
            frames[2] = frames[0]
        i02 = maslov.pair_index(train, frames[0], frames[2]).doubled
        i01 = maslov.pair_index(train, frames[0], frames[1]).doubled
        i12 = maslov.pair_index(train, frames[1], frames[2]).doubled
        assert i02 <= i01 + i12


# -------------------------------------------------------------- maslov index


def test_diagonal_family_counts_one_per_eigenvalue():
    for n in (1, 2, 3):
        c = diag_family(n)
        report = maslov.maslov_index(c, vertical_train(n))
        assert report.value == n
        assert report.charts_used >= 1
        assert report.subdivision[0] == c.domain[0]
        assert report.subdivision[-1] == c.domain[1]
        assert all(x < y for x, y in zip(report.subdivision,
                                         report.subdivision[1:]))


def test_constant_curve_has_zero_index():
    c = curve.from_chart_family(2, lambda t: np.eye(2), (0.0, 1.0))
    assert maslov.maslov_index(c, vertical_train(2)).value == 0


def test_oscillator_index_sign_follows_monotone_direction():
    train = vertical_train(1)
    decreasing = tan_family(1, sign=-1.0)
    increasing = tan_family(1, sign=+1.0)
    assert maslov.maslov_index(decreasing, train).value == -2
    assert maslov.maslov_index(increasing, train).value == 2


def test_monotone_pair_sum_agrees_with_chart_differences():
    train1 = vertical_train(1)
    for c, expected in ((tan_family(1, sign=+1.0), 2),
                        (tan_family(1, sign=-1.0), -2)):
        assert maslov.maslov_index(c, train1).value == expected
        assert maslov.maslov_index_monotone(c, train1).value == expected
    c2 = diag_family(2)
    train2 = vertical_train(2)
    assert maslov.maslov_index(c2, train2).value == 2
    assert maslov.maslov_index_monotone(c2, train2).value == 2


def test_monotone_route_matches_direct_inertia_drop_on_random_families():
    rng = np.random.default_rng(515)
    for _ in range(3):
        n = 2
        p = None
        while True:
            s0 = nondegenerate_symmetric(rng, n)
            b = rng.standard_normal((n, n))
            p = b @ b.T + 0.5 * np.eye(n)
            s1 = s0 + p
            if np.abs(np.linalg.eigvalsh(s1)).min() > 1e-2:
                break
        c = curve.from_chart_family(n, lambda t, s0=s0, p=p: s0 + t * p,
                                    (0.0, 1.0))
        expected = neg_count(s0) - neg_count(s0 + p)
        train = vertical_train(n)
        assert maslov.maslov_index(c, train).value == expected
        assert maslov.maslov_index_monotone(c, train).value == expected


def test_concatenation_is_additive():
    train = vertical_train(1)

    def make(domain):
        return curve.from_chart_family(1, lambda t: [[-np.tan(t)]], domain)

    whole = maslov.maslov_index(make((0.3, 3.5)), train).value
    left = maslov.maslov_index(make((0.3, 2.0)), train).value
    right = maslov.maslov_index(make((2.0, 3.5)), train).value
    assert left + right == whole
    assert whole == -1


def test_small_symplectic_conjugation_preserves_index():
    n = 2
    space = core.standard_space(n)
    train = vertical_train(n)
    base = diag_family(n)
    rng = np.random.default_rng(88)
    for _ in range(3):
        b = rng.standard_normal((n, n))
        b = 1e-3 * (b + b.T) / np.linalg.norm(b + b.T)
        t = np.block([[np.eye(n), b], [np.zeros((n, n)), np.eye(n)]])
        moved = curve.GrassmannCurve(
            space=space,
            eval=lambda u, t=t: core.make_frame(space,
                                                t @ base.eval(u).columns),
            domain=base.domain)
        assert maslov.maslov_index(moved, train).value == 2


def test_chart_schedule_does_not_change_index(monkeypatch):
    train = vertical_train(1)
    c = tan_family(1, sign=+1.0)
    coarse = maslov.maslov_index(c, train)
    monkeypatch.setattr(maslov, "MAX_GAP", 0.06)
    fine = maslov.maslov_index(c, train, seed=3)
    assert coarse.value == fine.value == 2
    assert fine.charts_used >= coarse.charts_used


def test_endpoint_on_train_rejected():
    c = curve.from_chart_family(1, lambda t: [[t]], (0.0, 1.0))
    with pytest.raises(EndpointOnTrain):
        maslov.maslov_index(c, vertical_train(1))


def test_wild_curve_exhausts_subdivision():
    c = curve.from_chart_family(
        1, lambda t: [[5.0 if np.sin(1e15 * t) > 0 else -5.0]], (0.0, 1.0))
    with pytest.raises(SubdivisionFailure):
        maslov.maslov_index(c, vertical_train(1))


def test_monotone_route_requires_monotonicity():
    c = curve.from_chart_family(2, lambda t: np.diag([2.0 + t, 2.0 - t]),
                                (0.0, 1.0))
    with pytest.raises(NotMonotone):
        maslov.maslov_index_monotone(c, vertical_train(2))


def test_monotone_route_refuses_a_velocity_that_changes_sign():
    # t^3 - t turns from increasing to decreasing and back: each sample's
    # velocity is definite, but the samples disagree in sign
    c = curve.from_chart_family(1, lambda t: [[t ** 3 - t]], (-1.5, 1.5))
    with pytest.raises(NotMonotone,
                       match="velocity form has no consistent sign"):
        maslov.maslov_index_monotone(c, core.horizontal_frame(c.space))


# ----------------------------------------------------------- conjugate points


def test_free_particle_has_no_conjugate_points():
    c = curve.from_chart_family(2, lambda t: -t * np.eye(2), (0.1, 5.0))
    assert maslov.conjugate_points(c, vertical_train(2)) == []


def test_oscillator_conjugate_points_at_pi_multiples():
    c = tan_family(1, sign=-1.0, domain=(0.05, 3.5 * np.pi))
    pts = maslov.conjugate_points(c, vertical_train(1))
    assert [p.multiplicity for p in pts] == [1, 1, 1]
    for p, k in zip(pts, (1, 2, 3)):
        assert abs(p.t - k * np.pi) <= 1e-8


def test_constant_curvature_crossing_spacing():
    # tan(2t)/2 family: curvature 4, crossings every pi/2
    c = curve.from_chart_family(
        1, lambda t: [[-0.5 * np.tan(2.0 * t)]], (0.1, 3.3))
    pts = maslov.conjugate_points(c, vertical_train(1))
    assert len(pts) == 2
    assert abs((pts[1].t - pts[0].t) - 0.5 * np.pi) <= 1e-8


def test_isotropic_crossing_has_full_multiplicity():
    c = tan_family(2, sign=-1.0, domain=(0.1, 1.5 * np.pi))
    train = vertical_train(2)
    pts = maslov.conjugate_points(c, train)
    assert len(pts) == 1
    assert pts[0].multiplicity == 2
    assert abs(pts[0].t - np.pi) <= 1e-8
    assert maslov.maslov_index(c, train).value == -2


def test_close_crossings_split_on_an_intermediate_level(monkeypatch):
    # the two eigenvalues cross at pi / 1.003 and pi, both within one
    # scan interval; _locate finds the middle inertia level between them
    # and splits there (its else branch), so each crossing comes out alone
    c = curve.from_chart_family(
        2, lambda t: np.diag([-np.tan(t), -np.tan(1.003 * t)]), (0.1, 3.3))
    levels = []
    locate = maslov._locate

    def spy(indices, tl, tr, il, ir, tol, depth=0):
        levels.append((depth, il, ir))
        return locate(indices, tl, tr, il, ir, tol, depth)

    monkeypatch.setattr(maslov, "_locate", spy)
    pts = maslov.conjugate_points(c, vertical_train(2))
    assert levels == [(0, 0, 2), (1, 0, 1), (1, 1, 2)]
    assert [p.multiplicity for p in pts] == [1, 1]
    assert abs(pts[0].t - np.pi / 1.003) <= 1e-8
    assert abs(pts[1].t - np.pi) <= 1e-8


class OffChart(Exception):
    pass


@pytest.mark.parametrize("failure", ["read raises", "not Lagrangian"])
def test_a_speculative_midpoint_that_fails_refuses_no_scan(monkeypatch,
                                                          failure):
    # _locate reads the next levels of midpoints in one pass; those on
    # the side the walk leaves are never reached, so a failure there (an
    # eval that raises, or a frame whose chart matrix is asymmetric)
    # refuses nothing, and the scan returns what it returns without it
    family = curve.from_chart_family(
        2, lambda t: np.diag([1.0 - t, 1.7 - t]), (0.0, 2.5))
    brackets = []
    locate = maslov._locate

    def spy(indices, tl, tr, il, ir, tol, depth=0):
        brackets.append((tl, tr))
        return locate(indices, tl, tr, il, ir, tol, depth)

    monkeypatch.setattr(maslov, "_locate", spy)
    want = maslov.conjugate_points(family, vertical_train(2))
    tl, tr = brackets[0]
    mid = 0.5 * (tl + tr)
    # the first crossing, at t = 1, sends the walk to one side of mid
    lo, hi = (mid, tr) if 1.0 < mid else (tl, mid)
    window = (lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo))
    hit = []

    def ev(t):
        if not window[0] < t < window[1]:
            return family.eval(t)
        hit.append(t)
        if failure == "read raises":
            raise OffChart(f"no frame at t={t:g}")
        s = np.diag([1.0 - t, 1.7 - t])
        s[0, 1] += 0.3
        return core.LagrangianFrame(family.space, np.linalg.qr(
            np.vstack([np.eye(2), s]))[0])

    got = maslov.conjugate_points(dataclasses.replace(family, eval=ev),
                                  vertical_train(2))
    assert hit and got == want
    assert [p.multiplicity for p in got] == [1, 1]


def split_tan_pair(delta, domain=(0.1, 3.3)):
    # crossings at pi / (1 + delta) and pi, pi * delta apart
    return curve.from_chart_family(
        2, lambda t: np.diag([-np.tan(t), -np.tan((1.0 + delta) * t)]),
        domain)


@pytest.mark.parametrize("delta, multiplicities", [
    (1e-5, [1, 1]), (3e-7, [1, 1]), (1e-7, [1, 1]), (1e-8, [1, 1]),
    (3e-9, [1, 1]), (1e-9, [2]), (3e-10, [2]),
])
def test_close_crossings_count_each_direction_once(delta, multiplicities):
    # a multiplicity is the inertia jump that located the point, so two
    # directions crossing a hair apart count once each; points within 10
    # tol merge and add up, and the total is always the index magnitude
    c = split_tan_pair(delta)
    train = vertical_train(2)
    pts = maslov.conjugate_points(c, train)
    assert [p.multiplicity for p in pts] == multiplicities
    assert abs(pts[0].t - np.pi / (1.0 + delta)) <= 1e-8
    assert maslov.maslov_index(c, train).value == -2


def test_morse_index_counts_close_crossings_once():
    jc = split_tan_pair(1e-7, domain=(0.0, 4.0))
    assert maslov.morse_index_regular_extremal(jc) == 2


@seed(20261020)
@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 3), st.lists(st.floats(0.8, 2.5), min_size=3,
                                   max_size=3),
       st.sampled_from([0.0, 1e-9, 1e-7, 1e-5]))
def test_conjugate_multiplicities_sum_to_the_crossing_count(n, omegas,
                                                            delta):
    omegas = np.array(omegas[:n])
    if n > 1:
        omegas[1] = omegas[0] * (1.0 + delta)
    horizon = 3.3
    crossings = [k * np.pi / w for w in omegas
                 for k in range(1, int(horizon * w / np.pi) + 2)]
    if min(abs(c - horizon) for c in crossings) < 0.02:
        return
    count = sum(c <= horizon for c in crossings)
    c = curve.from_chart_family(
        n, lambda t: -np.diag(np.tan(omegas * t)), (0.0, horizon))
    train = vertical_train(n)
    pts = maslov.conjugate_points(c, train)
    assert sum(p.multiplicity for p in pts) == count
    trimmed = curve.from_chart_family(
        n, lambda t: -np.diag(np.tan(omegas * t)), (0.066, horizon))
    assert maslov.maslov_index(trimmed, train).value == -count


def test_conjugate_total_matches_index_magnitude():
    c = tan_family(1, sign=-1.0, domain=(0.05, 3.5 * np.pi))
    train = vertical_train(1)
    pts = maslov.conjugate_points(c, train)
    total = sum(p.multiplicity for p in pts)
    assert total == 3
    assert maslov.maslov_index(c, train).value == -total


def test_conjugate_points_require_regular_monotone_input():
    flatdir = curve.from_chart_family(2, lambda t: np.diag([t, 5.0]),
                                      (0.1, 1.0))
    with pytest.raises(NotRegular):
        maslov.conjugate_points(flatdir, vertical_train(2))
    mixed = curve.from_chart_family(2, lambda t: np.diag([2.0 + t, 2.0 - t]),
                                    (0.0, 1.0))
    with pytest.raises(NotMonotone):
        maslov.conjugate_points(mixed, vertical_train(2))


# ---------------------------------------------------------------- morse index


def test_morse_index_free_particle_zero():
    jc = curve.from_chart_family(2, lambda t: -t * np.eye(2), (0.0, 4.0))
    assert maslov.morse_index_regular_extremal(jc) == 0


def test_morse_index_oscillator_horizons():
    for horizon, expected in ((0.5 * np.pi, 0), (1.5 * np.pi, 1),
                              (2.5 * np.pi, 2)):
        jc = curve.from_chart_family(1, lambda t: [[-np.tan(t)]],
                                     (0.0, horizon))
        assert maslov.morse_index_regular_extremal(jc) == expected


def test_morse_index_isotropic_oscillator():
    jc = tan_family(3, sign=-1.0, domain=(0.0, 1.5 * np.pi))
    assert maslov.morse_index_regular_extremal(jc) == 3


def test_morse_rejects_degenerate_horizon():
    jc = curve.from_chart_family(1, lambda t: [[-np.tan(t)]], (0.0, np.pi))
    with pytest.raises(DegenerateEndpoint):
        maslov.morse_index_regular_extremal(jc)
