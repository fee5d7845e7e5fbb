import ast
import dataclasses
import importlib
import inspect
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lagrass
from lagrass import analysis, cli, core, curve, hamflow, lderiv, maslov
from lagrass.errors import NotInChart, NotTransversal, SearchExhausted


def test_standard_space_form():
    sp = core.standard_space(2)
    u = np.array([1.0, 2.0, 0.0, 0.0])   # (p, q) stacking, p first
    v = np.array([0.0, 0.0, 3.0, 4.0])
    assert sp.form @ v @ u == pytest.approx(11.0)
    assert u @ sp.form @ u == 0.0


def test_standard_space_is_the_block_form():
    # J is built from n alone and equals [[0, I], [-I, 0]] exactly
    for n in range(1, 5):
        eye, zero = np.eye(n), np.zeros((n, n))
        form = core.standard_space(n).form
        assert form.dtype == np.float64
        assert np.array_equal(form, np.block([[zero, eye], [-eye, zero]]))


def test_space_refuses_nonpositive_dimension():
    with pytest.raises(ValueError):
        core.SymplecticSpace(0)
    with pytest.raises(ValueError):
        core.standard_space(0)


def test_make_frame_orthonormalizes():
    sp = core.standard_space(2)
    cols = np.vstack([np.eye(2) * 3.0, np.zeros((2, 2))])
    fr = core.make_frame(sp, cols)
    assert np.allclose(fr.columns.T @ fr.columns, np.eye(2), atol=1e-12)
    assert core.same_subspace(fr, core.vertical_frame(sp))


def test_make_frame_rejects_non_lagrangian():
    sp = core.standard_space(2)
    s = np.array([[0.0, 1.0], [0.0, 0.0]])   # asymmetric graph matrix
    cols = np.vstack([np.eye(2), s])
    with pytest.raises(ValueError):
        core.make_frame(sp, cols)


def test_make_frame_rejects_rank_deficient():
    sp = core.standard_space(2)
    cols = np.zeros((4, 2))
    cols[0, 0] = 1.0
    cols[0, 1] = 1.0
    with pytest.raises(ValueError):
        core.make_frame(sp, cols)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (3, 1), "all"])
def test_frames_refuse_non_finite_entries(bad, where):
    sp = core.standard_space(2)
    cols = core.random_lagrangian(sp, np.random.default_rng(3)).columns.copy()
    if where == "all":
        cols[:] = bad
    else:
        cols[where] = bad
    stack = np.stack([core.vertical_frame(sp).columns, cols,
                      core.horizontal_frame(sp).columns])
    with warnings.catch_warnings():
        # the QR gufuncs run outside np.linalg.qr's error-state context
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite entries"):
            core.make_frame(sp, cols)
        # a stacked _frames flags the bad member alone, by a rank or
        # isotropy comparison that NaN fails
        _, dependent, defect = core._frames(sp, stack)
        # the chart search names the bad frame, in the stack or in avoid,
        # before J @ cols or an SVD reads it
        with pytest.raises(ValueError, match="^frame has non-finite entries$"):
            core._complements(sp, stack, np.zeros((3, 0, 4, 2)), 0)
        fine = stack[[0, 2, 0]]
        with pytest.raises(ValueError, match="^frame has non-finite entries$"):
            core._complements(sp, fine, stack[:, None], 0)
    assert (dependent | ~(defect <= core.ISOTROPY_TOL)).tolist() == [
        False, True, False]


def _numpy_qr(cols):
    # the reference _orthonormal replaced: numpy's qr and its R diagonal
    q, r = np.linalg.qr(cols)
    diag = np.abs(r.diagonal(axis1=-2, axis2=-1))
    if not diag.shape[-1]:
        return q, np.zeros(diag.shape[:-1], dtype=bool)
    return q, ~(diag.min(axis=-1) > core.RANK_TOL * diag.max(
        axis=-1, initial=1e-300))


_QR_RNG = np.random.default_rng(29)
_QR_CASES = {
    "tall": _QR_RNG.standard_normal((6, 3)),
    "square": _QR_RNG.standard_normal((4, 4)),
    "wide": _QR_RNG.standard_normal((3, 5)),
    "zero-column": np.zeros((4, 0)),
    "empty-stack": np.zeros((0, 4, 2)),
    "stack": _QR_RNG.standard_normal((5, 3, 6, 3)),
    "fortran": np.asfortranarray(_QR_RNG.standard_normal((6, 3))),
    "strided": _QR_RNG.standard_normal((12, 7))[::2, ::3],
    "big-endian": _QR_RNG.standard_normal((6, 3)).astype(">f8"),
    "integer": _QR_RNG.integers(-5, 6, (6, 3)),
    "all-zero": np.zeros((4, 2)),
    "rank-deficient": np.outer(np.arange(1.0, 5.0), [1.0, 2.0]),
    "nan": np.where(np.eye(4, 2) > 0, np.nan, 1.0),
    "inf": np.where(np.eye(4, 2) > 0, np.inf, 1.0),
}


@pytest.mark.parametrize("cols", _QR_CASES.values(), ids=_QR_CASES.keys())
def test_orthonormal_is_numpy_qr_bit_for_bit(cols):
    before = cols.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, dependent = core._orthonormal(cols)
    want_q, want_dependent = _numpy_qr(cols)
    assert (q.dtype, q.shape) == (want_q.dtype, want_q.shape)
    assert q.tobytes() == want_q.tobytes()
    assert np.array_equal(dependent, want_dependent)
    # the factoring works on a copy
    assert before.tobytes() == cols.tobytes()
    assert before.dtype == cols.dtype


def test_frames_do_not_call_numpy_qr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    sp = core.standard_space(3)
    frame = core.random_lagrangian(sp, np.random.default_rng(8))
    assert core.same_subspace(core.make_frame(sp, 2.0 * frame.columns), frame)
    delta = core.transversal_complement(frame, [core.vertical_frame(sp)])
    assert core.intersection_dim(frame, delta) == 0


@pytest.mark.parametrize("call", [
    pytest.param(lambda: core.rank([[np.inf, 1.0], [1.0, 2.0]]), id="rank"),
    pytest.param(lambda: core.span([[1.0], [np.nan]]), id="span"),
    pytest.param(lambda: core.nullspace([[20.0, np.inf, 0.0, 0.0],
                                         [0.0, 0.0, 2.0, 0.0]]),
                 id="nullspace"),
    pytest.param(lambda: core.inertia([[np.nan, 0.0], [0.0, 1.0]]),
                 id="inertia-nan"),
    pytest.param(lambda: core.inertia([[1.0, 0.0], [0.0, np.inf]]),
                 id="inertia-inf"),
    pytest.param(lambda: core.sym_inv_sqrt(np.diag([np.nan, 1.0])),
                 id="sym-inv-sqrt"),
    pytest.param(lambda: core.QuadraticForm(2, np.diag([np.nan, 1.0])),
                 id="quadratic-form"),
])
def test_non_finite_matrices_are_refused(call):
    # rank, inertia and sym_inv_sqrt once answered with 0, Inertia(0, 2, 0)
    # and a NaN matrix
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        call()


def test_subspace_gap_extremes():
    sp = core.standard_space(3)
    v = core.vertical_frame(sp)
    h = core.horizontal_frame(sp)
    assert core.subspace_gap(v, v) == pytest.approx(0.0, abs=1e-12)
    assert core.subspace_gap(v, h) == pytest.approx(1.0)
    assert core.intersection_dim(v, h) == 0
    assert core.intersection_dim(v, v) == 3


def test_projector_frozen_example():
    """n=1: projector onto graph(1) along graph(0) is [[0,1],[0,1]]."""
    sp = core.standard_space(1)
    v0 = core.make_frame(sp, np.array([[1.0], [0.0]]))
    v1 = core.make_frame(sp, np.array([[1.0], [1.0]]))
    p = core.projector(v0, v1)
    assert np.allclose(p, np.array([[0.0, 1.0], [0.0, 1.0]]), atol=1e-12)


def test_projector_pair_identities():
    rng = np.random.default_rng(7)
    sp = core.standard_space(3)
    sigma = sp.form
    for _ in range(25):
        v0 = core.random_lagrangian(sp, rng)
        v1 = core.random_lagrangian(sp, rng)
        if not core.is_transversal(v0, v1):
            continue
        p01 = core.projector(v0, v1)
        p10 = core.projector(v1, v0)
        assert np.allclose(p01 @ p01, p01, atol=1e-9)
        assert np.allclose(p01 + p10, np.eye(6), atol=1e-9)
        assert np.allclose(p01 @ v1.columns, v1.columns, atol=1e-9)
        assert np.allclose(p01 @ v0.columns, 0.0, atol=1e-9)
        # the complementary projectors are sigma-adjoint to each other
        assert np.allclose(p01.T @ sigma, sigma @ p10, atol=1e-9)


def test_projector_requires_transversality():
    sp = core.standard_space(2)
    v = core.vertical_frame(sp)
    with pytest.raises(NotTransversal):
        core.projector(v, v)


def test_darboux_chart_is_symplectic_basis():
    rng = np.random.default_rng(11)
    sp = core.standard_space(2)
    jstd = core.standard_space(2).form
    for _ in range(10):
        pi = core.random_lagrangian(sp, rng)
        delta = core.transversal_complement(pi)
        chart = core.darboux_chart(pi, delta)
        assert np.allclose(chart.basis.T @ sp.form @ chart.basis, jstd,
                           atol=1e-9)
        assert np.allclose(chart.basis_inv @ chart.basis, np.eye(4),
                           atol=1e-9)


def test_darboux_chart_rejects_intersecting_pair():
    sp = core.standard_space(2)
    v = core.vertical_frame(sp)
    with pytest.raises(NotTransversal):
        core.darboux_chart(v, v)


def test_chart_roundtrip():
    rng = np.random.default_rng(3)
    sp = core.standard_space(3)
    chart = core.standard_chart(sp)
    for _ in range(20):
        s = rng.standard_normal((3, 3))
        s = s + s.T
        fr = core.make_frame(sp, np.vstack([np.eye(3), s]))
        rep = core.chart_coords(fr, chart)
        assert np.allclose(rep.S, s, atol=1e-8)
        back = core.frame_from_chart(rep)
        assert core.same_subspace(fr, back)


def test_chart_roundtrip_random_charts():
    rng = np.random.default_rng(5)
    sp = core.standard_space(2)
    for _ in range(20):
        pi = core.random_lagrangian(sp, rng)
        delta = core.transversal_complement(pi)
        chart = core.darboux_chart(pi, delta)
        fr = core.random_lagrangian(sp, rng)
        if not core.is_transversal(fr, delta):
            continue
        rep = core.chart_coords(fr, chart)
        back = core.frame_from_chart(rep)
        assert core.same_subspace(fr, back)
        # ker S picks out the intersection with the chart origin Pi
        assert core.inertia(rep.S).zero == core.intersection_dim(fr, pi)


def test_graph_coords_flags_chart_miss():
    sp = core.standard_space(2)
    chart = core.standard_chart(sp)
    h = core.horizontal_frame(sp)
    with pytest.raises(NotInChart):
        core.graph_coords(chart, h.columns)


def test_graph_coords_non_lagrangian_is_asymmetric():
    sp = core.standard_space(2)
    chart = core.standard_chart(sp)
    s = np.array([[0.0, 1.0], [0.0, 0.0]])
    cols = np.vstack([np.eye(2), s])
    got = core.graph_coords(chart, cols)
    assert np.allclose(got, s, atol=1e-12)
    assert np.linalg.norm(got - got.T) > 0.5


def test_chart_matrices_refuse_with_the_first_failing_frame():
    # stack order decides: a non-Lagrangian frame ahead of a frame off
    # the chart refuses with its own defect, not the largest in the stack
    sp = core.standard_space(2)
    chart = core.standard_chart(sp)

    def graph(s):
        return np.vstack([np.eye(2), s])

    good = graph(np.eye(2))
    small = graph([[0.0, 0.1], [0.0, 0.0]])   # defect 0.1 sqrt(2)
    large = graph([[0.0, 3.0], [0.0, 0.0]])   # defect 3 sqrt(2)
    off = core.horizontal_frame(sp).columns
    with pytest.raises(ValueError, match=r"asymmetric \(1\.414e-01\)"):
        core.chart_matrices(chart, np.stack([good, small, off, large]))
    with pytest.raises(NotInChart):
        core.chart_matrices(chart, np.stack([good, off, small, large]))
    with pytest.raises(NotInChart):
        core.graph_coords(chart, np.stack([good, small, off]))
    with pytest.raises(ValueError, match=r"asymmetric \(4\.243e\+00\)"):
        core.chart_matrices(chart, large)


def _reference_search(frame, avoid, seed):
    """transversal_complement's rule, scored one [candidate | other] pair
    at a time; None where the search is exhausted."""
    best, best_score = None, -np.inf
    for cols in core._candidates(frame, avoid, seed):
        try:
            cand = core.make_frame(frame.space, cols)
        except ValueError:
            continue
        score = min(float(core._margin(cand.columns, other.columns))
                    for other in (frame, *avoid))
        if score >= best_score:
            best, best_score = cand, score
        if best_score >= core.GOOD_MARGIN:
            return best
    return best if best_score >= core.MIN_MARGIN else None


def _reference_inertia(m):
    """inertia's threshold rule, one matrix at a time."""
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    scale = np.abs(eigs).max()
    if scale <= 2.5e-14:
        return core.Inertia(0, len(m), 0)
    neg = int(np.sum(eigs < -core.RANK_TOL * scale))
    pos = int(np.sum(eigs > core.RANK_TOL * scale))
    return core.Inertia(neg, len(m) - neg - pos, pos)


@seed(20261021)
@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 5), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_stacked_inertia_equals_inertia(k, count, draw):
    # random members, members with planted kernels just above and below
    # the relative threshold, near-zero and zero members, not symmetrized
    rng = np.random.default_rng(draw)
    mats = []
    for i in range(count):
        v = np.linalg.qr(rng.standard_normal((k, k)))[0]
        eigs = rng.standard_normal(k)
        eigs[:i % k] *= [1e-12, 1e-8, 0.0][i % 3]
        m = v @ np.diag(eigs) @ v.T * [1.0, 1e-15, 0.0, 1e3][i % 4]
        mats.append(m + 1e-13 * rng.standard_normal((k, k)))
    mats = np.array(mats)
    neg, zero, pos = core._inertias(mats)
    for m, counts in zip(mats, zip(neg, zero, pos)):
        assert core.inertia(m) == _reference_inertia(m) == core.Inertia(
            *map(int, counts))


def test_stacked_frame_check_refuses_the_first_failing_member():
    sp = core.standard_space(2)
    rng = np.random.default_rng(3)
    good = [core.random_lagrangian(sp, rng).columns for _ in range(3)]
    skew = np.vstack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    flat = np.vstack([np.eye(2)[:, [0, 0]], np.zeros((2, 2))])
    frames = core._make_frames(sp, np.stack(good))
    assert [f.columns.tobytes() for f in frames] == [
        core.make_frame(sp, c).columns.tobytes() for c in good]
    for bad in (skew, flat, np.full((4, 2), np.nan)):
        with pytest.raises(ValueError) as alone:
            core.make_frame(sp, bad)
        with pytest.raises(ValueError) as stacked:
            core._make_frames(sp, np.stack([good[0], bad, skew, good[1]]))
        assert str(stacked.value) == str(alone.value)


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.integers(1, 9),
       st.integers(0, 1))
def test_stacked_chart_kernel_equals_one_frame_at_a_time(
        n, draw, count, search_seed):
    rng = np.random.default_rng(draw)
    sp = core.standard_space(n)
    t = core.random_symplectic(sp, rng)
    center = core.make_frame(sp, t @ core.vertical_frame(sp).columns)
    frames = [core.make_frame(sp, t @ core.random_lagrangian(sp, rng).columns)
              for _ in range(count)]
    want = _reference_search(center, frames, search_seed)
    if want is None:
        with pytest.raises(SearchExhausted):
            core.transversal_complement(center, frames, search_seed)
        return
    delta = core.transversal_complement(center, frames, search_seed)
    assert np.array_equal(delta.columns, want.columns)
    chart = core.darboux_chart(center, delta)
    stack = np.stack([fr.columns for fr in frames])
    graphs = core.graph_coords(chart, stack)
    mats = core.chart_matrices(chart, stack)
    assert graphs.shape == mats.shape == (count, n, n)
    for fr, g, s in zip(frames, graphs, mats):
        w = chart.basis_inv @ fr.columns
        assert np.array_equal(g, np.linalg.solve(w[:n].T, w[n:].T).T)
        assert np.array_equal(s, core.chart_coords(fr, chart).S)
        assert np.array_equal(s, 0.5 * (g + g.T))


@pytest.mark.parametrize("shape, k", [((6, 4), 2), ((4, 6), 3), ((5, 5), 1),
                                      ((3, 5), 3)])
def test_rank_span_nullspace_share_one_rule(shape, k):
    rng = np.random.default_rng(shape[0] * 10 + k)
    rows, cols = shape
    mat = rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
    # a perturbation under the relative cut-off does not count
    mat += 1e-12 * rng.standard_normal(shape)
    assert core.rank(mat) == k
    basis = core.span(mat)
    kernel = core.nullspace(mat)
    assert basis.shape == (rows, k)
    assert kernel.shape == (cols, cols - k)
    assert core.rank(mat) + kernel.shape[1] == cols
    assert np.allclose(basis.T @ basis, np.eye(k), atol=1e-12)
    assert np.allclose(kernel.T @ kernel, np.eye(cols - k), atol=1e-12)
    assert np.abs(mat @ kernel).max(initial=0.0) <= 1e-10


def test_rank_helpers_take_empty_inputs():
    assert core.span(np.zeros((4, 0))).shape == (4, 0)
    assert core.nullspace(np.zeros((4, 0))).shape == (0, 0)
    assert core.rank(np.zeros((4, 0))) == 0
    assert core.rank(np.zeros((3, 3))) == 0
    assert core.nullspace(np.zeros((2, 3))).shape == (3, 3)


def _public_callables():
    """Every public function, class and method the lagrass modules define.

    Exception classes are left out: they take a message, nothing else.
    """
    for info in pkgutil.iter_modules(lagrass.__path__):
        mod = importlib.import_module(f"lagrass.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not callable(obj) \
                    or getattr(obj, "__module__", "") != mod.__name__:
                continue
            if not inspect.isclass(obj):
                yield f"{mod.__name__}.{name}", obj
            elif not issubclass(obj, BaseException):
                yield f"{mod.__name__}.{name}", obj
                for attr, meth in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(meth):
                        yield f"{mod.__name__}.{name}.{attr}", meth


def test_no_callable_takes_a_rank_tolerance():
    # the rank rule has one fixed tolerance, core.RANK_TOL
    walked = dict(_public_callables())
    assert "lagrass.hamflow.LevelReduction.reduce_frame" in walked
    assert [name for name, obj in walked.items()
            if "rank_tol" in inspect.signature(obj).parameters] == []


# parameters that had one value in use and became that constant
_DELETED_KNOBS = {
    "lagrass.hamflow.metric_system": {"fd_step"},
    "lagrass.hamflow.quadratic_system": {"family"},
    "lagrass.hamflow.polynomial_system": {"family"},
    "lagrass.hamflow.HamiltonianSystem": {"family"},
    "lagrass.hamflow.connection_ode2": {"fd_step"},
    "lagrass.hamflow.monotonicity_test": {"max_samples"},
    "lagrass.curve.GrassmannCurve": {"grid"},
    "lagrass.curve.transport": {"step", "fd_step"},
    "lagrass.curve.classify": {"samples"},
    "lagrass.analysis.reduction_comparison": {"count"},
    "lagrass.analysis.decay_rate": {"skip", "floor"},
    "lagrass.lderiv.lagrangian_point": {"tol", "max_iter"},
    "lagrass.core.random_symplectic": {"factors", "scale"},
    "lagrass.core.SymplecticSpace": {"form"},
    "lagrass.curve.velocity_form": {"fd_step"},
    "lagrass.curve.infinitesimal_cross_ratio": {"fd_step"},
    "lagrass.curve.pair_ratio": {"fd_step"},
    "lagrass.curve.derivative_curve": {"fd_step"},
    "lagrass.curve.derivative_family": {"fd_step"},
    "lagrass.curve.curvature": {"fd_step"},
    "lagrass.curve.curvature_via_cross_ratio": {"fd_step"},
    "lagrass.curve.curvature_form": {"fd_step"},
    "lagrass.curve.transport_generator": {"fd_step"},
    "lagrass.curve.schwarzian": {"h"},
    "lagrass.curve.fundamental_matrix": {"step"},
    "lagrass.maslov.maslov_index": {"max_gap"},
    "lagrass.maslov.maslov_index_monotone": {"max_gap", "seed"},
    "lagrass.maslov.conjugate_points": {"max_gap"},
    "lagrass.maslov.morse_index_regular_extremal": {"max_gap", "seed"},
    "lagrass.lderiv.family_index_delta": {"max_gap", "seed"},
    "lagrass.curve.from_chart_family": {"fd_step"},
    "lagrass.curve.reparametrize": {"fd_step"},
}

# result fields that no caller read, by class
_DELETED_FIELDS = {
    curve.CurveOperator: {"kind", "at"},
    curve.VelocityForm: {"at"},
    curve.CurvatureForm: {"at"},
    curve.TransportResult: {"frame0", "frame1"},
    hamflow.MonotonicityReport: {"times", "inertias"},
    analysis.ComparisonReport: {"step"},
}


def test_deleted_knobs_stay_deleted():
    walked = dict(_public_callables())
    assert set(_DELETED_KNOBS) <= set(walked)
    back = {}
    for name, gone in _DELETED_KNOBS.items():
        knobs = gone & set(inspect.signature(walked[name]).parameters)
        if knobs:
            back[name] = sorted(knobs)
    assert back == {}
    for private, knob in ((maslov._monotone_direction, "samples"),
                          (maslov._pieces, "max_gap"),
                          (curve._stencil_geometry, "fd_step"),
                          (cli._check_matrix, "symmetric")):
        assert knob not in inspect.signature(private).parameters
    assert "gradient" not in vars(hamflow.HamiltonianSystem)
    # infinitesimal_cross_ratio calls _centered_charts with a stack of one
    assert not hasattr(curve, "_centered_chart")
    # a conjugate point's multiplicity is the inertia jump that found it,
    # and _chart_index reads every piece-chart inertia
    assert not hasattr(maslov, "_MULT_TOL")
    assert not hasattr(maslov, "_chart_matrix")
    assert "dim_w" not in vars(lderiv.LDerivData)


@pytest.mark.parametrize("form, sign", [
    (np.diag([1.0, 2.0]), 1), (np.diag([-1.0, -3.0]), -1),
    (np.diag([1.0, -1.0]), 0), (np.diag([1.0, 0.0]), 0),
    (np.diag([0.0, -1.0]), 0), (np.zeros((2, 2)), 0), ([[2.0]], 1),
    ([[1.0, 2.0], [2.0, 1.0]], 0), ([[2.0, 1.0], [1.0, 2.0]], 1),
])
def test_definite_sign_is_the_inertia_verdict(form, sign):
    # semi-definite forms are not definite
    assert core._definite_sign(np.asarray(form)) == sign


def test_deleted_fields_stay_deleted():
    back = {}
    for cls, gone in _DELETED_FIELDS.items():
        fields = gone & {f.name for f in dataclasses.fields(cls)}
        if fields:
            back[cls.__name__] = sorted(fields)
    assert back == {}


def test_only_the_integrators_take_an_orbit_span():
    # a reader of an orbit takes the DenseFlow or Trajectory its caller
    # built and reads the horizon, step and z0 from it
    spans = []
    for name, obj in _public_callables():
        if not name.startswith(("lagrass.hamflow.", "lagrass.analysis.")) \
                or not inspect.isfunction(obj):
            continue
        params = inspect.signature(obj).parameters
        if {"horizon", "step"} & set(params):
            spans.append(name)
        for orbit in ("dense", "orbit", "traj"):
            assert orbit not in params \
                or params[orbit].default is inspect.Parameter.empty, name
    assert spans == ["lagrass.hamflow.flow"]
    # the certificate's mode follows the type of the orbit it is given
    assert list(inspect.signature(
        analysis.certify_negative_curvature).parameters) == ["orbit"]


def test_no_module_imports_a_name_it_never_reads():
    # __init__ re-exports the error types without reading them
    unused = []
    for path in sorted(Path(lagrass.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _quadratic(a, b):
    return lambda x: 0.5 * float(x @ a @ x) + float(b @ x)


def test_differences_are_exact_on_a_quadratic():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    a = a + a.T
    b = rng.standard_normal(3)
    x = rng.standard_normal(3)
    f = _quadratic(a, b)
    assert np.allclose(core._central_difference(f, x, 1e-4), a @ x + b,
                       rtol=0.0, atol=1e-9)
    assert np.allclose(core._mixed_difference(f, x, 1e-3), a,
                       rtol=0.0, atol=1e-7)
    # a vector of quadratics: the component Hessians fill the last axes
    c = rng.standard_normal((3, 3))
    c = c + c.T
    g = _quadratic(c, b)
    pair = core._mixed_difference(lambda x: np.array([f(x), g(x)]), x, 1e-3)
    assert pair.shape == (2, 3, 3)
    assert np.allclose(pair, [a, c], rtol=0.0, atol=1e-7)


def test_central_difference_rows_are_directions():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3))
    a = a + a.T
    b = rng.standard_normal(3)
    x = rng.standard_normal(3)
    dirs = rng.standard_normal((2, 3))
    got = core._central_difference(_quadratic(a, b), x, 1e-4, dirs)
    assert got.shape == (2,)
    assert np.allclose(got, dirs @ (a @ x + b), rtol=0.0, atol=1e-9)


def test_central_difference_of_vectors_is_a_c_ordered_jacobian():
    # SVD and BLAS round differently on F-ordered input, so the layout
    # is part of what the callers rely on
    def fun(x):
        return np.array([np.sin(x[0]) * x[1], x[0] ** 3, np.exp(x[1] - x[2])])

    x, h = np.array([0.3, -0.7, 0.2]), 1e-6
    cols = [(fun(x + e) - fun(x - e)) / (2.0 * h) for e in h * np.eye(3)]
    got = core._central_difference(fun, x, h)
    assert got.flags["C_CONTIGUOUS"]
    assert np.array_equal(got, np.column_stack(cols))


def test_inertia_diag():
    q = np.diag([3.0, 0.0, -2.0, -1.0])
    ine = core.inertia(q)
    assert (ine.neg, ine.zero, ine.pos) == (2, 1, 1)
    assert core.inertia(np.zeros((3, 3))).zero == 3
    assert core.inertia(np.zeros((0, 0))).dim == 0


def test_inertia_relative_threshold():
    q = np.diag([1.0, 1e-15])
    ine = core.inertia(q)
    assert (ine.neg, ine.zero, ine.pos) == (0, 1, 1)


def test_transversal_complement_schedule():
    sp = core.standard_space(2)
    v = core.vertical_frame(sp)
    h = core.horizontal_frame(sp)
    # sigma*frame comes first and clears the frame by margin 1
    assert core.same_subspace(core.transversal_complement(v), h)
    # avoiding h blocks it and the second sigma-complement sigma*h = v;
    # a seeded graph over the chart (v, h) clears both by the floor
    got = core.transversal_complement(v, avoid=[h])
    assert not core.same_subspace(got, h)
    assert (core._margin(got.columns, np.stack([v.columns, h.columns]))
            >= core.MIN_MARGIN).all()


def test_transversal_complement_seeds_pick_different_graphs():
    # with both sigma-complements blocked the seed decides the chart, so
    # a cross-check under a second seed reads a different chart
    sp = core.standard_space(2)
    v = core.vertical_frame(sp)
    h = core.horizontal_frame(sp)
    got0 = core.transversal_complement(v, avoid=[h], seed=0)
    got1 = core.transversal_complement(v, avoid=[h], seed=1)
    assert not core.same_subspace(got0, got1)


def test_chart_search_refuses_a_negative_seed():
    # sigma*frame wins at once here, so the seed is never drawn from;
    # it is refused all the same, whatever the frames
    sp = core.standard_space(2)
    v = core.vertical_frame(sp)
    assert core.same_subspace(core.transversal_complement(v, seed=0),
                              core.horizontal_frame(sp))
    with pytest.raises(ValueError, match="seed -1 must be >= 0"):
        core.transversal_complement(v, seed=-1)


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.integers(0, 3),
       st.integers(0, 1))
def test_transversal_complement_clears_the_floor_in_any_frame(
        n, draw, extra, search_seed):
    rng = np.random.default_rng(draw)
    sp = core.standard_space(n)
    t = core.random_symplectic(sp, rng)
    frame = core.make_frame(sp, t @ core.vertical_frame(sp).columns)
    avoid = [core.make_frame(sp, t @ core.horizontal_frame(sp).columns)]
    avoid += [core.make_frame(sp, t @ core.random_lagrangian(sp, rng).columns)
              for _ in range(extra)]
    comp = core.transversal_complement(frame, avoid=avoid, seed=search_seed)
    assert np.linalg.norm(comp.columns.T @ sp.form @ comp.columns) < 1e-9
    for other in (frame, *avoid):
        assert core._margin(comp.columns, other.columns) >= core.MIN_MARGIN


def test_transversal_complement_random_inputs():
    rng = np.random.default_rng(19)
    sp = core.standard_space(4)
    for _ in range(30):
        fr = core.random_lagrangian(sp, rng)
        comp = core.transversal_complement(fr)
        assert core.is_transversal(comp, fr)


def test_transversal_complement_exhaustion_is_detectable():
    # lines every pi/200 leave no line of the plane more than pi/400 from
    # one of them, a margin below 0.006: every candidate is blocked
    sp = core.standard_space(1)
    v = core.vertical_frame(sp)
    avoid = [core.make_frame(sp, np.array([[np.cos(a)], [np.sin(a)]]))
             for a in np.arange(200) * np.pi / 200]
    with pytest.raises(SearchExhausted, match="below MIN_MARGIN 0.01"):
        core.transversal_complement(v, avoid=avoid)


def test_random_symplectic_preserves_form():
    rng = np.random.default_rng(23)
    for n in (1, 2, 4):
        sp = core.standard_space(n)
        for _ in range(10):
            t = core.random_symplectic(sp, rng)
            assert core.symplectic_defect(sp, t) < 1e-10


def test_random_lagrangian_is_lagrangian():
    rng = np.random.default_rng(29)
    sp = core.standard_space(3)
    for _ in range(10):
        fr = core.random_lagrangian(sp, rng)
        assert np.linalg.norm(fr.columns.T @ sp.form @ fr.columns) < 1e-9


def test_inertia_invariant_under_congruence():
    """Chart matrices of a fixed pair keep their inertia across charts."""
    rng = np.random.default_rng(31)
    sp = core.standard_space(3)
    s = np.diag([2.0, -1.0, 0.5])
    fr = core.make_frame(sp, np.vstack([np.eye(3), s]))
    base = core.inertia(core.chart_coords(fr, core.standard_chart(sp)).S)
    v = core.vertical_frame(sp)
    for _ in range(10):
        t = core.random_symplectic(sp, rng)
        fr_t = core.make_frame(sp, t @ fr.columns)
        v_t = core.make_frame(sp, t @ v.columns)
        delta = core.transversal_complement(v_t, avoid=[fr_t])
        rep = core.chart_coords(fr_t, core.darboux_chart(v_t, delta))
        got = core.inertia(rep.S)
        assert got.zero == base.zero == 0
        # signature may flip sign with chart orientation but the zero
        # count (intersection with the transported vertical) cannot
        assert got.dim == 3


def test_sym_inv_sqrt():
    rng = np.random.default_rng(37)
    for _ in range(10):
        b = rng.standard_normal((4, 4))
        a = b.T @ b + np.eye(4)
        x = core.sym_inv_sqrt(a)
        assert np.allclose(x @ a @ x, np.eye(4), atol=1e-10)
        assert np.allclose(x, x.T, atol=1e-12)
    with pytest.raises(ValueError):
        core.sym_inv_sqrt(np.diag([1.0, -1.0]))
