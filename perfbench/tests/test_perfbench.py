"""Tests of the benchmark's own parts: oracles, tracer, bindings.

    python3 -m pytest -q perfbench/tests
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lagrass import (analysis, cli, core, curve, hamflow, lderiv,  # noqa: E402
                     maslov)

MODS = {"core": core, "curve": curve, "maslov": maslov, "lderiv": lderiv,
        "hamflow": hamflow, "analysis": analysis, "cli": cli}
LIB = types.SimpleNamespace(**MODS)


def unit_oscillator(horizon=4.0):
    cfg = {"system": {"family": "natural", "n": 1,
                      "potential": {"k": [[1.0]]}},
           "initial": [0.8, -0.3], "horizon": horizon, "step": 1e-3}
    return workloads.QuadModel.from_config(cfg)


# ----------------------------------------------------------------- oracle


def test_conjugate_oracle_accepts_exact_and_rejects_perturbed():
    check = workloads.quad_expect("conjugate", unit_oscillator(), {})
    good = np.array([[math.pi, 1.0]])
    assert check({"count": 1, "index": 1}, good)[0] is None
    shifted = np.array([[math.pi + 1e-4, 1.0]])
    assert check({"count": 1, "index": 1}, shifted)[0] is not None
    doubled = np.array([[math.pi, 2.0]])
    assert check({"count": 1, "index": 2}, doubled)[0] is not None


def test_maslov_and_morse_oracles_use_the_crossing_count():
    model = unit_oscillator(horizon=7.0)
    maslov_check = workloads.quad_expect("maslov", model, {})
    assert maslov_check({"value": -2}, np.zeros((0, 1)))[0] is None
    assert maslov_check({"value": -1}, np.zeros((0, 1)))[0] is not None
    morse_check = workloads.quad_expect("morse", model, {})
    rows = np.array([[math.pi, 1.0], [2 * math.pi, 1.0]])
    ok = {"index": 2, "trimmed_maslov": -2, "legendre_sign": 1}
    assert morse_check(ok, rows)[0] is None
    assert morse_check(dict(ok, trimmed_maslov=2), rows)[0] is not None


def test_jacobi_oracle_matches_the_cli_and_catches_a_tampered_row(tmp_path):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    command, cfg = workloads.acceptance_cases()[1]
    assert command == "jacobi"
    model = workloads.QuadModel.from_config(cfg)
    op = workloads.cli_op(cli, command, cfg, cfg_dir / "c.json",
                          workloads.quad_expect(command, model, {}), "jacobi")
    out = tmp_path / "out"
    rc = op.execute(out)
    assert op.check(rc, out)[0] is None
    csv = out / "jacobi.csv"
    lines = csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-4)
    lines[5] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    assert "projector" in op.check(rc, out)[0]


def test_group_check_flags_the_disagreeing_route():
    conj = workloads.Op("cli:conjugate", "c", None, None, facts={"h": 4.0})
    mas = workloads.Op("cli:maslov", "m", None, None, facts={"h": 4.0})
    scan = {"times": [1.5, 3.0], "mults": [1, 1]}
    agree = [(0, conj, scan), (1, mas, {"maslov": -2, "t0": 0.04})]
    assert workloads.group_check(agree) == {}
    disagree = [(0, conj, scan), (1, mas, {"maslov": -1, "t0": 0.04})]
    assert set(workloads.group_check(disagree)) == {1}


def test_rotating_curve_ops_pass_on_a_plain_line_of_frequencies():
    index, scan, _, _, classify = workloads._curve_ops(
        LIB, np.random.default_rng([0, 0]), 1, conj=False, audit=True)
    pairs = index.execute(None)
    assert index.check(pairs, None)[0] is None
    assert index.check(pairs + 1, None)[0] is not None
    chart, pts = scan.execute(None)
    assert scan.check((chart, pts), None)[0] is None
    assert scan.check((chart + 1, pts), None)[0] is not None
    flags = classify.execute(None)
    assert classify.check(flags, None)[0] is None
    wrong = curve.CurveClassification(regular=True, monotone="increasing",
                                      flat=False, symmetric=False)
    assert classify.check(wrong, None)[0] is not None


def _summary(op, *results):
    """failure_summary over one op's results, as run.main files them."""
    records = [(0, 0.0, res, None) for res in results]
    reasons = [op.check(res, None)[0] for res in results]
    return run.failure_summary([op], records, reasons)


def test_a_wrong_answer_next_to_a_documented_refusal_is_unexpected():
    op = workloads._lderiv_op(LIB, np.random.default_rng([0, 0]), 0,
                              family=True)
    res = op.execute(None)
    refusal = workloads.Refused("ArithmeticError", "intersection count 1 "
                                "disagrees with endpoint inertia drop 0")
    refused = [r[:4] + (refusal,) for r in res]
    point = res[1][0]
    moved = lderiv.LagrangianPoint(w=point.w + 1e-3, zeta=point.zeta)
    wrong = [res[0], (moved,) + res[1][1:], res[2]]
    assert _summary(op, res) == ({}, {})
    known, unknown = _summary(op, refused)
    assert known == {"family-refusal: lderiv:batch": 1} and not unknown
    for bad in (wrong, refused[:1] + wrong[1:]):
        known, unknown = _summary(op, bad)
        assert not known
        assert "Newton point" in next(iter(unknown))
    other = [r[:4] + (workloads.Refused("LinAlgError", "singular"),)
             for r in res]
    assert not _summary(op, other)[0]


def test_only_the_defective_curvature_route_is_a_known_defect():
    op = workloads._curve_ops(LIB, np.random.default_rng([0, 0]), 1,
                              conj=False, audit=True)[2]
    assert op.label.split()[2] == "plain"
    # the direct route is right on plain curves; this curve's own
    # cross-ratio answer is off at one sample, so take direct for both
    res = [(d, d) for d, _ in op.execute(None)]
    assert op.check(res, None)[0] is None
    off_cross = [(d, c + 5.0) for d, c in res]
    off_direct = [(d + 5.0, c) for d, c in res]
    assert _summary(op, off_cross)[0] == {
        "cross-ratio-curvature: curve:curvature": 1}
    assert not _summary(op, off_direct)[0]
    assert not _summary(op, [(d + 5.0, c + 5.0) for d, c in res])[0]


def test_timed_ops_list_no_defect_and_fail_on_any_wrong_answer():
    rng = np.random.default_rng([0, 0])
    ops = workloads._curve_ops(LIB, rng, 3, conj=False, audit=False)
    assert [op.kind for op in ops] == ["curve:index", "curve:curvature",
                                       "curve:transport", "curve:classify"]
    batch = workloads._lderiv_op(LIB, rng, 0, family=False)
    assert not any(op.known for op in ops + [batch])
    index, curv = ops[:2]
    pairs = index.execute(None)
    assert index.check(pairs, None)[0] is None
    assert _summary(index, pairs + 1)[1]
    res = curv.execute(None)
    assert all(len(routes) == 1 for routes in res)
    assert curv.check(res, None)[0] is None
    assert _summary(curv, [(d + 5.0,) for d, in res])[1]
    res = batch.execute(None)
    assert all(r[4] is None for r in res)
    assert batch.check(res, None)[0] is None
    point = res[0][0]
    moved = lderiv.LagrangianPoint(w=point.w + 1e-3, zeta=point.zeta)
    assert _summary(batch, [(moved,) + res[0][1:]] + res[1:])[1]


def test_defect_audit_runs_every_route_with_a_documented_defect():
    ops = workloads.defect_audit(0, LIB)
    kinds = {op.kind for op in ops}
    assert len(ops) == 6 * workloads.AUDIT_ROUNDS and len(kinds) == 6
    assert sum("conjugated" in op.label for op in ops) == 5 * 4
    assert all(op.known for op in ops if op.kind in (
        "curve:scan", "curve:curvature", "lderiv:batch"))
    curvature = next(op for op in ops if op.kind == "curve:curvature")
    assert all(len(routes) == 2 for routes in curvature.execute(None))


def test_op_medians_weigh_every_op_of_the_pass_once():
    ops = [None, None, None]
    records = [(0, 1.0, None, None), (1, 5.0, None, None),
               (2, 2.0, None, None), (3, 3.0, None, None),
               (4, 9.0, None, None), (6, 2.0, None, None)]
    assert run.op_medians(ops, records) == [2.0, 7.0, 2.0]


def test_expm_matches_rotation():
    th = 2.3
    gen = np.array([[0.0, -th], [th, 0.0]])
    want = np.array([[math.cos(th), -math.sin(th)],
                     [math.sin(th), math.cos(th)]])
    assert np.abs(oracle.expm(gen) - want).max() < 1e-13


# ----------------------------------------------------------------- tracer


def _bindings():
    snap = {}
    for name, mod in MODS.items():
        for attr, val in vars(mod).items():
            snap[(name, attr)] = val
    for attr, val in vars(hamflow.DenseFlow).items():
        snap[("DenseFlow", attr)] = val
    return snap


def _tiny_workload():
    """A Jacobi curve scan and a rotating-curve scan, a few ms each."""
    sysn = hamflow.quadratic_potential_system(np.eye(1))
    jc = hamflow.jacobi_curve(sysn, np.array([0.8, -0.3]), 1.0, step=1e-2)
    maslov.conjugate_points(jc, core.vertical_frame(jc.space))
    c = workloads.rotating_curve(LIB, [1.3], None, 3.0)
    maslov.maslov_index(
        curve.GrassmannCurve(space=c.space, eval=c.eval, domain=(0.1, 3.0)),
        c.eval(0.0))
    return c


def test_layer_self_times_and_benchmark_time_add_up_to_wall():
    tr = tracer.Tracer(MODS)
    import time
    start = time.perf_counter()
    with tr:
        c = workloads.rotating_curve(LIB, [1.7], None, 2.0)
        tr.wrap_curve(c)
        _tiny_workload()
        curve.curvature(c, 1.0)
    wall = time.perf_counter() - start
    m = tr.metrics(wall, ops=1)
    dur, own = tr.self_times()
    assert len(own) > 100
    assert min(own) >= -1e-9
    layers = sum(m[f"{lay}.self_s"] for lay in tracer.LAYERS)
    assert m["bench.self_s"] >= 0.0
    assert layers + m["bench.self_s"] == pytest.approx(wall, rel=1e-9)
    assert m["hamflow.dense_build.calls"] == 1
    assert m["hamflow.callback.calls"] > 0
    assert m["curve.eval.calls"] > 0 and m["maslov.pieces"] > 0


def test_tracer_restores_every_binding_even_after_an_error():
    before = _bindings()
    c = workloads.rotating_curve(LIB, [1.1, 1.9], None, 3.0)
    own_eval = c.eval
    tr = tracer.Tracer(MODS)
    with pytest.raises(ValueError):
        with tr:
            tr.wrap_curve(c)
            wrapped = {key for key, val in _bindings().items()
                       if getattr(val, "__perfbench_span__", None)}
            curve.transport(c, 1.0, 0.5)
    assert ("maslov", "velocity_form") in wrapped
    assert ("cli", "curve_curvature") in wrapped
    assert ("DenseFlow", "__init__") in wrapped
    assert tr.metrics(1.0, ops=1)["curve.errors"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert c.eval is own_eval


def test_every_public_binding_is_wrapped_while_installed():
    bindings = tracer.public_bindings(MODS)
    assert len({fn for _, _, fn in bindings}) < len(bindings)
    with tracer.Tracer(MODS):
        for mod, attr, fn in bindings:
            now = getattr(mod, attr)
            assert getattr(now, "__perfbench_span__", None), f"{attr} bare"
            assert now.__wrapped__ is fn
    assert all(getattr(mod, attr) is fn for mod, attr, fn in bindings)
