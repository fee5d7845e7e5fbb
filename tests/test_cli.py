"""CLI tests: validation, dispatch, exit codes, byte-level determinism.

Values frozen up front: the unit oscillator has curvature eigenvalue
1.0 everywhere, conjugate times k pi, Morse index 0 on the free
particle; the sphere-constrained quadratic (J = w0^2 + 2 w1^2 + 3 w2^2
on |w| = 1 at w = e0, zeta = 1) has corrected Hessian diag(0, 2, 4)
whose kernel restriction is diag(2, 4): inertia (2, 0, 0), residual 0.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lagrass import analysis, cli, core, curve, hamflow, lderiv, maslov
from lagrass.errors import DegenerateEndpoint


def base_config(**overrides):
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


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------- validation


def test_validate_clean_config():
    assert cli.validate(base_config(), "flow") == []


def test_validate_positive_step():
    diags = cli.validate(base_config(step=-1.0), "flow")
    assert any("step must be positive" in d for d in diags)


def test_validate_symmetric_metric():
    cfg = base_config()
    cfg["system"] = {"family": "metric", "n": 2,
                     "metric": {"g": [[1.0, 0.2], [0.0, 1.0]]}}
    cfg["initial"] = [0.1, 0.2, 0.3, 0.4]
    diags = cli.validate(cfg, "flow")
    assert any("symmetric" in d for d in diags)


def test_validate_reduce_rejects_one_degree():
    diags = cli.validate(base_config(), "reduce")
    assert any("quotient" in d for d in diags)


def test_validate_initial_length():
    diags = cli.validate(base_config(initial=[1.0]), "flow")
    assert any("initial" in d for d in diags)


def test_validate_lderiv_needs_problem():
    diags = cli.validate(base_config(), "lderiv")
    assert any("problem" in d for d in diags)


# ----------------------------------------------------------------- dispatch


def test_run_returns_t_first_series():
    result = cli.run(base_config(horizon=1.0), "flow")
    assert result.series.columns[0] == "t"
    assert result.series.rows.shape[1] == len(result.series.columns)
    assert result.scalars["energy_drift"] < 1e-9


def test_curvature_scalars_unit_oscillator(tmp_path):
    cfg = write_config(tmp_path, base_config(horizon=1.0))
    out = tmp_path / "out"
    assert cli.main(["curvature", "--config", str(cfg),
                     "--out", str(out)]) == 0
    payload = read_json(out / "curvature.json")
    assert payload["scalars"]["eig_max_t0"] == pytest.approx(1.0, abs=1e-12)
    assert payload["scalars"]["eig_min_t0"] == pytest.approx(1.0, abs=1e-12)


def test_conjugate_ladder(tmp_path):
    cfg = write_config(tmp_path, base_config(horizon=7.0))
    out = tmp_path / "out"
    assert cli.main(["conjugate", "--config", str(cfg),
                     "--out", str(out)]) == 0
    rows = np.loadtxt(out / "conjugate.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert np.allclose(rows[:, 0], [np.pi, 2.0 * np.pi], atol=2e-3)
    assert read_json(out / "conjugate.json")["scalars"]["index"] == 2


def test_morse_free_particle(tmp_path):
    cfg = base_config(horizon=2.0)
    cfg["system"]["potential"] = {"k": [[0.0]]}
    out = tmp_path / "out"
    assert cli.main(["morse", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    assert read_json(out / "morse.json")["scalars"]["index"] == 0


def near_isotropic_well(delta):
    # the two directions cross pi * delta apart near pi
    cfg = base_config()
    cfg["system"] = {"family": "natural", "n": 2, "potential": {
        "k": [[1.0, 0.0], [0.0, (1.0 + delta) ** 2]]}}
    cfg["initial"] = [0.7, -0.4, 1.1, 0.5]
    return cfg


def test_close_crossings_count_once_per_direction(tmp_path):
    path = write_config(tmp_path, near_isotropic_well(1e-7))

    def run(command):
        out = tmp_path / command
        assert cli.main([command, "--config", str(path),
                         "--out", str(out)]) == 0
        rows = np.loadtxt(out / f"{command}.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        return read_json(out / f"{command}.json")["scalars"], rows

    scalars, rows = run("conjugate")
    assert scalars["index"] == 2
    assert rows[:, 1].tolist() == [1, 1]
    scalars, rows = run("morse")
    assert scalars["index"] == 2 and scalars["trimmed_maslov"] == -2
    scalars, rows = run("compare")
    assert rows[:, 1].tolist() == [1, 1]


def test_degenerate_horizon_has_one_refusal_text(tmp_path):
    # the CLI and the library refuse through the same scan
    detail = ("horizon is a conjugate time; the second variation is "
              "degenerate there")
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(horizon=np.pi))
    assert cli.main(["morse", "--config", str(path), "--out", str(out)]) == 3
    error = read_json(out / "error.json")["error"]
    assert error == {"type": "DegenerateEndpoint", "detail": detail}
    jc = curve.from_chart_family(1, lambda t: [[-np.tan(t)]], (0.0, np.pi))
    with pytest.raises(DegenerateEndpoint, match=f"^{detail}$"):
        maslov.morse_index_regular_extremal(jc)


def test_custom_polynomial_family(tmp_path):
    cfg = base_config(horizon=1.0)
    cfg["system"] = {"family": "custom", "n": 1,
                     "hamiltonian": {"terms": [[0.5, [2, 0]],
                                               [0.5, [0, 2]]]}}
    out = tmp_path / "out"
    assert cli.main(["curvature", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    payload = read_json(out / "curvature.json")
    assert payload["scalars"]["eig_max_t0"] == pytest.approx(1.0, abs=1e-8)


def sphere_config(w0_term=(1.0, [2, 0, 0]), w=(1.0, 0.0, 0.0), zeta=(1.0,)):
    """J = w0_term + 2 w1^2 + 3 w2^2 on the unit sphere, at (w, zeta)."""
    return {
        "problem": {
            "dim_w": 3, "m": 1,
            "objective": {"terms": [list(w0_term), [2.0, [0, 2, 0]],
                                    [3.0, [0, 0, 2]]]},
            "constraints": [{"terms": [[1.0, [2, 0, 0]], [1.0, [0, 2, 0]],
                                       [1.0, [0, 0, 2]],
                                       [-1.0, [0, 0, 0]]]}],
        },
        "point": {"w": list(w), "zeta": list(zeta)},
        "seed": 0,
    }


def test_lderiv_sphere_problem(tmp_path):
    cfg = sphere_config()
    out = tmp_path / "out"
    assert cli.main(["lderiv", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    scalars = read_json(out / "lderiv.json")["scalars"]
    assert scalars["residual"] < 1e-6
    assert (scalars["kernel_pos"], scalars["kernel_neg"],
            scalars["kernel_zero"]) == (2, 0, 0)
    assert scalars["hessian_nondegenerate"] and scalars["transversal_to_fiber"]


def test_lderiv_refuses_an_overflowing_hessian(tmp_path):
    # the sphere problem with objective 1e307 w0^4 at w = 10 e0 has the
    # corrected Hessian diag(inf, 2, 4); the SVD of [A^T | Q] never
    # returned, so the run is a subprocess with a timeout
    cfg = sphere_config([1e307, [4, 0, 0]], w=[10.0, 0.0, 0.0])
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "lagrass.cli", "lderiv",
         "--config", str(write_config(tmp_path, cfg)), "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert read_json(out / "error.json")["error"] == {
        "type": "ValueError", "detail": "Q has non-finite entries"}


def test_lderiv_refuses_an_overflowing_residual(tmp_path):
    # objective 5e304 w0^4 at w = 10 e0: the gradient overflows, while the
    # corrected Hessian diag(6e307, 2, 4) stays finite; the run exited 0
    # with residual "inf", a duality that disagreed with itself and two
    # numpy warnings on stderr
    cfg = sphere_config([5e304, [4, 0, 0]], w=[10.0, 0.0, 0.0])
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "lagrass.cli", "lderiv",
         "--config", str(write_config(tmp_path, cfg)), "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert read_json(out / "error.json")["error"] == {
        "type": "ValueError",
        "detail": "stationarity residual has non-finite entries"}
    assert "Warning" not in proc.stderr
    assert not (out / "lderiv.json").exists()


def test_lderiv_derivatives_are_exact(tmp_path):
    # the same sphere problem at the critical point e2 with zeta = 3:
    # central differences left a residual of 2.78e-11 there
    cfg = sphere_config(w=[0.0, 0.0, 1.0], zeta=[3.0])
    out = tmp_path / "out"
    assert cli.main(["lderiv", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    scalars = read_json(out / "lderiv.json")["scalars"]
    assert scalars["fd_fallback"] is False
    assert scalars["residual"] < 2.7755575615628914e-11
    assert (scalars["kernel_pos"], scalars["kernel_neg"],
            scalars["kernel_zero"]) == (0, 2, 0)


def test_lderiv_run_reads_the_pair_once(monkeypatch):
    # the run built the pair, its kernel restriction and L(A, Q) twice:
    # once for its own outputs and once more inside duality_check
    calls = {}
    for name in ("lderiv_data", "_kernel_restriction", "l_derivative"):
        def counted(*args, _fn=getattr(lderiv, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(lderiv, name, counted)
    scalars = cli.run(sphere_config(), "lderiv").scalars
    assert calls == {"lderiv_data": 1, "_kernel_restriction": 1,
                     "l_derivative": 1}
    assert (scalars["kernel_pos"], scalars["kernel_neg"],
            scalars["kernel_zero"]) == (2, 0, 0)


def test_seed_override_keeps_value_changes_hash(tmp_path):
    cfg_a = write_config(tmp_path, base_config(seed=0), "a.json")
    cfg_b = write_config(tmp_path, base_config(seed=5), "b.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["maslov", "--config", str(cfg_a),
                     "--out", str(out_a)]) == 0
    assert cli.main(["maslov", "--config", str(cfg_b),
                     "--out", str(out_b)]) == 0
    val_a = read_json(out_a / "maslov.json")["scalars"]["value"]
    val_b = read_json(out_b / "maslov.json")["scalars"]["value"]
    assert val_a == val_b  # chart schedule must not move the index
    prov_a = read_json(out_a / "provenance.json")
    prov_b = read_json(out_b / "provenance.json")
    assert prov_a["config_sha256"] != prov_b["config_sha256"]
    # the config is the seed's one source: a seed flag is an unknown flag
    with pytest.raises(SystemExit) as exc:
        cli.main(["maslov", "--config", str(cfg_a), "--seed", "5",
                  "--out", str(out_b)])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, base_config(horizon=1.0))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "lagrass.cli", "flow",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "flow.csv").exists()


# --------------------------------------------------------------- exit codes


def test_exit_two_on_invalid_config(tmp_path):
    cfg = write_config(tmp_path, base_config(step=-1.0))
    out = tmp_path / "out"
    assert cli.main(["flow", "--config", str(cfg), "--out", str(out)]) == 2
    record = read_json(out / "error.json")
    assert record["exit_code"] == 2
    assert record["error"]["type"] == "ValidationFailure"
    assert not (out / "flow.csv").exists()


def test_exit_two_on_unreadable_config(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["flow", "--config", str(tmp_path / "missing.json"),
                   "--out", str(out)])
    assert rc == 2
    assert read_json(out / "error.json")["error"]["type"] == "ConfigUnreadable"


def well_config(**overrides):
    cfg = base_config(**overrides)
    cfg["system"] = {"family": "natural", "n": 2,
                     "potential": {"k": [[1.0, 0.0], [0.0, 2.0]]}}
    cfg["initial"] = [0.3, -0.2, 0.5, 0.4]
    return cfg


def assert_refused_config(tmp_path, command, cfg):
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    record = read_json(out / "error.json")
    assert record["error"]["type"] == "ValidationFailure"
    assert not (out / f"{command}.csv").exists()


def test_exit_two_on_string_reduced_flag(tmp_path):
    # bool("false") is true: a string flag would run the reduced certificate
    assert_refused_config(tmp_path, "hyperbolic",
                          well_config(options={"reduced": "false"}))


def test_exit_two_on_negative_samples(tmp_path):
    assert_refused_config(tmp_path, "jacobi",
                          base_config(options={"samples": -5}))


def test_exit_two_on_string_samples(tmp_path):
    assert_refused_config(tmp_path, "jacobi",
                          base_config(options={"samples": "abc"}))


def test_exit_two_on_zero_samples(tmp_path):
    assert_refused_config(tmp_path, "curvature",
                          base_config(options={"samples": 0}))


@pytest.mark.parametrize("where", ["horizon", "potential.k"])
def test_exit_two_on_integer_past_the_double_range(tmp_path, where):
    # float(10**400) overflows: a bad config, not a numerical failure
    huge = 10 ** 400
    cfg = base_config()
    if where == "horizon":
        cfg["horizon"] = huge
    else:
        cfg["system"]["potential"]["k"] = [[huge]]
    assert_refused_config(tmp_path, "flow", cfg)


@pytest.mark.parametrize("command, options", [
    ("maslov", {"t0": 5.0}),          # past the horizon
    ("maslov", {"t0": "abc"}),
    ("maslov", {"t1": 4.02}),         # into the integration margin
    ("maslov", {"t0": -0.02}),
    ("maslov", {"t0": 0.0}),          # the curve starts on the fiber
    ("morse", {"trim": True}),
    ("morse", {"trim": "abc"}),
    ("reduce", {"trim": "x"}),
], ids=["t0-past-horizon", "t0-string", "t1-past-horizon", "t0-negative",
        "t0-zero", "trim-bool", "trim-string", "reduce-trim-string"])
def test_exit_two_on_option_of_wrong_type_or_range(tmp_path, command,
                                                   options):
    config = well_config if command == "reduce" else base_config
    assert_refused_config(tmp_path, command, config(options=options))


def test_validate_refuses_keys_nothing_reads():
    tolerances = cli.validate(base_config(tolerances={"rank_tol": 1e-9}),
                              "flow")
    assert tolerances == ["flow reads no config key 'tolerances'"]
    samples = cli.validate(base_config(options={"samples": 10}),
                           "conjugate")
    assert samples == ["conjugate reads no option 'samples'"]


def test_exit_three_on_numerical_failure(tmp_path):
    cfg = write_config(tmp_path, base_config(horizon=float(np.pi)))
    out = tmp_path / "out"
    assert cli.main(["morse", "--config", str(cfg), "--out", str(out)]) == 3
    record = read_json(out / "error.json")
    assert record["exit_code"] == 3
    assert record["error"]["type"] == "DegenerateEndpoint"
    assert not (out / "morse.csv").exists()


def test_success_clears_stale_error_record(tmp_path):
    out = tmp_path / "out"
    bad = write_config(tmp_path, base_config(step=-1.0), "bad.json")
    good = write_config(tmp_path, base_config(horizon=1.0), "good.json")
    assert cli.main(["flow", "--config", str(bad), "--out", str(out)]) == 2
    assert (out / "error.json").exists()
    assert cli.main(["flow", "--config", str(good), "--out", str(out)]) == 0
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("reduced", [False, True])
def test_hyperbolic_integrates_the_orbit_once(tmp_path, monkeypatch, reduced):
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
    for mod in (hamflow, cli):
        monkeypatch.setattr(mod, "flow", counted_flow)
    # analysis binds no flow() that could integrate past the count
    assert not hasattr(analysis, "flow")
    cfg = well_config(horizon=1.0, step=1e-2,
                      options={"reduced": reduced, "samples": 5})
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert cli.main(["hyperbolic", "--config", str(path),
                     "--out", str(out)]) == 0
    kind = read_json(out / "hyperbolic.json")["scalars"]["kind"]
    assert kind == ("reduced_flow" if reduced else "equilibrium_set")
    # the reduced curve needs the fundamental matrix, the full mode
    # reads states only: one integration either way
    if reduced:
        assert len(built) == 1 and flows == []
    else:
        assert built == [] and len(flows) == 1


def saddle_config(**overrides):
    # the orbit tends to the saddle at the origin while its fundamental
    # matrix grows like e^t, past the norm cap long before t = 25
    cfg = base_config(horizon=25.0, step=1e-3, **overrides)
    cfg["system"] = {"family": "natural", "n": 2,
                     "potential": {"k": [[-1.0, 0.0], [0.0, -1.0]]}}
    cfg["initial"] = [-0.8, 0.6, 0.8, -0.6]
    return cfg


def test_hyperbolic_certifies_an_orbit_whose_fundamental_matrix_blows_up(
        tmp_path):
    cfg = saddle_config()
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert cli.main(["hyperbolic", "--config", str(path),
                     "--out", str(out)]) == 0
    cert = analysis.certify_negative_curvature(hamflow.flow(
        cli.build_system(cfg), np.array(cfg["initial"]), 25.0, 1e-3))
    scalars = read_json(out / "hyperbolic.json")["scalars"]
    assert cert.verdict
    assert scalars["verdict"] == cert.verdict
    assert scalars["max_eig"] == cert.max_eig
    assert scalars["equilibrium_count"] == len(cert.equilibria) == 1


def test_curvature_reads_an_orbit_whose_fundamental_matrix_blows_up(
        tmp_path):
    # the curvature series reads states only, so the fundamental matrix
    # passing the norm cap cannot stop it
    cfg = saddle_config(options={"samples": 11})
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert cli.main(["curvature", "--config", str(path),
                     "--out", str(out)]) == 0
    scalars = read_json(out / "curvature.json")["scalars"]
    assert scalars["eig_min_t0"] == pytest.approx(-1.0)
    assert scalars["eig_max_t0"] == pytest.approx(-1.0)
    rows = (out / "curvature.csv").read_text().splitlines()
    assert len(rows) == 1 + 11


def test_exit_three_on_unexpected_exception(tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("runner bug")

    monkeypatch.setitem(cli._RUNNERS, "flow", broken)
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config())
    assert cli.main(["flow", "--config", str(path), "--out", str(out)]) == 3
    record = read_json(out / "error.json")
    assert record["exit_code"] == 3
    assert record["error"] == {"type": "RuntimeError", "detail": "runner bug"}
    assert not (out / "flow.csv").exists()


def test_refused_stencil_names_the_margin(tmp_path, monkeypatch):
    # no margin reaches 1.5: [Z | W] has unit columns, so its smallest
    # singular value is at most 1 and every stencil chart is refused
    monkeypatch.setattr(core, "MIN_MARGIN", 1.5)
    monkeypatch.setattr(core, "GOOD_MARGIN", 1.5)
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config())
    assert cli.main(["conjugate", "--config", str(path),
                     "--out", str(out)]) == 3
    error = read_json(out / "error.json")["error"]
    assert error["type"] == "ChartFailure"
    assert "no common chart for the stencil" in error["detail"]
    assert "below MIN_MARGIN 1.5" in error["detail"]
    assert "best transversality margin" in error["detail"]


def test_validate_refuses_runs_over_budget():
    # validated only: none of the configs over a budget may ever be run
    steps = cli.validate(base_config(horizon=1e6, step=1e-6), "flow")
    assert len(steps) == 1 and "budget" in steps[0]
    samples = cli.validate(base_config(options={"samples": 1_500_000_000}),
                           "jacobi")
    assert len(samples) == 1 and "budget" in samples[0]
    assert cli.validate(base_config(horizon=cli.MAX_RK_STEPS * 1e-3,
                                    options={"samples": cli.MAX_SAMPLES}),
                        "flow") == []

    def sized(n):
        cfg = base_config(initial=[0.1] * (2 * n))
        cfg["system"] = {"family": "natural", "n": n,
                         "potential": {"k": np.eye(n).tolist()}}
        return cfg

    dims = cli.validate(sized(cli.MAX_N + 1), "flow")
    assert len(dims) == 1 and "budget" in dims[0]
    assert cli.validate(sized(cli.MAX_N), "flow") == []

    def custom(terms):
        cfg = base_config()
        cfg["system"] = {"family": "custom", "n": 1,
                         "hamiltonian": {"terms": terms}}
        return cfg

    for exponent in (cli.MAX_EXPONENT + 1, 10 ** 23):
        powers = cli.validate(custom([[0.5, [2, 0]], [1.0, [0, exponent]]]),
                              "flow")
        assert len(powers) == 1 and "exponent" in powers[0]
    assert cli.validate(custom([[1.0, [0, cli.MAX_EXPONENT]]]), "flow") == []
    many = [[0.5, [2, 0]]] * (cli.MAX_TERMS + 1)
    terms = cli.validate(custom(many), "flow")
    assert len(terms) == 1 and "budget" in terms[0]
    assert cli.validate(custom(many[1:]), "flow") == []

    def problem(dim_w):
        return {"problem": {"dim_w": dim_w, "m": 1,
                            "objective": {"terms": [[1.0, [2] * dim_w]]},
                            "constraints": [{"terms": [[1.0, [1] * dim_w]]}]},
                "point": {"w": [0.0] * dim_w, "zeta": [0.0]}}

    wide = cli.validate(problem(cli.MAX_DIM_W + 1), "lderiv")
    assert len(wide) == 1 and "budget" in wide[0]
    assert cli.validate(problem(cli.MAX_DIM_W), "lderiv") == []
    # each axis inside its budget, but 64^2 Hessian entries of 256 terms
    # over 64 variables would not fit in memory
    full = problem(cli.MAX_DIM_W)
    full["problem"]["objective"]["terms"] *= cli.MAX_TERMS
    tables = cli.validate(full, "lderiv")
    assert len(tables) == 1 and "derivative tables" in tables[0]


def test_validate_refuses_callback_work_over_budget():
    # every axis inside its own budget, but n = 8 with 256 potential terms
    # over 200,000 RK steps asks for hours of callbacks; validated only
    n = cli.MAX_N
    cfg = base_config(initial=[0.1] * (2 * n), horizon=200.0, step=1e-3)
    cfg["system"] = {"family": "natural", "n": n, "potential": {"terms": [
        [1.0, [2 if j == k % n else 0 for j in range(n)]]
        for k in range(cli.MAX_TERMS)]}}
    work = cli.validate(cfg, "flow")
    assert len(work) == 1 and "budget" in work[0]
    assert "table entries" in work[0]
    # a constant Hessian makes no callback per step: the steps alone bound it
    cfg["system"]["potential"] = {"k": np.eye(n).tolist()}
    assert cli.validate(cfg, "flow") == []


@pytest.mark.parametrize("command", ["conjugate", "maslov"])
@pytest.mark.parametrize("where", ["config"])
def test_exit_two_on_negative_seed(tmp_path, command, where):
    # numpy refuses a negative seed only once a chart search reaches its
    # random schedule, which some curves never do: refused up front
    cfg = base_config(horizon=7.0, seed=-1)
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert read_json(out / "error.json")["error"] == {
        "type": "ValidationFailure",
        "detail": ["seed must be an integer >= 0"]}


def lderiv_config(**problem):
    cfg = {"problem": {"dim_w": 3, "m": 1,
                       "objective": {"terms": [[1.0, [2, 0, 0]]]},
                       "constraints": [{"terms": [[1.0, [0, 1, 0]]]}]},
           "point": {"w": [1.0, 0.0, 0.0], "zeta": [1.0]}}
    cfg["problem"].update(problem)
    return cfg


def _without(cfg, key):
    cfg.pop(key)
    return cfg


def _system(**system):
    cfg = base_config()
    cfg["system"] = system
    return cfg


REFUSED = [
    ("flow", [], "config root must be a table"),
    ("flow", _without(base_config(), "system"), "missing system table"),
    ("flow", _system(family="hybrid", n=1),
     "system.family must be natural, metric or custom"),
    ("flow", _system(family="natural", n=0, potential={"k": [[1.0]]}),
     "system.n must be an integer >= 1"),
    ("flow", _system(family="natural", n=1,
                     potential={"k": [[1.0]], "terms": [[1.0, [2]]]}),
     "natural system needs potential.k or potential.terms, not both"),
    ("flow", _system(family="metric", n=1), "metric system needs metric.g"),
    ("flow", _system(family="metric", n=1, metric={"g": [[1.0]]},
                     potential={"terms": [[1.0, [2]]]}),
     "metric potential supports only a quadratic table potential.k"),
    ("flow", dict(well_config(), system={
        "family": "metric", "n": 2, "metric": {"g": np.eye(2).tolist()},
        "potential": {"k": [[1.0, 0.5], [0.0, 1.0]]}}),
     "potential.k must be symmetric"),
    ("flow", _system(family="custom", n=1),
     "custom system needs hamiltonian.terms"),
    ("flow", base_config(horizon=1.0, step=2.0),
     "step must not exceed horizon"),
    ("flow", base_config(seed=1.5), "seed must be an integer >= 0"),
    ("flow", base_config(options=[]), "options must be a table"),
    ("hyperbolic", base_config(options={"reduced": True}),
     "options.reduced = true is trivial for n=1: the quotient by the flow "
     "direction is a point"),
    ("lderiv", lderiv_config(dim_w=0), "problem.dim_w must be an integer >= 1"),
    ("lderiv", lderiv_config(m="1"), "problem.m must be an integer >= 1"),
    ("lderiv", lderiv_config(dim_w=1, m=2),
     "problem.m = 2 is over dim_w = 1: the constraint Jacobian cannot have "
     "full row rank"),
    ("lderiv", lderiv_config(objective={}),
     "problem.objective.terms is required"),
    ("lderiv", lderiv_config(constraints=[]),
     "problem.constraints must list m = 1 term tables"),
    ("lderiv", lderiv_config(constraints=[{}]),
     "constraints[0].terms is required"),
    ("lderiv", _without(lderiv_config(), "point"),
     "lderiv needs a point table with w and zeta"),
    ("lderiv", dict(lderiv_config(), point={"w": [1.0], "zeta": [1.0]}),
     "point.w must list 3 finite numbers"),
    ("lderiv", dict(lderiv_config(), point={"w": [1.0, 0.0, 0.0],
                                            "zeta": []}),
     "point.zeta must list 1 finite numbers"),
]


@pytest.mark.parametrize("command, cfg, diagnostic", REFUSED,
                         ids=[diagnostic for _, _, diagnostic in REFUSED])
def test_exit_two_lists_the_diagnostic(tmp_path, command, cfg, diagnostic):
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    record = read_json(out / "error.json")
    assert record["error"]["type"] == "ValidationFailure"
    assert diagnostic in record["error"]["detail"]
    assert not (out / f"{command}.csv").exists()


@pytest.mark.parametrize("potential, diagnostic", [
    ({"terms": "x"},
     "potential.terms must be a nonempty list of [coeff, exponents]"),
    ({"terms": [[1.0, 2]]},
     "potential.terms entries must be [coeff, exponent list]"),
    ({"k": [[1.0, 0.0]]}, "potential.k must be 1x1"),
    ({"k": [["a"]]}, "potential.k is not a numeric table"),
    ({"k": [[float("nan")]]}, "potential.k has non-finite entries"),
])
def test_validate_lists_the_potential_diagnostic(potential, diagnostic):
    cfg = base_config()
    cfg["system"]["potential"] = potential
    assert diagnostic in cli.validate(cfg, "flow")


def test_validate_refuses_configs_no_json_file_holds():
    # json.loads never builds these; a library caller can pass them to run()
    tuples = cli.validate(base_config(options={"samples": 5, "x": (1,)}),
                          "flow")
    assert "config does not round-trip through serialization" in tuples
    floats = cli.validate(base_config(horizon=np.float32(4.0)), "flow")
    assert "config contains non-serializable values" in floats


@pytest.mark.parametrize("system, direct", [
    ({"family": "natural", "n": 2,
      "potential": {"k": [[1.0, 0.2], [0.2, 2.0]]}},
     hamflow.quadratic_potential_system(np.array([[1.0, 0.2], [0.2, 2.0]]))),
    ({"family": "natural", "n": 2,
      "potential": {"terms": [[1.0, [2, 0]], [0.1, [1, 3]]]}},
     hamflow.polynomial_system(2, [(0.5, (2, 0, 0, 0)), (0.5, (0, 2, 0, 0)),
                                   (1.0, (0, 0, 2, 0)),
                                   (0.1, (0, 0, 1, 3))])),
    ({"family": "metric", "n": 2, "metric": {"g": np.eye(2).tolist()}},
     hamflow.quadratic_system(np.diag([1.0, 1.0, 0.0, 0.0]))),
    ({"family": "metric", "n": 2, "metric": {"g": [[1.0, 0.0], [0.0, 2.0]]},
      "potential": {"k": [[0.5, 0.1], [0.1, 0.7]]}},
     hamflow.quadratic_system(np.array([[1.0, 0.0, 0.0, 0.0],
                                        [0.0, 2.0, 0.0, 0.0],
                                        [0.0, 0.0, 0.5, 0.1],
                                        [0.0, 0.0, 0.1, 0.7]]))),
    ({"family": "metric", "n": 2, "metric": {"g": [[1.0, 0.0], [0.0, 2.0]]},
      "potential": None},
     hamflow.quadratic_system(np.diag([1.0, 2.0, 0.0, 0.0]))),
    ({"family": "custom", "n": 1,
      "hamiltonian": {"terms": [[0.5, [2, 0]], [0.3, [1, 1]],
                                [0.5, [0, 4]]]}},
     hamflow.polynomial_system(1, [(0.5, (2, 0)), (0.3, (1, 1)),
                                   (0.5, (0, 4))])),
], ids=["natural-k", "natural-terms", "metric-identity", "metric-potential",
        "metric-null-potential", "custom"])
def test_build_system_matches_the_direct_builders(system, direct):
    cfg = dict(well_config(), system=system,
               initial=[0.1] * (2 * system["n"]))
    assert cli.validate(cfg, "flow") == []
    built = cli.build_system(cfg)
    assert built.n == direct.n
    assert built.natural == direct.natural
    # H = |x|^2 / 2 + U(y) is natural, whichever family spells it
    assert built.natural == (system["family"] == "natural"
                             or system.get("metric", {}).get("g")
                             == np.eye(system["n"]).tolist())
    if direct.constant_hessian is None:
        assert built.constant_hessian is None
    else:
        assert np.array_equal(built.constant_hessian,
                              direct.constant_hessian)
    rng = np.random.default_rng(3)
    for z in rng.standard_normal((3, 2 * direct.n)):
        value, grad, hess = built._eval(z)
        want = direct._eval(z)
        assert value == want[0]
        assert np.array_equal(grad, want[1])
        assert np.array_equal(hess, want[2])


def test_compare_writes_an_infinite_bound_as_text(tmp_path):
    # curvature -1 everywhere: no conjugate time, so every spacing bound
    # is infinite, and JSON, which has no infinity, holds it as "inf"
    cfg = base_config(horizon=2.0)
    cfg["system"]["potential"] = {"k": [[-1.0]]}
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    scalars = read_json(out / "compare.json")["scalars"]
    assert scalars["eig_upper"] == pytest.approx(-1.0)
    assert scalars["bound_gap"] == scalars["bound_hit"] == "inf"
    assert scalars["min_gap"] == "inf"


@pytest.mark.parametrize("potential", [
    {"k": [[1.0, 0.0], [0.0, 2.0]]},
    {"terms": [[0.5, [2, 0]], [1.0, [0, 2]], [0.1, [4, 0]],
               [0.05, [1, 2]]]},
], ids=["constant-hessian", "polynomial"])
def test_no_command_reads_a_jacobi_frame_twice(tmp_path, monkeypatch,
                                               potential):
    # the scans of one Jacobi curve share its frames: a repeated time of
    # DenseFlow.gammas within one run is a frame read twice (hyperbolic
    # with options.reduced builds a second reduced curve and is left out)
    reads = []
    gammas = hamflow.DenseFlow.gammas

    def counted(self, ts):
        reads.extend(map(float, ts))
        return gammas(self, ts)

    monkeypatch.setattr(hamflow.DenseFlow, "gammas", counted)
    cfg = well_config(horizon=3.0, step=1e-2)
    cfg["system"]["potential"] = potential
    path = write_config(tmp_path, cfg)
    for command in cli.COMMANDS:
        if command == "lderiv":
            continue
        reads.clear()
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / command)]) == 0, command
        assert len(reads) == len(set(reads)), command


# -------------------------------------------------------------- determinism


def _determinism_cases(tmp_path):
    well = base_config(horizon=4.0, step=2e-3)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2))
    well["system"] = {"family": "natural", "n": 2,
                      "potential": {"k": (a @ a.T + 0.3 * np.eye(2)).tolist()}}
    well["initial"] = rng.standard_normal(4).tolist()
    inverted = base_config(horizon=2.0)
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
        ("flow", base_config(horizon=2.0)),
        ("jacobi", base_config(horizon=1.0)),
        ("curvature", base_config(horizon=1.0)),
        ("conjugate", base_config()),
        ("morse", base_config()),
        ("maslov", base_config()),
        ("compare", base_config()),
        ("hyperbolic", inverted),
        ("reduce", well),
        ("lderiv", lder),
    ]


def test_every_command_byte_identical(tmp_path):
    for command, cfg in _determinism_cases(tmp_path):
        path = write_config(tmp_path, cfg, f"{command}.json")
        out_a = tmp_path / f"{command}-a"
        out_b = tmp_path / f"{command}-b"
        for out in (out_a, out_b):
            rc = cli.main([command, "--config", str(path),
                           "--out", str(out)])
            assert rc == 0, f"{command} failed"
        for name in (f"{command}.csv", f"{command}.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                f"{command}/{name} not byte-identical"
        prov_a = read_json(out_a / "provenance.json")
        prov_b = read_json(out_b / "provenance.json")
        prov_a.pop("wall_time_s"), prov_b.pop("wall_time_s")
        assert prov_a == prov_b, f"{command} provenance drifted"
