"""Batch front end: declarative configs in, deterministic artifacts out.

A run reads one JSON config describing a system (or a constrained
finite-dimensional problem), dispatches to the library, and writes
three files into the output directory: <command>.csv with the sampled
series (first column always t), <command>.json with scalar results and
diagnostics, and provenance.json with the config hash, package version
and wall time. Everything except the wall-time field is byte-exact
across repeated runs of the same config, which is what the golden-file
tests pin. Failures leave no partial artifacts: files are staged next
to their target and renamed into place, and errors land in a separate
error.json with the exit code the process then returns (2 for config
problems, 3 for numerical ones).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys as _sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__, analysis, core, lderiv, maslov
from .curve import GrassmannCurve, curvatures
from .errors import GeometryError
from .hamflow import (
    DenseFlow,
    HamiltonianSystem,
    PolynomialTable,
    _poly_diff,
    _subsample,
    curvature_operator_field,
    flow,
    jacobi_curve,
    polynomial_system,
    quadratic_system,
    reduced_jacobi_curve,
)

# the options each command reads, with defaults; a None default follows
# the horizon (trim: the analysis's own; t0 = 0.01 horizon, t1 = horizon)
OPTIONS = {
    "flow": {"samples": 201},
    "jacobi": {"samples": 101},
    "curvature": {"samples": 101},
    "conjugate": {},
    "morse": {"trim": None},
    "maslov": {"t0": None, "t1": None},
    "reduce": {"trim": None},
    "compare": {},
    "hyperbolic": {"samples": 33, "reduced": False},
    "lderiv": {},
}
COMMANDS = tuple(OPTIONS)
# the top-level keys a run accepts: every command takes seed, so one config
# runs under any command, but only conjugate and maslov read it (the chart
# search's seed); elsewhere it moves only config_sha256
ORBIT_KEYS = ("system", "initial", "horizon", "step", "seed", "options")
PROBLEM_KEYS = ("problem", "point", "seed", "options")

FLOAT_FMT = "%.17g"

# run budgets: a config asking for more is refused before anything runs
MAX_RK_STEPS = 200_000     # ceil(horizon / step), the RK4 steps of an orbit
MAX_SAMPLES = 100_000      # options.samples, the sampled rows of a series
MAX_N = 8                  # system.n; keeps a DenseFlow under 0.4 GB
MAX_EXPONENT = 32          # of a polynomial term; sizes the table of powers
MAX_TERMS = 256            # per term list; sizes the compiled term tables
MAX_DIM_W = 64             # problem.dim_w
# RK steps x compiled-table entries of a polynomial Hamiltonian: each RK
# stage evaluates every entry of the (1 + 2n + 4n^2) x terms x 2n table
MAX_CALLBACK_WORK = 2_000_000_000
# entries of an lderiv problem's compiled value, gradient and Hessian
# tables: (1 + m) x (1 + dim_w + dim_w^2) polynomials x terms x dim_w
# variables at most, two integers each; keeps the tables under 0.2 GB
MAX_TABLE_ENTRIES = 10_000_000


class ValidationFailure(Exception):
    """Config rejected before dispatch; carries the diagnostic list."""

    def __init__(self, diagnostics: List[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class Series:
    columns: Tuple[str, ...]
    rows: np.ndarray  # (k, len(columns))


@dataclass(frozen=True)
class RunResult:
    command: str
    scalars: Dict[str, object]
    series: Series
    diagnostics: Tuple[str, ...]
    provenance: Dict[str, object]


# ---------------------------------------------------------------- validation


def _is_num(x) -> bool:
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) \
            and math.isfinite(float(x))
    except OverflowError:  # an integer past the double range
        return False


def _check_terms(terms, nvars: int, label: str, out: List[str]) -> int:
    """The number of terms, or 0 after appending why the list is refused."""
    if not isinstance(terms, list) or not terms:
        out.append(f"{label} must be a nonempty list of [coeff, exponents]")
        return 0
    if len(terms) > MAX_TERMS:
        out.append(f"{label} lists {len(terms)} terms, over the budget of "
                   f"{MAX_TERMS}")
        return 0
    for item in terms:
        if (not isinstance(item, list) or len(item) != 2
                or not _is_num(item[0]) or not isinstance(item[1], list)):
            out.append(f"{label} entries must be [coeff, exponent list]")
            return 0
        if len(item[1]) != nvars or any(
                not isinstance(e, int) or isinstance(e, bool)
                or not 0 <= e <= MAX_EXPONENT for e in item[1]):
            out.append(f"{label} exponent lists need {nvars} integers in "
                       f"[0, {MAX_EXPONENT}]")
            return 0
    return len(terms)


def _check_matrix(mat, n: int, label: str, out: List[str]):
    try:
        arr = np.asarray(mat, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out.append(f"{label} is not a numeric table")
        return
    if arr.shape != (n, n):
        out.append(f"{label} must be {n}x{n}")
        return
    if not np.all(np.isfinite(arr)):
        out.append(f"{label} has non-finite entries")
        return
    if np.abs(arr - arr.T).max(initial=0.0) > 1e-12:
        out.append(f"{label} must be symmetric")


def _validate_system(config: dict, out: List[str]):
    sys_cfg = config.get("system")
    if not isinstance(sys_cfg, dict):
        out.append("missing system table")
        return
    family = sys_cfg.get("family")
    if family not in ("natural", "metric", "custom"):
        out.append("system.family must be natural, metric or custom")
        return
    n = sys_cfg.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        out.append("system.n must be an integer >= 1")
        return
    if n > MAX_N:
        out.append(f"system.n = {n} is over the budget of {MAX_N}")
        return
    width = 0  # terms of a polynomial Hamiltonian; 0 for a constant Hessian
    if family == "natural":
        pot = sys_cfg.get("potential")
        if not isinstance(pot, dict) or ("k" in pot) == ("terms" in pot):
            out.append("natural system needs potential.k or potential.terms, "
                       "not both")
        elif "k" in pot:
            _check_matrix(pot["k"], n, "potential.k", out)
        else:
            width = _check_terms(pot["terms"], n, "potential.terms", out)
            width += n if width else 0  # the kinetic terms |x|^2 / 2
    elif family == "metric":
        met = sys_cfg.get("metric")
        if not isinstance(met, dict) or "g" not in met:
            out.append("metric system needs metric.g")
        else:
            _check_matrix(met["g"], n, "metric.g", out)
        pot = sys_cfg.get("potential")
        if pot is not None:
            if not isinstance(pot, dict) or "k" not in pot:
                out.append("metric potential supports only a quadratic "
                           "table potential.k")
            else:
                _check_matrix(pot["k"], n, "potential.k", out)
    else:
        ham = sys_cfg.get("hamiltonian")
        if not isinstance(ham, dict) or "terms" not in ham:
            out.append("custom system needs hamiltonian.terms")
        else:
            width = _check_terms(ham["terms"], 2 * n, "hamiltonian.terms",
                                 out)
    initial = config.get("initial")
    if (not isinstance(initial, list) or len(initial) != 2 * n
            or not all(_is_num(v) for v in initial)):
        out.append(f"initial must list 2n = {2 * n} finite numbers")
    for key in ("horizon", "step"):
        val = config.get(key)
        if not _is_num(val) or val <= 0:
            out.append(f"{key} must be positive")
    horizon, step = config.get("horizon"), config.get("step")
    if _is_num(horizon) and _is_num(step):
        if step > horizon:
            out.append("step must not exceed horizon")
        elif step > 0 and horizon / step > MAX_RK_STEPS:
            out.append(f"horizon / step asks for {horizon / step:.6g} RK "
                       f"steps, over the budget of {MAX_RK_STEPS}")
        elif horizon / step * _callback_entries(n, width) > MAX_CALLBACK_WORK:
            out.append(f"the orbit asks for {horizon / step:.6g} RK steps "
                       f"x {_callback_entries(n, width)} table entries per "
                       f"callback, over the budget of {MAX_CALLBACK_WORK}")


def _callback_entries(n: int, width: int) -> int:
    """Entries of the compiled value, gradient and Hessian table of a
    polynomial Hamiltonian with width terms: polynomials x terms x
    variables, the work of one callback call."""
    dim = 2 * n
    return (1 + dim + dim * dim) * width * dim


def _validate_problem(config: dict, out: List[str]):
    prob = config.get("problem")
    if not isinstance(prob, dict):
        out.append("lderiv needs a problem table")
        return
    dim_w, m = prob.get("dim_w"), prob.get("m")
    for label, val in (("problem.dim_w", dim_w), ("problem.m", m)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            out.append(f"{label} must be an integer >= 1")
            return
    if dim_w > MAX_DIM_W:
        out.append(f"problem.dim_w = {dim_w} is over the budget of "
                   f"{MAX_DIM_W}")
        return
    if m > dim_w:
        out.append(f"problem.m = {m} is over dim_w = {dim_w}: the constraint "
                   "Jacobian cannot have full row rank")
        return
    width = 0  # the most terms of any polynomial of the problem
    obj = prob.get("objective")
    if not isinstance(obj, dict) or "terms" not in obj:
        out.append("problem.objective.terms is required")
    else:
        width = _check_terms(obj["terms"], dim_w, "objective.terms", out)
    cons = prob.get("constraints")
    if not isinstance(cons, list) or len(cons) != m:
        out.append(f"problem.constraints must list m = {m} term tables")
    else:
        for k, con in enumerate(cons):
            if not isinstance(con, dict) or "terms" not in con:
                out.append(f"constraints[{k}].terms is required")
            else:
                width = max(width, _check_terms(
                    con["terms"], dim_w, f"constraints[{k}].terms", out))
    entries = (1 + m) * (1 + dim_w + dim_w * dim_w) * width * dim_w
    if entries > MAX_TABLE_ENTRIES:
        out.append(f"the problem's derivative tables ask for {entries} "
                   f"entries, over the budget of {MAX_TABLE_ENTRIES}")
    point = config.get("point")
    if not isinstance(point, dict):
        out.append("lderiv needs a point table with w and zeta")
        return
    w, zeta = point.get("w"), point.get("zeta")
    if not isinstance(w, list) or len(w) != dim_w \
            or not all(_is_num(v) for v in w):
        out.append(f"point.w must list {dim_w} finite numbers")
    if not isinstance(zeta, list) or len(zeta) != m \
            or not all(_is_num(v) for v in zeta):
        out.append(f"point.zeta must list {m} finite numbers")


def _maslov_window(horizon, opts: dict):
    """The (t0, t1) a maslov run reads, defaults filled from the horizon."""
    t0, t1 = opts.get("t0"), opts.get("t1")
    return (0.01 * horizon if t0 is None else t0,
            horizon if t1 is None else t1)


def _check_times(config: dict, opts: dict, command: str, out: List[str]):
    """Options that are times must fall inside the integrated window."""
    horizon = config.get("horizon")
    if not _is_num(horizon) or horizon <= 0:
        return  # refused already; the ranges hang on it
    if "trim" in opts and not (_is_num(opts["trim"])
                               and 0 < opts["trim"] < horizon):
        out.append("options.trim must be a number with 0 < trim < horizon")
    if command == "maslov":
        t0, t1 = _maslov_window(horizon, opts)
        # at t0 = 0 the Jacobi curve starts on the fiber it is counted
        # against, so every orbit would refuse it
        if not (_is_num(t0) and _is_num(t1) and 0 < t0 < t1 <= horizon):
            out.append("options.t0 and options.t1 must be numbers with "
                       "0 < t0 < t1 <= horizon")


def validate(config: dict, command: str) -> List[str]:
    """Schema and semantic checks; an empty list means runnable."""
    out: List[str] = []
    if not isinstance(config, dict):
        return ["config root must be a table"]
    keys = PROBLEM_KEYS if command == "lderiv" else ORBIT_KEYS
    out.extend(f"{command} reads no config key {key!r}"
               for key in sorted(set(config) - set(keys)))
    if command == "lderiv":
        _validate_problem(config, out)
    else:
        _validate_system(config, out)
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        out.append("seed must be an integer >= 0")
    opts = config.get("options", {})
    if not isinstance(opts, dict):
        out.append("options must be a table")
    else:
        out.extend(f"{command} reads no option {key!r}"
                   for key in sorted(set(opts) - set(OPTIONS[command])))
        if "reduced" in opts and not isinstance(opts["reduced"], bool):
            out.append("options.reduced must be true or false")
        samples = opts.get("samples", 1)
        if not isinstance(samples, int) or isinstance(samples, bool) \
                or samples < 1:
            out.append("options.samples must be an integer >= 1")
        elif samples > MAX_SAMPLES:
            out.append(f"options.samples = {samples} is over the budget "
                       f"of {MAX_SAMPLES}")
        _check_times(config, opts, command, out)
    reduced = command == "reduce" or (command == "hyperbolic" and isinstance(
        opts, dict) and opts.get("reduced") is True)
    if reduced and isinstance(config.get("system"), dict) \
            and config["system"].get("n") == 1:
        what = "reduce" if command == "reduce" else "options.reduced = true"
        out.append(f"{what} is trivial for n=1: the quotient by the "
                   "flow direction is a point")
    try:
        if json.loads(json.dumps(config)) != config:
            out.append("config does not round-trip through serialization")
    except (TypeError, ValueError):
        out.append("config contains non-serializable values")
    return out


# -------------------------------------------------------------- construction


def build_system(config: dict) -> HamiltonianSystem:
    sys_cfg = config["system"]
    family, n = sys_cfg["family"], int(sys_cfg["n"])
    if family == "custom":
        terms = [(float(c), tuple(int(e) for e in exps))
                 for c, exps in sys_cfg["hamiltonian"]["terms"]]
        return polynomial_system(n, terms)
    pot = sys_cfg.get("potential") or {}  # a metric's may be null
    if "terms" in pot:
        terms = [(0.5, tuple(2 if j == i else 0 for j in range(2 * n)))
                 for i in range(n)]
        for coeff, exps in pot["terms"]:
            terms.append((float(coeff),
                          tuple([0] * n + [int(e) for e in exps])))
        return polynomial_system(n, terms)
    # a constant Hessian diag(g, K), with g = I for a natural system
    g_mat = (np.asarray(sys_cfg["metric"]["g"], dtype=float)
             if family == "metric" else np.eye(n))
    k_mat = np.asarray(pot.get("k", np.zeros((n, n))), dtype=float)
    zero = np.zeros((n, n))
    return quadratic_system(np.block([[g_mat, zero], [zero, k_mat]]))


def _tables(polys, nvars: int):
    """Tables of the polynomials, their gradients and their Hessians, the
    derivatives taken term by term as polynomial_system takes them."""
    grads = [_poly_diff(p, k) for p in polys for k in range(nvars)]
    hesses = [_poly_diff(g, k) for g in grads for k in range(nvars)]
    return (PolynomialTable(polys, nvars), PolynomialTable(grads, nvars),
            PolynomialTable(hesses, nvars))


def build_problem(config: dict):
    """The problem with exact derivatives from its term tables."""
    prob = config["problem"]
    dim_w, m = int(prob["dim_w"]), int(prob["m"])
    obj, obj_grad, obj_hess = _tables([prob["objective"]["terms"]], dim_w)
    con, con_jac, con_hess = _tables(
        [c["terms"] for c in prob["constraints"]], dim_w)
    problem = lderiv.FiniteProblem(
        dim_w=dim_w, m=m, j_value=lambda w: float(obj(w)[0]),
        phi_value=con, j_grad=obj_grad,
        j_hess=lambda w: obj_hess(w).reshape(dim_w, dim_w),
        phi_jac=lambda w: con_jac(w).reshape(m, dim_w),
        phi_hess=lambda w: con_hess(w).reshape(m, dim_w, dim_w))
    point = lderiv.LagrangianPoint(
        w=np.asarray(config["point"]["w"], dtype=float),
        zeta=np.asarray(config["point"]["zeta"], dtype=float))
    return problem, point


# ------------------------------------------------------------------ runners


def _frame_row(frame: core.LagrangianFrame) -> np.ndarray:
    proj = frame.columns @ frame.columns.T
    return proj.ravel()


def _mat_headers(name: str, shape: Tuple[int, int]) -> List[str]:
    return [f"{name}[{i}][{j}]"
            for i in range(shape[0]) for j in range(shape[1])]


def _run_flow(sysn, z0, config, opts):
    traj = flow(sysn, z0, config["horizon"], config["step"])
    idx = _subsample(len(traj.times), opts["samples"])
    rows = np.column_stack([traj.times[idx], traj.states[idx],
                            traj.energies[idx]])
    cols = ["t"] + [f"z[{i}]" for i in range(2 * sysn.n)] + ["energy"]
    scalars = {"energy_drift": traj.energy_drift,
               "final_norm": float(np.linalg.norm(traj.states[-1]))}
    return scalars, Series(tuple(cols), rows), []


def _dense(sysn, z0, config) -> DenseFlow:
    return DenseFlow(sysn, z0, config["horizon"], config["step"])


def _run_jacobi(sysn, z0, config, opts):
    horizon = float(config["horizon"])
    jc = jacobi_curve(_dense(sysn, z0, config))
    ts = np.linspace(0.0, horizon, opts["samples"])
    rows = np.array([np.concatenate([[t], _frame_row(frame)])
                     for t, frame in zip(ts, jc.read(ts))])
    n2 = 2 * sysn.n
    cols = ["t"] + _mat_headers("proj", (n2, n2))
    return {"n": sysn.n, "horizon": horizon}, Series(tuple(cols), rows), []


def _field_curvatures(orbit, ts) -> List[np.ndarray]:
    """Curvature operator of the field at the orbit point of each time."""
    n = orbit.sys.n
    return [curvature_operator_field(orbit.sys, (z[:n], z[n:]))
            for z in map(orbit.state, ts)]


def _run_curvature(sysn, z0, config, opts):
    horizon = float(config["horizon"])
    orbit = flow(sysn, z0, horizon, config["step"])
    ts = np.linspace(0.0, horizon, opts["samples"])
    n = sysn.n
    mats = _field_curvatures(orbit, ts)
    rows = [np.concatenate([[t], r.ravel()]) for t, r in zip(ts, mats)]
    eigs = np.sort(np.linalg.eigvals(mats[0]).real)
    cols = ["t"] + _mat_headers("r", (n, n))
    scalars = {"eig_min_t0": float(eigs[0]), "eig_max_t0": float(eigs[-1])}
    return scalars, Series(tuple(cols), np.array(rows)), []


def _conjugate_series(pts) -> Series:
    rows = np.array([[p.t, float(p.multiplicity)] for p in pts]) \
        if pts else np.zeros((0, 2))
    return Series(("t", "multiplicity"), rows)


def _run_conjugate(sysn, z0, config, opts):
    jc = jacobi_curve(_dense(sysn, z0, config))
    pts = maslov.conjugate_points(jc, core.vertical_frame(jc.space),
                                  seed=config.get("seed", 0))
    scalars = {"count": len(pts),
               "index": int(sum(p.multiplicity for p in pts))}
    return scalars, _conjugate_series(pts), []


def _run_morse(sysn, z0, config, opts):
    out = analysis.morse_pipeline(_dense(sysn, z0, config),
                                  trim=opts["trim"])
    scalars = {"index": out.index, "trimmed_maslov": out.trimmed_maslov,
               "trim": out.trim, "legendre_sign": out.legendre.sign}
    return scalars, _conjugate_series(out.conjugate_points), []


def _run_maslov(sysn, z0, config, opts):
    horizon = float(config["horizon"])
    jc = jacobi_curve(_dense(sysn, z0, config))
    t0, t1 = map(float, _maslov_window(horizon, opts))
    sub = GrassmannCurve(space=jc.space, eval=jc.eval, domain=(t0, t1))
    rep = maslov.maslov_index(sub, core.vertical_frame(jc.space),
                              seed=config.get("seed", 0))
    rows = np.asarray(rep.subdivision, dtype=float).reshape(-1, 1)
    scalars = {"value": rep.value, "charts_used": rep.charts_used,
               "pieces": len(rep.subdivision) - 1}
    return scalars, Series(("t",), rows), []


def _run_reduce(sysn, z0, config, opts):
    rep = analysis.reduction_comparison(_dense(sysn, z0, config),
                                        trim=opts["trim"])
    rows = np.asarray(rep.samples, dtype=float).reshape(-1, 1)
    scalars = {"mu_full": rep.mu_full, "mu_reduced": rep.mu_reduced,
               "dominance_defect": rep.dominance_defect,
               "rank_excess": rep.rank_excess,
               "graze_margin": rep.graze_margin}
    return scalars, Series(("t",), rows), []


def _run_compare(sysn, z0, config, opts):
    rep = analysis.comparison_check(_dense(sysn, z0, config))
    rows = np.column_stack([rep.conjugate_times,
                            np.asarray(rep.multiplicities, dtype=float)]) \
        if rep.conjugate_times else np.zeros((0, 2))
    scalars = {"eig_upper": rep.eig_upper, "trace_lower": rep.trace_lower,
               "min_gap": rep.min_gap, "bound_gap": rep.bound_gap,
               "bound_hit": rep.bound_hit,
               "gap_bound_ok": rep.gap_bound_ok,
               "window_bound_ok": rep.window_bound_ok}
    return scalars, Series(("t", "multiplicity"), rows), []


def _run_hyperbolic(sysn, z0, config, opts):
    horizon = float(config["horizon"])
    reduced = opts["reduced"]
    # the full mode reads states only, so it integrates the state alone
    orbit = _dense(sysn, z0, config) if reduced \
        else flow(sysn, z0, horizon, config["step"])
    cert = analysis.certify_negative_curvature(orbit)
    ts = np.linspace(0.0, horizon, opts["samples"])
    if reduced:
        rc = reduced_jacobi_curve(orbit)
        mats = [op.matrix for op in curvatures(rc, ts)]
    else:
        mats = _field_curvatures(orbit, ts)
    tops = [float(np.linalg.eigvals(r).real.max()) for r in mats]
    rows = np.column_stack([ts, tops])
    scalars = {"kind": cert.kind, "max_eig": cert.max_eig,
               "alpha_estimate": cert.alpha_estimate,
               "verdict": cert.verdict, "margin": cert.margin,
               "equilibrium_count": len(cert.equilibria)}
    return scalars, Series(("t", "eig_top"), rows), list(cert.diagnostics)


def _run_lderiv(config):
    problem, point = build_problem(config)
    # an overflow is refused by name below, so numpy need not warn of it
    with np.errstate(all="ignore"):
        data = lderiv.lderiv_data(problem, point)
        residual = lderiv.stationarity_residual(problem, point)
        dual = lderiv.duality_check(data)
    m2 = 2 * data.m
    rows = np.concatenate([[0.0], _frame_row(dual.frame)]).reshape(1, -1)
    cols = ["t"] + _mat_headers("proj", (m2, m2))
    ine = dual.kernel
    scalars = {"residual": residual,
               "kernel_pos": ine.pos, "kernel_neg": ine.neg,
               "kernel_zero": ine.zero,
               "hessian_nondegenerate": dual.hessian_nondegenerate,
               "transversal_to_fiber": dual.transversal_to_fiber,
               "fd_fallback": problem.fd_fallback}
    return scalars, Series(tuple(cols), rows), []


_RUNNERS = {"flow": _run_flow, "jacobi": _run_jacobi,
            "curvature": _run_curvature, "conjugate": _run_conjugate,
            "morse": _run_morse, "maslov": _run_maslov,
            "reduce": _run_reduce, "compare": _run_compare,
            "hyperbolic": _run_hyperbolic}


# ------------------------------------------------------------ serialization


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _jsonable(value):
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def render_csv(series: Series) -> bytes:
    lines = [",".join(series.columns)]
    for row in series.rows:
        lines.append(",".join(FLOAT_FMT % v for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_json(payload: dict) -> bytes:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def write_outputs(result: RunResult, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"command": result.command,
               "scalars": {k: _jsonable(v)
                           for k, v in result.scalars.items()},
               "diagnostics": list(result.diagnostics)}
    _atomic_write(out / f"{result.command}.csv", render_csv(result.series))
    _atomic_write(out / f"{result.command}.json", render_json(payload))
    _atomic_write(out / "provenance.json", render_json(result.provenance))
    stale = out / "error.json"
    if stale.exists():
        stale.unlink()


def write_error(out_dir, command: str, exit_code: int, kind: str,
                detail) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = {"command": command, "exit_code": exit_code,
              "error": {"type": kind, "detail": detail}}
    _atomic_write(out / "error.json", render_json(record))


# ---------------------------------------------------------------- dispatch


def run(config: dict, command: str) -> RunResult:
    """Validate, dispatch and collect one command's results; the config
    is the run's only input, and its hash goes into the provenance."""
    diagnostics = validate(config, command)
    if diagnostics:
        raise ValidationFailure(diagnostics)
    start = time.perf_counter()
    if command == "lderiv":
        scalars, series, notes = _run_lderiv(config)
    else:
        sysn = build_system(config)
        opts = {**OPTIONS[command], **config.get("options", {})}
        scalars, series, notes = _RUNNERS[command](
            sysn, np.asarray(config["initial"], dtype=float), config, opts)
    provenance = {"command": command, "config_sha256": config_hash(config),
                  "version": __version__,
                  "wall_time_s": time.perf_counter() - start}
    return RunResult(command=command, scalars=scalars, series=series,
                     diagnostics=tuple(notes), provenance=provenance)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagrass",
        description="Jacobi-curve geometry runs from declarative configs")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", type=Path, default=Path("out"))
    args = parser.parse_args(argv)

    try:
        config = json.loads(args.config.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        write_error(args.out, args.command, 2, "ConfigUnreadable", str(exc))
        print(f"error: cannot read config: {exc}", file=_sys.stderr)
        return 2

    try:
        result = run(config, args.command)
    except ValidationFailure as exc:
        write_error(args.out, args.command, 2, "ValidationFailure",
                    exc.diagnostics)
        for line in exc.diagnostics:
            print(f"invalid config: {line}", file=_sys.stderr)
        return 2
    except Exception as exc:
        write_error(args.out, args.command, 3, type(exc).__name__, str(exc))
        # numpy's LinAlgError is a ValueError
        if isinstance(exc, (GeometryError, ArithmeticError, ValueError)):
            print(f"numerical failure: {type(exc).__name__}: {exc}",
                  file=_sys.stderr)
        else:
            # any other failure keeps the exit contract; the printed
            # traceback shows where it came from, and only a failing run
            # pays for importing the module that prints it
            import traceback
            traceback.print_exc()
        return 3

    write_outputs(result, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
