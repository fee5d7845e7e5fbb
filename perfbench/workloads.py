"""Workload generators: a seed in, one pass of checked ops out.

The timed loop repeats the pass, so every run measures the same mix of
ops.  An op runs one unit of work and hands back a result; its check
runs after the timed phase, so checking never adds to a measured
latency.  Every generator is a pure function of its seed: the same seed
gives the same configs, curves and problems.

Timed passes use only routes with no documented seed defect, so no
timed op fails on the library as it stands.  ``defect_audit`` runs the
routes that have one and files each failure under its defect.

Inputs follow validity rules and nothing else (see the README): ends
of curves stay ``OFF_CROSSING`` away from conjugate times, reduce
orbits keep their flow direction clear of the Jacobi curve, and the
constrained problems stay away from degenerate data.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import oracle

OFF_CROSSING = 0.02      # minimum distance of a horizon from k pi / omega
GRAZE_LIMIT = 0.08       # reduce orbits: the library refuses below 0.05
QUAD_ROUNDS = 3          # orbit-quadratic pass: acceptance + two drawn rounds
CHART_ROUNDS = 12        # chart-geometry pass: plain curves, n = 1..4 thrice
AUDIT_ROUNDS = 8         # defect audit: every (n, plain/conjugated) once
SCAN_MAX_N = 2           # timed chart-route scans: n <= this

Check = Callable[[object, Path], Tuple[Optional[str], dict]]


class Refused(NamedTuple):
    """An exception reduced to its text, so no traceback keeps the frames
    (and every array they hold) alive until the check runs."""

    kind: str
    message: str

    @classmethod
    def of(cls, exc: BaseException) -> "Refused":
        return cls(type(exc).__name__, str(exc))


@dataclass
class Op:
    # cli:<command>, curve:<analysis> or lderiv:batch
    kind: str
    label: str
    execute: Callable[[Path], object]
    check: Check
    group: Optional[str] = None        # ops whose answers must agree
    # documented seed defects this op meets: (tag, pattern of the reason)
    known: Tuple[Tuple[str, str], ...] = ()
    facts: Dict[str, object] = field(default_factory=dict)

    def defect(self, reason: str) -> Optional[str]:
        """Tag of the documented defect a failure reason shows, or None."""
        for tag, pattern in self.known:
            if re.match(pattern, reason):
                return tag
        return None


# --------------------------------------------------------------- CLI ops


def _read_outputs(command: str, out: Path):
    scalars = json.loads((out / f"{command}.json").read_text())["scalars"]
    header, *lines = (out / f"{command}.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    return scalars, rows.reshape(len(lines), len(header.split(",")))


def _error_text(out: Path, rc: int) -> str:
    try:
        err = json.loads((out / "error.json").read_text())["error"]
        return f"exit {rc}: {err['type']}: {err['detail']}"
    except (OSError, ValueError, KeyError):
        return f"exit {rc} without error.json"


def cli_op(cli, command: str, config: dict, cfg_path: Path,
           expect: Callable[[dict, np.ndarray], Tuple[Optional[str], dict]],
           label: str, group: Optional[str] = None) -> Op:
    cfg_path.write_text(json.dumps(config))

    def execute(out: Path):
        try:
            return cli.main([command, "--config", str(cfg_path),
                             "--out", str(out)])
        except Exception as exc:  # noqa: BLE001 - a traceback is a failure
            return Refused.of(exc)

    def check(rc, out: Path):
        if isinstance(rc, Refused):
            return f"uncaught {rc.kind}: {rc.message}", {}
        if rc != 0:
            return _error_text(out, rc), {}
        try:
            scalars, rows = _read_outputs(command, out)
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable artifacts: {exc}", {}
        return expect(scalars, rows)

    return Op(kind=f"cli:{command}", label=label, execute=execute,
              check=check, group=group)


# ------------------------------------------- constant-Hessian expectations


@dataclass
class QuadModel:
    """Closed-form view of a natural-quadratic or constant-metric config."""

    n: int
    g: np.ndarray
    k: np.ndarray
    z0: np.ndarray
    horizon: float
    step: float

    @classmethod
    def from_config(cls, cfg: dict) -> "QuadModel":
        sys_cfg = cfg["system"]
        n = sys_cfg["n"]
        g = (np.asarray(sys_cfg["metric"]["g"], dtype=float)
             if sys_cfg["family"] == "metric" else np.eye(n))
        pot = sys_cfg.get("potential")
        k = np.asarray(pot["k"], dtype=float) if pot else np.zeros((n, n))
        return cls(n=n, g=g, k=k, z0=np.asarray(cfg["initial"], dtype=float),
                   horizon=float(cfg["horizon"]), step=float(cfg["step"]))

    @property
    def hess(self):
        return oracle.quadratic_hessian(self.g, self.k)

    @property
    def field(self):
        return oracle.linear_field(self.hess)

    @property
    def omegas(self):
        return oracle.frequencies(self.g, self.k)

    def energy(self) -> float:
        x, y = self.z0[:self.n], self.z0[self.n:]
        return 0.5 * float(x @ self.g @ x + y @ self.k @ y)

    def crossings(self, lo: float = 0.0):
        return oracle.crossing_times(self.omegas, lo, self.horizon)

    def graze(self, count: int = 129) -> float:
        u = self.field @ self.z0
        uhat = u / np.linalg.norm(u)
        return min(float(np.linalg.norm(uhat - oracle.jacobi_projector(
            self.field, t) @ uhat))
            for t in np.linspace(0.0, self.horizon, count))


def _ok(facts=None):
    return None, facts or {}


def _first(*reasons):
    for r in reasons:
        if r is not None:
            return r
    return None


def quad_expect(command: str, model: QuadModel, opts: dict):
    """Closed-form expectation for one command on a constant-Hessian config."""
    h = model.horizon

    def conj_rows(rows):
        return oracle.same_crossings(rows, model.crossings(), h)

    def flow(s, rows):
        drift_tol = oracle.ENERGY_TOL * (1.0 + abs(model.energy()))
        if not s["energy_drift"] <= drift_tol:
            return (f"energy drift {s['energy_drift']:.3g} "
                    f"> {drift_tol:.3g}"), {}
        want = float(np.linalg.norm(oracle.expm(model.field * h) @ model.z0))
        return _first(
            oracle.near(s["final_norm"], want, 1e-6 * (1.0 + want),
                        "final norm"),
            oracle.near(rows[-1, 0], h, 1e-12 * h, "last sample time")), {}

    def jacobi(s, rows):
        want_t = np.linspace(0.0, h, int(opts.get("samples", 101)))
        err = oracle.near(rows[:, 0], want_t, 1e-12 * h, "sample times")
        if err:
            return err, {}
        for row in rows:
            err = oracle.near(row[1:], oracle.jacobi_projector(
                model.field, row[0]).ravel(), oracle.FRAME_TOL,
                f"projector at t={row[0]:.4g}")
            if err:
                return err, {}
        return _ok()

    def curvature(s, rows):
        lam = model.omegas ** 2
        tol = oracle.EIG_TOL * (1.0 + lam.max())
        return _first(
            oracle.near(s["eig_min_t0"], lam[0], tol, "smallest eigenvalue"),
            oracle.near(s["eig_max_t0"], lam[-1], tol, "largest eigenvalue"),
            oracle.near(rows[:, 1:], np.tile(rows[0, 1:], (len(rows), 1)),
                        tol, "curvature along a constant-Hessian orbit")), {}

    def conjugate(s, rows):
        want = model.crossings()
        return _first(
            conj_rows(rows),
            oracle.near(s["count"], len(want), 0, "count"),
            oracle.near(s["index"], sum(m for _, m in want), 0, "index")), {}

    def morse(s, rows):
        idx = sum(m for _, m in model.crossings())
        return _first(
            conj_rows(rows),
            oracle.near(s["index"], idx, 0, "Morse index"),
            oracle.near(s["trimmed_maslov"], -idx, 0, "trimmed index"),
            oracle.near(s["legendre_sign"], 1, 0, "Legendre sign")), {}

    def maslov(s, rows):
        t0 = float(opts.get("t0", 0.01 * h))
        want = -sum(m for _, m in model.crossings(lo=t0))
        return oracle.near(s["value"], want, 0, "Maslov index"), {}

    def compare(s, rows):
        lam = model.omegas ** 2
        tol = oracle.EIG_TOL * (1.0 + lam.max())
        times = [t for t, _ in model.crossings()]
        # the library's own bound flags, recomputed from the exact times
        min_gap = float(np.diff([0.0] + times).min()) if times else math.inf
        window = float(np.diff([0.0] + times + [h]).max())
        gap_ok = min_gap >= math.pi / math.sqrt(lam[-1]) - model.step
        window_ok = window <= math.pi / math.sqrt(lam.mean()) + model.step
        return _first(
            oracle.near(s["eig_upper"], lam[-1], tol, "eig_upper"),
            oracle.near(s["trace_lower"], lam.mean(), tol, "trace_lower"),
            None if s["gap_bound_ok"] == gap_ok else "gap_bound_ok",
            None if s["window_bound_ok"] == window_ok else "window_bound_ok",
            conj_rows(rows)), {}

    def hyperbolic(s, rows):
        top = float(np.linalg.eigvals(model.k @ model.g).real.max())
        tol = oracle.EIG_TOL * (1.0 + abs(top))
        return _first(
            None if s["kind"] == "equilibrium_set" else f"kind {s['kind']}",
            None if s["verdict"] is True else "verdict False for K < 0",
            oracle.near(s["max_eig"], top, tol, "max_eig"),
            oracle.near(rows[:, 1], np.full(len(rows), top), tol,
                        "sampled top eigenvalue")), {}

    def reduce(s, rows):
        trim = float(opts.get("trim", 0.05 * h))
        mu = sum(m for _, m in model.crossings(lo=trim))
        return _first(
            oracle.near(s["mu_full"], mu, 0, "full index"),
            None if s["mu_reduced"] >= 0 else "negative reduced index",
            oracle.near(s["graze_margin"], model.graze(), 1e-6,
                        "graze margin"),
            None if len(rows) >= 3 else "fewer than 3 curvature samples"), {}

    return {"flow": flow, "jacobi": jacobi, "curvature": curvature,
            "conjugate": conjugate, "morse": morse, "maslov": maslov,
            "compare": compare, "hyperbolic": hyperbolic,
            "reduce": reduce}[command]


def acceptance_cases() -> List[Tuple[str, dict]]:
    """The nine flow-command configs of the acceptance suite, verbatim."""

    def base(**overrides):
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

    well = base(horizon=4.0, step=2e-3)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2))
    well["system"] = {"family": "natural", "n": 2,
                      "potential": {"k": (a @ a.T + 0.3 * np.eye(2)).tolist()}}
    well["initial"] = rng.standard_normal(4).tolist()
    inverted = base(horizon=2.0)
    inverted["system"]["potential"] = {"k": [[-1.0]]}
    return [
        ("flow", base(horizon=2.0)),
        ("jacobi", base(horizon=1.0)),
        ("curvature", base(horizon=1.0)),
        ("conjugate", base()),
        ("morse", base()),
        ("maslov", base()),
        ("compare", base()),
        ("hyperbolic", inverted),
        ("reduce", well),
    ]


# ------------------------------------------------------------ generators


def _spd(rng, n, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, n)) @ q.T


def _sym_list(m):
    m = 0.5 * (m + m.T)
    return [[float(v) for v in row] for row in m]


def _initial(rng, n):
    """A unit-norm initial phase point."""
    z = rng.standard_normal(2 * n)
    return (z / np.linalg.norm(z)).tolist()


def _horizon_off(rng, omegas, lo, hi):
    while True:
        h = float(rng.uniform(lo, hi))
        if oracle.distance_to_crossings(omegas, h) >= OFF_CROSSING:
            return h


def _quad_config(rng, command: str, j: int):
    """One generated orbit-quadratic config for a command slot."""
    n = (1, 2, 3)[j % 3]
    family = "natural"
    if command in ("jacobi", "maslov"):
        family = "metric"
        n = 1 + (j % 2) if command == "jacobi" else 1
    if command == "reduce":
        n = 2 + (j % 2)
    # narrow horizon bands keep the cost of a round alike across seeds,
    # and put the cheap commands near the others so latencies form one
    # cluster rather than two with the median in the gap
    span = {"flow": (5.0, 6.0), "curvature": (2.5, 2.8),
            "reduce": (2.2, 2.5)}.get(command, (2.0, 2.3))
    while True:
        if family == "metric":
            g = _spd(rng, n, 0.5, 2.0)
            k = _spd(rng, n, 1.5, 4.0)
            system = {"family": "metric", "n": n,
                      "metric": {"g": _sym_list(g)},
                      "potential": {"k": _sym_list(k)}}
        else:
            k = _spd(rng, n, 1.5, 6.0)
            if command == "hyperbolic":
                k = -k
            system = {"family": "natural", "n": n,
                      "potential": {"k": _sym_list(k)}}
        cfg = {"system": system, "initial": _initial(rng, n),
               "step": 1e-3, "seed": 0}
        model = QuadModel.from_config(dict(cfg, horizon=1.0))
        if command == "hyperbolic":
            cfg["horizon"] = float(rng.uniform(*span))
        else:
            cfg["horizon"] = _horizon_off(rng, model.omegas, *span)
        model.horizon = cfg["horizon"]
        if command == "reduce" and model.graze() < GRAZE_LIMIT:
            continue
        return cfg, model


QUAD_COMMANDS = ("flow", "conjugate", "jacobi", "morse", "curvature",
                 "maslov", "hyperbolic", "compare", "reduce")


def orbit_quadratic(seed: int, cli, cfg_dir: Path) -> List[Op]:
    """Three rounds of the nine flow commands on constant-Hessian systems.

    The first round replays the acceptance configs; the other two draw
    fresh quadratic and constant-metric systems from the seed, with the
    dimension stepping with command and round, so every pass holds
    n = 1, 2 and 3 in the same places.
    """
    verbatim = dict(acceptance_cases())
    ops = []
    for r in range(QUAD_ROUNDS):
        rng = np.random.default_rng([seed, r])
        for c, command in enumerate(QUAD_COMMANDS):
            if r == 0:
                cfg = verbatim[command]
                model = QuadModel.from_config(cfg)
                label = f"{command} acceptance"
            else:
                cfg, model = _quad_config(rng, command, r - 1 + c)
                label = (f"{command} {cfg['system']['family']} "
                         f"n={model.n} h={model.horizon:.3f}")
            expect = quad_expect(command, model, cfg.get("options", {}))
            ops.append(cli_op(cli, command, cfg,
                              cfg_dir / f"q{len(ops):04d}.json", expect,
                              label))
    return ops


# ------------------------------------------------ polynomial expectations


@dataclass
class PolyModel:
    """What is known in closed form about a polynomial config: t = 0 only."""

    n: int
    terms: list          # monomials over (x, y), kinetic part included
    natural: bool
    z0: np.ndarray
    horizon: float
    step: float

    def energy(self) -> float:
        return oracle.poly_value(self.terms, self.z0)

    def curvature_t0(self) -> np.ndarray:
        """Curvature of a natural system at z0: the potential's Hessian."""
        return oracle.poly_hessian(self.terms, self.z0)[self.n:, self.n:]


def _crossing_rows(rows, h) -> Optional[str]:
    rows = np.asarray(rows).reshape(-1, 2)
    if np.any(np.diff(rows[:, 0]) <= 0) or (
            len(rows) and not 0.0 < rows[0, 0] <= rows[-1, 0] <= h):
        return "crossing times not increasing inside (0, horizon]"
    if np.any(rows[:, 1] < 1) or np.any(rows[:, 1] != np.round(rows[:, 1])):
        return "multiplicities must be positive integers"
    return None


def poly_expect(command: str, model: PolyModel, opts: dict):
    """Checks that need no closed form, plus the t = 0 closed forms.

    Conjugate times are compared across the commands of a round in
    ``group_check``; the facts returned here feed that comparison.
    """
    h, n = model.horizon, model.n

    def crossings(rows):
        rows = np.asarray(rows).reshape(-1, 2)
        return {"times": rows[:, 0].tolist(),
                "mults": [int(m) for m in rows[:, 1]]}

    def flow(s, rows):
        e0 = model.energy()
        tol = oracle.ENERGY_TOL * (1.0 + abs(e0))
        return _first(
            None if s["energy_drift"] <= tol
            else f"energy drift {s['energy_drift']:.3g} > {tol:.3g}",
            oracle.near(rows[:, -1], np.full(len(rows), e0), tol,
                        "sampled energy"),
            oracle.near(rows[-1, 0], h, 1e-12 * h, "last sample time")), {}

    def jacobi(s, rows):
        want_t = np.linspace(0.0, h, int(opts.get("samples", 101)))
        vert = np.zeros((2 * n, 2 * n))
        vert[:n, :n] = np.eye(n)
        return _first(
            oracle.near(rows[:, 0], want_t, 1e-12 * h, "sample times"),
            oracle.near(rows[0, 1:], vert.ravel(), 1e-12, "start on fiber"),
            oracle.lagrangian_projector_rows(rows[:, 1:], n)), {}

    def curvature(s, rows):
        r0 = rows[0, 1:].reshape(n, n)
        if model.natural:
            want = model.curvature_t0()
            tol = oracle.EIG_TOL * (1.0 + np.abs(want).max())
            err = oracle.near(r0, want, tol, "curvature at t=0")
        else:
            err = None if np.all(np.isfinite(rows)) else "non-finite curvature"
        eigs = np.sort(np.linalg.eigvals(r0).real)
        return _first(
            err,
            oracle.near([s["eig_min_t0"], s["eig_max_t0"]],
                        [eigs[0], eigs[-1]], 1e-9 * (1 + abs(eigs).max()),
                        "t=0 eigenvalue scalars")), {}

    def conjugate(s, rows):
        return _first(
            _crossing_rows(rows, h),
            oracle.near(s["count"], len(rows), 0, "count"),
            oracle.near(s["index"], rows[:, 1].sum() if len(rows) else 0, 0,
                        "index")), crossings(rows)

    def morse(s, rows):
        idx = int(rows[:, 1].sum()) if len(rows) else 0
        return _first(
            _crossing_rows(rows, h),
            oracle.near(s["index"], idx, 0, "Morse index"),
            oracle.near(s["trimmed_maslov"], -idx, 0, "trimmed index"),
            oracle.near(s["legendre_sign"], 1, 0, "Legendre sign")), \
            crossings(rows)

    def maslov(s, rows):
        return None, {"maslov": int(s["value"]),
                      "t0": float(opts.get("t0", 0.01 * h))}

    def compare(s, rows):
        times = rows[:, 0].tolist() if len(rows) else []
        min_gap = float(np.diff([0.0] + times).min()) if times else math.inf
        window = float(np.diff([0.0] + times + [h]).max())
        gap_ok = s["eig_upper"] <= 0 or \
            min_gap >= math.pi / math.sqrt(s["eig_upper"]) - model.step
        window_ok = s["trace_lower"] <= 0 or \
            window <= math.pi / math.sqrt(s["trace_lower"]) + model.step
        return _first(
            _crossing_rows(rows, h),
            None if s["gap_bound_ok"] == gap_ok else "gap_bound_ok",
            None if s["window_bound_ok"] == window_ok
            else "window_bound_ok"), crossings(rows)

    def hyperbolic(s, rows):
        err = None
        if model.natural:
            want = float(np.linalg.eigvalsh(model.curvature_t0()).max())
            err = oracle.near(rows[0, 1], want,
                              oracle.EIG_TOL * (1 + abs(want)),
                              "top eigenvalue at t=0")
        positive = rows[0, 1] > s["margin"]
        return _first(
            err,
            None if s["kind"] == "equilibrium_set" else f"kind {s['kind']}",
            "verdict True with positive curvature at t=0"
            if positive and s["verdict"] else None), {}

    return {"flow": flow, "jacobi": jacobi, "curvature": curvature,
            "conjugate": conjugate, "morse": morse, "maslov": maslov,
            "compare": compare, "hyperbolic": hyperbolic}[command]


def group_check(members) -> Dict[int, str]:
    """Cross-route agreement inside one orbit round.

    members: (position, op, facts) for every op of the round that ran
    and passed its own check.  The conjugate-point scan is the
    reference; the Morse pipeline (which also checks a trimmed chart
    index) and the comparison scan must list the same crossings, and
    the chart-subdivision Maslov index must equal minus their count
    after t0.  Returns failure reasons by position.
    """
    ref = None
    for want in ("cli:conjugate", "cli:morse", "cli:compare"):
        for pos, op, facts in members:
            if op.kind == want and "times" in facts:
                ref = (pos, facts)
                break
        if ref:
            break
    if ref is None:
        return {}
    ref_pos, ref_facts = ref
    times = np.asarray(ref_facts["times"])
    mults = np.asarray(ref_facts["mults"])
    bad = {}
    for pos, op, facts in members:
        if pos == ref_pos:
            continue
        if "times" in facts:
            got = np.asarray(facts["times"])
            if got.shape != times.shape or np.any(
                    np.abs(got - times) > oracle.TIME_TOL * op.facts["h"]) \
                    or facts["mults"] != ref_facts["mults"]:
                bad[pos] = (f"crossings {np.round(got, 5).tolist()} differ "
                            f"from the scan's {np.round(times, 5).tolist()}")
        if "maslov" in facts:
            want = -int(mults[times > facts["t0"]].sum())
            if facts["maslov"] != want:
                bad[pos] = (f"Maslov index {facts['maslov']} but the scan "
                            f"counts {-want} crossings after t0")
    return bad


def _poly_round(rng, kind: str):
    """System, initial point and horizon of one orbit-polynomial round."""
    if kind == "custom1":
        a, b = rng.uniform(2.0, 3.5), rng.uniform(0.05, 0.3)
        e, f = rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2)
        terms = [[0.5, [2, 0]], [e, [1, 1]], [f, [1, 2]], [a, [0, 2]],
                 [b, [0, 4]]]
        system = {"family": "custom", "n": 1, "hamiltonian": {"terms": terms}}
        full, n = terms, 1
    else:
        n = 2 if kind == "natural2" else 1
        if n == 1 and rng.integers(2):
            pot = [[rng.uniform(2.0, 3.5), [2]],
                   [rng.uniform(-0.15, 0.15), [3]]]
        elif n == 1:
            pot = [[rng.uniform(2.0, 3.5), [2]], [rng.uniform(0.05, 0.3), [4]]]
        else:
            pot = [[rng.uniform(2.5, 4.0), [2, 0]],
                   [rng.uniform(2.5, 4.0), [0, 2]],
                   [rng.uniform(0.05, 0.3), [2, 2]],
                   [rng.uniform(0.05, 0.3), [4, 0]]]
        pot = [[float(c), e] for c, e in pot]
        system = {"family": "natural", "n": n, "potential": {"terms": pot}}
        full = ([[0.5, [2 if j == i else 0 for j in range(2 * n)]]
                 for i in range(n)]
                + [[c, [0] * n + e] for c, e in pot])
    span = (1.2, 1.35) if n == 2 else (1.6, 1.8)
    z0 = _initial(rng, n)
    return system, full, n, z0, float(rng.uniform(*span))


POLY_COMMANDS = (("jacobi", {"samples": 401}), ("conjugate", {}),
                 ("curvature", {"samples": 401}), ("morse", {}),
                 ("hyperbolic", {"samples": 129}), ("maslov", {}),
                 ("compare", {}), ("flow", {}))
# one pass: two n = 1 rounds of all eight commands, then an n = 2 round of
# four, so n = 2 stays a minority of the ops
POLY_ROUNDS = (("natural1", POLY_COMMANDS), ("custom1", POLY_COMMANDS),
               ("natural2", (("conjugate", {}), ("curvature", {"samples": 401}),
                             ("morse", {}), ("maslov", {}))))


def orbit_polynomial(seed: int, cli, cfg_dir: Path) -> List[Op]:
    """Three rounds of commands, each round on one polynomial orbit.

    Natural n=1 (cubic or quartic well) and custom n=1 (momentum-position
    coupling) rounds run all eight commands, the natural n=2 round four.
    """
    ops = []
    for r, (kind, commands) in enumerate(POLY_ROUNDS):
        rng = np.random.default_rng([seed, r])
        system, terms, n, z0, h = _poly_round(rng, kind)
        model = PolyModel(n=n, terms=terms, natural=kind != "custom1",
                          z0=np.asarray(z0), horizon=h, step=2e-3)
        for command, opts in commands:
            cfg = {"system": system, "initial": z0, "horizon": h,
                   "step": 2e-3, "seed": 0, "options": opts}
            op = cli_op(cli, command, cfg, cfg_dir / f"p{len(ops):04d}.json",
                        poly_expect(command, model, opts),
                        f"{command} {kind} h={h:.3f}", group=f"round{r}")
            op.facts["h"] = h
            ops.append(op)
    return ops


# -------------------------------------------------------- chart geometry


def _attempt(fn):
    """Call fn; a refusal becomes the result the check reports."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - every refusal is a result
        return Refused.of(exc)


def _guarded(fn):
    return lambda _out: _attempt(fn)


def _refused(result, what: str = "") -> Optional[str]:
    if isinstance(result, Refused):
        return f"{what}refused: {result.kind}: {result.message}"
    return None


# The documented seed defects (README, "Known seed failures"), each as
# the failure reason it produces.  A failure is filed under a defect only
# when its reason matches a pattern its op lists; any other failure of
# the same op is unexpected and makes the run incorrect.

# transport's frame on a conjugated curve fails the isotropy check, or
# diverges first and turns rank deficient or singular
NOT_ISOTROPIC = ("transport-isotropy",
                 r"refused: (ValueError: frame is not isotropic"
                 r"|ValueError: columns are numerically rank deficient"
                 r"|LinAlgError: Singular matrix)")
CROSS_RATIO = ("cross-ratio-curvature", r"cross-ratio curvature at t=")
STENCIL_CURVATURE = ("conjugated-stencil",
                     r"(direct|cross-ratio) curvature at t=")
# transport's generator comes from stencils too
STENCIL_TRANSPORT = ("conjugated-stencil",
                     r"drift |propagator trace: "
                     r"|transport generator eigenvalues: ")
# the velocity form's stencil on a conjugated curve turns indefinite:
# classify then gets monotone or symmetric wrong, the index scans refuse
STENCIL_FLAGS = ("conjugated-stencil", r"flags \(True, [^,]+, False, [^)]+\),")
STENCIL_INDEFINITE = ("conjugated-stencil",
                      r"(chart Maslov index |conjugate_points )?refused: "
                      r"NotMonotone: velocity form is indefinite")
INDEX_SCAN = ("index-scan",
              r"chart Maslov index: off by \d+ "
              r"|(chart Maslov index|conjugate_points) refused: ChartFailure: "
              r"|\d+ crossings, expected \d+ ")
CONJUGATED_INDEX = ("conjugated-index",
                    r"pair-index Maslov index: off by \d+ |crossing at ")
FAMILY_REFUSAL = ("family-refusal",
                  r"family_index_delta refused: ArithmeticError: ")


def rotating_curve(lib, omegas, sympl, length):
    """span{cos(w_i t) e_i + sin(w_i t) f_i}, optionally conjugated."""
    n = len(omegas)
    space = lib.core.standard_space(n)
    om = np.asarray(omegas, dtype=float)

    def ev(t):
        cols = np.vstack([np.diag(np.cos(om * t)), np.diag(np.sin(om * t))])
        if sympl is not None:
            cols = sympl @ cols
        return lib.core.make_frame(space, cols)

    return lib.curve.GrassmannCurve(space=space, eval=ev,
                                    domain=(0.0, float(length)))


def _curve_ops(lib, rng, n: int, conj: bool, audit: bool) -> List[Op]:
    """The analyses of one rotating curve, one op each.

    Timed ops (``audit`` false) run on plain curves and only through the
    routes with no documented defect there: the pair-index Maslov route,
    the chart-route scan (``maslov_index`` and ``conjugate_points``) up
    to ``SCAN_MAX_N``, and the direct curvature.  Audit ops run every
    route and list the defects they may meet.
    """
    routes = ("direct", "cross-ratio") if audit else ("direct",)
    while True:
        om = np.sort(rng.uniform(0.8, 2.5, n))
        if n == 1 or np.diff(om).min() >= 0.05:
            break
    length = _horizon_off(rng, om, 3.0, 4.5)
    sympl = (lib.core.random_symplectic(lib.core.standard_space(n), rng)
             if conj else None)
    c = rotating_curve(lib, om, sympl, length)
    tag = f"n={n} {'conjugated' if conj else 'plain'} L={length:.3f}"
    lam = om ** 2
    eig_tol = oracle.CURVE_EIG_TOL * (1.0 + lam.max())
    start = 0.02 * length
    want_index = sum(m for _, m in oracle.crossing_times(om, start, length))
    want_pts = oracle.crossing_times(om, 0.0, length)

    sub = lib.curve.GrassmannCurve(space=c.space, eval=c.eval,
                                   domain=(start, length))

    def index():
        return lib.maslov.maslov_index_monotone(sub, c.eval(0.0)).value

    def check_index(res, _out):
        return (_refused(res) or oracle.near(res, want_index, 0,
                                             "pair-index Maslov index")), {}

    def scan():
        train = c.eval(0.0)
        return (_attempt(lambda: lib.maslov.maslov_index(sub, train).value),
                _attempt(lambda: lib.maslov.conjugate_points(c, train)))

    def check_scan(res, _out):
        chart, pts = res
        if _refused(chart) or _refused(pts):
            return _first(_refused(chart, "chart Maslov index "),
                          _refused(pts, "conjugate_points ")), {}
        rows = np.array([[p.t, p.multiplicity] for p in pts]).reshape(-1, 2)
        return _first(
            oracle.near(chart, want_index, 0, "chart Maslov index"),
            oracle.same_crossings(rows, want_pts, length)), {}

    samples = np.array([0.12, 0.27, 0.42, 0.58, 0.73, 0.88]) * length

    route_fns = {"direct": lib.curve.curvature,
                 "cross-ratio": lib.curve.curvature_via_cross_ratio}

    def curvature():
        return [tuple(np.linalg.eigvals(route_fns[route](c, t).matrix)
                      for route in routes) for t in samples]

    def check_curvature(res, _out):
        if _refused(res):
            return _refused(res), {}
        # every sample of the direct route before any of the cross-ratio
        # route, whose defect on plain curves must not hide a direct one
        for i, route in enumerate(routes):
            for t, eigs in zip(samples, res):
                err = oracle.near(np.sort(eigs[i].real), lam, eig_tol,
                                  f"{route} curvature at t={t:.4f}")
                if err:
                    return err, {}
        return _ok()

    t0, t1 = 0.1 * length, 0.6 * length

    def transport():
        return lib.curve.transport(c, t0, t1)

    def check_transport(res, _out):
        if _refused(res):
            return _refused(res), {}
        j = oracle.jstd(n)
        defect = np.abs(res.matrix.T @ j @ res.matrix - j).max()
        want_trace = 2.0 * np.cos(om * (t1 - t0)).sum()
        gen = [np.sort(np.linalg.eigvals(a).real) for _, a in res.generators]
        return _first(
            None if res.drift <= oracle.TRANSPORT_TOL
            else f"drift {res.drift:.3g}",
            None if defect <= oracle.TRANSPORT_TOL
            else f"symplectic defect {defect:.3g}",
            oracle.near(np.trace(res.matrix), want_trace,
                        oracle.TRANSPORT_TOL * 2 * n, "propagator trace"),
            oracle.near(np.array(gen), np.tile(lam, (len(gen), 1)), eig_tol,
                        "transport generator eigenvalues")), {}

    def classify():
        return lib.curve.classify(c)

    def check_classify(res, _out):
        if _refused(res):
            return _refused(res), {}
        want = (True, "increasing", False, True)
        got = (res.regular, res.monotone, res.flat, res.symmetric)
        return (None if got == want else f"flags {got}, expected {want}"), {}

    march = (NOT_ISOTROPIC,) if n >= 2 else ()
    known = {"index": (), "scan": (INDEX_SCAN,), "curvature": (CROSS_RATIO,),
             "transport": (), "classify": ()}
    if conj:
        known = {"index": (CONJUGATED_INDEX, STENCIL_INDEFINITE),
                 "scan": (INDEX_SCAN, CONJUGATED_INDEX, STENCIL_INDEFINITE),
                 "curvature": (STENCIL_CURVATURE,),
                 "transport": march or (STENCIL_TRANSPORT,),
                 "classify": march + (STENCIL_FLAGS,)}
    analyses = [("index", index, check_index), ("scan", scan, check_scan),
                ("curvature", curvature, check_curvature),
                ("transport", transport, check_transport),
                ("classify", classify, check_classify)]
    ops = [Op(f"curve:{name}", f"{name} {tag}", _guarded(fn), check,
              known=known[name] if audit else ())
           for name, fn, check in analyses
           if name != "scan" or audit or n <= SCAN_MAX_N]
    for op in ops:
        op.facts["curve"] = c
    return ops


def _quadratic_problem(lib, rng):
    """Seeded J = w^T M w / 2 + b.w under C w = target, nondegenerate."""
    while True:
        d = int(rng.integers(3, 6))
        m = int(rng.integers(1, 3))
        a = rng.standard_normal((d, d))
        mm = 0.5 * (a + a.T)
        cc = rng.standard_normal((m, d))
        kern = oracle.nullspace(cc)
        restricted = np.linalg.eigvalsh(kern.T @ mm @ kern)
        if (np.abs(np.linalg.eigvalsh(mm)).min() >= 0.1
                and np.abs(restricted).min() >= 0.1
                and np.linalg.svd(cc, compute_uv=False)[-1] >= 0.1
                and np.abs(np.abs(restricted) - 1.0).min() >= 0.05):
            break
    b = rng.standard_normal(d)
    target = rng.standard_normal(m)
    kkt = np.block([[mm, -cc.T], [cc, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-b, target]))
    problem = lib.lderiv.FiniteProblem(
        dim_w=d, m=m,
        j_value=lambda w: 0.5 * w @ mm @ w + b @ w,
        phi_value=lambda w: cc @ w,
        j_grad=lambda w: mm @ w + b,
        j_hess=lambda w: mm,
        phi_jac=lambda w: cc,
        phi_hess=lambda w: np.zeros((m, d, d)))
    start = sol + 0.3 * rng.standard_normal(d + m)
    return dict(problem=problem, m=m, d=d, mm=mm, cc=cc, target=target,
                w=sol[:d], zeta=sol[d:], start=start, restricted=restricted)


def _lderiv_op(lib, rng, r: int, family: bool, size: int = 3) -> Op:
    """A batch of constrained problems; ``family`` adds the one route with
    a documented defect, ``family_index_delta``."""
    probs = [_quadratic_problem(lib, rng) for _ in range(size)]
    lde = lib.lderiv

    def run():
        out = []
        for p in probs:
            point = lde.lagrangian_point(p["problem"], p["start"][:p["d"]],
                                         p["start"][p["d"]:], p["target"])
            form = lde.hessian_on_kernel(p["problem"], point)
            data = lde.lderiv_data(p["problem"], point)
            frame = lde.l_derivative(data)
            dual = lde.duality_check(data)
            cc, mm = p["cc"], p["mm"]
            delta = _attempt(lambda: lde.family_index_delta(
                lambda tau: lde.LDerivData(A=cc, Q=mm - tau * np.eye(len(mm))),
                -1.0, 1.0)) if family else None
            out.append((point, form.matrix, frame.columns, dual, delta))
        return out

    def check(res, _out):
        if _refused(res):
            return _refused(res), {}
        # every closed-form check of the batch comes before a refused
        # family, so the documented refusal cannot hide a wrong answer
        for p, (point, form, cols, dual, delta) in zip(probs, res):
            scale = 1.0 + np.abs(p["w"]).max() + np.abs(p["zeta"]).max()
            s = -p["cc"] @ np.linalg.solve(p["mm"], p["cc"].T)
            graph = np.vstack([np.eye(p["m"]), s])
            want_delta = -int(((p["restricted"] > -1.0)
                               & (p["restricted"] < 1.0)).sum())
            err = _first(
                oracle.near(np.concatenate([point.w, point.zeta]),
                            np.concatenate([p["w"], p["zeta"]]),
                            oracle.LDERIV_TOL * scale, "Newton point"),
                None if oracle.inertia(form) == oracle.inertia(
                    np.diag(p["restricted"])) else "kernel inertia",
                oracle.near(oracle.projector(cols), oracle.projector(graph),
                            1e-8, "L-derivative plane"),
                None if (dual.hessian_nondegenerate
                         and dual.transversal_to_fiber)
                else f"duality {dual}",
                None if delta is None or _refused(delta)
                else oracle.near(delta, want_delta, 0, "family index delta"))
            if err:
                return err, {}
        return _first(*(_refused(delta, "family_index_delta ")
                        for *_, delta in res)), {}

    return Op("lderiv:batch", f"lderiv batch {r}", _guarded(run), check,
              known=(FAMILY_REFUSAL,) if family else ())


def chart_geometry(seed: int, lib) -> List[Op]:
    """Rounds of the timed analyses of one plain rotating curve plus an
    lderiv batch; rounds cycle n = 1..4."""
    ops = []
    for r in range(CHART_ROUNDS):
        rng = np.random.default_rng([seed, r])
        ops.extend(_curve_ops(lib, rng, 1 + r % 4, conj=False, audit=False))
        ops.append(_lderiv_op(lib, rng, r, family=False))
    return ops


def defect_audit(seed: int, lib) -> List[Op]:
    """Every route with a documented seed defect, once per (n, plain or
    conjugated by a seeded symplectic map), plus the family index."""
    ops = []
    for r in range(AUDIT_ROUNDS):
        rng = np.random.default_rng([seed, r, 1])
        ops.extend(_curve_ops(lib, rng, 1 + r % 4, conj=r >= 4, audit=True))
        ops.append(_lderiv_op(lib, rng, r, family=True))
    return ops
