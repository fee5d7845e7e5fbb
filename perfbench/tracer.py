"""Layer tracing of lagrass from outside the library.

``Tracer.install`` replaces every public function object wherever a
lagrass module binds it (so ``maslov.velocity_form`` and
``cli.curve_curvature`` are caught along with ``curve.velocity_form``),
the ``DenseFlow`` methods, and the ``eval`` callbacks of Hamiltonian
systems and Jacobi curves as the builders return them.  Each wrapped
call records a span (name, start, end, parent, raised) in flat arrays;
``uninstall`` puts every binding back.  Self time is a span's duration
minus the durations of its direct children, so the self times of all
spans add up to the time covered by the outermost spans.
"""

from __future__ import annotations

import statistics
import time
import types
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict, List

LAYERS = ("core", "curve", "maslov", "lderiv", "hamflow", "analysis", "cli")
SCANS = ("maslov.conjugate_points", "maslov.maslov_index",
         "maslov.maslov_index_monotone")
STENCILS = ("curve.velocity_form", "curve.curvature", "curve.curvature_form",
            "curve.transport_generator", "curve.derivative_curve")
CONNECTION = ("hamflow.curvature_operator_field",
              "hamflow.curvature_via_brackets",
              "hamflow.connection_hamiltonian", "hamflow.connection_ode2")
SYSTEM_BUILDERS = ("hamflow.natural_system",
                   "hamflow.quadratic_potential_system",
                   "hamflow.metric_system", "hamflow.polynomial_system",
                   "cli.build_system")
CURVE_BUILDERS = ("hamflow.jacobi_curve", "hamflow.reduced_jacobi_curve")
CALLBACK = "hamflow.system.eval"
CURVE_EVAL = "curve.GrassmannCurve.eval"
DENSE_INIT = "hamflow.DenseFlow.__init__"
DENSE_EVAL = ("hamflow.DenseFlow.state", "hamflow.DenseFlow.gamma")
FLOWS = ("hamflow.flow", "hamflow.variational_flow")
FLOW_COMMANDS = ("flow", "jacobi", "curvature", "conjugate", "morse",
                 "maslov", "reduce", "compare", "hyperbolic")

_MARK = "__perfbench_span__"
_MISSING = object()


def public_bindings(modules: Dict[str, types.ModuleType]):
    """(module, attribute, function) for every public lagrass function.

    A function is public when its own name has no leading underscore;
    it is caught under every name a lagrass module binds it to.
    """
    out = []
    for mod in modules.values():
        for attr, val in sorted(vars(mod).items()):
            if (isinstance(val, types.FunctionType)
                    and val.__module__.startswith("lagrass.")
                    and not val.__name__.startswith("_")
                    and not attr.startswith("_")):
                out.append((mod, attr, val))
    return out


def span_name(fn) -> str:
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"


class Tracer:
    """Records spans around lagrass calls while installed."""

    def __init__(self, modules: Dict[str, types.ModuleType],
                 clock=time.perf_counter):
        self.modules = modules
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._saved = []
        self._wrappers = {}

    # ------------------------------------------------------------ wrapping

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None):
        """Span-recording wrapper; ``after(result, args, kwargs)`` runs
        inside the span so its cost is charged to the call it inspects."""
        if getattr(fn, _MARK, None):
            return fn
        nid = self._id(name)
        clock, stack = self.clock, self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, raised = self.parent, self.raised

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            raised.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out, args, kwargs)
                return out
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, obj, attr, value):
        self._saved.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    def wrap_curve(self, curve):
        """Record spans around one curve's eval until uninstall."""
        if not getattr(curve.eval, _MARK, None):
            self._set(curve, "eval", self.wrap(curve.eval, CURVE_EVAL))

    def _after_system(self, sysn, args, kwargs):
        sysn.eval = self.wrap(sysn.eval, CALLBACK)

    def _after_curve(self, curve, args, kwargs):
        curve.eval = self.wrap(curve.eval, CURVE_EVAL)

    def _after_dense(self, _none, args, kwargs):
        dense = args[0]
        self.counts["dense_steps"] += len(dense.times) - 1
        self.counts["phi_bytes_max"] = max(self.counts["phi_bytes_max"],
                                           dense.phis.nbytes)

    def _after_flow(self, traj, args, kwargs):
        self.counts["flow_steps"] += len(traj.times) - 1

    def _after_index(self, report, args, kwargs):
        self.counts["pieces"] += report.charts_used

    def _after_write(self, _none, args, kwargs):
        result = args[0]
        out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
        for name in (f"{result.command}.csv", f"{result.command}.json",
                     "provenance.json"):
            self.counts["write_bytes"] += (out / name).stat().st_size

    def install(self):
        hooks = {name: self._after_system for name in SYSTEM_BUILDERS}
        hooks.update({name: self._after_curve for name in CURVE_BUILDERS})
        hooks["hamflow.flow"] = self._after_flow
        hooks["hamflow.variational_flow"] = lambda out, a, k: \
            self._after_flow(a[1], a, k)
        hooks["maslov.maslov_index"] = self._after_index
        hooks["maslov.maslov_index_monotone"] = self._after_index
        hooks["cli.write_outputs"] = self._after_write
        for mod, attr, fn in public_bindings(self.modules):
            if fn not in self._wrappers:
                name = span_name(fn)
                self._wrappers[fn] = self.wrap(fn, name, hooks.get(name))
            self._set(mod, attr, self._wrappers[fn])
        dense = self.modules["hamflow"].DenseFlow
        self._set(dense, "__init__", self.wrap(dense.__init__, DENSE_INIT,
                                               self._after_dense))
        for name in DENSE_EVAL:
            meth = name.rsplit(".", 1)[1]
            self._set(dense, meth, self.wrap(getattr(dense, meth), name))

    def uninstall(self):
        while self._saved:
            obj, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ analysis

    def self_times(self):
        """Per-span self time: duration minus direct children's durations."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(count)]

    def root_time(self) -> float:
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    def metrics(self, wall: float, ops: int) -> Dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        count = len(self.start)
        names = [self.names[i] for i in self.name]
        layer = [n.split(".", 1)[0] for n in names]
        _, own = self.self_times()
        calls, selfs = Counter(), Counter()
        lay_calls, lay_self, lay_errors = Counter(), Counter(), Counter()
        in_scan = [False] * count
        scans = evals = 0
        for i in range(count):
            name, lay, p = names[i], layer[i], self.parent[i]
            calls[name] += 1
            selfs[name] += own[i]
            lay_calls[lay] += 1
            lay_self[lay] += own[i]
            # an exception leaves a layer when the caller is another layer
            if self.raised[i] and (p < 0 or layer[p] != lay):
                lay_errors[lay] += 1
            # curve evaluations under the outermost index scan
            above = p >= 0 and in_scan[p]
            in_scan[i] = above or name in SCANS
            scans += name in SCANS and not above
            evals += above and name == CURVE_EVAL

        def total(group, table):
            return sum(table[n] for n in group)

        m = {}
        for lay in LAYERS:
            m[f"{lay}.calls"] = lay_calls[lay]
            m[f"{lay}.self_s"] = lay_self[lay]
            m[f"{lay}.errors"] = lay_errors[lay]
        m["bench.self_s"] = wall - self.root_time()

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        steps = self.counts["dense_steps"]
        m["hamflow.dense_build.calls"] = calls[DENSE_INIT]
        m["hamflow.dense_build.steps"] = steps
        m["hamflow.dense_build.self_s"] = selfs[DENSE_INIT]
        m["hamflow.dense_build.us_per_step"] = per(selfs[DENSE_INIT], steps,
                                                   1e6)
        m["hamflow.dense_build.peak_phi_mib"] = \
            self.counts["phi_bytes_max"] / 2 ** 20
        m["hamflow.dense_eval.calls"] = total(DENSE_EVAL, calls)
        m["hamflow.dense_eval.self_s"] = total(DENSE_EVAL, selfs)
        m["hamflow.flow.calls"] = total(FLOWS, calls)
        m["hamflow.flow.steps"] = self.counts["flow_steps"]
        m["hamflow.flow.self_s"] = total(FLOWS, selfs)
        m["hamflow.callback.calls"] = calls[CALLBACK]
        m["hamflow.callback.self_s"] = selfs[CALLBACK]
        m["hamflow.callback.us_per_call"] = per(selfs[CALLBACK],
                                                calls[CALLBACK], 1e6)
        m["hamflow.integrations_per_op"] = per(
            calls[DENSE_INIT] + total(FLOWS, calls), ops)
        m["hamflow.connection.calls"] = total(CONNECTION, calls)
        m["hamflow.connection.self_s"] = total(CONNECTION, selfs)
        m["curve.eval.calls"] = calls[CURVE_EVAL]
        m["curve.eval.self_s"] = selfs[CURVE_EVAL]
        m["curve.stencil.calls"] = total(STENCILS, calls)
        m["curve.stencil.self_s"] = total(STENCILS, selfs)
        m["curve.stencil.us_per_call"] = per(total(STENCILS, selfs),
                                             total(STENCILS, calls), 1e6)
        m["curve.transport.calls"] = calls["curve.transport"]
        m["curve.transport.self_s"] = selfs["curve.transport"]
        for fn in ("conjugate_points", "maslov_index"):
            m[f"maslov.{fn}.calls"] = calls[f"maslov.{fn}"]
            m[f"maslov.{fn}.self_s"] = selfs[f"maslov.{fn}"]
        m["maslov.pieces"] = self.counts["pieces"]
        m["maslov.evals_per_scan"] = per(evals, scans)
        for fn in ("inertia", "chart_coords", "transversal_complement"):
            m[f"core.{fn}.calls"] = calls[f"core.{fn}"]
            m[f"core.{fn}.self_s"] = selfs[f"core.{fn}"]
        frames = [i for i in range(count) if names[i] == "core.make_frame"]
        tried = sum(1 for i in frames if self.parent[i] >= 0
                    and names[self.parent[i]] == "core.transversal_complement")
        found = sum(1 for i in range(count)
                    if names[i] == "core.transversal_complement"
                    and not self.raised[i])
        m["core.make_frame.calls"] = len(frames)
        m["core.make_frame.errors"] = sum(self.raised[i] for i in frames)
        m["core.make_frame.accept_ratio"] = per(found, tried)
        m["core.intersection_dim.calls"] = calls["core.intersection_dim"]
        m["lderiv.lagrangian_point.calls"] = calls["lderiv.lagrangian_point"]
        m["lderiv.lagrangian_point.self_s"] = selfs["lderiv.lagrangian_point"]
        m["cli.validate.self_s"] = selfs["cli.validate"]
        m["cli.write_outputs.calls"] = calls["cli.write_outputs"]
        m["cli.write_outputs.self_s"] = selfs["cli.write_outputs"]
        m["cli.write_outputs.bytes"] = self.counts["write_bytes"]
        return m


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("us_per_step", "us_per_call")):
        return "us"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("_per_op"):
        return "1/op"
    if name.endswith("_per_scan"):
        return "1/scan"
    return "count"


def command_p50(latencies: Dict[str, List[float]]) -> Dict[str, float]:
    """cli.<command>.p50_s for every flow command, 0 where none ran."""
    return {f"cli.{c}.p50_s": (statistics.median(latencies[c])
                               if latencies.get(c) else 0.0)
            for c in FLOW_COMMANDS}
