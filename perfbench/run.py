#!/usr/bin/env python3
"""lagrass benchmark: timed end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload orbit-quadratic --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout; lagrass is imported from its
``src/`` directory, never from an installed copy.  A workload is one
pass of ops generated from the seed.  One client repeats the pass back
to back (a closed loop) until ``--seconds`` have passed and the pass has
run at least once, then every result is checked against its oracle.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` an untraced
reference run followed by a traced replay of the same ops, the defect
audit, and the per-layer metrics.  The last line of standard output is the result
object; the line before it holds provenance and the failures found.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
WORKLOADS = ("orbit-quadratic", "orbit-polynomial", "chart-geometry")
LIB_MODULES = ("core", "curve", "maslov", "lderiv", "hamflow", "analysis",
               "cli")
SETUP_SAMPLES = 7        # child processes timed for setup_s
SETUP_TIMEOUT = 60.0
TAIL_BEYOND = 10         # op_tail_s: highest percentile with 10 ops above
REFERENCE_SHARE = 0.4    # trace mode: untraced pass length, of --seconds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, print READY, exit")
    return parser.parse_args(argv)


def load_lagrass():
    """Import lagrass from the checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import lagrass
    where = Path(lagrass.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"lagrass imported from {where}, not {SRC}")
    return {name: importlib.import_module(f"lagrass.{name}")
            for name in LIB_MODULES}


def make_ops(workload: str, seed: int, mods, cfg_dir: Path):
    if workload == "orbit-quadratic":
        return workloads.orbit_quadratic(seed, mods["cli"], cfg_dir)
    if workload == "orbit-polynomial":
        return workloads.orbit_polynomial(seed, mods["cli"], cfg_dir)
    return workloads.chart_geometry(seed, types.SimpleNamespace(**mods))


def setup(args, scratch: Path):
    """Everything before the first timed op: imports and inputs."""
    mods = load_lagrass()
    cfg_dir = scratch / "cfg"
    cfg_dir.mkdir(parents=True)
    return mods, make_ops(args.workload, args.seed, mods, cfg_dir)


def measure_setup(args) -> list:
    """Wall time from spawning a fresh interpreter to its READY line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
        try:
            line = child.stdout.readline()
            took = time.perf_counter() - start
            child.communicate(timeout=SETUP_TIMEOUT)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "READY" or child.returncode != 0:
            raise RuntimeError("setup probe failed")
        out.append(took)
    return out


def run_loop(ops, scratch: Path, deadline: float = 0.0, least: int = 0):
    """Closed loop: the next op starts when the previous one returns.

    Runs until the deadline has passed and at least ``least`` ops ran.
    """
    records = []
    pos = 0
    while pos < least or time.perf_counter() < deadline:
        op = ops[pos % len(ops)]
        out = scratch / "out" / f"{len(records):05d}"
        start = time.perf_counter()
        result = op.execute(out)
        records.append((pos, time.perf_counter() - start, result, out))
        pos += 1
    return records


def check_records(ops, records):
    """Failure reason (or None) per record, own checks then group checks."""
    reasons = []
    members = defaultdict(list)
    for i, (pos, _, result, out) in enumerate(records):
        op = ops[pos % len(ops)]
        try:
            reason, facts = op.check(result, out)
        except Exception as exc:  # noqa: BLE001 - malformed output fails
            reason, facts = f"check raised {type(exc).__name__}: {exc}", {}
        reasons.append(reason)
        if reason is None and op.group is not None:
            members[(op.group, pos // len(ops))].append((i, op, facts))
        shutil.rmtree(out, ignore_errors=True)
    for group in members.values():
        for i, reason in workloads.group_check(group).items():
            reasons[i] = reason
    return reasons


def failure_summary(ops, records, reasons):
    known, unknown = Counter(), Counter()
    for (pos, _, _, _), reason in zip(records, reasons):
        if reason is None:
            continue
        op = ops[pos % len(ops)]
        tag = op.defect(reason)
        if tag:
            known[f"{tag}: {op.kind}"] += 1
        else:
            unknown[f"{op.label}: {reason[:160]}"] += 1
    return known, unknown


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, mods):
    digest = hashlib.sha256()
    for path in sorted((SRC / "lagrass").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"git_commit": git_commit(), "src_sha256": digest.hexdigest(),
            "seed": args.seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "lagrass_path": str(Path(mods["cli"].__file__).resolve().parent)}


def by_kind(ops, records):
    """Latencies grouped by op kind."""
    groups = defaultdict(list)
    for pos, lat, _, _ in records:
        groups[ops[pos % len(ops)].kind].append(lat)
    return groups


def kind_summary(groups):
    return {k: [round(statistics.median(v), 4), len(v)]
            for k, v in sorted(groups.items())}


def op_medians(ops, records):
    """Median latency of each op of the pass, over its runs."""
    runs = defaultdict(list)
    for pos, lat, _, _ in records:
        runs[pos % len(ops)].append(lat)
    return [statistics.median(v) for _, v in sorted(runs.items())]


def tail(latencies):
    """Latency with TAIL_BEYOND ops above it, and its percentile."""
    ranked = sorted(latencies)
    k = max(0, len(ranked) - TAIL_BEYOND - 1)
    return ranked[k], 100.0 * k / max(1, len(ranked) - 1)


def timed(args, ops, scratch):
    start = time.perf_counter()
    records = run_loop(ops, scratch, deadline=start + args.seconds,
                       least=len(ops))
    wall = time.perf_counter() - start
    reasons = check_records(ops, records)
    # every op of the pass weighs the same, however many times it ran
    per_op = op_medians(ops, records)
    tail_s, pct = tail([r[1] for r in records])
    metrics = {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
    }
    setup_times = measure_setup(args)
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    extra = {"pass_ops": len(ops), "tail_percentile": round(pct, 1),
             "wall_s": wall,
             "loop_ops_per_s": len(records) / wall,
             "setup_samples_s": setup_times,
             "kind_p50_s": kind_summary(by_kind(ops, records))}
    return records, reasons, metrics, extra


def run_audit(args, mods, scratch):
    """The defect audit, run once and untraced: ops, and its failures
    by documented defect and unexpected."""
    if args.workload != "chart-geometry":
        return 0, Counter(), Counter()
    ops = workloads.defect_audit(args.seed, types.SimpleNamespace(**mods))
    records = run_loop(ops, scratch, least=len(ops))
    known, unknown = failure_summary(ops, records, check_records(ops, records))
    return len(ops), known, unknown


def traced(args, ops, scratch, mods):
    start = time.perf_counter()
    plain = run_loop(ops, scratch,
                     deadline=start + REFERENCE_SHARE * args.seconds)
    wall_plain = time.perf_counter() - start
    reasons = check_records(ops, plain)
    tr = tracing.Tracer(mods)
    with tr:
        for op in ops:
            if "curve" in op.facts:
                tr.wrap_curve(op.facts["curve"])
        start = time.perf_counter()
        replay = run_loop(ops, scratch, least=len(plain))
        wall_traced = time.perf_counter() - start
    reasons += check_records(ops, replay)
    attempted, known, unknown = run_audit(args, mods, scratch)
    groups = by_kind(ops, plain)
    raw = tr.metrics(wall_traced, len(replay))
    raw.update(tracing.command_p50({k[4:]: v for k, v in groups.items()
                                    if k.startswith("cli:")}))
    raw["trace.overhead_ratio"] = wall_traced / wall_plain
    raw["trace.ops"] = len(replay)
    failed = sum(known.values()) + sum(unknown.values())
    raw["audit.ops"] = attempted
    raw["audit.failed"] = failed
    raw["audit.fail_ratio"] = failed / attempted if attempted else 0.0
    metrics = {name: (value, tracing.unit(name))
               for name, value in raw.items()}
    extra = {"spans": len(tr.start), "wall_s": wall_traced,
             "kind_p50_s": kind_summary(groups),
             "audit_known_defects": dict(known),
             "audit_unexpected_failures": dict(unknown)}
    return plain + replay, reasons, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = TMP / f"{args.workload}-{os.getpid()}"
    try:
        try:
            mods, ops = setup(args, scratch)
        except ImportError as exc:
            print(f"perfbench: cannot import lagrass from {SRC}: {exc}",
                  file=sys.stderr)
            return 2
        if args.setup_only:
            print("READY", flush=True)
            return 0
        if args.trace:
            records, reasons, metrics, extra = traced(args, ops, scratch, mods)
        else:
            records, reasons, metrics, extra = timed(args, ops, scratch)
        known, unknown = failure_summary(ops, records, reasons)
        failed = sum(r is not None for r in reasons)
        details = {"workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, "ops": len(records), **extra,
                   "known_defects": dict(known),
                   "unexpected_failures": dict(unknown),
                   "provenance": provenance(args, mods)}
        print(json.dumps(details), flush=True)
        correct = not unknown and not extra.get("audit_unexpected_failures")
        result = {"correct": correct, "attempted": len(records),
                  "failed": failed,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
