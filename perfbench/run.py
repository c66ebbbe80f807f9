"""Layered benchmark of lmc: one named workload from one seed.

    python3 perfbench/run.py --workload laws|decide|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer ones; the last line of stdout is one JSON object.  Every run
also writes a record under .perfbench/records/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_REPS = 5  # set-up is timed in this many fresh processes; median reported
WORKLOADS = ("laws", "decide", "cli")
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


def _import_lmc():
    """Import lmc from this checkout's src/, refusing any other copy."""
    if not (SRC / "lmc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lmc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    os.environ.pop("LMC_FORMAT", None)  # would change the CLI's default output
    import lmc
    from lmc import liealg

    if Path(lmc.__file__).resolve().parent != (SRC / "lmc").resolve():
        sys.exit(f"perfbench: imported lmc from {lmc.__file__}, not from {SRC}")
    if liealg.CHECK_INVARIANTS:
        sys.exit("perfbench: liealg.CHECK_INVARIANTS is on; refusing to time")
    return lmc


def _setup(workload, seed, workdir, marks=None):
    """Everything between process start and the first timed op: inputs,
    then one warm-up call per op group.  If `marks` is a list, yardstick
    times along the way are appended to it."""
    import measure
    import workloads

    ops = workloads.build(workload, seed, workdir)
    if marks is not None:
        marks.append(measure.yardstick())
    measure.warm_up(ops, marks)
    return ops


def _timed(args, workdir):
    import measure

    child = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)]
    setups = [measure.child_seconds(child) for _ in range(SETUP_REPS)]
    ops = _setup(args.workload, args.seed, workdir)
    stats, rounds, yards = measure.measure(ops, args.seconds)
    values = {**measure.summarize(stats), "setup_s": statistics.median(s for _, s, _ in setups),
              "peak_rss_mb": measure.peak_rss_mb()}
    metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    detail = {
        "wall": {**measure.summarize(stats, wall=True),
                 "setup_s": statistics.median(w for w, _, _ in setups)},
        "setup_samples_s": [{"wall": w, "scaled": s, "yardstick": m} for w, s, m in setups],
        "yardstick_between_ops_s": {"min": min(yards), "median": statistics.median(yards), "max": max(yards)},
        "round_s": rounds,
        "op_best_ms": {op.name: min(st.samples) * 1e3 for op, st in zip(ops, stats) if st.samples},
    }
    return ops, stats, metrics, detail


def _traced(args, workdir):
    import measure
    from tracer import Tracer

    ops = _setup(args.workload, args.seed, workdir)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    interp_ms = measure.command_ms([sys.executable, "-c", "pass"], env)
    import_ms = measure.command_ms([sys.executable, "-c", "import lmc.cli"], env) - interp_ms
    stats = [measure.OpStats() for _ in ops]

    def round_(tracer=None):
        outcomes = measure.time_round(ops, tracer)
        measure.judge(ops, stats, outcomes)
        return sum(seconds for seconds, _, _ in outcomes)

    start = measure.clock()
    first = round_()  # certifies every op before anything is counted
    tracer = Tracer()
    traced = [round_(tracer)]  # the counted round
    plain = [round_()]
    while measure.clock() - start + plain[-1] + traced[-1] < args.seconds:
        traced.append(round_(Tracer()))
        plain.append(round_())
    metrics = layer_metrics(tracer, interp_ms, import_ms, min(traced) / min(plain))
    detail = {"certifying_round_s": first, "plain_round_s": plain, "traced_round_s": traced}
    return ops, stats, metrics, detail


def layer_metrics(tracer, interp_ms, import_ms, overhead_ratio):
    """Per-layer metrics by name: (value, unit)."""
    layer = {**tracer.counts(), **tracer.self_times(),
             "cli.interp_ms": interp_ms, "cli.import_ms": import_ms,
             "trace.overhead_ratio": overhead_ratio}
    return {name: (value, _unit(name)) for name, value in layer.items()}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if "ratio" in name or name.endswith("per_pmul"):
        return "ratio"
    return "count"


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None):
    args = _args(argv)
    lmc = _import_lmc()
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import measure

        if args.setup_only:
            marks = [measure.yardstick()]
            _setup(args.workload, args.seed, str(workdir), marks)
            shutil.rmtree(workdir, ignore_errors=True)
            print("ready", json.dumps(marks), flush=True)
            os._exit(0)  # the set-up time ends here, not after teardown
        yard_start = measure.yardstick()
        run = _traced if args.trace else _timed
        ops, stats, metrics, detail = run(args, str(workdir))
        yard_end = measure.yardstick()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(st.attempted for st in stats)
    failed = sum(st.failed for st in stats)
    from lmc import liealg

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "kernel": lmc.KERNEL,
        "check_invariants": liealg.CHECK_INVARIANTS,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "yardstick_s": {"start": yard_start, "end": yard_end},
        "distinct_ops": len(ops),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": {op.name: st.problems for op, st in zip(ops, stats) if st.problems},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"distinct ops {len(ops)}, attempted {attempted}, failed {failed}, "
          f"yardstick {yard_start * 1e3:.3f}/{yard_end * 1e3:.3f} ms, record {path.relative_to(ROOT)}")
    for name, problems in record["failures"].items():
        print(f"FAILED {name}: {problems[0].strip().splitlines()[-1]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
