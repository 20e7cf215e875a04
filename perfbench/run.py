#!/usr/bin/env python3
"""Run one llab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload readme_chain --seed 1 --seconds 5 --trace 0

Workloads: readme_chain, model_study, eight_hour, probe_loopback (see
perfbench/README.md). The run sets its workload up several times (timed,
the median is ``setup_s``), then runs whole units of the workload's work
while the next is due to end within ``--seconds`` (at least one), and checks
the outputs of every unit. ``wall_s`` is the median unit wall time.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing. With ``--trace 1`` the run spends half its time untraced and half
with spans around llab's entry points (at least one unit each), and reports
per-layer metrics and the tracing overhead (traced minus untraced unit
wall).

Every line before the last is for people. The last line is one JSON object
with the keys correct, attempted, failed and metrics. Exit status: 0 when
every output check passes, 1 when one fails, 2 when the benchmark cannot
run at all (for instance without llab's source under src/llab).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.arith import fail_frac, percentile  # noqa: E402
from perfbench.tracer import ROOT as UNIT_SPAN  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: Host-jitter baseline: a bare spin loop on 2 ms deadlines.
SPIN_DEADLINES = 1000
SPIN_INTERVAL_NS = 2_000_000


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def code_digest() -> str:
    """sha256 over llab's source and the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("llab/**/*.py"), *ROOT.glob("perfbench/*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def spin_late_us() -> list[float]:
    """Lateness of a busy-wait loop reaching each of a series of deadlines."""
    late = []
    t0 = time.monotonic_ns()
    for i in range(1, SPIN_DEADLINES + 1):
        deadline = t0 + i * SPIN_INTERVAL_NS
        now = time.monotonic_ns()
        while now < deadline:
            now = time.monotonic_ns()
        late.append((now - deadline) / 1e3)
    return late


def context(spin: bool) -> dict:
    """What a result depends on besides the code; the spin baseline costs 2 s."""
    import numpy
    import scipy

    lines = sum(p.read_bytes().count(b"\n") for p in SRC.glob("llab/**/*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_llab_lines": lines,
        "host.spin_late_p99_us": percentile(spin_late_us(), 0.99) if spin else None,
    }


def measure(wl, seconds: float, tracer=None) -> tuple[list[float], list]:
    """Run whole units of work while the next is due to end within ``seconds``.

    At least one unit runs. Returns each unit's wall time and outcome.
    """
    walls, outcomes = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.begin(UNIT_SPAN)
        t0 = time.perf_counter()
        wl.run()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        walls.append(wall)
        outcomes.append(wl.check())
        if time.perf_counter() - start + wall > seconds:
            return walls, outcomes


def digest_problems(key: str, outcomes) -> tuple[dict, list[str]]:
    """Compare artifact digests across this run's units and with earlier runs.

    Every run records its digests in .perfbench_work/digests.json under
    ``key`` (code, workload and seed), so a later run of the same key that
    makes an artifact with another digest is flagged.
    """
    problems = []
    digests: dict[str, str] = {}
    for i, o in enumerate(outcomes):
        for name, d in o.digests.items():
            if digests.setdefault(name, d) != d:
                problems.append(f"{name}: unit {i} digest differs from an earlier unit")
    if not digests:
        return digests, problems
    registry = WORK / "digests.json"
    seen = json.loads(registry.read_text()) if registry.exists() else {}
    earlier = seen.setdefault(key, {})
    for name, d in digests.items():
        if earlier.setdefault(name, d) != d:
            problems.append(f"{name}: digest differs from an earlier run "
                            f"with the same code and seed")
    tmp = registry.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, registry)
    return digests, problems


def declared_metrics() -> tuple[dict, dict]:
    """Name to unit of the end-to-end and the per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "llab" / "__init__.py").is_file():
        print(f"perfbench: llab source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import llab

    if not Path(llab.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: llab imported from {llab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import PROBE_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    # the jitter baseline is read beside probe numbers, and is a per-layer metric
    ctx = context(spin=bool(args.trace) or args.workload == "probe_loopback")
    print("context " + json.dumps(ctx))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](SRC, work, args.seed)
    tracer = Tracer() if args.trace else None
    try:
        setups = []
        for _ in range(wl.setup_reps):
            gc.collect()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        if tracer is None:
            walls, outcomes = measure(wl, args.seconds)
        else:
            t_measure = time.perf_counter()
            walls, outcomes = measure(wl, args.seconds / 2)
            tracer.install()
            try:
                left = args.seconds - (time.perf_counter() - t_measure)
                traced_walls, traced_outcomes = measure(wl, left, tracer=tracer)
            finally:
                tracer.uninstall()
            outcomes += traced_outcomes
        own_metrics = wl.layer_metrics()
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    digests, digest_issues = digest_problems(
        f"{code_digest()}:{args.workload}:{args.seed}", outcomes)
    problems += digest_issues

    print(f"setup runs (s): {setups}")
    print(f"unit walls (s): {walls}")
    print(f"fail_frac = {fail_frac(attempted, failed)!r} ({failed} of {attempted} failed)")
    for name, digest in sorted(digests.items()):
        print(f"sha256 {name} {digest}")

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        for name in ("probe.rtt_p50_us", "probe.on_time_frac"):
            if name in own_metrics:
                value, unit = own_metrics[name]
                print(f"{name.split('.', 1)[1]} = {value!r} {unit} (end to end)")
        wanted = e2e_units
    else:
        metrics, lines = tracer.report()
        for line in lines:
            print(line)
        metrics.update({k: (0.0, unit) for k, unit in PROBE_UNITS.items()})
        metrics.update(own_metrics)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["host.spin_late_p99_us"] = (ctx["host.spin_late_p99_us"], "us")
        print(f"tracing overhead: {overhead!r} s per unit "
              f"({len(walls)} untraced units, {len(traced_walls)} traced)")
        wanted = layer_units
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != wanted:
        print(f"perfbench: metrics {sorted(set(got.items()) ^ set(wanted.items()))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for name in wanted:
        value, unit = metrics[name]
        print(f"{name} = {value!r} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("checks: " + ("all passed" if not problems else f"{len(problems)} failed"))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
