#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py --workloads readme_chain,eight_hour --seeds 1-10

For each set, workload and end-to-end metric it prints the median of the
runs' values, and the distance between their first and third quartiles as a
share of that median, beside the metric's bound from BENCHMARK.json. Every
metric, setup_s included, is marked steady when its spread is below a third
of its bound. The seeds are run once per set (``--sets``, two by default),
one set after the other, and each later set's median is compared with the
first's: it agrees when it is not worse by more than the bound. Runs go one
after another, so they never compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.arith import quartile_spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec, workloads, seeds, seconds) -> tuple[dict, bool]:
    """Values of each end-to-end metric, by workload, over one run per seed."""
    ok = True
    values: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        vals = values[workload] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            t0 = time.perf_counter()
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}"
                      f"{done.stderr}")
                ok = False
                continue
            for name in vals:
                vals[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {v[-1]:.4g}" for name, v in vals.items())
                + f" ({time.perf_counter() - t0:.1f} s)", flush=True)
    return values, ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                    help="a range such as 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    sets = []
    for k in range(args.sets):
        values, set_ok = run_set(spec, args.workloads.split(","), args.seeds, args.seconds)
        ok &= set_ok
        sets.append(values)
        for workload, vals in values.items():
            for name, vs in vals.items():
                if len(vs) < 2:
                    continue
                spread = quartile_spread(vs)
                bound = metrics[name]["bound"]
                verdict = "steady" if spread < bound / 3 else "WIDE"
                print(f"set {k + 1} {workload} {name}: median {statistics.median(vs):.6g}, "
                      f"spread {spread:.4f} of bound {bound} ({verdict})", flush=True)
    for k, values in enumerate(sets[1:], start=2):
        for workload, vals in values.items():
            for name, vs in vals.items():
                first = sets[0][workload][name]
                if not vs or not first:
                    continue
                m0, m = statistics.median(first), statistics.median(vs)
                worse = (m - m0) / m0 if metrics[name]["better"] == "lower" else (m0 - m) / m0
                bound = metrics[name]["bound"]
                agree = worse <= bound
                ok &= agree
                print(f"set {k} vs set 1 {workload} {name}: median {m:.6g} vs {m0:.6g}, "
                      f"worse by {worse:+.4f} of bound {bound} "
                      f"({'agrees' if agree else 'DISAGREES'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
