"""Generate a Pareto-noise trace with 0.1% loss and save each column as .npy.

The eight_hour workload runs this in a child process during set-up, so the
generator's peak memory stays out of the measuring process. Writes
<column>.npy into the --out directory and prints one JSON line: the
generate time, the true phase and the nominal interval.

    PYTHONPATH=src python3 perfbench/gen_trace.py --periods 1920 --seed 0 \
        --phase 1234 --out DIR
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from llab.synth import ParetoTailNoise, SynthConfig, generate

COLUMNS = ("seq", "t_send", "ul", "dl", "rtt", "lost")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--periods", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", type=float, required=True)
    ap.add_argument("--out", required=True, help="directory for the .npy files")
    args = ap.parse_args()
    # the CLI's `synth --noise-kind pareto` noise, with its default body sigma
    cfg = SynthConfig(n_periods=args.periods, noise=ParetoTailNoise(body_sigma_ms=1.5),
                      loss_rate=0.001, phase_offset=args.phase, seed=args.seed)
    t0 = time.perf_counter()
    trace, truth = generate(cfg)
    generate_s = time.perf_counter() - t0
    for name in COLUMNS:
        np.save(Path(args.out) / f"{name}.npy", getattr(trace, name))
    print(json.dumps({"generate_s": generate_s, "s_star": truth.s_star,
                      "dt_ns": trace.dt_nominal}))


if __name__ == "__main__":
    main()
