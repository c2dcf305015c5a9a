"""One set-up sample: from before ``import backscatter`` to the end of a warm-up point.

Measures CPU seconds of this process and its pool workers (``setup_s``) and
wall seconds (``setup_wall_s``). Run in a fresh interpreter, so the import
(numpy included) is paid again:

    python3 perfbench/setup_probe.py --workload fixed-snr --seed 1 --tmpdir DIR

Prints one JSON object, ``{"setup_s": ..., "setup_wall_s": ...}``.
"""
from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import workloads


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmpdir", required=True)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    cpu0, wall0 = workloads.cpu_seconds(), time.perf_counter()
    bs = workloads.load_backscatter()
    workloads.warm_up(bs, wl, args.seed, Path(args.tmpdir))
    print(json.dumps({"setup_s": workloads.cpu_seconds() - cpu0,
                      "setup_wall_s": time.perf_counter() - wall0}))


if __name__ == "__main__":
    main()
