"""Benchmark of backscatter-sim: Monte Carlo trials per second on sweep workloads.

    python3 perfbench/run.py --workload fixed-snr --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's sweep, untraced, for ``--seconds``
(each repetition on its own seed derived from ``--seed``; the first uses
``--seed`` itself) and prints the end-to-end metrics: the median trials per
reference second (see ``calibrate.py``), per CPU-second and per
wall-second over repetitions, the median set-up time of fresh interpreters,
peak resident memory and the failed-point fraction. The bounded rate is the
one per reference second: on a shared virtual machine, stolen time makes
wall-clock rates swing by 20-50 % between runs of the same code, and the
host's changing speed moves CPU-time rates nearly as much.

``--trace 1`` runs the same repetitions untraced and then traced, checks that
both give identical points, and prints the per-layer metrics: calls and self
time per trial of each module's public functions, pool counts and waits, and
the tracing overhead. On the parallel workload it also sweeps serially for
``sim.speedup_vs_serial``.

Both check every point of the first repetition against the per-trial
reference chain (see ``oracle.py``). The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Without a ``src/backscatter`` package next to this directory the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import oracle
import tracing
import workloads
from workloads import ROOT, Workload

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
SETUP_SAMPLES = 9

END_TO_END_UNITS = {"trials_per_ref_s": "trials/ref-s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in tracing.FUNCTIONS
       for kind, unit in (("calls", "count"), ("us_per_trial", "us/trial"))},
    "waveform.samples_per_trial": "samples",
    "sim.errors": "count", "sim.points": "count", "sim.pools_created": "count",
    f"{tracing.POOL_SPAN}.us_per_trial": "us/trial", "sim.speedup_vs_serial": "ratio",
    "cli.csv_bytes": "bytes",
    "trace.us_per_trial": "us/trial", "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}


def machine_facts() -> dict[str, object]:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = read(str(ROOT / ".git" / ref[5:])) if ref.startswith("ref: ") else ref
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "l2": read(cache.format(2)),
            "l3": read(cache.format(3)), "numpy": numpy.__version__,
            "python": platform.python_version(), "commit": commit}


@dataclass
class Rep:
    """One repetition of the workload's sweep."""

    seed: int
    cal: float = 0.0    # calibration passes per CPU second, sampled just before
    wall: float | None = None
    cpu: float | None = None
    points: list[workloads.Point] = field(default_factory=list)
    csv_bytes: int = 0
    error: str | None = None


def measure(bs, wl: Workload, seed: int, tmpdir: Path, *, seconds: float | None = None,
            reps: int | None = None, workers: int | None = None) -> list[Rep]:
    """Repeat the sweep ``reps`` times, or until ``seconds`` pass (at least MIN_REPS).

    A calibration sample, run with the sweep's worker count, precedes every
    repetition.
    """
    out: list[Rep] = []
    start = time.perf_counter()
    while (len(out) < reps if reps is not None
           else len(out) < MIN_REPS or time.perf_counter() - start < seconds):
        rep = Rep(workloads.rep_seed(seed, len(out)),
                  cal=calibrate.sample(wl.workers if workers is None else workers))
        try:
            cpu0 = workloads.cpu_seconds()
            rep.wall, rep.points, rep.csv_bytes = workloads.timed_sweep(
                bs, wl, rep.seed, tmpdir, workers=workers)
            rep.cpu = workloads.cpu_seconds() - cpu0
        except Exception:  # a failing sweep counts its points as failed
            rep.error = traceback.format_exc()
            print(f"repetition at seed {rep.seed} raised:\n{rep.error}", file=sys.stderr)
        out.append(rep)
    return out


def median_tps(reps: list[Rep], clock: str = "wall") -> float:
    rates = [sum(p.trials for p in r.points) / getattr(r, clock) for r in reps if r.wall]
    return statistics.median(rates) if rates else 0.0


def ref_tps(reps: list[Rep], workers: int) -> float:
    """Median trials per CPU-second, in trials per reference second."""
    cal = statistics.median(r.cal for r in reps) if reps else 0.0
    return median_tps(reps, "cpu") * calibrate.PASSES_PER_REF_S[workers] / cal if cal else 0.0


def failures(bs, wl: Workload, reps: list[Rep]) -> dict[tuple[int, int], str]:
    """Failed points, keyed (repetition, point): raised, unsound, or off the reference chain."""
    n = len(workloads.grid(wl))
    failed: dict[tuple[int, int], str] = {}
    for r, rep in enumerate(reps):
        if rep.error is not None:
            failed.update({(r, i): "sweep raised" for i in range(n)})
            continue
        for i, p in enumerate(rep.points):
            reason = workloads.sound(p, wl.trials)
            if reason:
                failed[(r, i)] = reason
    if reps and reps[0].error is None:
        for i, reason in oracle.check(bs, wl, reps[0].seed, reps[0].points).items():
            failed.setdefault((0, i), reason)
    return failed


def disagreements(reference: list[Rep], other: list[Rep], label: str) -> dict[tuple[int, int], str]:
    """Points of ``other`` that differ from the same repetition of ``reference``."""
    out = {}
    for r, (a, b) in enumerate(zip(reference, other)):
        for i in range(max(len(a.points), len(b.points))):
            pa = a.points[i] if i < len(a.points) else None
            pb = b.points[i] if i < len(b.points) else None
            if pa != pb:
                out[(r, i)] = f"{label} point differs: {pb} vs untraced {pa}"
    return out


def rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def setup_samples(wl: Workload, seed: int, tmpdir: Path) -> list[dict[str, float]]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", wl.name,
             "--seed", str(seed), "--tmpdir", str(tmpdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(bs, wl: Workload, seed: int, seconds: float, tmpdir: Path):
    workloads.warm_up(bs, wl, seed, tmpdir)
    calibrate.sample(wl.workers)
    reps = measure(bs, wl, seed, tmpdir, seconds=seconds)
    peak = rss_mb(wl.workers)
    failed = failures(bs, wl, reps)
    setup = setup_samples(wl, seed, tmpdir)
    attempted = len(reps) * len(workloads.grid(wl))
    print(f"repetitions {len(reps)}, {attempted} points, {len(setup)} set-up samples")
    print(f"failed_frac {len(failed) / attempted:.6g} ratio ({len(failed)}/{attempted} points)")
    print(f"trials_per_s {median_tps(reps):.6g} trials/s")
    print(f"trials_per_cpu_s {median_tps(reps, 'cpu'):.6g} trials/cpu-s")
    print(f"calibration {statistics.median(r.cal for r in reps):.6g} passes/cpu-s")
    print(f"setup_wall_s {statistics.median(s['setup_wall_s'] for s in setup):.6g} s")
    metrics = {"trials_per_ref_s": ref_tps(reps, wl.workers),
               "setup_s": statistics.median(s["setup_s"] for s in setup),
               "peak_rss_mb": peak}
    return metrics, attempted, failed, []


def per_layer(bs, wl: Workload, seed: int, seconds: float, tmpdir: Path):
    workloads.warm_up(bs, wl, seed, tmpdir)
    calibrate.sample(wl.workers)
    untraced = measure(bs, wl, seed, tmpdir, seconds=seconds / 2)
    tracer = tracing.Tracer()
    tracer.install(bs)
    try:
        traced = measure(bs, wl, seed, tmpdir, reps=len(untraced))
    finally:
        tracer.uninstall()
    serial = measure(bs, wl, seed, tmpdir, reps=len(untraced), workers=1) if wl.workers > 1 else []

    failed = failures(bs, wl, untraced)
    # Traced and serial points must equal the untraced ones exactly, which
    # covers sim.points and sim.errors.
    for label, reps in (("traced", traced), ("serial", serial)):
        for key, reason in disagreements(untraced, reps, label).items():
            failed.setdefault(key, reason)
    attempted = (len(untraced) + len(traced) + len(serial)) * len(workloads.grid(wl))

    trials = sum(p.trials for r in traced for p in r.points)
    points = sum(len(r.points) for r in traced)
    wall_ns = sum(r.wall or 0.0 for r in traced) * 1e9
    problems = []
    # Every trial goes through the reference chain once, unless the engine no
    # longer calls it at all (a batched kernel).
    if tracer.total_calls("sim.run_trial") not in (trials, 0):
        problems.append(f"sim.run_trial.calls {tracer.total_calls('sim.run_trial')} != trials {trials}")

    def per_trial_us(ns: float) -> float:
        return ns / 1e3 / trials if trials else 0.0

    def per_sweep(count: int) -> float:  # every repetition makes the same calls
        return count / len(traced) if traced else 0.0

    metrics: dict[str, float] = {}
    for name in tracing.FUNCTIONS:
        metrics[f"{name}.calls"] = per_sweep(tracer.total_calls(name))
        metrics[f"{name}.us_per_trial"] = per_trial_us(tracer.self_ns[name])
    tps_untraced, tps_traced = ref_tps(untraced, wl.workers), ref_tps(traced, wl.workers)
    metrics.update({
        "waveform.samples_per_trial": tracer.samples() / trials if trials else 0.0,
        "sim.errors": sum(p.errors for p in traced[0].points) if traced else 0,
        "sim.points": per_sweep(points), "sim.pools_created": per_sweep(tracer.pools),
        f"{tracing.POOL_SPAN}.us_per_trial": per_trial_us(tracer.self_ns[tracing.POOL_SPAN]),
        "sim.speedup_vs_serial": median_tps(untraced) / median_tps(serial) if serial else 1.0,
        "cli.csv_bytes": traced[0].csv_bytes if traced else 0,
        "trace.us_per_trial": per_trial_us(wall_ns),
        "trace.overhead_frac": (tps_untraced - tps_traced) / tps_untraced if tps_untraced else 0.0,
        "trace.unaccounted_frac": (wall_ns - tracer.accounted_ns()) / wall_ns if wall_ns else 0.0,
    })
    print(f"repetitions {len(untraced)} untraced, {len(traced)} traced, {len(serial)} serial; "
          f"{trials} traced trials; untraced {tps_untraced:.1f} trials/ref-s, traced {tps_traced:.1f}")
    print(f"failed_frac {len(failed) / attempted:.6g} ratio ({len(failed)}/{attempted} points)")
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        bs = workloads.load_backscatter()
    except workloads.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    facts = machine_facts()
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))

    scratch = HERE / "_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed, problems = run(bs, wl, args.seed, args.seconds, Path(tmp))
    with contextlib.suppress(OSError):
        scratch.rmdir()

    for reason in list(failed.values())[:10] + problems:
        print(f"FAIL {reason}", file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {"correct": not failed and not problems, "attempted": attempted,
              "failed": len(failed),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
