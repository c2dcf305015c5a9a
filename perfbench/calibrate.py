"""Calibration kernel: a fixed piece of numpy work that tracks the host's speed.

The benchmark's host is a virtual machine on a shared server. Its CPU runs
the same code up to 50 % faster or slower for tens of seconds at a time, as
the load of the other guests changes. A sweep's CPU time moves with it. The
kernel here does a fixed amount of work of the same kind as one Monte Carlo
trial: complex Gaussian draws, a 9-tap convolution and a 1024-point FFT on
arrays of the reference frame length. The benchmark times it between
repetitions of a sweep, and divides the sweep's rate by the kernel's rate,
so that the host's speed cancels. The kernel uses only numpy, never the
package under test, so a faster package shows in full.

The kernel runs the way the sweep runs its trials. For a serial sweep it
runs in the benchmark process. For a parallel sweep, which starts a process
pool for every point and spends most of its CPU time doing so, it runs
through ``POOLS`` short-lived pools of the same number of workers, and the
CPU time of the pools' start-up counts too.

A *reference second* is the CPU time the calibration takes for
``PASSES_PER_REF_S[workers]`` passes. Those counts are its median rates on
the machine that defined the benchmark (see ``baseline.json``), so there one
reference second is about one CPU second.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from workloads import cpu_seconds

PASSES = 400                # passes per sample: about 65 ms serial, 250 ms through pools
POOLS = 8                   # pools per sample, for a parallel sweep
PASSES_PER_REF_S = {1: 6000.0, 2: 1400.0}   # passes per reference second, by workers
FRAME = 1280                # cp_len + eff_len of the reference geometry
BODY = 1024                 # eff_len


def kernel(passes: int) -> float:
    rng = np.random.default_rng(12345)
    taps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    acc = 0.0
    for _ in range(passes):
        x = rng.standard_normal(FRAME) + 1j * rng.standard_normal(FRAME)
        y = np.convolve(x, taps)[:FRAME]
        z = np.fft.fft(y[FRAME - BODY:]) / 32.0
        acc += float(np.sum(np.abs(z) ** 2))
    return acc


def sample(workers: int = 1) -> float:
    """Kernel passes per CPU second over one sample, run as a sweep with ``workers`` would."""
    if workers == 1:
        t0 = time.process_time()
        kernel(PASSES)
        return PASSES / (time.process_time() - t0)
    share = PASSES // (POOLS * workers)
    cpu0 = cpu_seconds()
    for _ in range(POOLS):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(kernel, [share] * workers))
    return POOLS * workers * share / (cpu_seconds() - cpu0)
