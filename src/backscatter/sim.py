"""Monte Carlo engine: BER estimation and sweeps, and the per-trial reference chain.

A trial's statistic reads only the first ``window`` DFT bins, and for a
fixed bit and channel realization those bins are exactly ``CN(0, Sigma_bit)``
(:mod:`backscatter.exact`). Their energy thus has the law of ``u^H Sigma_bit u``
for white ``u ~ CN(0, I / window)``, which the engine draws instead of
running the frame chain; :func:`run_trial` keeps the chain as the reference
that the tests and the benchmark's correctness check compare it against.
Statistic and threshold are in units of the noise floor. With the realization
fixed, ``u^H Sigma_bit u`` has the law of ``sum_k lambda_k E_k / window`` for the
eigenvalues ``lambda`` of ``Sigma_bit`` and standard exponentials ``E`` (rotate
``u`` into the eigenbasis), so a fixed trial draws ``window`` exponentials and no
normals. ``Sigma_0`` depends on the geometry only, so a redrawn bit-0 trial's
statistic has that law too, and its genie threshold reads its taps only through
their energies, which for unit ``CN(0, 1)`` taps are standard gammas of shape
``tag_order + 1`` and ``reflect_order + 1``. A redrawn bit-1 trial draws its taps
and ``u``, and its statistic is ``Re(u^H Sigma_0 u)`` plus
:func:`backscatter.exact.signal_form`. A fixed point builds its ``Sigma_1`` and takes
its eigenvalues once, before its first trial; a sweep sets each of its cells up alone,
as that point.

The trials of a point run in blocks of :func:`_block_trials` trials. Each
block draws from its own SFC64 stream keyed (seed, point, 1, block): first
its bits; then in redraw mode its bit-0 trials' tag energies, reflect energies
and ``window`` exponentials each, and its bit-1 trials' tag and reflect taps
and ``window`` normals each; in fixed mode each trial's ``window`` exponentials.
It computes its thresholds and statistics alone, so block sizes are part of the stream
layout; in redraw mode it keeps each bit's trials in their own arrays from draw to count.
A fixed channel realization comes from the PCG64 stream (seed, point, 0). The block is
the kernel's one unit: a point's error count is the sum of one map of the block kernel
over its blocks, serial or over a pool in contiguous chunks, so every value is computed
on the same arrays for any worker count.
"""
from __future__ import annotations

import ctypes
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial, wraps
from itertools import product
from pathlib import Path

import numpy as np

from .core import (MIN_POWER, ChannelSet, InvalidConfig, SystemParams, complex_normal,
                   derive_params, draw_channels, generator, params_to_map, substream)
from .detector import (ThresholdKind, _tap_energy, analytic_ber, compute_scales, detect,
                       energy_scales, threshold_for)
from .exact import _sigma0_form, sigma0_eigenvalues, sigma1, signal_form
from .reader import cancel_interference, dft, fold, energy_statistics
from .waveform import gen_source_symbol, synth_reader_rx, tag_gate, tag_input


# Bytes of one trial block's per-trial arrays (see _block_trials): enough trials to share
# the set-up of the block's stream (SeedSequence + SFC64, tens of microseconds).
BLOCK_BYTES = 1024 * 1024


class ChannelMode(Enum):
    FIXED_REALIZATION = "fixed"
    REDRAW_PER_TRIAL = "redraw"


@dataclass(frozen=True)
class TrialOutcome:
    decided_bit: int
    statistic: float


@dataclass(frozen=True)
class BerRecord:
    """One sweep-point result row.

    ``analytic_ber`` holds the Gaussian-model prediction for the fixed
    realization and threshold of the point; it is None when channels are
    redrawn per trial, where no single realization applies.
    """

    snr_db: float
    window: int
    threshold_kind: ThresholdKind
    channel_mode: ChannelMode
    trials: int
    empirical_ber: float
    stderr: float
    analytic_ber: float | None


def params_at_snr(params: SystemParams, snr_db: float) -> SystemParams:
    """``params`` with the source power set to the requested SNR: a copy, or
    ``params`` itself when it is already at that power.

    SNR is defined against the per-sample noise power:
    ``snr_db = 10 log10(source_power / noise_power)``. Raises
    :class:`InvalidConfig` naming ``snr_db`` when the source power it gives is
    not a finite number of at least ``MIN_POWER``, the smallest normal double
    (an underflow to a subnormal or zero power is rejected like an overflow).
    """
    try:
        power = params.noise_power * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        power = math.inf
    if not MIN_POWER <= power < math.inf:
        raise InvalidConfig(f"snr_db={snr_db} gives source_power={power}; "
                            f"need a finite power >= {MIN_POWER}")
    return params if power == params.source_power else replace(params, source_power=power)


def run_trial(params: SystemParams, channels: ChannelSet, bit: int, threshold: float,
              rng: np.random.Generator) -> TrialOutcome:
    """One symbol through the full chain, decided from the first statistic window.

    The reference for the engine, which draws the same statistic from its law.
    Trials are independent symbols: zero pre-history is safe because every
    processed sample sits at least ``max_order`` taps past the symbol start.
    """
    source = gen_source_symbol(params, rng)
    tagged = tag_input(source, channels.tag)
    gate = tag_gate(params, bit)
    rx = synth_reader_rx(source, tagged, gate, channels, params, rng)
    cancelled = cancel_interference(rx, params)
    spectrum = dft(fold(cancelled, params))
    stat = energy_statistics(spectrum, params.window)
    return TrialOutcome(decided_bit=detect(stat, threshold), statistic=stat)


def _thresholds(params: SystemParams, kind: ThresholdKind, tag_energy: np.ndarray,
                reflect_energy: np.ndarray) -> np.ndarray:
    """Each trial's genie threshold over the noise floor, from its taps' energies ``sum|taps|^2``.

    The ``detector`` forms on arrays: values and errors are the scalar path's, bit for
    bit, the error that of the first bad element, so a block's in draw order.
    """
    with np.errstate(over="ignore", invalid="ignore"):      # the check names an overflow
        scales = energy_scales(params, tag_energy, reflect_energy)
    return threshold_for(kind, scales, params.window) / scales.noise_floor


def _block_trials(params: SystemParams, mode: ChannelMode) -> int:
    """Trials per block: BLOCK_BYTES over the per-trial bytes of the mode's kernel, 8 for
    each of a fixed trial's ``window`` exponentials, bit and statistic, and 16 for each of
    a redraw trial's ``3k + 2 reflect_order + 1 + 6 window`` complex words (``k = tag_order
    + 1``, counted as bit 1): its taps, ``u``, the tag's ``(2k - 1)``-point DFT, ``F_L^H u``,
    ``H_r``, ``b``, ``z``, ``conj(b)``, the lag spectra and its two tap energies."""
    w, k, r = params.window, params.tag_order + 1, params.reflect_order
    fixed = mode is ChannelMode.FIXED_REALIZATION
    return max(1, BLOCK_BYTES // (8 * (w + 2) if fixed else 16 * (3 * k + 2 * r + 1 + 6 * w)))


@lru_cache(maxsize=1)
def _openblas_threads():
    """numpy's bundled OpenBLAS's ``(get, set)`` thread counts, looked up once per process
    in ``numpy.libs`` (``numpy/.dylibs`` on macOS); None for other builds."""
    package = Path(np.__file__).parent
    for path in [*package.parent.glob("numpy.libs/*openblas*"),
                 *package.glob(".dylibs/*openblas*")]:
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):     # numpy 2, numpy 1 wheels
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            if get is not None:
                return get, getattr(lib, f"{prefix}_set_num_threads64_")
    return None


def _one_blas_thread(fn):
    """``fn`` with numpy's OpenBLAS on one thread, restored when ``fn`` returns or raises:
    a block's products and a window's ``eigvalsh`` are too small to gain from a second
    thread, which then spins. The count is process-wide. A count of 1 (a nested entry, a
    forked pool worker) is left alone: setting it in a fork restarts OpenBLAS's threads.
    After this process forks, its next set restarts them too: the new one spins ~0.13 s."""
    @wraps(fn)
    def serial(*args, **kwargs):
        threads = _openblas_threads()
        previous = threads[0]() if threads else 1
        if previous == 1:
            return fn(*args, **kwargs)
        threads[1](1)
        try:
            return fn(*args, **kwargs)
        finally:
            threads[1](previous)
    return serial


@_one_blas_thread
def _count_errors(params: SystemParams, kind: ThresholdKind, law: tuple[float, np.ndarray] | None,
                  point: np.random.SeedSequence, block: int) -> int:
    """Errors in trial block ``block`` of the point, drawn from its own stream and computed
    alone; the unit a pool worker runs.

    ``law`` is the fixed realization's threshold and the eigenvalues of ``Sigma_1`` over
    ``window``, in noise-floor units, and a trial's statistic is its exponentials' sum
    weighted by its bit's eigenvalues, those of ``Sigma_0`` over ``window`` for bit 0,
    which depend on the geometry only. Without it a bit-0 trial takes that fixed bit-0
    law and its taps' energies, which are all its threshold reads, as two standard
    gammas; a bit-1 trial draws its taps and adds its signal form to ``Re(u^H Sigma_0 u)``.
    Each bit's trials keep their own arrays. A statistic that is not finite decides 1.
    """
    w, width, r = params.window, params.tag_order + 1, params.reflect_order
    mode = ChannelMode.REDRAW_PER_TRIAL if law is None else ChannelMode.FIXED_REALIZATION
    size = _block_trials(params, mode)
    n = min(size, params.trials - block * size)
    lam0 = sigma0_eigenvalues(params) / w
    rng = np.random.Generator(np.random.SFC64(substream(point, 1, block)))
    bits = rng.integers(0, 2, n) == 1
    if law is not None:
        threshold, lam1 = law
        e = rng.standard_exponential((n, w))
        with np.errstate(over="ignore", invalid="ignore"):      # see estimate_ber
            stat = np.where(bits, e @ lam1, e @ lam0)
        return int(np.count_nonzero(~(stat <= threshold) != bits))
    m = int(np.count_nonzero(bits))
    tag_energy, reflect_energy = rng.standard_gamma(width, n - m), rng.standard_gamma(r + 1, n - m)
    stat0 = rng.standard_exponential((n - m, w)) @ lam0
    taps = complex_normal(rng, m * (width + r + 1), 1.0).reshape(m, width + r + 1)
    u = complex_normal(rng, m * w, 1.0 / w).reshape(m, w)
    tag, reflect = taps[:, :width], taps[:, width:]
    tag_energy = np.concatenate([tag_energy, _tap_energy(tag)])
    reflect_energy = np.concatenate([reflect_energy, _tap_energy(reflect)])
    threshold = _thresholds(params, kind, tag_energy, reflect_energy)
    stat1 = _sigma0_form(params, u) + signal_form(params, tag, reflect, u)
    return int(np.count_nonzero(~(stat0 <= threshold[:n - m]))
               + np.count_nonzero(stat1 <= threshold[n - m:]))


@_one_blas_thread
def estimate_ber(params: SystemParams, kind: ThresholdKind, mode: ChannelMode,
                 snr_db: float, stream: np.random.SeedSequence, *, workers: int = 1) -> BerRecord:
    """Empirical BER at one operating point, bits drawn equiprobably.

    Fixed mode draws one channel realization from the PCG64 stream (point, 0), takes the
    eigenvalues of its ``Sigma_1`` over ``window``, all infinite when ``Sigma_1`` is not
    finite, so that every bit-1 trial decides 1, computes the threshold once and reports
    the matching Gaussian-model prediction. Redraw mode draws every trial's tap energies,
    and a bit-1 trial's taps, recomputes the genie threshold for every trial and the bit-1
    form for every bit-1 trial, and reports no prediction. Scales without a lift (zero tag
    gain) raise :class:`DegenerateScales`, and overflowing scales raise ``ValueError``: in
    fixed mode before the first trial; in redraw mode from the first block that holds a
    bad trial, after that block's draws, as the error of its first bad trial in draw order,
    its bit-0 trials' then its bit-1 trials' (with ``workers > 1`` in a pool worker, and
    ``pool.map`` re-raises the first in block order). While it runs, numpy's OpenBLAS runs
    any thread's products on one thread (:func:`_one_blas_thread`).
    """
    p = params_at_snr(params, snr_db)
    law: tuple[float, np.ndarray] | None = None
    analytic: float | None = None
    if mode is ChannelMode.FIXED_REALIZATION:
        channels = draw_channels(p, generator(substream(stream, 0)))
        cov = sigma1(p, channels.tag, channels.reflect)
        lam1 = (np.linalg.eigvalsh(cov) if np.isfinite(cov).all()
                else np.full(p.window, math.inf)) / p.window
        scales = compute_scales(p, channels)
        threshold = threshold_for(kind, scales, p.window)
        analytic = analytic_ber(threshold, scales, p.window)
        law = (threshold / scales.noise_floor, lam1)

    n = p.trials
    blocks = -(-n // _block_trials(p, mode))
    count = partial(_count_errors, p, kind, law, stream)
    if workers <= 1:
        errors = sum(map(count, range(blocks)))
    else:
        used = min(workers, blocks)     # a worker without a block would idle
        with ProcessPoolExecutor(max_workers=used) as pool:
            # chunks of blocks // used blocks are at least `used`, one for each worker
            errors = sum(pool.map(count, range(blocks), chunksize=blocks // used))

    ber = errors / n
    return BerRecord(snr_db=snr_db, window=p.window, threshold_kind=kind,
                     channel_mode=mode, trials=n, empirical_ber=ber,
                     stderr=math.sqrt(ber * (1.0 - ber) / n), analytic_ber=analytic)


@_one_blas_thread
def sweep(params: SystemParams, snr_values: list[float], w_values: list[int],
          kinds: list[ThresholdKind], mode: ChannelMode,
          stream: np.random.SeedSequence, *, workers: int = 1) -> list[BerRecord]:
    """BER over the (window x SNR x threshold kind) grid, one record per cell.

    Every (window, SNR) cell is derived before the first trial runs, so a bad
    cell or an empty axis raises :class:`InvalidConfig` before any work is
    done; ``params.window`` is replaced by each of ``w_values``, and each
    window's parameters are derived once. Each cell gets its own substream
    keyed by enumeration order, so a rerun with the same stream reproduces
    every record bit for bit; each cell is one :func:`estimate_ber` call, which
    in fixed mode sets the cell's realization up alone. While it runs, numpy's
    OpenBLAS runs any Python thread's products on one thread (:func:`_one_blas_thread`).
    """
    for name, axis in (("snr_values", snr_values), ("w_values", w_values), ("kinds", kinds)):
        if not axis:
            raise InvalidConfig(f"{name} is empty; a sweep needs at least one value")
    base = params_to_map(params)
    cells = []
    for w in w_values:
        window = derive_params({**base, "window": w})
        cells += [(params_at_snr(window, snr), snr) for snr in snr_values]
    return [estimate_ber(p, kind, mode, snr, substream(stream, i), workers=workers)
            for i, ((p, snr), kind) in enumerate(product(cells, kinds))]
