"""Monte Carlo engine: BER estimation and sweeps, and the per-trial reference chain.

A trial's statistic reads only the first ``window`` DFT bins, and for a
fixed bit and channel realization those bins are exactly ``CN(0, Sigma_bit)``
(:mod:`backscatter.exact`). Their energy thus has the law of ``u^H Sigma_bit u``
for white ``u ~ CN(0, I / window)``, which the engine evaluates instead of
running the frame chain; :func:`run_trial` keeps the chain as the reference
that the tests and the benchmark's correctness check compare it against.
Statistic and threshold are in units of the noise floor.

The trials of a point run in fixed blocks of :data:`TRIAL_BLOCK`; each block
draws from its own SFC64 stream keyed (seed, point, 1, block): first the
block's bits, then in redraw mode each trial's tag and reflect taps, then
each trial's ``window`` normals. A fixed channel realization comes from the
PCG64 stream (seed, point, 0). Workers take whole blocks. The draws stay per
block, while thresholds, covariances and statistics are computed once per
batch of whole blocks, sized by :data:`BATCH_BYTES`. Each trial's values do
not depend on the batch it shares, so results are identical for any worker
count, chunking or batch size, and aggregation is a plain error-count sum.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import product

import numpy as np

from .core import (MIN_POWER, ChannelSet, InvalidConfig, SystemParams, complex_normal,
                   derive_params, draw_channels, generator, params_to_map, substream)
from .detector import (ThresholdKind, _tap_energy, analytic_ber, compute_scales, detect,
                       energy_scales, threshold_for)
from .exact import sigma0, sigma1
from .reader import cancel_interference, dft, fold, energy_statistics
from .waveform import gen_source_symbol, synth_reader_rx, tag_gate, tag_input


# Trials per random stream. Setting up a stream (SeedSequence + SFC64) costs
# a few tens of microseconds, under 1 us per trial when shared by 50 trials,
# and a 100-trial point still splits into two blocks for two workers.
TRIAL_BLOCK = 50

# Bytes of per-trial arrays that one batch of whole blocks may hold. Numpy
# allocations past glibc's 128 KiB mmap threshold are faulted in afresh on
# every call, so a batch's largest arrays stay near that size.
BATCH_BYTES = 1024 * 1024


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
    """Copy of ``params`` with the source power set to the requested SNR.

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
    return replace(params, source_power=power)


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


def _thresholds(params: SystemParams, kind: ThresholdKind, tag: np.ndarray,
                reflect: np.ndarray) -> np.ndarray:
    """Each trial's genie threshold over the noise floor, from its taps' energies.

    The ``detector`` forms on arrays: values and errors are the scalar path's,
    bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):      # the check names an overflow
        scales = energy_scales(params, _tap_energy(tag), _tap_energy(reflect))
    return threshold_for(kind, scales, params.window) / scales.noise_floor


def _batch_blocks(params: SystemParams) -> int:
    """Whole trial blocks per batch, so that a batch's per-trial arrays fit BATCH_BYTES."""
    w, k = params.window, params.tag_order + 1
    # complex128 words alive per trial: sigma1's two (w, w) stacks, its lag gather, taps, u, y
    words = 2 * w * w + k * k + 2 * (k + params.reflect_order + 1) + 4 * w
    return max(1, BATCH_BYTES // (16 * words * TRIAL_BLOCK))


def _count_errors(params: SystemParams, kind: ThresholdKind,
                  law: tuple[float, np.ndarray] | None,
                  point: np.random.SeedSequence, first: int, last: int) -> int:
    """Errors over trial blocks [first, last); the chunk worker.

    ``law`` is the fixed realization's threshold and ``Sigma_1``, in
    noise-floor units; without it every trial draws its own taps and gets
    both from them. A trial's statistic is ``Re(u^H Sigma_bit u)`` of its
    ``window`` normals ``u`` (power ``1 / window``), summed in real arithmetic
    so that its rounding cannot depend on the batch. Each block draws from its
    own stream; the rest runs once per batch of :func:`_batch_blocks` blocks.
    """
    w, width = params.window, params.tag_order + 1
    taps_per_trial = width + params.reflect_order + 1 if law is None else 0
    step = _batch_blocks(params)
    errors = 0
    for start in range(first, last, step):
        blocks = range(start, min(start + step, last))
        sizes = [min(TRIAL_BLOCK, params.trials - block * TRIAL_BLOCK) for block in blocks]
        m = sum(sizes)
        bits = np.empty(m, dtype=bool)
        taps = np.empty((m, taps_per_trial), dtype=np.complex128)
        u = np.empty((m, w, 1), dtype=np.complex128)
        at = 0
        for block, n in zip(blocks, sizes):
            rng = np.random.Generator(np.random.SFC64(substream(point, 1, block)))
            bits[at:at + n] = rng.integers(0, 2, n) == 1
            if law is None:
                complex_normal(rng, n * taps_per_trial, 1.0, out=taps[at:at + n].reshape(-1))
            complex_normal(rng, n * w, 1.0 / w, out=u[at:at + n].reshape(-1))
            at += n
        if law is None:
            threshold = _thresholds(params, kind, taps[:, :width], taps[:, width:])
            cov1 = sigma1(params, taps[bits, :width], taps[bits, width:])
        else:
            threshold, cov1 = law
        y = np.matmul(sigma0(params), u)
        y[bits] = np.matmul(cov1, u[bits])
        stat = np.add.reduce(u.real * y.real + u.imag * y.imag, axis=(1, 2))
        errors += int(np.count_nonzero((stat > threshold) != bits))
    return errors


def estimate_ber(params: SystemParams, kind: ThresholdKind, mode: ChannelMode,
                 snr_db: float, stream: np.random.SeedSequence, *,
                 workers: int = 1) -> BerRecord:
    """Empirical BER at one operating point, bits drawn equiprobably.

    Fixed mode draws one channel realization up front (substream 0 of the
    point), computes the threshold and the law of its bins once and reports
    the matching Gaussian-model prediction. Redraw mode draws channels and
    recomputes the genie threshold and the law for every trial and reports no
    prediction. Scales without a lift (zero tag gain) raise
    :class:`DegenerateScales`, and overflowing scales raise ``ValueError``,
    before a covariance is built from them.
    """
    p = params_at_snr(params, snr_db)
    law: tuple[float, np.ndarray] | None = None
    analytic: float | None = None
    if mode is ChannelMode.FIXED_REALIZATION:
        channels = draw_channels(p, generator(substream(stream, 0)))
        scales = compute_scales(p, channels)
        threshold = threshold_for(kind, scales, p.window)
        analytic = analytic_ber(threshold, scales, p.window)
        law = (threshold / scales.noise_floor,
               sigma1(p, channels.tag[None], channels.reflect[None]))

    n = p.trials
    blocks = (n + TRIAL_BLOCK - 1) // TRIAL_BLOCK
    count = partial(_count_errors, p, kind, law, stream)
    if workers <= 1:
        errors = count(0, blocks)
    else:
        used = min(workers, blocks)     # a worker without a block would idle
        bounds = np.linspace(0, blocks, used + 1, dtype=int).tolist()
        with ProcessPoolExecutor(max_workers=used) as pool:
            errors = sum(pool.map(count, bounds[:-1], bounds[1:]))

    ber = errors / n
    return BerRecord(snr_db=snr_db, window=p.window, threshold_kind=kind,
                     channel_mode=mode, trials=n, empirical_ber=ber,
                     stderr=math.sqrt(ber * (1.0 - ber) / n), analytic_ber=analytic)


def sweep(params: SystemParams, snr_values: list[float], w_values: list[int],
          kinds: list[ThresholdKind], mode: ChannelMode,
          stream: np.random.SeedSequence, *, workers: int = 1) -> list[BerRecord]:
    """BER over the (window x SNR x threshold kind) grid, one record per cell.

    Every (window, SNR) cell is derived before the first trial runs, so a bad
    cell or an empty axis raises :class:`InvalidConfig` before any work is
    done; ``params.window`` is replaced by each of ``w_values``. Each cell gets
    its own substream keyed by enumeration order, so a rerun with the same
    stream reproduces every record bit for bit.
    """
    for name, axis in (("snr_values", snr_values), ("w_values", w_values), ("kinds", kinds)):
        if not axis:
            raise InvalidConfig(f"{name} is empty; a sweep needs at least one value")
    base = params_to_map(params)
    cells = [(params_at_snr(derive_params({**base, "window": w}), snr), snr)
             for w in w_values for snr in snr_values]
    return [estimate_ber(p, kind, mode, snr, substream(stream, idx), workers=workers)
            for idx, ((p, snr), kind) in enumerate(product(cells, kinds))]
