"""Monte Carlo engine: per-trial pipeline, BER estimation and sweeps.

The trials of a point run in fixed blocks of :data:`TRIAL_BLOCK`; each block
draws from its own SFC64 stream keyed (seed, point, 1, block), and the trials
of a block draw from it in order. A fixed channel realization comes from the
PCG64 stream (seed, point, 0). Workers take whole blocks, so results are
identical for any worker count or chunking, and aggregation is a plain
error-count sum. Trials are independent symbols: zero pre-history is safe
because every processed sample sits at least ``max_order`` taps past the
symbol start.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import product

import numpy as np

from .core import (MIN_POWER, ChannelSet, InvalidConfig, SystemParams, derive_params,
                   draw_channels, generator, params_to_map, substream)
from .detector import ThresholdKind, analytic_ber, compute_scales, detect, threshold_for
from .reader import cancel_interference, dft, fold, energy_statistics
from .waveform import gen_source_symbol, synth_reader_rx, tag_gate, tag_input


# Trials per random stream. Setting up a stream (SeedSequence + SFC64) costs
# a few tens of microseconds, under 1 us per trial when shared by 50 trials,
# and a 100-trial point still splits into two blocks for two workers.
TRIAL_BLOCK = 50


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
    """One symbol through the full chain, decided from the first statistic window."""
    source = gen_source_symbol(params, rng)
    tagged = tag_input(source, channels.tag)
    gate = tag_gate(params, bit)
    rx = synth_reader_rx(source, tagged, gate, channels, params, rng)
    cancelled = cancel_interference(rx, params)
    spectrum = dft(fold(cancelled, params))
    stat = energy_statistics(spectrum, params.window)
    return TrialOutcome(decided_bit=detect(stat, threshold), statistic=stat)


def _count_errors(params: SystemParams, kind: ThresholdKind,
                  channels: ChannelSet | None, threshold: float | None,
                  point: np.random.SeedSequence, first: int, last: int) -> int:
    """Errors over trial blocks [first, last); the chunk worker.

    Without ``channels`` every trial draws its own, and without ``threshold``
    every trial computes the genie threshold of its channels. Blocks draw
    from SFC64, which fills the per-trial normals faster than PCG64.
    """
    errors = 0
    for block in range(first, last):
        rng = np.random.Generator(np.random.SFC64(substream(point, 1, block)))
        for _ in range(min(TRIAL_BLOCK, params.trials - block * TRIAL_BLOCK)):
            bit = int(rng.integers(0, 2))
            ch = draw_channels(params, rng) if channels is None else channels
            th = threshold if threshold is not None else threshold_for(
                kind, compute_scales(params, ch), params.window)
            if run_trial(params, ch, bit, th, rng).decided_bit != bit:
                errors += 1
    return errors


def estimate_ber(params: SystemParams, kind: ThresholdKind, mode: ChannelMode,
                 snr_db: float, stream: np.random.SeedSequence, *,
                 workers: int = 1) -> BerRecord:
    """Empirical BER at one operating point, bits drawn equiprobably.

    Fixed mode draws one channel realization up front (substream 0 of the
    point), computes the threshold once and reports the matching
    Gaussian-model prediction. Redraw mode draws channels and recomputes the
    genie threshold inside every trial and reports no prediction. Scales
    without a lift (zero tag gain) raise :class:`DegenerateScales`.
    """
    p = params_at_snr(params, snr_db)
    channels: ChannelSet | None = None
    threshold: float | None = None
    analytic: float | None = None
    if mode is ChannelMode.FIXED_REALIZATION:
        channels = draw_channels(p, generator(substream(stream, 0)))
        scales = compute_scales(p, channels)
        threshold = threshold_for(kind, scales, p.window)
        analytic = analytic_ber(threshold, scales, p.window)

    n = p.trials
    blocks = (n + TRIAL_BLOCK - 1) // TRIAL_BLOCK
    count = partial(_count_errors, p, kind, channels, threshold, stream)
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
