"""Monte Carlo engine: trial pipeline, BER records, determinism, moments.

Distributional checks run against the exact laws of the chain, not the
detector's Gaussian design model: the folded-noise spectrum bins are
independent complex Gaussians, so a window-average energy statistic is
Gamma-distributed with integer shape. Where the Gaussian model is a known
idealization the tests document the gap instead of hiding it.
"""
import math
from functools import partial

import numpy as np
import pytest

from backscatter import (ChannelMode, InvalidConfig, ThresholdKind, compute_scales,
                         draw_channels, energy_statistics, estimate_ber, generator,
                         params_at_snr, run_trial, substream, sweep, threshold_for)
from backscatter.sim import TRIAL_BLOCK
from chainkit import SHORT, chain, make_params, probe_bin_gains, reader_spectrum

small_params = partial(make_params, **SHORT)


def gamma_survival(shape, mean, x):
    """P(G > x) for a Gamma with integer shape; exact finite sum."""
    rate_x = shape * x / mean
    return math.exp(-rate_x) * sum(rate_x ** j / math.factorial(j) for j in range(shape))


# ------------------------------------------------------------- single trial

def test_run_trial_is_deterministic():
    p = make_params()
    ch = draw_channels(p, np.random.default_rng(1))
    a = run_trial(p, ch, 1, 1000.0, np.random.default_rng(2))
    b = run_trial(p, ch, 1, 1000.0, np.random.default_rng(2))
    assert a == b
    assert a.decided_bit == (1 if a.statistic > 1000.0 else 0)


def test_run_trial_strong_signal_negligible_noise():
    # with the noise essentially muted, any reflected energy towers over a
    # noise-scaled threshold and silence stays under it
    p = make_params(noise_power=1e-12, source_power=10.0)
    ch = draw_channels(p, np.random.default_rng(3))
    th = 1e6 * compute_scales(p, ch).noise_floor   # still ~5e-4 in signal units
    out = run_trial(p, ch, 1, th, np.random.default_rng(4))
    assert out.decided_bit == 1
    assert out.statistic > 1e3
    out0 = run_trial(p, ch, 0, th, np.random.default_rng(5))
    assert out0.decided_bit == 0


def test_silent_link_statistic_follows_exact_noise_law():
    # zero tag gain: the statistic is an average of window exponential bin
    # energies, i.e. Gamma(window, floor/window). The decided-1 frequency
    # must match that law; the Gaussian design model is measurably off here.
    p = make_params(tag_gain=0.0, source_power=10.0 ** 1.5)
    ch = draw_channels(p, np.random.default_rng(6))
    floor = compute_scales(p, ch).noise_floor
    th = floor  # operate at the distribution's center where shape error peaks
    trials = 10_000
    hits = 0
    root = np.random.SeedSequence(77)
    for t in range(trials):
        rng = generator(substream(root, t))
        bit = int(rng.integers(0, 2))
        hits += run_trial(p, ch, bit, th, rng).decided_bit
    freq = hits / trials
    p_exact = gamma_survival(p.window, floor, th)
    sigma = math.sqrt(p_exact * (1 - p_exact) / trials)
    assert abs(freq - p_exact) < 3 * sigma
    # the Gaussian model predicts 0.5 at the mean; the chain is not Gaussian
    assert abs(0.5 - p_exact) > 8 * sigma


def test_kit_chain_is_run_trial_chain():
    # the tests' shared chain and spectrum, fed the same generator state,
    # give run_trial's statistic bit for bit
    for p in (make_params(), small_params()):
        ch = draw_channels(p, np.random.default_rng(31))
        for bit in (0, 1):
            want = run_trial(p, ch, bit, 1.0, np.random.default_rng(32)).statistic
            rng = np.random.default_rng(32)
            _, rx = chain(p, ch, bit, rng, rng)
            assert energy_statistics(reader_spectrum(p, rx), p.window)[0] == want


# ------------------------------------------------------------- spectral statistics

def test_per_bin_spectrum_energy_matches_linear_probe_oracle():
    # at this geometry cp_len == eff_len, so the probe spans every body sample
    p = small_params()
    ch = draw_channels(p, np.random.default_rng(8))
    gains = probe_bin_gains(p, ch)
    predicted = (p.source_power * np.sum(np.abs(gains) ** 2, axis=1)
                 + 2 * p.cancel_len * p.noise_power)
    trials = 4000
    acc = np.zeros(p.block_len)
    root = np.random.SeedSequence(99)
    for t in range(trials):
        rng = generator(substream(root, t))
        _, rx = chain(p, ch, 1, rng, rng)
        acc += np.abs(reader_spectrum(p, rx)) ** 2
    measured = acc / trials
    # each |bin|^2 is exponential with mean sigma_n^2, so the trial-mean
    # scatter is sigma_n^2 / sqrt(trials); allow 4.5 sigma across all bins
    tol = 4.5 * predicted / math.sqrt(trials)
    assert np.all(np.abs(measured - predicted) < tol)


def test_statistic_moments_noise_only():
    # silent tag: mean of the first-window statistic is the noise floor
    p = small_params(tag_gain=0.0)
    ch = draw_channels(p, np.random.default_rng(10))
    floor = compute_scales(p, ch).noise_floor
    trials = 3000
    root = np.random.SeedSequence(123)
    stats = np.empty(trials)
    for t in range(trials):
        rng = generator(substream(root, t))
        stats[t] = run_trial(p, ch, 0, 1.0, rng).statistic
    sem = floor / math.sqrt(p.window * trials)
    assert abs(stats.mean() - floor) < 3 * sem
    assert abs(stats.std() - floor / math.sqrt(p.window)) < 0.1 * floor


def test_statistic_mean_matches_scales_over_channel_ensemble():
    # with channels redrawn per trial the ensemble mean of the reflecting-tag
    # statistic equals lift + floor; per fixed realization the first window
    # weighs the tap spectra unevenly, so only the ensemble claim holds
    p = small_params(source_power=4.0)
    trials = 6000
    root = np.random.SeedSequence(321)
    centred = np.empty(trials)
    for t in range(trials):
        rng = generator(substream(root, t))
        ch = draw_channels(p, rng)
        scales = compute_scales(p, ch)
        out = run_trial(p, ch, 1, 1.0, rng)
        centred[t] = out.statistic - scales.signal_lift - scales.noise_floor
    sem = centred.std() / math.sqrt(trials)
    assert abs(centred.mean()) < 4 * sem


# ------------------------------------------------------------- estimate_ber

def test_single_trial_record_degenerates_cleanly():
    p = make_params(trials=1)
    rec = estimate_ber(p, ThresholdKind.OPTIMAL, ChannelMode.FIXED_REALIZATION,
                       15.0, np.random.SeedSequence(5))
    assert rec.empirical_ber in (0.0, 1.0)
    assert rec.stderr == 0.0
    assert rec.trials == 1


def test_stderr_is_binomial():
    p = make_params(trials=400, window=4)
    rec = estimate_ber(p, ThresholdKind.OPTIMAL, ChannelMode.FIXED_REALIZATION,
                       5.0, np.random.SeedSequence(6))
    want = math.sqrt(rec.empirical_ber * (1 - rec.empirical_ber) / rec.trials)
    assert rec.stderr == pytest.approx(want, rel=1e-12)


def test_zero_gain_propagates_degenerate_scales():
    from backscatter import DegenerateScales
    p = make_params(tag_gain=0.0, trials=10)
    with pytest.raises(DegenerateScales):
        estimate_ber(p, ThresholdKind.OPTIMAL, ChannelMode.FIXED_REALIZATION,
                     20.0, np.random.SeedSequence(8))


def test_fixed_mode_reports_model_prediction_redraw_does_not():
    p = make_params(trials=50)
    fixed = estimate_ber(p, ThresholdKind.OPTIMAL, ChannelMode.FIXED_REALIZATION,
                         18.0, np.random.SeedSequence(9))
    redraw = estimate_ber(p, ThresholdKind.OPTIMAL, ChannelMode.REDRAW_PER_TRIAL,
                          18.0, np.random.SeedSequence(9))
    assert fixed.analytic_ber is not None and 0.0 <= fixed.analytic_ber <= 1.0
    assert redraw.analytic_ber is None


def test_estimate_is_reproducible_and_worker_invariant():
    p = make_params(trials=600, window=4)
    args = (p, ThresholdKind.OPTIMAL, ChannelMode.REDRAW_PER_TRIAL, 10.0)
    serial = estimate_ber(*args, np.random.SeedSequence(11))
    again = estimate_ber(*args, np.random.SeedSequence(11))
    forked = estimate_ber(*args, np.random.SeedSequence(11), workers=2)
    assert serial == again == forked


# ------------------------------------------------------------- sweep

def test_sweep_grid_shape_and_determinism():
    p = make_params(trials=60)
    kinds = [ThresholdKind.OPTIMAL, ThresholdKind.EQUIPROBABLE]
    a = sweep(p, [10.0, 14.0], [4, 8], kinds, ChannelMode.FIXED_REALIZATION,
              np.random.SeedSequence(13))
    b = sweep(p, [10.0, 14.0], [4, 8], kinds, ChannelMode.FIXED_REALIZATION,
              np.random.SeedSequence(13))
    assert len(a) == 8
    assert a == b
    seen = {(r.window, r.snr_db, r.threshold_kind) for r in a}
    assert len(seen) == 8


def test_sweep_rejects_empty_axes():
    p = make_params(trials=10)
    with pytest.raises(ValueError):
        sweep(p, [], [8], [ThresholdKind.OPTIMAL], ChannelMode.FIXED_REALIZATION,
              np.random.SeedSequence(1))
    with pytest.raises(ValueError):
        sweep(p, [10.0], [8], [], ChannelMode.FIXED_REALIZATION,
              np.random.SeedSequence(1))


@pytest.mark.parametrize("mode", list(ChannelMode))
def test_sweep_records_are_worker_invariant(mode):
    # fewer trials than workers or than one stream block, and a count that is
    # not a multiple of it: workers take whole blocks, so the split never
    # shows in a record
    assert 40 < TRIAL_BLOCK and (2 * TRIAL_BLOCK + 7) % TRIAL_BLOCK
    for trials in (3, 40, 2 * TRIAL_BLOCK + 7):
        p = small_params(trials=trials)
        args = (p, [6.0, 12.0], [2, 4], [ThresholdKind.OPTIMAL], mode)
        serial = sweep(*args, np.random.SeedSequence(19))
        for workers in (2, 3):
            assert sweep(*args, np.random.SeedSequence(19), workers=workers) == serial
        assert [(r.window, r.snr_db) for r in serial] == [(2, 6.0), (2, 12.0), (4, 6.0), (4, 12.0)]
        assert all(r.trials == trials for r in serial)


def test_pool_is_sized_to_the_blocks(monkeypatch):
    # a pool never starts a worker that would get no trial block
    import backscatter.sim as sim_module
    pools = []

    class RecordingPool(sim_module.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append({"workers": max_workers})
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            ranges = list(zip(*iterables))
            pools[-1]["ranges"] = ranges
            return super().map(fn, *zip(*ranges), **kwargs)

    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", RecordingPool)
    for trials, workers, used in ((3, 2, 1), (40, 2, 1), (2 * TRIAL_BLOCK + 7, 2, 2),
                                  (2 * TRIAL_BLOCK + 7, 4, 3)):
        p = small_params(trials=trials)
        args = (p, ThresholdKind.OPTIMAL, ChannelMode.FIXED_REALIZATION, 8.0)
        serial = estimate_ber(*args, np.random.SeedSequence(29))
        pools.clear()
        assert estimate_ber(*args, np.random.SeedSequence(29), workers=workers) == serial
        blocks = -(-trials // TRIAL_BLOCK)
        assert [pool["workers"] for pool in pools] == [used]
        ranges = pools[0]["ranges"]
        assert len(ranges) == used and all(first < last for first, last in ranges)
        assert [first for first, _ in ranges] + [blocks] == [0] + [last for _, last in ranges]


@pytest.mark.parametrize("mode", list(ChannelMode))
def test_trial_streams_are_keyed_per_block(mode):
    # replay the documented layout: trial t of a point draws, in order, from an
    # SFC64 generator on substream(point, 1, t // TRIAL_BLOCK); channels from
    # generator(substream(point, 0))
    p = small_params(trials=TRIAL_BLOCK + 9)
    q = params_at_snr(p, 8.0)
    point = np.random.SeedSequence(23)
    kind = ThresholdKind.OPTIMAL
    if mode is ChannelMode.FIXED_REALIZATION:
        ch = draw_channels(q, generator(substream(point, 0)))
        th = threshold_for(kind, compute_scales(q, ch), q.window)
    errors = 0
    for t in range(q.trials):
        if t % TRIAL_BLOCK == 0:
            rng = np.random.Generator(np.random.SFC64(substream(point, 1, t // TRIAL_BLOCK)))
        bit = int(rng.integers(0, 2))
        if mode is ChannelMode.REDRAW_PER_TRIAL:
            ch = draw_channels(q, rng)
            th = threshold_for(kind, compute_scales(q, ch), q.window)
        errors += run_trial(q, ch, bit, th, rng).decided_bit != bit
    rec = estimate_ber(p, kind, mode, 8.0, point)
    assert rec.empirical_ber == errors / q.trials


@pytest.mark.parametrize("window", [0, 57])
def test_sweep_rejects_window_outside_block(window):
    p = small_params(trials=10)
    assert p.block_len == 56
    with pytest.raises(InvalidConfig, match=f"window.*got {window}"):
        sweep(p, [10.0], [4, window], [ThresholdKind.OPTIMAL],
              ChannelMode.FIXED_REALIZATION, np.random.SeedSequence(1))


def test_sweep_checks_every_cell_before_the_first_trial(monkeypatch):
    import backscatter.sim as sim_module
    calls = []

    def counting_run_trial(*args):
        calls.append(args)
        return run_trial(*args)

    monkeypatch.setattr(sim_module, "run_trial", counting_run_trial)
    p = small_params(trials=10)
    with pytest.raises(InvalidConfig, match="snr_db"):
        sweep(p, [10.0, 4000.0], [4], [ThresholdKind.OPTIMAL],
              ChannelMode.FIXED_REALIZATION, np.random.SeedSequence(1))
    assert calls == []


def test_snr_trend_small_scale():
    # ensemble BER falls with source power; coarse grid so the gap is wide
    p = make_params(trials=3000, window=8)
    recs = sweep(p, [5.0, 20.0], [8], [ThresholdKind.OPTIMAL],
                 ChannelMode.REDRAW_PER_TRIAL, np.random.SeedSequence(17))
    low, high = recs[0], recs[1]
    assert low.snr_db == 5.0 and high.snr_db == 20.0
    assert high.empirical_ber < low.empirical_ber


def test_params_at_snr():
    p = make_params(noise_power=2.0)
    assert params_at_snr(p, 10.0).source_power == pytest.approx(20.0)
    assert params_at_snr(p, 0.0).source_power == pytest.approx(2.0)
    for snr_db in (4000.0, -4000.0, math.nan):
        with pytest.raises(InvalidConfig, match="snr_db"):
            params_at_snr(p, snr_db)
    # a source power that underflows to a subnormal is rejected like zero
    tiny = make_params(noise_power=1e-300)
    assert params_at_snr(tiny, -70.0).source_power == pytest.approx(1e-307)
    for snr_db in (-90.0, -3000.0):
        with pytest.raises(InvalidConfig, match="snr_db"):
            params_at_snr(tiny, snr_db)
