"""Monte Carlo engine: trial pipeline, BER records, determinism, moments.

Distributional checks run against the exact laws of the chain, not the
detector's Gaussian design model: the folded-noise spectrum bins are
independent complex Gaussians, so a window-average energy statistic is
Gamma-distributed with integer shape. Where the Gaussian model is a known
idealization the tests document the gap instead of hiding it.
"""
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from backscatter import (ChannelMode, ChannelSet, DegenerateScales, InvalidConfig, ThresholdKind,
                         compute_scales, detect, draw_channels, energy_statistics,
                         estimate_ber, generator, params_at_snr, run_trial, sim, substream,
                         sweep, threshold_for)
from backscatter.core import complex_normal
from backscatter.detector import energy_scales
from backscatter.exact import sigma0, sigma1
from backscatter.sim import TRIAL_BLOCK
from chainkit import SHORT, chain, make_params, probe_bin_gains, reader_spectrum

small_params = partial(make_params, **SHORT)


def gamma_survival(shape, mean, x):
    """P(G > x) for a Gamma with integer shape; exact finite sum."""
    rate_x = shape * x / mean
    return math.exp(-rate_x) * sum(rate_x ** j / math.factorial(j) for j in range(shape))


def fisher_exact(k1, n1, k2, n2):
    """Two-sided Fisher exact p-value of one error rate behind k1 of n1 and k2 of n2."""
    k = k1 + k2
    x = np.arange(max(0, k - n2), min(k, n1) + 1)
    lg = np.vectorize(math.lgamma)
    logp = -lg(x + 1) - lg(n1 - x + 1) - lg(k - x + 1) - lg(n2 - k + x + 1)
    weights = np.exp(logp - logp.max())
    return min(1.0, weights[weights <= weights[k1 - x[0]] * (1 + 1e-7)].sum() / weights.sum())


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
            assert energy_statistics(reader_spectrum(p, rx), p.window) == want


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


def test_redraw_kernel_error_rate_matches_the_chain():
    # redraw mode at a point with a BER near 0.13: the kernel's error count
    # and that of run_trial, on channels, bits and noise from a disjoint
    # stream, agree under Fisher's exact test at a false-alarm rate of 1e-4
    # over both threshold kinds
    p = small_params(trials=20_000)
    q = params_at_snr(p, 6.0)
    root = np.random.SeedSequence(47)
    n = 6000
    chain_errors = dict.fromkeys(ThresholdKind, 0)
    for t in range(n):
        rng = generator(substream(root, 1, t))
        ch = draw_channels(q, rng)
        bit = int(rng.integers(0, 2))
        scales = compute_scales(q, ch)
        stat = run_trial(q, ch, bit, 0.0, rng).statistic
        for kind in ThresholdKind:
            chain_errors[kind] += detect(stat, threshold_for(kind, scales, q.window)) != bit
    for kind in ThresholdKind:
        rec = estimate_ber(p, kind, ChannelMode.REDRAW_PER_TRIAL, 6.0, substream(root, 0))
        assert 0.05 < rec.empirical_ber < 0.4
        errors = round(rec.empirical_ber * rec.trials)
        assert fisher_exact(errors, rec.trials, chain_errors[kind], n) > 5e-5


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


@pytest.mark.parametrize("kind", list(ThresholdKind))
@pytest.mark.parametrize("mode", list(ChannelMode))
def test_trial_streams_are_keyed_per_block(mode, kind):
    # replay the documented layout one trial at a time: block b of a point
    # draws from an SFC64 generator on substream(point, 1, b), in order, the
    # block's bits, in redraw mode each trial's tag then reflect taps, then
    # each trial's window normals u of power 1 / window; the trial decides 1
    # when Re(u^H Sigma_bit u) exceeds its threshold over the noise floor.
    # Fixed channels come from generator(substream(point, 0)). Three blocks,
    # the last one short, which the kernel runs as one batch. At this point
    # |chol(Sigma_bit) u|^2, which has the same law, decides some trial
    # otherwise in every case, so the replay pins the map and not only the law.
    p = small_params(trials=2 * TRIAL_BLOCK + 9)
    q = params_at_snr(p, 14.0)
    assert sim._batch_blocks(q) >= 3
    point = np.random.SeedSequence(8)
    w, width = q.window, q.tag_order + 1
    fixed = draw_channels(q, generator(substream(point, 0)))
    errors = chol_errors = 0
    for block in range(3):
        rng = np.random.Generator(np.random.SFC64(substream(point, 1, block)))
        n = min(TRIAL_BLOCK, q.trials - block * TRIAL_BLOCK)
        bits = rng.integers(0, 2, n)
        channels = [fixed] * n
        if mode is ChannelMode.REDRAW_PER_TRIAL:
            taps = complex_normal(rng, n * (width + q.reflect_order + 1), 1.0).reshape(n, -1)
            channels = [ChannelSet(fixed.direct, row[:width], row[width:]) for row in taps]
        normals = complex_normal(rng, n * w, 1.0 / w).reshape(n, w)
        for bit, ch, u in zip(bits, channels, normals):
            scales = compute_scales(q, ch)
            th = threshold_for(kind, scales, w) / scales.noise_floor
            cov = sigma1(q, ch.tag[None], ch.reflect[None])[0] if bit else sigma0(q)
            errors += (np.vdot(u, cov @ u).real > th) != bit
            chol_errors += (np.sum(np.abs(np.linalg.cholesky(cov) @ u) ** 2) > th) != bit
    assert chol_errors != errors
    rec = estimate_ber(p, kind, mode, 14.0, point)
    assert rec.empirical_ber == errors / q.trials


@pytest.mark.parametrize("window", [2, 16])
@pytest.mark.parametrize("mode", list(ChannelMode))
def test_records_do_not_depend_on_the_batch(monkeypatch, mode, window):
    # a budget of one byte runs every block as its own batch; the default
    # runs W=2 in batches of several blocks and W=16 one block at a time,
    # with a short last block either way
    p = make_params(trials=3 * TRIAL_BLOCK + 7, window=window)
    batch = sim._batch_blocks(p)
    assert batch >= 4 if window == 2 else batch == 1
    args = (p, [6.0, 14.0], [window], list(ThresholdKind), mode)
    batched = sweep(*args, np.random.SeedSequence(37))
    monkeypatch.setattr(sim, "BATCH_BYTES", 1)
    assert sim._batch_blocks(p) == 1
    assert sweep(*args, np.random.SeedSequence(37)) == batched


@pytest.mark.parametrize("window", [2, 8, 16])
def test_kernel_memory_is_bounded_per_batch(window):
    # the peak of numpy's traced allocations over a redraw chunk is set by
    # one batch, not by the chunk: 100 blocks peak no higher than 20, up to
    # the spread of the bit-1 count between batches
    kind = ThresholdKind.OPTIMAL
    point = np.random.SeedSequence(41)
    peaks = []
    for blocks in (20, 100):
        q = params_at_snr(make_params(trials=blocks * TRIAL_BLOCK, window=window), 20.0)
        sim._count_errors(q, kind, None, point, 0, 1)      # fill the per-geometry caches
        tracemalloc.start()
        try:
            sim._count_errors(q, kind, None, point, 0, blocks)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * 2 ** 20
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("window", [1, 2, 16])
@pytest.mark.parametrize("kind", list(ThresholdKind))
def test_array_thresholds_equal_the_scalar_path(kind, window):
    # lift/floor over random taps and near 1e-12 and near overflow, each
    # trial's value bit for bit the scalar threshold_for over the floor
    q = params_at_snr(make_params(window=window), 20.0)
    rng = np.random.default_rng(43)
    width, n = q.tag_order + 1, 300
    taps = complex_normal(rng, n * (width + q.reflect_order + 1), 1.0).reshape(n, -1)
    base = energy_scales(q, 1.0, 1.0)
    unit = base.signal_lift / base.noise_floor          # lift/floor at unit energies
    target = np.repeat([1e-12, 1.0, 1e305], n // 3) * rng.uniform(0.5, 2.0, n)
    energy = np.add.reduce(np.abs(taps[:, :width]) ** 2, axis=1) * np.add.reduce(
        np.abs(taps[:, width:]) ** 2, axis=1)
    taps *= ((target / (unit * energy)) ** 0.25)[:, None]
    scales = [compute_scales(q, ChannelSet(None, row[:width], row[width:])) for row in taps]
    got = sim._thresholds(q, kind, taps[:, :width], taps[:, width:]).tolist()
    assert got == [threshold_for(kind, s, window) / s.noise_floor for s in scales]
    ratios = [s.signal_lift / s.noise_floor for s in scales]
    assert min(ratios) < 1e-11 and max(ratios) > 1e305


def scalar_error(q, kind, taps, width):
    """The exception the scalar path raises on the first bad row of ``taps``, or None."""
    for row in taps:
        try:
            threshold_for(kind, compute_scales(q, ChannelSet(None, row[:width], row[width:])),
                          q.window)
        except ValueError as exc:
            return exc
    return None


@pytest.mark.parametrize("kind", list(ThresholdKind))
@pytest.mark.parametrize("noise_power,energies,error", [
    # lift/floor underflows to zero from a subnormal lift
    (1.0, [(1.0, 1.0), (1e-170, 1e-157), (1e-170, 2e-157)], DegenerateScales),
    # a finite lift over a floor below 1 overflows
    (1e-6, [(1.0, 1.0), (1e154, 2e154), (1e154, 3e154)], ValueError),
])
def test_array_thresholds_raise_on_the_first_bad_trial(kind, noise_power, energies, error):
    # both bad trials fail, with messages that name their own lift
    q = params_at_snr(make_params(noise_power=noise_power), 20.0)
    width = q.tag_order + 1
    taps = np.zeros((len(energies), width + q.reflect_order + 1), dtype=complex)
    taps[:, 0], taps[:, width] = np.sqrt(energies).T
    assert scalar_error(q, kind, taps[:1], width) is None
    first, second = scalar_error(q, kind, taps[1:2], width), scalar_error(q, kind, taps[2:], width)
    assert type(first) is type(second) is error and str(first) != str(second)
    with pytest.raises(error) as got:
        sim._thresholds(q, kind, taps[:, :width], taps[:, width:])
    assert type(got.value) is error and str(got.value) == str(first)


@pytest.mark.parametrize("kind", list(ThresholdKind))
@pytest.mark.parametrize("gain,error", [(0.0, DegenerateScales), (1e151, ValueError)])
def test_redraw_scale_errors_are_the_scalar_path_errors(kind, gain, error):
    # zero gain has no lift in any trial; at 1e151 only trials with large tap
    # energies overflow, so the first bad trial is not the first trial
    q = params_at_snr(make_params(tag_gain=gain, trials=2 * TRIAL_BLOCK), 20.0)
    width = q.tag_order + 1
    point = np.random.SeedSequence(41)
    rng = np.random.Generator(np.random.SFC64(substream(point, 1, 0)))
    rng.integers(0, 2, TRIAL_BLOCK)     # the block's bits come first
    taps = complex_normal(rng, TRIAL_BLOCK * (width + q.reflect_order + 1), 1.0)
    taps = taps.reshape(TRIAL_BLOCK, -1)
    want = scalar_error(q, kind, taps, width)
    assert type(want) is error
    if gain:
        assert scalar_error(q, kind, taps[:1], width) is None
    with pytest.raises(error) as got:
        sim._thresholds(q, kind, taps[:, :width], taps[:, width:])
    assert type(got.value) is error and str(got.value) == str(want)
    with pytest.raises(error) as got:
        estimate_ber(q, kind, ChannelMode.REDRAW_PER_TRIAL, 20.0, point)
    assert type(got.value) is error and str(got.value) == str(want)


def test_pool_raises_the_serial_error():
    # the second cell overflows in every block, first at trial 11 of block 0,
    # and each of two workers' chunks raises at its own first bad trial: the
    # pool raises the first chunk's error, the one a serial sweep raises.
    # A floor below 1 overflows lift / floor while the lift, which the
    # message names, is still finite.
    p = small_params(trials=4 * TRIAL_BLOCK, noise_power=1e-6, tag_gain=3e152)
    args = (p, [10.0, 20.0], [4], [ThresholdKind.OPTIMAL], ChannelMode.REDRAW_PER_TRIAL)
    with pytest.raises(ValueError, match=r"signal_lift=\d\S* over .* overflows") as serial:
        sweep(*args, np.random.SeedSequence(53))
    with pytest.raises(ValueError) as forked:
        sweep(*args, np.random.SeedSequence(53), workers=2)
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)


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

    def counting_kernel(*args):
        calls.append(args)
        return count_errors(*args)

    count_errors = sim_module._count_errors
    monkeypatch.setattr(sim_module, "_count_errors", counting_kernel)
    p = small_params(trials=10)
    args = ([4], [ThresholdKind.OPTIMAL], ChannelMode.FIXED_REALIZATION, np.random.SeedSequence(1))
    sweep(p, [10.0], *args)
    assert len(calls) == 1      # the counter sees the kernel
    calls.clear()
    with pytest.raises(InvalidConfig, match="snr_db"):
        sweep(p, [10.0, 4000.0], *args)
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
