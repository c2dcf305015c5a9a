"""Monte Carlo engine: trial pipeline, BER records, determinism, moments.

Distributional checks run against the exact laws of the chain, not the
detector's Gaussian design model: the folded-noise spectrum bins are
independent complex Gaussians, so a window-average energy statistic is
Gamma-distributed with integer shape. Where the Gaussian model is a known
idealization the tests document the gap instead of hiding it.
"""
import math
import multiprocessing
import os
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from itertools import product

import numpy as np
import pytest

from backscatter import (ChannelMode, ChannelSet, DegenerateScales, InvalidConfig, ThresholdKind,
                         compute_scales, detect, draw_channels, energy_statistics,
                         estimate_ber, generator, params_at_snr, run_trial, sim,
                         substream, sweep, threshold_for)
from backscatter.core import complex_normal
from backscatter.detector import _tap_energy, energy_scales
from backscatter.exact import sigma0_eigenvalues, sigma1, signal_form
from chainkit import (SHORT, WINDOW_RANGES, chain, make_params, probe_bin_gains,
                      reader_spectrum, redraw_trials)

small_params = partial(make_params, **SHORT)
FIXED = ChannelMode.FIXED_REALIZATION


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
    # over both threshold kinds; and at a bit-0-heavy point, W=8, 0 dB, with
    # the equiprobable threshold (BER near 0.18, a third of it false alarms
    # at a rate near 0.12), which holds the bit-0 law to the chain
    for over, snr, kinds, seed in ((dict(), 6.0, list(ThresholdKind), 47),
                                   (dict(window=8), 0.0, [ThresholdKind.EQUIPROBABLE], 48)):
        p = small_params(trials=20_000, **over)
        q = params_at_snr(p, snr)
        root = np.random.SeedSequence(seed)
        n = 6000
        chain_errors = dict.fromkeys(kinds, 0)
        for t in range(n):
            rng = generator(substream(root, 1, t))
            ch = draw_channels(q, rng)
            bit = int(rng.integers(0, 2))
            scales = compute_scales(q, ch)
            stat = run_trial(q, ch, bit, 0.0, rng).statistic
            for kind in kinds:
                chain_errors[kind] += detect(stat, threshold_for(kind, scales, q.window)) != bit
        for kind in kinds:
            rec = estimate_ber(p, kind, ChannelMode.REDRAW_PER_TRIAL, snr, substream(root, 0))
            assert 0.05 < rec.empirical_ber < 0.4
            errors = round(rec.empirical_ber * rec.trials)
            assert fisher_exact(errors, rec.trials, chain_errors[kind], n) > 5e-5


def test_fixed_kernel_error_rate_matches_the_chain():
    # fixed mode at a point with a BER near 0.15 to 0.2: the kernel's error
    # count and that of run_trial on the point's own channel realization,
    # with bits and noise from a disjoint stream, agree under Fisher's exact
    # test at a false-alarm rate of 1e-4 over both threshold kinds
    p = small_params(trials=20_000)
    q = params_at_snr(p, 0.0)
    root = np.random.SeedSequence(47)
    ch = draw_channels(q, generator(substream(substream(root, 0), 0)))
    scales = compute_scales(q, ch)
    n = 6000
    chain_errors = dict.fromkeys(ThresholdKind, 0)
    for t in range(n):
        rng = generator(substream(root, 1, t))
        bit = int(rng.integers(0, 2))
        stat = run_trial(q, ch, bit, 0.0, rng).statistic
        for kind in ThresholdKind:
            chain_errors[kind] += detect(stat, threshold_for(kind, scales, q.window)) != bit
    for kind in ThresholdKind:
        rec = estimate_ber(p, kind, ChannelMode.FIXED_REALIZATION, 0.0, substream(root, 0))
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
    # fewer trials than workers or than one trial block, and a count that is
    # not a multiple of it: workers take whole blocks, so the split never
    # shows in a record. b is the mode's W=4 block; W=2 blocks are longer, and
    # the last count still runs W=2 as two blocks, the last one short.
    b = sim._block_trials(small_params(), mode)
    b2 = sim._block_trials(small_params(window=2), mode)
    assert 40 < b < b2 < 2 * b + 7 < 2 * b2 and (2 * b + 7) % b
    for trials in (3, 40, 2 * b + 7):
        p = small_params(trials=trials)
        args = (p, [6.0, 12.0], [2, 4], [ThresholdKind.OPTIMAL], mode)
        serial = sweep(*args, np.random.SeedSequence(19))
        for workers in (2, 3):
            assert sweep(*args, np.random.SeedSequence(19), workers=workers) == serial
        assert [(r.window, r.snr_db) for r in serial] == [(2, 6.0), (2, 12.0), (4, 6.0), (4, 12.0)]
        assert all(r.trials == trials for r in serial)


def test_pool_is_sized_to_the_blocks(monkeypatch):
    # a pool never starts a worker that would get no trial block: it has min(workers,
    # blocks) workers and maps every block once, in order, in at least as many contiguous
    # chunks (5 blocks on 4 workers take 5 chunks, not the 3 of chunksize ceil(5 / 4)).
    # A fixed sweep with workers=2, the shape wide-grid-2w measures, starts one such pool
    # per cell, of one worker for a one-block cell of 100 trials
    import backscatter.sim as sim_module
    pools = []

    class RecordingPool(sim_module.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append({"workers": max_workers})
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, blocks, *, chunksize=1, **kwargs):
            blocks = list(blocks)
            pools[-1].update(blocks=blocks, chunks=-(-len(blocks) // chunksize))
            return super().map(fn, blocks, chunksize=chunksize, **kwargs)

    def check_pool(pool, blocks, workers):
        used = min(workers, blocks)
        assert (pool["workers"], pool["blocks"]) == (used, list(range(blocks)))
        assert pool["chunks"] >= used

    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", RecordingPool)
    b = sim._block_trials(small_params(), FIXED)
    for trials, workers in ((3, 2), (40, 2), (2 * b + 7, 2), (2 * b + 7, 4), (4 * b + 1, 4)):
        p = small_params(trials=trials)
        args = (p, ThresholdKind.OPTIMAL, FIXED, 8.0)
        serial = estimate_ber(*args, np.random.SeedSequence(29))
        pools.clear()
        assert estimate_ber(*args, np.random.SeedSequence(29), workers=workers) == serial
        assert len(pools) == 1
        check_pool(pools[0], -(-trials // b), workers)
    windows = [2, 4, 16]
    for trials in (100, 2 * b + 7):
        args = (small_params(trials=trials), [6.0, 12.0], windows, list(ThresholdKind), FIXED)
        serial = sweep(*args, np.random.SeedSequence(31))
        pools.clear()
        assert sweep(*args, np.random.SeedSequence(31), workers=2) == serial
        cells = [w for w in windows for _ in range(4)]
        assert len(pools) == len(cells)
        for pool, w in zip(pools, cells):
            check_pool(pool, -(-trials // sim._block_trials(small_params(window=w), FIXED)), 2)


@pytest.mark.parametrize("mode", list(ChannelMode))
def test_spawned_pool_workers_give_the_serial_record(mode, monkeypatch):
    # spawn is macOS's default start method, and forkserver Linux's from Python 3.14: a
    # worker that imports the package afresh computes the serial record of 3 blocks
    b = sim._block_trials(small_params(), mode)
    args = (small_params(trials=2 * b + 7), ThresholdKind.OPTIMAL, mode, 8.0)
    serial = estimate_ber(*args, np.random.SeedSequence(83))
    monkeypatch.setattr(sim, "ProcessPoolExecutor", partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    assert estimate_ber(*args, np.random.SeedSequence(83), workers=2) == serial


def fixed_law(q, kind, point):
    """The fixed kernel's law at a point: threshold and ``Sigma_1``'s eigenvalues, over the
    floor and ``window``."""
    ch = draw_channels(q, generator(substream(point, 0)))
    scales = compute_scales(q, ch)
    lam1 = np.linalg.eigvalsh(sigma1(q, ch.tag, ch.reflect))
    return threshold_for(kind, scales, q.window) / scales.noise_floor, lam1 / q.window


def kernel_laws(run):
    """``run()`` and the laws it hands the trial kernel, one per serial point (its block 0)."""
    laws = []
    count = sim._count_errors

    def recording(q, kind, law, point, block):
        if block == 0:
            laws.append(law)
        return count(q, kind, law, point, block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_count_errors", recording)
        return run(), laws


@pytest.mark.parametrize("kind", list(ThresholdKind))
@pytest.mark.parametrize("mode", list(ChannelMode))
def test_trial_streams_are_keyed_per_block(mode, kind):
    # replay the documented layout one trial at a time: block b of a point
    # draws from an SFC64 generator on substream(point, 1, b), in order, the
    # block's bits, then in redraw mode its draws as redraw_trials replays
    # them: a bit-0 trial decides 1 when E . lambda_0, the eigenvalues of
    # Sigma_0 over window, exceeds the threshold of its two tap energies over
    # the noise floor, and a bit-1 trial when Re(u^H Sigma_1 u) exceeds that
    # of its taps; in fixed mode each trial's window standard exponentials E,
    # and the trial decides 1 when E . lambda_bit, the eigenvalues of
    # Sigma_bit over window, exceeds it. Fixed channels come from
    # generator(substream(point, 0)). Three blocks of the mode's b trials,
    # the last one short. At this point a map with the same law,
    # E . reversed(lambda_bit) or, for redraw bit-1 trials,
    # |chol(Sigma_1) u|^2, decides some trial otherwise in every case, so the
    # replay pins the map and not only the law.
    b = sim._block_trials(small_params(), mode)
    p = small_params(trials=2 * b + 9)
    q = params_at_snr(p, 14.0)
    point = np.random.SeedSequence(8)
    w = q.window
    th, lam1 = fixed_law(q, kind, point)
    lams = (sigma0_eigenvalues(q) / w, lam1)
    errors = other_errors = 0
    for block in range(3):
        n = min(b, q.trials - block * b)
        if mode is ChannelMode.FIXED_REALIZATION:
            rng = np.random.Generator(np.random.SFC64(substream(point, 1, block)))
            bits = rng.integers(0, 2, n)
            for bit, e in zip(bits, rng.standard_exponential((n, w))):
                errors += (np.dot(e, lams[bit]) > th) != bit
                other_errors += (np.dot(e, lams[bit][::-1]) > th) != bit
            continue
        for bit, tag_energy, reflect_energy, x in redraw_trials(q, point, block, n):
            scales = energy_scales(q, tag_energy, reflect_energy)
            th = threshold_for(kind, scales, w) / scales.noise_floor
            if bit:
                tag, reflect, u = x
                cov = sigma1(q, tag, reflect)
                errors += np.vdot(u, cov @ u).real <= th
                other_errors += np.sum(np.abs(np.linalg.cholesky(cov) @ u) ** 2) <= th
            else:
                errors += np.dot(x, lams[0]) > th
                other_errors += np.dot(x, lams[0][::-1]) > th
    assert other_errors != errors
    rec = estimate_ber(p, kind, mode, 14.0, point)
    assert rec.empirical_ber == errors / q.trials


@pytest.mark.parametrize("window", [2, 16])
@pytest.mark.parametrize("mode", list(ChannelMode))
def test_blocks_are_computed_alone(mode, window):
    # worker invariance rests on each block being computed alone: each block's count is
    # the same whichever blocks ran before it, and their sum is the record's for one, two
    # and three workers, with a short last block
    kind = ThresholdKind.OPTIMAL
    b = sim._block_trials(make_params(window=window), mode)
    q = params_at_snr(make_params(window=window, trials=3 * b + 7), 14.0)
    point = np.random.SeedSequence(37)
    law = fixed_law(q, kind, point) if mode is FIXED else None
    counts = [sim._count_errors(q, kind, law, point, k) for k in range(4)]
    assert counts[::-1] == [sim._count_errors(q, kind, law, point, k) for k in range(3, -1, -1)]
    for workers in (1, 2, 3):
        rec = estimate_ber(q, kind, mode, 14.0, point, workers=workers)
        assert rec.empirical_ber == sum(counts) / q.trials


def blas_threads():
    """The guard's ``(get, set)`` pair for numpy's bundled OpenBLAS; skips without one."""
    threads = sim._openblas_threads()
    if threads is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    return threads


@pytest.mark.parametrize("over", [{}, SHORT], ids=["reference", "short"])
def test_kernel_products_run_on_one_blas_thread(over, monkeypatch, tmp_path):
    # at the geometry's widest window up to 64, where a fixed cell's eigvalsh and a
    # redraw block's C b are past the sizes at which OpenBLAS starts a second thread,
    # every stream derivation, bit-1 form and eigvalsh of a three-block sweep reads one
    # OpenBLAS thread, in the parent and in pool workers, and the sweep restores the count
    get, _ = blas_threads()
    log = tmp_path / "threads"

    def reading(fn):
        def read(*args, **kwargs):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {fn.__name__} {get()}\n")
            return fn(*args, **kwargs)
        return read

    for name in ("substream", "signal_form"):
        monkeypatch.setattr(sim, name, reading(getattr(sim, name)))
    monkeypatch.setattr(np.linalg, "eigvalsh", reading(np.linalg.eigvalsh))
    before = get()
    w = min(64, make_params(**over).block_len)
    for mode in ChannelMode:
        b = sim._block_trials(make_params(**{**over, "window": w}), mode)
        p = make_params(**{**over, "window": w, "trials": 2 * b + 1})
        records = []
        for workers in (1, 2):
            log.write_text("")
            records.append(sweep(p, [20.0], [w], [ThresholdKind.OPTIMAL], mode,
                                 np.random.SeedSequence(43), workers=workers))
            reads = [line.split() for line in log.read_text().splitlines()]
            assert {count for *_, count in reads} == {"1"}
            assert get() == before
            form = "eigvalsh" if mode is FIXED else "signal_form"
            assert {"substream", form} <= {name for _, name, _ in reads}
            in_workers = {name for pid, name, _ in reads if int(pid) != os.getpid()}
            assert ("substream" in in_workers) == (workers == 2)
        assert records[0] == records[1]


def test_blas_guard_restores_the_count():
    # the guard runs its function on one thread and restores the previous count when it
    # returns and when it raises; a nested entry leaves the outer entry's count alone
    get, put = blas_threads()
    previous = get()
    put(previous + 1)
    try:
        inner = sim._one_blas_thread(get)
        assert sim._one_blas_thread(lambda: (get(), inner(), get()))() == (1, 1, 1)
        assert get() == previous + 1

        @sim._one_blas_thread
        def failing():
            raise RuntimeError(f"threads {get()}")

        with pytest.raises(RuntimeError, match="^threads 1$"):
            failing()
        assert get() == previous + 1
    finally:
        put(previous)


def test_openblas_lookup_finds_the_numpy_1_names(monkeypatch, tmp_path):
    # a numpy 1 wheel bundles numpy.libs/libopenblas64_p-*.so, which exports the thread
    # calls under the plain openblas prefix and not the scipy_openblas one of numpy 2
    libs = tmp_path / "numpy.libs"
    libs.mkdir()
    (libs / "libopenblas64_p-fake.so").touch()
    loaded = []

    class Numpy1OpenBLAS:
        def __init__(self, path):
            self.path = path
            loaded.append(self)

        def openblas_get_num_threads64_(self):
            return 1

        def openblas_set_num_threads64_(self, count):
            pass

    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    monkeypatch.setattr(sim.ctypes, "CDLL", Numpy1OpenBLAS)
    sim._openblas_threads.cache_clear()
    try:
        threads = sim._openblas_threads()
    finally:
        sim._openblas_threads.cache_clear()
    lib, = loaded
    assert lib.path == str(libs / "libopenblas64_p-fake.so")
    assert threads == (lib.openblas_get_num_threads64_, lib.openblas_set_num_threads64_)


@pytest.mark.parametrize("mode", list(ChannelMode))
def test_blas_guard_without_openblas_changes_nothing(mode, monkeypatch):
    # with no OpenBLAS found the guard leaves the thread count alone, and a sweep gives
    # the records it gives guarded
    args = (make_params(trials=300), [14.0, 20.0], [2, 8], list(ThresholdKind), mode)
    guarded = sweep(*args, np.random.SeedSequence(47))
    threads = sim._openblas_threads()
    monkeypatch.setattr(sim, "_openblas_threads", lambda: None)
    counts = []
    if threads is not None:
        derive = sim.substream
        monkeypatch.setattr(sim, "substream",
                            lambda *a: counts.append(threads[0]()) or derive(*a))
    assert sweep(*args, np.random.SeedSequence(47)) == guarded
    assert threads is None or set(counts) == {threads[0]()}


@pytest.mark.parametrize("mode", list(ChannelMode))
def test_wide_windows_use_no_second_blas_thread(mode):
    # past the threading sizes, at W = 64, 148 and 240 on the reference geometry, a
    # sweep's CPU time is its own thread's: the other threads' share, process_time less
    # thread_time, stays near 0. Measured after a pause, once threads that earlier work
    # left spinning have gone idle.
    blas_threads()
    p = make_params(trials=400 if mode is FIXED else 1000)
    args = (p, [20.0], [64, 148, 240], [ThresholdKind.OPTIMAL], mode)
    sweep(*args, np.random.SeedSequence(53))
    time.sleep(0.3)
    cpu, own = time.process_time(), time.thread_time()
    sweep(*args, np.random.SeedSequence(54))
    own = time.thread_time() - own
    other = time.process_time() - cpu - own
    assert other <= 0.05 * own + 0.002, (other, own)


@pytest.mark.parametrize("window", [2, 8, 16])
def test_kernel_memory_is_bounded_per_block(window):
    # the peak of numpy's traced allocations over a redraw point is set by one block, not
    # by the point: 100 blocks peak no higher than 20, up to the spread of the bit-1
    # count between blocks
    kind = ThresholdKind.OPTIMAL
    mode = ChannelMode.REDRAW_PER_TRIAL
    point = np.random.SeedSequence(41)
    b = sim._block_trials(make_params(window=window), mode)
    estimate_ber(make_params(trials=b, window=window), kind, mode, 20.0, point)  # fill caches
    peaks = []
    for blocks in (20, 100):
        p = make_params(trials=blocks * b, window=window)
        tracemalloc.start()
        try:
            estimate_ber(p, kind, mode, 20.0, point)
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
    got = sim._thresholds(q, kind, _tap_energy(taps[:, :width]),
                          _tap_energy(taps[:, width:])).tolist()
    assert got == [threshold_for(kind, s, window) / s.noise_floor for s in scales]
    ratios = [s.signal_lift / s.noise_floor for s in scales]
    assert min(ratios) < 1e-11 and max(ratios) > 1e305


def scalar_error(q, kind, energies):
    """The exception the scalar path raises on the first bad (tag, reflect) energy pair, or
    None."""
    for tag_energy, reflect_energy in energies:
        try:
            threshold_for(kind, energy_scales(q, tag_energy, reflect_energy), q.window)
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
    pairs = [(float(_tap_energy(row[:width])), float(_tap_energy(row[width:]))) for row in taps]
    assert scalar_error(q, kind, pairs[:1]) is None
    first, second = scalar_error(q, kind, pairs[1:2]), scalar_error(q, kind, pairs[2:])
    assert type(first) is type(second) is error and str(first) != str(second)
    with pytest.raises(error) as got:
        sim._thresholds(q, kind, _tap_energy(taps[:, :width]), _tap_energy(taps[:, width:]))
    assert type(got.value) is error and str(got.value) == str(first)


@pytest.mark.parametrize("kind", list(ThresholdKind))
@pytest.mark.parametrize("gain,error", [(0.0, DegenerateScales), (1e151, ValueError)])
def test_redraw_scale_errors_are_the_scalar_path_errors(kind, gain, error):
    # zero gain has no lift in any trial; at 1e151 only trials with large tap
    # energies overflow, so at this point the first bad trial is not the first
    # trial; the block's energies, of bit-0 and bit-1 trials alike, in draw order
    b = sim._block_trials(make_params(), ChannelMode.REDRAW_PER_TRIAL)
    q = params_at_snr(make_params(tag_gain=gain, trials=2 * b), 20.0)
    point = np.random.SeedSequence(43)
    pairs = [(tag, reflect) for _, tag, reflect, _
             in sorted(redraw_trials(q, point, 0, b), key=lambda t: t[0])]
    want = scalar_error(q, kind, pairs)
    assert type(want) is error
    if gain:
        assert scalar_error(q, kind, pairs[:1]) is None
    with pytest.raises(error) as got:
        sim._thresholds(q, kind, *np.array(pairs).T)
    assert type(got.value) is error and str(got.value) == str(want)
    with pytest.raises(error) as got:
        estimate_ber(q, kind, ChannelMode.REDRAW_PER_TRIAL, 20.0, point)
    assert type(got.value) is error and str(got.value) == str(want)


@pytest.mark.parametrize("workers", [1, 2, "spawn"])
@pytest.mark.parametrize("kind", list(ThresholdKind))
def test_redraw_block_raises_its_first_bad_trial(kind, workers, monkeypatch):
    # the kernel takes a block's thresholds on its trials' energies in draw order, its
    # bit-0 trials' then its bit-1 trials'. At this point block 0's first bad trial in
    # trial order is a bit-1 trial, and a later bad bit-0 trial has another lift, so the
    # energies in draw order raise another message than in trial order. The point raises
    # the draw-order one serially, from a forked pool and from a spawned pool (whose
    # workers import the package afresh, as a forkserver's do), where block 1 fails too
    # and pool.map raises in block order
    mode = ChannelMode.REDRAW_PER_TRIAL
    b = sim._block_trials(small_params(), mode)
    q = params_at_snr(small_params(trials=2 * b, noise_power=1e-6, tag_gain=3e152), 20.0)
    point = np.random.SeedSequence(0)
    trials = redraw_trials(q, point, 0, b)
    drawn = [(tag, reflect) for _, tag, reflect, _ in sorted(trials, key=lambda t: t[0])]
    want = scalar_error(q, kind, drawn)
    in_trial_order = scalar_error(q, kind, [(tag, reflect) for _, tag, reflect, _ in trials])
    assert type(want) is ValueError and str(in_trial_order) != str(want)
    assert next(bit for bit, tag, reflect, _ in trials
                if scalar_error(q, kind, [(tag, reflect)])) == 1
    if workers == "spawn":
        monkeypatch.setattr(sim, "ProcessPoolExecutor", partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
        workers = 2
    with pytest.raises(ValueError) as got:
        estimate_ber(q, kind, mode, 20.0, point, workers=workers)
    assert type(got.value) is ValueError and str(got.value) == str(want)


def test_pool_raises_the_serial_error():
    # the second cell overflows in each of its four blocks, first at trial 25
    # of block 0. Two workers map them in two chunks of two blocks, each block
    # raising at its own first bad trial, and pool.map raises in block order:
    # block 0's error, the one a serial sweep raises. A floor below 1 overflows lift / floor while the
    # lift, which the message names, is still finite.
    p = small_params(trials=4 * sim._block_trials(small_params(), ChannelMode.REDRAW_PER_TRIAL),
                     noise_power=1e-6, tag_gain=3e152)
    args = (p, [10.0, 20.0], [4], [ThresholdKind.OPTIMAL], ChannelMode.REDRAW_PER_TRIAL)
    with pytest.raises(ValueError, match=r"signal_lift=\d\S* over .* overflows") as serial:
        sweep(*args, np.random.SeedSequence(53))
    with pytest.raises(ValueError) as forked:
        sweep(*args, np.random.SeedSequence(53), workers=2)
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)


def test_statistics_past_the_largest_double_decide_one():
    # lift/floor near 1e307 overflows some bit-1 trials' signal form, the
    # kernel's addend to Re(u^H Sigma_0 u), which makes their statistics not
    # finite; the exact statistic lies hundreds of orders of magnitude above
    # the threshold of about 20 noise floors, and a bit-0 statistic almost
    # never reaches it, so the point makes no error
    b = sim._block_trials(small_params(), ChannelMode.REDRAW_PER_TRIAL)
    q = params_at_snr(small_params(trials=b, noise_power=1e-6, tag_gain=5e152), 10.0)
    point = np.random.SeedSequence(59)
    tag, reflect, u = map(np.stack, zip(*(x for bit, _, _, x in redraw_trials(q, point, 0, b)
                                          if bit)))
    form = signal_form(q, tag, reflect, u)
    assert not np.isfinite(form).all()
    rec = estimate_ber(q, ThresholdKind.OPTIMAL, ChannelMode.REDRAW_PER_TRIAL, 10.0, point)
    assert rec.empirical_ber == 0


def test_fixed_sigma1_past_the_largest_double_decides_one():
    # at lift/floor near 1e307 the fixed realization's Sigma_1 overflows to
    # inf and has no eigenvalues: every bit-1 trial decides 1, and as the
    # threshold is about 20 noise floors, which a bit-0 statistic almost
    # never reaches, the point makes no error
    b = sim._block_trials(small_params(), ChannelMode.FIXED_REALIZATION)
    q = params_at_snr(small_params(trials=b + 7, noise_power=1e-6, tag_gain=5e152), 10.0)
    point = np.random.SeedSequence(64)
    ch = draw_channels(q, generator(substream(point, 0)))
    assert not np.isfinite(sigma1(q, ch.tag, ch.reflect)).all()
    rec = estimate_ber(q, ThresholdKind.OPTIMAL, ChannelMode.FIXED_REALIZATION, 10.0, point)
    assert rec.empirical_ber == 0


@pytest.mark.parametrize("window", [0, 57])
def test_sweep_rejects_window_outside_block(window):
    p = small_params(trials=10)
    assert p.block_len == 56
    with pytest.raises(InvalidConfig, match=f"window.*got {window}"):
        sweep(p, [10.0], [4, window], [ThresholdKind.OPTIMAL],
              ChannelMode.FIXED_REALIZATION, np.random.SeedSequence(1))


def test_sweep_checks_every_cell_before_the_first_trial(monkeypatch):
    import backscatter.sim as sim_module
    calls, draws = [], []

    def counting_kernel(*args):
        calls.append(args)
        return count_errors(*args)

    def counting_draws(*args):
        draws.append(args)
        return draw_channels(*args)

    count_errors = sim_module._count_errors
    monkeypatch.setattr(sim_module, "_count_errors", counting_kernel)
    monkeypatch.setattr(sim_module, "draw_channels", counting_draws)
    p = small_params(trials=10)
    args = ([4], [ThresholdKind.OPTIMAL], ChannelMode.FIXED_REALIZATION, np.random.SeedSequence(1))
    sweep(p, [10.0], *args)
    assert len(calls) == len(draws) == 1      # the counters see the kernel and the draws
    calls.clear()
    draws.clear()
    with pytest.raises(InvalidConfig, match="snr_db"):
        sweep(p, [10.0, 4000.0], *args)
    assert calls == draws == []


@pytest.mark.parametrize("over, windows", list(WINDOW_RANGES.values()), ids=list(WINDOW_RANGES))
def test_fixed_sweep_equals_the_one_cell_path(over, windows):
    # a fixed sweep's cell is the estimate_ber call for the cell alone on the cell's
    # substream, bit for bit, for both threshold kinds, and its kernel law is that of its
    # own realization's Sigma_1
    snrs, kinds = [6.0, 14.0, 22.0], list(ThresholdKind)
    stream = np.random.SeedSequence(71)
    at = {w: make_params(**{**over, "window": w, "trials": 300}) for w in windows}
    records, laws = kernel_laws(lambda: sweep(at[windows[0]], snrs, list(windows), kinds,
                                              FIXED, stream))
    cells = [(w, snr, kind, substream(stream, idx))
             for idx, (w, snr, kind) in enumerate(product(windows, snrs, kinds))]
    assert records == [estimate_ber(at[w], kind, FIXED, snr, point) for w, snr, kind, point in cells]
    for (w, snr, kind, point), law in zip(cells, laws):
        want = fixed_law(params_at_snr(at[w], snr), kind, point)
        assert all(np.array_equal(a, b) for a, b in zip(law, want))


def test_window_of_finite_and_overflowing_sigma1_rows(monkeypatch):
    # at tag_gain 5e152 and noise_power 1e-6 this SNR axis crosses the overflow of Sigma_1
    # (not that of the scales): at this seed cells 3 and 4 of the window overflow. Only
    # they get infinite eigenvalues, eigvalsh never sees a non-finite matrix, and every
    # record is the cell's one-cell record
    p = small_params(trials=200, noise_power=1e-6, tag_gain=5e152)
    snrs, kinds = [0.0, 10.0, 12.0], list(ThresholdKind)
    stream = np.random.SeedSequence(179)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def checking(a):
        seen.append(bool(np.isfinite(a).all()))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", checking)
    cells = [(params_at_snr(p, snr), substream(stream, idx), snr, kind)
             for idx, (snr, kind) in enumerate(product(snrs, kinds))]
    overflows = []
    for q, point, *_ in cells:
        ch = draw_channels(q, generator(substream(point, 0)))
        overflows.append(not np.isfinite(sigma1(q, ch.tag, ch.reflect)).all())
    assert overflows == [False, False, False, True, True, False]
    records, laws = kernel_laws(lambda: sweep(p, snrs, [p.window], kinds, FIXED, stream))
    for overflow, (_, lam1) in zip(overflows, laws):
        assert np.isinf(lam1).all() if overflow else np.isfinite(lam1).all()
    assert records == [estimate_ber(q, kind, FIXED, snr, point) for q, point, snr, kind in cells]
    assert seen and all(seen)


def test_fixed_sweep_sets_each_window_up_once(monkeypatch):
    # counted as sim calls them: one derivation per window, and one sigma1, eigvalsh and
    # estimate_ber per fixed cell, all of whose Sigma_1 are finite here; a redraw sweep
    # builds no Sigma_1
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    p = small_params(trials=20)
    args = ([4.0, 8.0, 12.0], [2, 4, 16], list(ThresholdKind))
    for mode in ChannelMode:        # fill the per-geometry caches, Sigma_0's eigenvalues too
        sweep(p, *args, mode, np.random.SeedSequence(3))
    for name in ("derive_params", "sigma1", "estimate_ber"):
        monkeypatch.setattr(sim, name, counting(name, getattr(sim, name)))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    sweep(p, *args, FIXED, np.random.SeedSequence(3))
    assert calls == {"derive_params": 3, "sigma1": 18, "eigvalsh": 18, "estimate_ber": 18}
    calls.clear()
    sweep(p, *args, ChannelMode.REDRAW_PER_TRIAL, np.random.SeedSequence(3))
    assert calls == {"derive_params": 3, "estimate_ber": 18}


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


def test_params_at_snr_is_params_itself_at_its_own_power():
    # estimate_ber takes the cell params a sweep set to the cell's SNR as they are
    p = params_at_snr(make_params(noise_power=2.0), 10.0)
    assert p.source_power == 20.0
    assert params_at_snr(p, 10.0) is p
    q = params_at_snr(p, 13.0)
    assert q is not p and p.source_power == 20.0 and q.source_power != 20.0
    assert q == replace(p, source_power=q.source_power)
