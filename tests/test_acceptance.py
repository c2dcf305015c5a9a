"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy Monte Carlo
fixtures are module-scoped, so the full gate runs each sweep once.

Criterion 1 is asserted exactly as stated and is expected to fail: it takes
the detector's Gaussian design model as a per-realization oracle for the
time-domain chain, but the first-window statistic weighs the realized tap
spectra unevenly and its exact law is an average of exponential-type bin
energies, so the model's error floor of Q(sqrt(window))/2 never matches the
chain. The companion diagnostic below validates the chain against the exact
per-realization law instead, at the same operating points.
"""
import math
import os
from functools import partial

import numpy as np
import pytest

from backscatter import (ChannelMode, DetectionScales, ThresholdKind, analytic_ber,
                         cancel_interference, compute_scales, dft, draw_channels,
                         equiprobable_threshold, equiprobable_threshold_exact, fold,
                         generator, legacy_window, optimal_threshold, params_at_snr, qfunc,
                         qfunc_approx, substream, sweep, tag_gate)
from backscatter.cli import RunConfig, _csv_lines, run
from chainkit import (chain, circulant, make_params, noise_rx, padded_taps, probe_bin_gains,
                      reader_spectrum)

TRIALS = 100_000
SNR_GRID = [15.0, 18.0, 21.0, 24.0]
W_GRID = [8, 10]
W_AXIS = [2, 4, 8, 16]
Q_APPROX_WORST_ERROR = 0.0065853   # frozen dense-grid bound, see detector tests
# Sweep records are identical for any worker count (criterion 10), so the
# heavy sweeps use every core.
WORKERS = os.cpu_count() or 1

reference_params = partial(make_params, source_power=1.0, trials=TRIALS)


def report(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}"
    print(f"\n{line}")
    return line


def combined_3se(a, b):
    return 3.0 * math.sqrt(a.stderr ** 2 + b.stderr ** 2)


# =====================================================================
# criterion 1: analytic vs empirical BER, fixed realization
# =====================================================================

@pytest.fixture(scope="module")
def fixed_sweep_records():
    params = reference_params()
    return sweep(params, SNR_GRID, W_GRID, [ThresholdKind.OPTIMAL],
                 ChannelMode.FIXED_REALIZATION, np.random.SeedSequence(1), workers=WORKERS)


def test_criterion_01_analytic_empirical_agreement_as_specified(fixed_sweep_records):
    failures = []
    for r in fixed_sweep_records:
        gap = abs(r.empirical_ber - r.analytic_ber)
        bound = 3 * r.stderr
        status = "ok" if gap <= bound else "OUT"
        print(f"  W={r.window:2d} SNR={r.snr_db:4.1f}: empirical={r.empirical_ber:.6f} "
              f"model={r.analytic_ber:.6f} |gap|={gap:.6f} 3*stderr={bound:.6f} [{status}]")
        if gap > bound:
            failures.append((r.window, r.snr_db, gap, bound))
    ok = not failures
    line = report(1, ok, "fixed-realization empirical BER within 3*stderr of the "
                         f"Gaussian-model prediction at all {len(fixed_sweep_records)} points")
    if not ok:
        print("  note: the Gaussian design model floors at Q(sqrt(W))/2 per window "
              "and ignores the realized window lift; see the chain-vs-exact-law "
              "diagnostic, which passes at these same points.")
    assert ok, line + f" ({len(failures)} points out of tolerance)"


def exact_model_ber(params, channels, threshold, n_model=400_000, seed=5150):
    """Per-realization error rate from the exact first-window law.

    Both hypotheses are zero-mean circular complex Gaussians over the first
    ``window`` bins: the silent-tag covariance follows from the folded noise
    variances, the reflecting-tag one adds the probed signal response. The
    statistic's law is then sampled directly, with no Gaussian-statistic or
    flat-spectrum assumption.
    """
    w, n, k = params.window, params.block_len, params.reflect_order
    response = probe_bin_gains(params, channels)[:w]
    signal_cov = params.source_power * (response @ response.conj().T)
    lags = np.arange(w)[:, None] - np.arange(w)[None, :]
    wrap = np.exp(-2j * np.pi * np.outer(lags.ravel(), np.arange(k)) / n)
    noise_cov = 2 * params.noise_power * (n * np.eye(w) + wrap.sum(axis=1).reshape(w, w))
    rng = np.random.default_rng(seed)

    def error_rate(cov, miss_side):
        chol = np.linalg.cholesky(cov)
        draws = (rng.standard_normal((n_model, w))
                 + 1j * rng.standard_normal((n_model, w))) / np.sqrt(2)
        stats = np.mean(np.abs(draws @ chol.T) ** 2, axis=1)
        return np.mean(stats <= threshold) if miss_side else np.mean(stats > threshold)

    p_false = error_rate(noise_cov, miss_side=False)
    p_miss = error_rate(noise_cov + signal_cov, miss_side=True)
    return 0.5 * (p_false + p_miss), math.sqrt(0.25 * (p_false + p_miss) / n_model)


def test_criterion_01_supporting_chain_matches_exact_law(fixed_sweep_records):
    # same operating points, oracle = exact per-realization law of the chain
    root = np.random.SeedSequence(1)
    worst = 0.0
    for idx, r in enumerate(fixed_sweep_records):
        point = substream(root, idx)
        p = params_at_snr(reference_params(window=r.window), r.snr_db)
        channels = draw_channels(p, generator(substream(point, 0)))
        threshold = optimal_threshold(compute_scales(p, channels), r.window)
        oracle, oracle_se = exact_model_ber(p, channels, threshold)
        bound = 3 * math.sqrt(r.stderr ** 2 + oracle_se ** 2) + 1e-12
        gap = abs(r.empirical_ber - oracle)
        worst = max(worst, gap / bound)
        print(f"  W={r.window:2d} SNR={r.snr_db:4.1f}: empirical={r.empirical_ber:.6f} "
              f"exact-law={oracle:.6f} |gap|={gap:.6f} bound={bound:.6f}")
        assert gap <= bound
    line = report(1, True, "diagnostic: chain BER matches the exact per-realization "
                           f"law at all points (worst gap {worst:.2f} of bound)")
    assert worst <= 1.0, line


# =====================================================================
# criterion 2: monotone trends under per-trial redraw
# =====================================================================

def assert_non_increasing(records, label):
    ok = True
    for a, b in zip(records, records[1:]):
        slack = combined_3se(a, b)
        print(f"  {label}: {a.empirical_ber:.6f} -> {b.empirical_ber:.6f} "
              f"(slack {slack:.6f})")
        if b.empirical_ber > a.empirical_ber + slack:
            ok = False
    return ok


def test_criterion_02_monotonicity():
    params = reference_params()
    snr_recs = sweep(params, SNR_GRID, [8], [ThresholdKind.OPTIMAL],
                     ChannelMode.REDRAW_PER_TRIAL, np.random.SeedSequence(21), workers=WORKERS)
    ok_snr = assert_non_increasing(snr_recs, "BER vs SNR @W=8")
    w_recs = sweep(params, [20.0], W_AXIS, [ThresholdKind.OPTIMAL],
                   ChannelMode.REDRAW_PER_TRIAL, np.random.SeedSequence(22), workers=WORKERS)
    ok_w = assert_non_increasing(w_recs, "BER vs W @20dB")
    ok = ok_snr and ok_w
    assert ok, report(2, ok, "empirical BER non-increasing in SNR and in window size")
    report(2, ok, "empirical BER non-increasing in SNR (W=8) and in W (SNR=20dB), "
                  "3*stderr slack, per-trial channel redraw")


# =====================================================================
# criteria 3-4: exact cancellation and legacy transparency
# =====================================================================

def test_criterion_03_cancellation_is_exact():
    params = reference_params()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        _, rx = chain(params, draw_channels(params, rng), 0, rng)
        worst = max(worst, float(np.max(np.abs(cancel_interference(rx, params)))))
    ok = worst == 0.0
    assert ok, report(3, ok, f"silent-tag noiseless residue max |z| = {worst}")
    report(3, ok, "silent-tag noiseless cancellation residue is exactly zero "
                  "over 100 random draws")


def test_criterion_04_legacy_transparency():
    params = reference_params()
    ok = True
    for seed in range(100):
        windows = []
        for bit in (0, 1):
            rng = np.random.default_rng(seed)
            _, rx = chain(params, draw_channels(params, rng), bit, rng,
                          np.random.default_rng(10_000 + seed))
            windows.append(legacy_window(rx, params))
        if not np.array_equal(*windows):
            ok = False
            break
    assert ok, report(4, ok, "legacy window changed with the tag bit")
    report(4, ok, "legacy receiver window is bit-exactly identical for tag bit "
                  "0 vs 1 over 100 draws with shared noise")


# =====================================================================
# criterion 5: fold equals circular convolution
# =====================================================================

def test_criterion_05_fold_is_circular_convolution():
    params = reference_params()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ch = draw_channels(params, rng)
        tagged, rx = chain(params, ch, 1, rng)
        folded = fold(cancel_interference(rx, params), params)
        q = params.max_order
        block = (tag_gate(params, 1).gate * tagged.samples)[q: q + params.block_len]
        oracle = circulant(padded_taps(params.tag_gain * ch.reflect, params.block_len)) @ block
        worst = max(worst, float(np.linalg.norm(folded - oracle)
                                 / np.linalg.norm(oracle)))
    ok = worst <= 1e-10
    assert ok, report(5, ok, f"fold vs circular-convolution relative error {worst:.3g}")
    report(5, ok, f"fold equals the circular-convolution oracle over 100 draws "
                  f"(worst relative error {worst:.2e} <= 1e-10)")


# =====================================================================
# criterion 6: circulant diagonalization by the DFT
# =====================================================================

def test_criterion_06_circulant_diagonalization():
    params = reference_params()
    n = params.block_len
    rng = np.random.default_rng(606)
    worst_diag = 0.0
    worst_mag = 0.0
    for _ in range(100):
        taps = (rng.standard_normal(9) + 1j * rng.standard_normal(9)) / np.sqrt(2)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        col = padded_taps(taps, n)
        lhs = dft(circulant(col) @ x)
        rhs = dft(col) * dft(x)
        worst_diag = max(worst_diag, float(np.linalg.norm(lhs - rhs)
                                           / np.linalg.norm(lhs)))
        row = np.zeros(n, dtype=complex)
        row[0] = taps[0]
        row[-8:] = taps[1:][::-1]
        mags_col = np.sort(np.abs(dft(col)))
        mags_row = np.sort(np.abs(dft(row)))
        worst_mag = max(worst_mag, float(np.max(np.abs(mags_col - mags_row))
                                         / mags_col[-1]))
    ok = worst_diag <= 1e-9 and worst_mag <= 1e-9
    assert ok, report(6, ok, f"diag err {worst_diag:.3g}, magnitude-multiset err {worst_mag:.3g}")
    report(6, ok, f"DFT diagonalizes the tap circulant (worst {worst_diag:.2e}) and "
                  f"row/column spectra share magnitudes (worst {worst_mag:.2e})")


# =====================================================================
# criterion 7: folded-noise power identity
# =====================================================================

def test_criterion_07_noise_power_identity():
    rng = np.random.default_rng(707)
    for _ in range(200):
        ko = int(rng.integers(0, 10))
        q = max(int(rng.integers(0, 10)), ko)
        cp = q + ko + int(rng.integers(ko + 1, 60))
        p = reference_params(cp_len=cp, eff_len=max(cp, 64), direct_order=q,
                             tag_order=0, reflect_order=ko, window=1, trials=1)
        assert 4 * p.reflect_order + 2 * (p.block_len - p.reflect_order) == 2 * p.cancel_len

    params = reference_params()
    trials = 100_000
    noise_rng = np.random.default_rng(771)
    total = 0.0
    for _ in range(trials):
        total += float(np.mean(np.abs(reader_spectrum(params, noise_rx(params, noise_rng))) ** 2))
    mean_energy = total / trials
    want = 2 * params.cancel_len * params.noise_power
    sigma = (np.sqrt(4 * (params.block_len + 3 * params.reflect_order))
             * params.noise_power / np.sqrt(trials))
    gap = abs(mean_energy - want)
    ok = gap < 3 * sigma
    assert ok, report(7, ok, f"noise bin energy {mean_energy:.4f} vs {want} (3sigma {3*sigma:.4f})")
    report(7, ok, f"folded-noise bin energy {mean_energy:.3f} matches "
                  f"2*cancel_len*noise_power = {want} within 3 sigma over 1e5 symbols; "
                  "length identity holds on 200 random geometries")


# =====================================================================
# criterion 8: threshold correctness on a randomized grid
# =====================================================================

def test_criterion_08_threshold_correctness():
    rng = np.random.default_rng(808)
    worst_resid = worst_cross = worst_balance = worst_exact = 0.0
    for _ in range(150):
        floor = float(10.0 ** rng.uniform(-2, 4))
        lift = floor * float(10.0 ** rng.uniform(0, 3))
        window = int(rng.integers(2, 65))
        scales = DetectionScales(signal_lift=lift, noise_floor=floor)
        high = lift + floor
        t_opt = optimal_threshold(scales, window)
        assert floor < t_opt < high
        resid = abs(((t_opt - floor) / floor) ** 2 - ((t_opt - high) / high) ** 2
                    - (2.0 / window) * math.log(high / floor))
        worst_resid = max(worst_resid, resid)

        def density_gap(t, _f=floor, _h=high, _w=window):
            var0, var1 = _f * _f / _w, _h * _h / _w
            return (math.exp(-(t - _f) ** 2 / (2 * var0)) / math.sqrt(var0)
                    - math.exp(-(t - _h) ** 2 / (2 * var1)) / math.sqrt(var1))

        lo, hi = floor, high
        gap_lo = density_gap(lo)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if (density_gap(mid) > 0) == (gap_lo > 0):
                lo, gap_lo = mid, density_gap(mid)
            else:
                hi = mid
        worst_cross = max(worst_cross, abs(t_opt - 0.5 * (lo + hi)) / high)

        t_equ = equiprobable_threshold(scales, window)
        assert floor < t_equ < high
        sw = math.sqrt(window)
        balance = abs(qfunc_approx((t_equ - floor) * sw / floor)
                      - qfunc_approx((high - t_equ) * sw / high))
        worst_balance = max(worst_balance, balance)
        exact_balance = abs(qfunc((t_equ - floor) * sw / floor)
                            - qfunc((high - t_equ) * sw / high))
        worst_exact = max(worst_exact, exact_balance)
        t_ref = equiprobable_threshold_exact(scales, window)
        assert floor < t_ref < high
    ok = (worst_resid <= 1e-9 and worst_cross <= 1e-9
          and worst_balance <= 1e-9 and worst_exact <= Q_APPROX_WORST_ERROR)
    assert ok, report(8, ok, f"resid {worst_resid:.2e} cross {worst_cross:.2e} "
                             f"balance {worst_balance:.2e} exact {worst_exact:.2e}")
    report(8, ok, f"150 random scale/window points: density-equality residual "
                  f"{worst_resid:.1e} <= 1e-9, bisection agreement {worst_cross:.1e}, "
                  f"equal-error balance {worst_balance:.1e} (approx) and "
                  f"{worst_exact:.1e} (exact tail, bound {Q_APPROX_WORST_ERROR})")


# =====================================================================
# criterion 9: no grid threshold beats the optimal one
# =====================================================================

def test_criterion_09_threshold_optimality_on_grid():
    rng = np.random.default_rng(909)
    worst = -1.0
    for _ in range(20):
        floor = float(10.0 ** rng.uniform(-1, 3))
        lift = floor * float(10.0 ** rng.uniform(0.2, 3))
        window = int(rng.integers(2, 33))
        scales = DetectionScales(signal_lift=lift, noise_floor=floor)
        t_opt = optimal_threshold(scales, window)
        best = analytic_ber(t_opt, scales, window)
        grid = np.linspace(floor, lift + floor, 10_000)
        grid_best = min(analytic_ber(float(t), scales, window) for t in grid)
        worst = max(worst, best - grid_best)
    ok = worst <= 1e-10
    assert ok, report(9, ok, f"optimal threshold beaten by {worst:.3g}")
    report(9, ok, f"over 20 scale pairs and 1e4-point grids, no grid threshold "
                  f"improves on the optimal one (worst margin {worst:.2e} <= 1e-10)")


# =====================================================================
# criterion 10: byte-identical determinism, any worker count
# =====================================================================

def test_criterion_10_determinism(tmp_path):
    params = reference_params(trials=2000)
    kinds = [ThresholdKind.OPTIMAL, ThresholdKind.EQUIPROBABLE]
    args = ([12.0, 18.0], [4, 8], kinds, ChannelMode.FIXED_REALIZATION)
    serial = sweep(params, *args, np.random.SeedSequence(1))
    again = sweep(params, *args, np.random.SeedSequence(1))
    forked = sweep(params, *args, np.random.SeedSequence(1), workers=2)
    records_ok = serial == again == forked
    csv_ok = _csv_lines(serial) == _csv_lines(forked)

    cfg = dict(cp_len=64, eff_len=64, direct_order=4, tag_order=4, reflect_order=4,
               trials=500, seed=3, snr_values=[10.0, 14.0], w_values=[4],
               kinds=kinds, mode=ChannelMode.REDRAW_PER_TRIAL)
    run(RunConfig(**cfg, out_path=str(tmp_path / "a.csv")))
    run(RunConfig(**cfg, out_path=str(tmp_path / "b.csv")))
    files_ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    ok = records_ok and csv_ok and files_ok
    assert ok, report(10, ok, f"records_ok={records_ok} csv_ok={csv_ok} files_ok={files_ok}")
    report(10, ok, "sweep reruns are bit-identical for 1 and 2 workers and CSV "
                   "output is byte-identical across reruns")
