"""Scales, tail functions, thresholds and the closed-form error rate."""
import math

import numpy as np
import pytest

from backscatter import (ChannelSet, DegenerateScales, DetectionScales, DomainError,
                         ThresholdKind, analytic_ber, compute_scales, detect,
                         equiprobable_threshold, equiprobable_threshold_exact,
                         optimal_threshold, optimal_threshold_simplified, qfunc,
                         qfunc_approx, threshold_for)
from chainkit import make_params

A, B = 0.416, 0.717


def gaussian_tail_oracle(x, span=14.0, steps=20000):
    """Composite-Simpson integral of the standard normal density on [x, x+span]."""
    h = span / steps
    def f(t):
        return math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    total = f(x) + f(x + span)
    for i in range(1, steps):
        total += f(x + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def pdf(t, mean, var):
    return math.exp(-(t - mean) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)


def bisect(f, lo, hi, iters=200):
    f_lo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f_lo > 0):
            lo = mid
            f_lo = f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_scales(rng):
    floor = float(10.0 ** rng.uniform(-2, 4))
    lift = floor * float(10.0 ** rng.uniform(0, 3))   # detection-feasible ratios
    window = int(rng.integers(2, 65))
    return DetectionScales(signal_lift=lift, noise_floor=floor), window


# ------------------------------------------------------------- scales

def test_noise_floor_from_default_geometry():
    p = make_params()
    ch = ChannelSet(direct=np.ones(9, complex), tag=np.ones(9, complex),
                    reflect=np.ones(9, complex))
    assert compute_scales(p, ch).noise_floor == 2 * 248 * 1.0 == 496.0


def test_zero_gain_kills_the_lift():
    p = make_params(tag_gain=0.0)
    ch = ChannelSet(direct=np.ones(9, complex), tag=np.ones(9, complex),
                    reflect=np.ones(9, complex))
    assert compute_scales(p, ch).signal_lift == 0.0


def test_lift_single_tap_arithmetic():
    # block of 240, |gain|^2 = 1/4, power 4, unit single taps: lift = 240
    p = make_params(cp_len=240, direct_order=0, tag_order=0, reflect_order=0,
                    source_power=4.0)
    assert p.block_len == 240
    ch = ChannelSet(direct=np.ones(1, complex), tag=np.ones(1, complex),
                    reflect=np.ones(1, complex))
    assert compute_scales(p, ch).signal_lift == pytest.approx(240.0, abs=1e-12)


# ------------------------------------------------------------- tail functions

def test_qfunc_at_zero_and_symmetry():
    assert qfunc(0.0) == 0.5
    for x in (-3.0, -0.7, 0.4, 2.5):
        assert qfunc(x) + qfunc(-x) == pytest.approx(1.0, abs=1e-14)
    assert qfunc(1.0) < qfunc(0.5) < qfunc(0.0)


def test_qfunc_against_integration_oracle():
    for x in (0.0, 0.5, 1.2816, 3.0):
        assert qfunc(x) == pytest.approx(gaussian_tail_oracle(x), abs=1e-9)
    assert qfunc(1.2816) == pytest.approx(0.1000, abs=1e-4)


def test_qfunc_approx_values():
    assert qfunc_approx(0.0) == 0.5
    # exp(-0.717 - 0.416)/2, frozen from direct evaluation
    assert qfunc_approx(1.0) == pytest.approx(0.16103280442504, abs=1e-11)
    with pytest.raises(DomainError):
        qfunc_approx(-1e-9)


def test_qfunc_approx_worst_error_bound():
    # dense-grid comparison: the largest deviation from the exact tail on
    # [0, 5] sits near x = 0.393; frozen as a regression bound
    xs = np.arange(0.0, 5.0 + 1e-9, 1e-3)
    worst = max(abs(qfunc_approx(float(x)) - qfunc(float(x))) for x in xs)
    assert worst <= 0.0065853
    assert worst >= 0.0065


# ------------------------------------------------------------- optimal threshold

def test_optimal_threshold_equal_scales_against_bisection():
    scales = DetectionScales(signal_lift=496.0, noise_floor=496.0)
    got = optimal_threshold(scales, 8)
    lift, floor = scales.signal_lift, scales.noise_floor
    high = lift + floor

    def density_gap(t):
        return pdf(t, floor, floor ** 2 / 8) - pdf(t, high, high ** 2 / 8)

    want = bisect(density_gap, floor, high)
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(738.3211895599163, rel=1e-12)  # frozen from the oracle
    assert floor < got < high


def test_optimal_threshold_degenerate():
    with pytest.raises(DegenerateScales):
        optimal_threshold(DetectionScales(signal_lift=0.0, noise_floor=496.0), 8)


def test_optimal_threshold_bracket_and_residual_randomized():
    rng = np.random.default_rng(42)
    for _ in range(200):
        scales, window = random_scales(rng)
        lift, floor = scales.signal_lift, scales.noise_floor
        high = lift + floor
        t = optimal_threshold(scales, window)
        assert floor < t < high
        residual = (((t - floor) / floor) ** 2 - ((t - high) / high) ** 2
                    - (2.0 / window) * math.log(high / floor))
        assert abs(residual) <= 1e-9


def test_optimal_threshold_escapes_bracket_for_tiny_lift():
    # when the lift is below roughly 2 floor / window the density crossing
    # moves past the high mean; the root is still the true equality point
    scales = DetectionScales(signal_lift=49.6, noise_floor=496.0)
    t = optimal_threshold(scales, 8)
    high = scales.signal_lift + scales.noise_floor
    assert t > high
    gap = (pdf(t, scales.noise_floor, scales.noise_floor ** 2 / 8)
           - pdf(t, high, high ** 2 / 8))
    assert abs(gap) < 1e-12


def test_simplified_form_disagrees_and_tracks_balance_point():
    # the unit-inconsistent closed form lands at the equal-error point instead
    scales = DetectionScales(signal_lift=496.0, noise_floor=496.0)
    simplified = optimal_threshold_simplified(scales, 8)
    exact = optimal_threshold(scales, 8)
    assert abs(simplified - exact) > 70.0
    assert simplified == pytest.approx(equiprobable_threshold(scales, 8), rel=1e-9)


# ------------------------------------------------------------- equiprobable threshold

def test_equiprobable_coefficients_and_root():
    lift = floor = 496.0
    window = 8
    got = equiprobable_threshold(DetectionScales(lift, floor), window)
    # direct evaluation of the quadratic coefficients
    sw = math.sqrt(window)
    c0 = A * sw * (lift ** 2 + 2 * lift * floor) / (floor * (lift + floor))
    c1 = B * (lift + 2 * floor) - 2 * A * sw * lift
    c2 = -2 * B * floor * (lift + floor)
    want = (-c1 + math.sqrt(c1 * c1 - 4 * c0 * c2)) / (2 * c0)
    assert got == pytest.approx(want, rel=1e-12)
    assert c0 > 0 and c2 < 0
    # independent algebra: matching the approximate tails forces equal
    # arguments, whose solution is 2 floor (lift+floor) / (lift + 2 floor)
    assert got == pytest.approx(2 * floor * (lift + floor) / (lift + 2 * floor), rel=1e-9)


def test_equiprobable_balances_approximate_tails():
    rng = np.random.default_rng(43)
    for _ in range(100):
        scales, window = random_scales(rng)
        lift, floor = scales.signal_lift, scales.noise_floor
        high = lift + floor
        t = equiprobable_threshold(scales, window)
        assert floor < t < high
        sw = math.sqrt(window)
        p0 = qfunc_approx((t - floor) * sw / floor)
        p1 = qfunc_approx((high - t) * sw / high)
        assert abs(p0 - p1) <= 1e-9


def test_equiprobable_exact_reference():
    rng = np.random.default_rng(44)
    for _ in range(50):
        scales, window = random_scales(rng)
        lift, floor = scales.signal_lift, scales.noise_floor
        high = lift + floor
        t = equiprobable_threshold_exact(scales, window)
        sw = math.sqrt(window)
        p0 = qfunc((t - floor) * sw / floor)
        p1 = qfunc((high - t) * sw / high)
        assert abs(p0 - p1) <= 1e-12
        # the closed form is the exact balance point, whatever the window
        closed = equiprobable_threshold(scales, window)
        assert closed == pytest.approx(t, rel=1e-12)
        assert all(equiprobable_threshold(scales, w) == closed for w in (1, 8, 64))
    # both closed forms stay finite and bracketed out to extreme ratios
    for floor in (1e-3, 496.0, 1e6):
        for ratio in np.logspace(1, 300, 61):
            scales = DetectionScales(float(ratio) * floor, floor)
            high = scales.signal_lift + floor
            for window in (1, 8, 64):
                for t in (optimal_threshold(scales, window),
                          equiprobable_threshold(scales, window)):
                    assert math.isfinite(t) and floor < t < high


def test_equiprobable_closed_form_error_within_approximation_bound():
    # under the exact tail, the closed-form root misbalances by at most
    # twice the worst tail-approximation error (one per side)
    rng = np.random.default_rng(45)
    for _ in range(100):
        scales, window = random_scales(rng)
        lift, floor = scales.signal_lift, scales.noise_floor
        high = lift + floor
        t = equiprobable_threshold(scales, window)
        sw = math.sqrt(window)
        p0 = qfunc((t - floor) * sw / floor)
        p1 = qfunc((high - t) * sw / high)
        assert abs(p0 - p1) <= 2 * 0.0065853


def test_equiprobable_degenerate():
    with pytest.raises(DegenerateScales):
        equiprobable_threshold(DetectionScales(0.0, 496.0), 8)


def test_thresholds_at_vanishing_lift():
    # as lift/floor -> 0 the density crossing tends to floor (1 + sqrt(1 + 4/W)) / 2
    # and the equal-error point to floor, down to subnormal ratios
    floor = 496.0
    for ratio in (1e-12, 1e-300, 1e-317):
        scales = DetectionScales(ratio * floor, floor)
        for window in (1, 8, 64):
            limit = floor * (1.0 + math.sqrt(1.0 + 4.0 / window)) / 2.0
            assert optimal_threshold(scales, window) == pytest.approx(limit, rel=1e-9)
            assert equiprobable_threshold(scales, window) == pytest.approx(floor, rel=1e-9)
    with pytest.raises(DegenerateScales):       # the ratio underflows to zero
        optimal_threshold(DetectionScales(1e-300, 1e30), 8)


def analytic_ber_at_one(scales, window):
    """analytic_ber of the threshold 1.0, shaped like a threshold function."""
    return analytic_ber(1.0, scales, window)


@pytest.mark.parametrize("lift,floor,name", [
    (496.0, math.inf, "noise_floor"),
    (math.inf, 496.0, "signal_lift"),
    (1e300, 1e-10, "signal_lift"),      # finite scales, infinite lift/floor
    (1.5e308, 1e308, "signal_lift"),    # finite ratio, infinite high mean
])
def test_thresholds_reject_overflowing_scales(lift, floor, name):
    for threshold in (optimal_threshold, equiprobable_threshold, equiprobable_threshold_exact,
                      analytic_ber_at_one):
        with pytest.raises(ValueError, match=name) as exc:
            threshold(DetectionScales(lift, floor), 8)
        assert exc.type is ValueError


@pytest.mark.parametrize("threshold", [optimal_threshold, optimal_threshold_simplified,
                                       equiprobable_threshold, equiprobable_threshold_exact,
                                       analytic_ber_at_one])
def test_thresholds_reject_window_zero(threshold):
    with pytest.raises(ValueError, match="window") as exc:
        threshold(DetectionScales(496.0, 496.0), 0)
    assert exc.type is ValueError


# ------------------------------------------------------------- decision and BER

def test_detect_rule_and_tie_break():
    assert detect(99.999, 100.0) == 0
    assert detect(100.001, 100.0) == 1
    assert detect(100.0, 100.0) == 0


def test_threshold_for_dispatch():
    scales = DetectionScales(496.0, 496.0)
    assert threshold_for(ThresholdKind.OPTIMAL, scales, 8) == optimal_threshold(scales, 8)
    assert threshold_for(ThresholdKind.EQUIPROBABLE, scales, 8) == equiprobable_threshold(scales, 8)


def test_analytic_ber_limits_and_value():
    scales = DetectionScales(496.0, 496.0)
    assert analytic_ber(1e12, scales, 8) == pytest.approx(0.5, abs=1e-12)
    # threshold at the noise floor, frozen from direct tail evaluation
    assert analytic_ber(496.0, scales, 8) == pytest.approx(0.28932480176257, abs=1e-9)
    assert analytic_ber(496.0, scales, 8) == pytest.approx(0.2887, abs=1e-3)
    with pytest.raises(DegenerateScales):       # no lift: both hypotheses coincide
        analytic_ber(496.0, DetectionScales(0.0, 496.0), 8)


def test_analytic_ber_bounded():
    rng = np.random.default_rng(46)
    for _ in range(100):
        scales, window = random_scales(rng)
        t = float(rng.uniform(0, 3 * (scales.signal_lift + scales.noise_floor)))
        ber = analytic_ber(t, scales, window)
        assert 0.0 <= ber <= 1.0


def test_optimal_threshold_minimizes_analytic_ber():
    rng = np.random.default_rng(47)
    for _ in range(20):
        scales, window = random_scales(rng)
        floor, high = scales.noise_floor, scales.signal_lift + scales.noise_floor
        t_opt = optimal_threshold(scales, window)
        best = analytic_ber(t_opt, scales, window)
        grid = np.linspace(floor, high, 2001)
        values = [analytic_ber(float(t), scales, window) for t in grid]
        assert min(values) >= best - 1e-12


def test_analytic_ber_monotone_in_lift_and_window():
    floor = 496.0
    for window in (2, 8, 32):
        previous = 1.0
        for ratio in np.logspace(0, 3, 13):
            scales = DetectionScales(ratio * floor, floor)
            ber = analytic_ber(optimal_threshold(scales, window), scales, window)
            assert ber <= previous + 1e-12
            previous = ber
    for ratio in (2.0, 10.0, 100.0):
        scales = DetectionScales(ratio * floor, floor)
        previous = 1.0
        for window in (1, 2, 4, 8, 16, 32, 64):
            ber = analytic_ber(optimal_threshold(scales, window), scales, window)
            assert ber <= previous + 1e-12
            previous = ber
