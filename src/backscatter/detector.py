"""Detection scales, thresholds, the decision rule and the closed-form BER.

The decision statistic for each hypothesis is modelled as Gaussian,
``N(noise_floor, noise_floor^2 / window)`` when the tag is silent and
``N(lift + floor, (lift + floor)^2 / window)`` when it reflects. Both
thresholds are genie-aided closed forms in the exact scales of the true
channel realization; the equal-error one, the harmonic mean of the two
hypothesis means, does not depend on the window. The scales, their check and
both thresholds also take an array of per-trial lifts, each element giving
bit for bit what it gives alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ChannelSet, SystemParams

# One-sided Gaussian-tail approximation exp(-b x - a x^2) / 2.
Q_APPROX_A = 0.416
Q_APPROX_B = 0.717


class DegenerateScales(ValueError):
    """Both hypotheses coincide (no energy lift); no threshold exists."""


class DomainError(ValueError):
    """Argument outside the domain of a one-sided approximation."""


@dataclass(frozen=True)
class DetectionScales:
    """Mean statistic levels of the two hypotheses, in linear power units.

    ``noise_floor`` is the silent-tag mean; ``signal_lift`` is the extra mean
    energy a reflecting tag adds on top of it (or an array of per-trial lifts).
    """

    signal_lift: float | np.ndarray
    noise_floor: float


class ThresholdKind(Enum):
    OPTIMAL = "optimal"
    EQUIPROBABLE = "equiprobable"


def _tap_energy(taps: np.ndarray) -> np.ndarray:
    """``sum |taps|^2`` over a contiguous last axis, one per stacked row: a float view's dot."""
    x = np.asarray(taps, dtype=complex).view(np.float64)
    return np.einsum("...i,...i->...", x, x)


def compute_scales(params: SystemParams, channels: ChannelSet) -> DetectionScales:
    """Scales for a known channel realization; see :func:`energy_scales`."""
    return energy_scales(params, float(_tap_energy(channels.tag)),
                         float(_tap_energy(channels.reflect)))


def energy_scales(params: SystemParams, tag_energy: float,
                  reflect_energy: float) -> DetectionScales:
    """Scales for tag and reflect taps of the given total energies ``sum|taps|^2``,
    one pair or arrays of one pair per trial.

    lift  = block_len * |tag_gain|^2 * source_power * tag_energy * reflect_energy
    floor = 2 * cancel_len * noise_power

    The floor doubles the per-sample noise power because cancellation
    subtracts two independent noisy windows, and counts ``cancel_len``
    samples because folding conserves total noise energy.
    """
    lift = (params.block_len * abs(params.tag_gain) ** 2 * params.source_power
            * tag_energy * reflect_energy)
    floor = 2.0 * params.cancel_len * params.noise_power
    return DetectionScales(signal_lift=lift, noise_floor=floor)


def qfunc(x: float) -> float:
    """Gaussian tail probability, exact via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def qfunc_approx(x: float) -> float:
    """Exponential upper-tail approximation, valid for x >= 0 only."""
    if x < 0:
        raise DomainError(f"qfunc_approx requires x >= 0, got {x}")
    return math.exp(-Q_APPROX_B * x - Q_APPROX_A * x * x) / 2.0


def _check_scales(scales: DetectionScales, window: int) -> tuple[float, float]:
    """The (lift, floor) of valid scales for a threshold or BER at ``window``.

    Of an array of lifts, the first invalid one raises what it raises alone; a scalar
    lift and its floor come back as Python floats.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    lift, floor = scales.signal_lift, scales.noise_floor
    if not 0 < floor < math.inf:
        raise ValueError(f"noise_floor must be finite and > 0, got {floor}")
    if getattr(lift, "ndim", 0):
        with np.errstate(over="ignore"):
            r = lift / floor
            ok = (r > 0) & (r < math.inf) & (lift + floor < math.inf)
        if ok.all():
            return lift, floor
        lift = lift.ravel()[ok.argmin()].item()     # the first bad lift
    else:   # as Python floats, which overflow to inf without numpy's scalar dispatch and warnings
        lift, floor = float(lift), float(floor)
        if 0 < lift / floor < math.inf and lift + floor < math.inf:
            return lift, floor
    if not lift / floor > 0:
        raise DegenerateScales(f"signal_lift must be > 0 against noise_floor={floor}, "
                               f"got {lift}")
    raise ValueError(f"signal_lift={lift} over noise_floor={floor} overflows")


def optimal_threshold(scales: DetectionScales, window: int) -> float:
    """Statistic level where the two hypothesis densities are equal.

    Solves
        ((t - floor)/floor)^2 - ((t - lift - floor)/(lift + floor))^2
            = (2/window) * ln((lift + floor)/floor)
    for its unique positive root, in ``r = lift/floor`` so that no product of
    the scales can overflow. When the lift dominates the floor the root lies
    strictly between the two hypothesis means; for very small
    lift-to-floor ratios (below roughly ``2/window``) the density crossing
    moves above the high mean, which is the correct equality point even
    though it leaves the bracket.
    """
    lift, floor = _check_scales(scales, window)
    # lg / r stays near 1 where 2 / r would overflow; numpy's log1p on Python floats too,
    # since math's can differ from it in the last bit, so per-trial arrays give the scalar
    # path's thresholds bit for bit
    r = lift / floor
    if isinstance(r, np.ndarray):
        lg = np.log1p(r)
        with np.errstate(over="ignore"):        # a floor near the largest double gives inf
            return (floor * ((1.0 + r) / (2.0 + r))
                    * (1.0 + np.sqrt(1.0 + 2.0 / window * (lg + 2.0 * (lg / r)))))
    lg = float(np.log1p(r))
    return (floor * ((1.0 + r) / (2.0 + r))
            * (1.0 + math.sqrt(1.0 + 2.0 / window * (lg + 2.0 * (lg / r)))))


def optimal_threshold_simplified(scales: DetectionScales, window: int) -> float:
    """Simplified closed form that adds the log term under the radical.

    The term added to the squared mean product is dimensionless, so the
    expression is not unit-consistent and is kept for comparison only: for
    any realistic scale it collapses towards ``2*floor*high/(lift+2*floor)``,
    the equal-error-probability point, rather than the density-equality root.
    """
    lift, floor = _check_scales(scales, window)
    high = lift + floor
    logratio = math.log1p(lift / floor)
    radicand = (floor * high) ** 2 + (2.0 + 4.0 * floor / lift) * logratio / window
    return (floor * high + math.sqrt(radicand)) / (lift + 2.0 * floor)


def equiprobable_threshold(scales: DetectionScales, window: int) -> float:
    """Threshold equalizing the two error probabilities, for any window.

    Both error tails are one decreasing function (exact or approximated) of
    ``(t - floor) sqrt(window)/floor`` and ``(high - t) sqrt(window)/high``, so
    they are equal where those agree: at ``2 floor high / (floor + high)``, the
    harmonic mean of the two hypothesis means, here in ``r = lift/floor``.
    """
    lift, floor = _check_scales(scales, window)
    r = lift / floor
    return floor * ((1.0 + r) / (1.0 + 0.5 * r))


def equiprobable_threshold_exact(scales: DetectionScales, window: int) -> float:
    """Reference equal-error threshold from the exact tail, by bisection.

    The miss probability rises and the false-alarm probability falls as the
    threshold sweeps from the low mean to the high one, so their difference
    has a single sign change inside that bracket.
    """
    lift, floor = _check_scales(scales, window)
    high = lift + floor
    sw = math.sqrt(window)

    def balance(t: float) -> float:
        return qfunc((t - floor) * sw / floor) - qfunc((high - t) * sw / high)

    lo, hi = floor, high
    f_lo = balance(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = balance(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_for(kind: ThresholdKind, scales: DetectionScales, window: int) -> float:
    if kind is ThresholdKind.OPTIMAL:
        return optimal_threshold(scales, window)
    return equiprobable_threshold(scales, window)


def detect(statistic: float, threshold: float) -> int:
    """1 when the statistic exceeds the threshold, else 0; ties resolve to 0."""
    return 1 if statistic > threshold else 0


def analytic_ber(threshold: float, scales: DetectionScales, window: int) -> float:
    """Error probability of the threshold rule under the Gaussian model.

    Equiprobable bits: half the false-alarm probability plus half the miss
    probability,
        1/2 + Q((t - floor) sqrt(W)/floor)/2 - Q((t - high) sqrt(W)/high)/2.
    """
    lift, floor = _check_scales(scales, window)
    high = lift + floor
    sw = math.sqrt(window)
    return (0.5 + 0.5 * qfunc((threshold - floor) * sw / floor)
            - 0.5 * qfunc((threshold - high) * sw / high))
