"""Correctness check of sweep BERs against the per-trial reference chain.

Each checked point is re-estimated with ``run_trial`` (the library's
reference chain) on trial streams rooted at a different entropy than the
sweep's, so the two estimates share no trial randomness. Fixed-mode points
reuse the sweep's own channel realization (``substream(point, 0)``), because
their BER is conditional on it; the re-derived realization must reproduce the
record's Gaussian-model value, which shows it is the sweep's. The Gaussian
``analytic_ber`` is never used as the reference: it is off by up to 150x on a
single realization.

The two error counts are compared with Fisher's exact two-sided test, which
is valid for zero counts. The per-point level is ``RUN_FALSE_ALARM / points``
(Bonferroni), so a correct engine fails a run's check with probability at
most ``RUN_FALSE_ALARM``.
"""
from __future__ import annotations

import math

from workloads import Point, Workload, base_params, grid

RUN_FALSE_ALARM = 1e-4
ORACLE_SALT = 0x0AC1E  # second entropy word; the sweep's root entropy is the bare seed


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_exact(k1: int, n1: int, k2: int, n2: int) -> float:
    """Two-sided p-value of equal error rates for k1/n1 against k2/n2.

    Sums the hypergeometric probabilities of every table with the same margins
    that is no more likely than the observed one.
    """
    k = k1 + k2
    lo, hi = max(0, k - n2), min(k, n1)
    logp = [_log_choose(n1, x) + _log_choose(n2, k - x) for x in range(lo, hi + 1)]
    top = max(logp)
    weights = [math.exp(v - top) for v in logp]
    observed = weights[k1 - lo] * (1.0 + 1e-7)
    return min(1.0, sum(w for w in weights if w <= observed) / sum(weights))


def reference_errors(bs, params, kind: str, mode: str, snr: float, point_seq, oracle_seq,
                     trials: int) -> tuple[int, float | None]:
    """Errors of the reference chain at one point, and its Gaussian-model value in fixed mode."""
    p = bs.params_at_snr(params, snr)
    kind_enum = bs.ThresholdKind(kind)
    analytic = channels = threshold = None
    if mode == "fixed":
        channels = bs.draw_channels(p, bs.generator(bs.substream(point_seq, 0)))
        scales = bs.compute_scales(p, channels)
        threshold = bs.threshold_for(kind_enum, scales, p.window)
        analytic = bs.analytic_ber(threshold, scales, p.window)
    errors = 0
    for t in range(trials):
        rng = bs.generator(bs.substream(oracle_seq, t))
        bit = int(rng.integers(0, 2))
        if mode == "redraw":
            channels = bs.draw_channels(p, rng)
            threshold = bs.threshold_for(kind_enum, bs.compute_scales(p, channels), p.window)
        errors += bs.run_trial(p, channels, bit, threshold, rng).decided_bit != bit
    return errors, analytic


def check(bs, wl: Workload, seed: int, points: list[Point]) -> dict[int, str]:
    """Failure reason per point index of a sweep run at ``seed``; empty when all pass."""
    import numpy as np

    expected = grid(wl)
    if len(points) != len(expected):
        return {i: f"sweep returned {len(points)} points, grid has {len(expected)}"
                for i in range(len(expected))}
    root = np.random.SeedSequence(seed)
    oracle_root = np.random.SeedSequence([seed, ORACLE_SALT])
    alpha = RUN_FALSE_ALARM / len(points)
    n_ref = wl.oracle_trials
    failures = {}
    for idx, (pt, (snr, w, kind)) in enumerate(zip(points, expected)):
        if (pt.window, pt.kind, pt.mode) != (w, kind, wl.mode) or abs(pt.snr_db - snr) > 1e-9:
            failures[idx] = f"point {idx} is {pt}, expected snr={snr} w={w} kind={kind}"
            continue
        params = base_params(bs, wl, seed, window=w)
        errors, analytic = reference_errors(bs, params, kind, wl.mode, snr,
                                            bs.substream(root, idx),
                                            bs.substream(oracle_root, idx), n_ref)
        recorded = math.nan if pt.analytic is None else pt.analytic
        if analytic is not None and not math.isclose(analytic, recorded, rel_tol=1e-6,
                                                      abs_tol=1e-12):
            failures[idx] = (f"W={w} SNR={snr} {kind}: realization differs from the sweep's "
                             f"(analytic {pt.analytic} vs {analytic})")
            continue
        pval = fisher_exact(pt.errors, pt.trials, errors, n_ref)
        if pval < alpha:
            failures[idx] = (f"W={w} SNR={snr} {kind}: sweep {pt.errors}/{pt.trials} vs "
                             f"reference {errors}/{n_ref}, p={pval:.3g} < {alpha:.3g}")
    return failures
