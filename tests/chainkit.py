"""The tests' one copy of the parameter builders, the per-trial chain
``source -> tag_input -> tag_gate(bit) -> synth_reader_rx``, the oracles
built on them and the trial-by-trial replay of a redraw block's draws. A test
module that needs other defaults binds them in one line.
"""
import numpy as np

from backscatter import (FrameOrigin, SymbolFrame, cancel_interference, derive_params, dft,
                         fold, gen_source_symbol, substream, synth_reader_rx, tag_gate,
                         tag_input)
from backscatter.core import complex_normal
from backscatter.detector import _tap_energy, energy_scales, threshold_for
from backscatter.exact import sigma0_eigenvalues, sigma1

REFERENCE = dict(cp_len=256, eff_len=1024, direct_order=8, tag_order=8, reflect_order=8,
                 tag_gain=0.5, noise_power=1.0, source_power=2.0, window=8, trials=100)
# 128-sample frames, a short geometry beside the reference one.
SHORT = dict(cp_len=64, eff_len=64, direct_order=4, tag_order=4, reflect_order=4, window=4)
# tag_order 12 > block_len 6: lags d >= block_len never reach the window.
LONG_TAG = dict(cp_len=20, eff_len=64, direct_order=0, tag_order=12, reflect_order=2, window=4)
# Geometries, each with windows at both ends of its range (and W=10 off a power of two),
# over which each row of a stack's bit-1 form must be that of the row's own Sigma_1, and
# a fixed sweep must give each cell what the cell's point gets alone.
WINDOW_RANGES = {"reference": ({}, (1, 8, 10, 64)), "short": (SHORT, (2, 16, 56)),
                   "long-tag": (LONG_TAG, (1, 4, 6))}


def config(**over):
    """The reference configuration map with ``over`` applied."""
    return {**REFERENCE, **over}


def make_params(**over):
    return derive_params(config(**over))


def source_frame(p, body):
    """Source frame of ``body`` behind its verbatim cyclic prefix."""
    return SymbolFrame(np.concatenate([body[p.eff_len - p.cp_len:], body]), FrameOrigin.SOURCE)


def chain(p, channels, bit, src_rng, noise_rng=None):
    """One symbol to the reader, ``(tag input, reader frame)``; no noise if ``noise_rng``
    is None. With ``noise_rng=src_rng`` it draws exactly what ``run_trial`` draws.
    """
    src = gen_source_symbol(p, src_rng)
    tagged = tag_input(src, channels.tag)
    return tagged, synth_reader_rx(src, tagged, tag_gate(p, bit), channels, p, noise_rng)


def reader_spectrum(p, rx):
    """Cancel, fold and DFT: the ``block_len`` bins the statistic reads."""
    return dft(fold(cancel_interference(rx, p), p))


def noise_rx(p, rng):
    """Noise-only reader frame; all real parts are drawn before the imaginary ones."""
    n = p.cp_len + p.eff_len
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(p.noise_power / 2)
    return SymbolFrame(samples=noise, origin=FrameOrigin.READER_RX)


def probe_bin_gains(p, channels):
    """Bit-1 response of each spectrum bin to each of the last ``cp_len`` body samples.

    The chain after the source frame is linear for a fixed bit, so one probe
    per body sample gives the exact ``block_len x cp_len`` map. Only body
    samples that are copied into the prefix reach the cancelled block.
    """
    gate = tag_gate(p, 1)
    gains = np.zeros((p.block_len, p.cp_len), dtype=complex)
    for k, j in enumerate(range(p.eff_len - p.cp_len, p.eff_len)):
        body = np.zeros(p.eff_len, dtype=complex)
        body[j] = 1.0
        src = source_frame(p, body)
        rx = synth_reader_rx(src, tag_input(src, channels.tag), gate, channels, p, rng=None)
        gains[:, k] = reader_spectrum(p, rx)
    return gains


def padded_taps(taps, n):
    """Tap vector zero-padded to length ``n`` (a circulant's first column)."""
    out = np.zeros(n, dtype=complex)
    out[: len(taps)] = taps
    return out


def circulant(col):
    """Circulant matrix with first column ``col``: entry (i, j) is ``col[(i - j) % n]``."""
    n = len(col)
    return col[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


def redraw_trials(q, point, block, n):
    """Block ``block`` of ``n`` trials of a redraw point, replayed trial by trial in the
    documented layout: the block's SFC64 generator on substream(point, 1, block) draws its
    bits, then its bit-0 trials' tag energies and reflect energies (standard gammas of
    shape tag_order + 1 and reflect_order + 1) and their window standard exponentials E,
    then its bit-1 trials' tag then reflect taps and their window normals u of power
    1 / window. Per trial, in trial order: ``(bit, tag_energy, reflect_energy, x)``, with
    ``x`` its E for bit 0 and its ``(tag, reflect, u)`` for bit 1.
    """
    w, width, taps_per_trial = q.window, q.tag_order + 1, q.tag_order + q.reflect_order + 2
    rng = np.random.Generator(np.random.SFC64(substream(point, 1, block)))
    bits = rng.integers(0, 2, n)
    m = int(bits.sum())
    zeros = zip(rng.standard_gamma(width, n - m).tolist(),
                rng.standard_gamma(q.reflect_order + 1, n - m).tolist(),
                rng.standard_exponential((n - m, w)))
    taps = complex_normal(rng, m * taps_per_trial, 1.0).reshape(m, taps_per_trial)
    normals = complex_normal(rng, m * w, 1.0 / w).reshape(m, w)
    ones = ((row[:width], row[width:], u) for row, u in zip(taps, normals))
    trials = []
    for bit in bits.tolist():
        if bit:
            tag, reflect, u = next(ones)
            trials.append((1, float(_tap_energy(tag)), float(_tap_energy(reflect)),
                           (tag, reflect, u)))
        else:
            trials.append((0, *next(zeros)))
    return trials


def replayed_errors(q, kind, point, block, n):
    """Errors of block ``block`` of ``n`` trials of a redraw point, replayed trial by trial
    on the scalar path (:func:`redraw_trials`): a bit-0 trial errs when ``E . lambda_0``,
    the eigenvalues of Sigma_0 over window, exceeds the threshold of its two tap energies
    over the noise floor, and a bit-1 trial when ``Re(u^H Sigma_1 u)`` does not.
    """
    lam0 = sigma0_eigenvalues(q) / q.window
    errors = 0
    for bit, tag_energy, reflect_energy, x in redraw_trials(q, point, block, n):
        scales = energy_scales(q, tag_energy, reflect_energy)
        th = threshold_for(kind, scales, q.window) / scales.noise_floor
        if bit:
            tag, reflect, u = x
            errors += np.vdot(u, sigma1(q, tag, reflect) @ u).real <= th
        else:
            errors += np.dot(x, lam0) > th
    return int(errors)
