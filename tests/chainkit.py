"""The tests' one copy of the parameter builders, the per-trial chain
``source -> tag_input -> tag_gate(bit) -> synth_reader_rx`` and the oracles
built on them. A test module that needs other defaults binds them in one line.
"""
import numpy as np

from backscatter import (FrameOrigin, SymbolFrame, cancel_interference, derive_params, dft,
                         fold, gen_source_symbol, synth_reader_rx, tag_gate, tag_input)

REFERENCE = dict(cp_len=256, eff_len=1024, direct_order=8, tag_order=8, reflect_order=8,
                 tag_gain=0.5, noise_power=1.0, source_power=2.0, window=8, trials=100)
# 128-sample frames: their convolutions stay below the real-part split.
SHORT = dict(cp_len=64, eff_len=64, direct_order=4, tag_order=4, reflect_order=4, window=4)


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
