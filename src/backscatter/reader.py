"""Reader-side processing: cancellation, fold to circular, DFT, energy statistic.

Subtracting the late-body window from the prefix window nulls the direct
path exactly (the prefix is a verbatim copy, so the direct-path filter sees
identical inputs at both offsets) and leaves the gated reflection plus a
noise difference. Folding the convolution tail onto the head turns the
linear tap convolution into a circular one, which the DFT diagonalizes.
"""
from __future__ import annotations

import numpy as np

from .core import FrameOrigin, SymbolFrame, SystemParams


def cancel_interference(frame: SymbolFrame, params: SystemParams) -> np.ndarray:
    """Prefix window minus late-body window; ``cancel_len`` samples.

    Entry ``n`` is ``y[n + max_order] - y[n + eff_len + max_order]``.
    """
    if frame.origin is not FrameOrigin.READER_RX:
        raise ValueError(f"expected a reader frame, got {frame.origin}")
    y = frame.samples
    q, c, n = params.max_order, params.cp_len, params.eff_len
    return y[q:c] - y[n + q: n + c]


def fold(cancelled: np.ndarray, params: SystemParams) -> np.ndarray:
    """Wrap the ``reflect_order`` tail samples onto the head; ``block_len`` samples.

    This is the usual linear-to-circular identity: the tail of a linear
    convolution with a ``reflect_order + 1``-tap filter is exactly what a
    circular convolution would have added at the start.
    """
    if len(cancelled) != params.cancel_len:
        raise ValueError(f"expected {params.cancel_len} samples, got {len(cancelled)}")
    k, r1 = params.reflect_order, params.block_len
    folded = cancelled[:r1].astype(complex, copy=True)
    folded[:k] += cancelled[r1:]
    return folded


def dft(v: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT, kernel exp(-j 2 pi p q / n).

    Any length is valid, including primes. Satisfies
    ``sum |dft(v)|^2 == n * sum |v|^2``.
    """
    return np.fft.fft(v)


def energy_statistics(spectrum: np.ndarray, window: int) -> np.ndarray:
    """Mean squared magnitude over consecutive groups of ``window`` bins.

    Groups start at bin 0 and do not overlap; leftover bins past the last
    full group are discarded. Returns ``len(spectrum) // window`` values.
    """
    if not 1 <= window <= len(spectrum):
        raise ValueError(f"window must satisfy 1 <= window <= {len(spectrum)}, got {window}")
    groups = len(spectrum) // window
    energy = np.abs(spectrum[: groups * window]) ** 2
    return np.add.reduce(energy.reshape(groups, window), axis=1) / window
