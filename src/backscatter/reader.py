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


def energy_statistics(spectrum: np.ndarray, window: int) -> float:
    """Mean squared magnitude of the first ``window`` bins.

    Each square is divided by ``window`` before the sum, so the sum cannot
    overflow where the mean is finite; for a power-of-two window the division
    is exact and the result equals the sum divided by ``window``.
    """
    if not 1 <= window <= len(spectrum):
        raise ValueError(f"window must satisfy 1 <= window <= {len(spectrum)}, got {window}")
    return float(np.add.reduce(np.abs(spectrum[:window]) ** 2 / window))
