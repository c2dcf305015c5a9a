"""The exact law of the first-window bins for one channel realization.

For a fixed bit and channel realization, the first ``window`` DFT bins that
the statistic reads are a linear map of two white inputs: the last
``cp_len`` body samples ``s`` (power ``source_power``), the only source
samples that reach the cancelled block, and the cancelled noise ``d``
(``cancel_len`` samples of power ``2 * noise_power``):

    z = bit * R s + G d,

with ``R = tag_gain * diag(H_r) F_W T_tag`` (:func:`response`) and
``G = [F_W, F_W[:, :reflect_order]]`` (:func:`noise_map`). Here ``F_W`` is
the first ``window`` rows of the ``block_len``-point DFT, ``H_r`` the reflect
taps' DFT on those bins and ``T_tag[j, l] = tag[max_order + j - l]`` the tag
filter on the gate's interval. Both inputs are circular Gaussians, so z is
exactly ``CN(0, Sigma_bit)`` with

    Sigma_0 = 2 noise_power G G^H,    Sigma_1 = Sigma_0 + source_power R R^H.

:func:`sigma0` and :func:`sigma1` return these in units of the noise floor
``2 * cancel_len * noise_power``, the silent-tag mean of the statistic, so
no power scale enters a matrix product. ``sigma1`` builds ``R R^H`` in lag
form, ``|tag_gain|^2 diag(H_r) (sum_d rho(d) M_d) diag(H_r)^H``, from the
tag's autocorrelation ``rho`` and the fixed matrices ``M_d = F_W J_d F_W^H``
(``J_d`` the shift by ``d``), without forming ``R``.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import ChannelSet, SystemParams


@lru_cache(maxsize=8)
def _dft_rows(block_len: int, window: int) -> np.ndarray:
    """``F_W``, read-only: the first ``window`` rows of the ``block_len``-point DFT."""
    f = np.exp(-2j * np.pi * np.outer(np.arange(window), np.arange(block_len)) / block_len)
    f.setflags(write=False)
    return f


def noise_map(params: SystemParams) -> np.ndarray:
    """``G``, the ``window x cancel_len`` map from the cancelled noise to the bins.

    Folding adds the last ``reflect_order`` cancelled samples onto the first.
    """
    f = _dft_rows(params.block_len, params.window)
    return np.concatenate([f, f[:, :params.reflect_order]], axis=1)


def response(params: SystemParams, channels: ChannelSet) -> np.ndarray:
    """``R``, the ``window x cp_len`` bit-1 map from the last ``cp_len`` body samples."""
    n, q = params.block_len, params.max_order
    lag = q + np.arange(n)[:, None] - np.arange(params.cp_len)[None, :]
    inside = (lag >= 0) & (lag < len(channels.tag))
    t_tag = np.where(inside, channels.tag[np.clip(lag, 0, len(channels.tag) - 1)], 0)
    f = _dft_rows(n, params.window)
    h_r = f[:, :len(channels.reflect)] @ channels.reflect
    return params.tag_gain * (h_r[:, None] * (f @ t_tag))


def sigma0(params: SystemParams) -> np.ndarray:
    """``Sigma_0 / floor = G G^H / cancel_len``, read-only; it depends on the geometry only."""
    return _sigma0(params.block_len, params.reflect_order, params.window)


@lru_cache(maxsize=8)
def _sigma0(block_len: int, reflect_order: int, window: int) -> np.ndarray:
    # F_W F_W^H is exactly block_len times the identity; only the folded
    # samples' part is multiplied out. The cached products use einsum: a 2-D
    # BLAS product would start OpenBLAS's threads in every process that
    # builds them, pool workers included.
    f = _dft_rows(block_len, window)[:, :reflect_order]
    s = (block_len * np.eye(window) + np.einsum("pi,qi->pq", f, f.conj())) / (
        block_len + reflect_order)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=8)
def _lag_maps(block_len: int, window: int, tag_order: int) -> np.ndarray:
    """Read-only ``(tag_order + 1, window * window)``: ``M_0 / 2``, then ``M_d`` for d >= 1.

    With ``rho(-d) = conj(rho(d))`` and ``M_{-d} = M_d^H``, the lag sum is
    ``K + K^H`` for ``K = rho(0) M_0 / 2 + sum_{d >= 1} rho(d) M_d``.
    """
    f = _dft_rows(block_len, window)
    maps = np.stack([np.einsum("pi,qi->pq", f[:, d:], f[:, :block_len - d].conj())
                     for d in range(tag_order + 1)])
    maps[0] /= 2
    maps = maps.reshape(tag_order + 1, window * window)
    maps.setflags(write=False)
    return maps


def sigma1(params: SystemParams, tag: np.ndarray, reflect: np.ndarray) -> np.ndarray:
    """``Sigma_1 / floor`` for tap sets stacked on the leading axis, ``(m, window, window)``.

    ``tag`` is ``(m, tag_order + 1)`` and ``reflect`` ``(m, reflect_order + 1)``.
    Every product is a stack of one small product per realization: one
    product for the whole stack would be large enough for OpenBLAS to start
    its threads, which cost more CPU than they save here.
    """
    m, k = tag.shape
    w = params.window
    f = _dft_rows(params.block_len, w)
    # rho[:, d] = sum_j tag[j + d] conj(tag[j]) for d = 0 .. k - 1
    padded = np.concatenate([tag, np.zeros_like(tag)], axis=1)
    lagged = padded[:, np.add.outer(range(k), range(k))]
    rho = np.matmul(lagged, tag.conj()[:, :, None])[:, :, 0]
    half = np.matmul(rho[:, None, :], _lag_maps(params.block_len, w, k - 1)).reshape(m, w, w)
    floor = 2.0 * params.cancel_len * params.noise_power
    amp = abs(params.tag_gain) * (math.sqrt(params.source_power) / math.sqrt(floor))
    v = amp * np.matmul(reflect[:, None, :], f[:, :reflect.shape[1]].T)
    x = v.transpose(0, 2, 1) * half * v.conj()
    return sigma0(params) + x + x.conj().transpose(0, 2, 1)
