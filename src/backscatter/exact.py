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
``2 * cancel_len * noise_power``, the silent-tag mean of the statistic
(:func:`backscatter.detector.energy_scales`), so no power scale enters a
matrix product. ``R R^H = |tag_gain|^2 diag(H_r) (sum_d rho(d) M_d) diag(H_r)^H``
for the tag's autocorrelation ``rho`` and ``M_d = F_W J_d F_W^H`` (``J_d`` the
shift by d). With ``w = exp(-2 pi i / block_len)``, ``Omega[d, p] = w^(pd)`` and
the Hermitian ``C[p, q] = 1 / (1 - w^(p - q))``, 0 on the diagonal, ``M_d =
diag(Omega[d]) C - C diag(Omega[d]) + (block_len - d) diag(Omega[d])``, and 0 for
``d >= block_len``, as the gate's samples lie less than ``block_len`` apart. So
:func:`signal_form` gives a redrawn bit-1 trial's ``Re(u^H (Sigma_1 - Sigma_0) u)``
from the tag's lag spectra, ``window`` numbers each, which it reads off the tag's
periodogram, without forming ``Sigma_1``.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import ChannelSet, SystemParams
from .detector import energy_scales


@lru_cache(maxsize=8)
def _dft_rows(block_len: int, window: int, columns: int = 0) -> np.ndarray:
    """``F_W``, read-only: the first ``window`` rows of the ``block_len``-point DFT, over
    ``columns`` samples if given; ``reflect_order = block_len``'s last reflect tap wraps."""
    j = np.arange(columns or block_len)
    f = np.exp(-2j * np.pi * np.outer(np.arange(window), j) / block_len)
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
    h_r = _dft_rows(n, params.window, len(channels.reflect)) @ channels.reflect
    return params.tag_gain * (h_r[:, None] * (_dft_rows(n, params.window) @ t_tag))


def sigma0(params: SystemParams) -> np.ndarray:
    """``Sigma_0 / floor = G G^H / cancel_len``, read-only; it depends on the geometry only."""
    return _sigma0(params.block_len, params.reflect_order, params.window)


@lru_cache(maxsize=8)
def _sigma0(block_len: int, reflect_order: int, window: int) -> np.ndarray:
    # F_W F_W^H is exactly block_len I; only the folded samples' part is multiplied out
    f = _dft_rows(block_len, window)[:, :reflect_order]
    s = (block_len * np.eye(window) + np.einsum("pi,qi->pq", f, f.conj())) / (
        block_len + reflect_order)
    s.setflags(write=False)
    return s


def _sigma0_form(params: SystemParams, u: np.ndarray) -> np.ndarray:
    """``Re(u^H Sigma_0 u)`` for ``(m, window)`` rows ``u``, from the rank-``reflect_order``
    form of :func:`sigma0`: ``(block_len |u|^2 + |F_L^H u|^2) / (block_len + reflect_order)``,
    ``F_L`` the folded samples' DFT columns, so one ``(m, window) @ (window, reflect_order)``
    product and no ``window x window`` one. Both squared norms are row dots of float views.
    """
    f = _dft_rows(params.block_len, params.window)[:, :params.reflect_order]
    x, y = u.view(np.float64), (u @ f.conj()).view(np.float64)
    energy, folded = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
    return (params.block_len * energy + folded) / (params.block_len + params.reflect_order)


def sigma0_eigenvalues(params: SystemParams) -> np.ndarray:
    """The eigenvalues of :func:`sigma0`, ascending and read-only; cached per geometry."""
    return _sigma0_eigenvalues(params.block_len, params.reflect_order, params.window)


@lru_cache(maxsize=8)
def _sigma0_eigenvalues(block_len: int, reflect_order: int, window: int) -> np.ndarray:
    lam = np.linalg.eigvalsh(_sigma0(block_len, reflect_order, window))
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=8)
def _lag_tables(block_len: int, window: int, tag_order: int) -> tuple[np.ndarray, ...]:
    """Read-only ``(Omega, Omega_n, C)``; ``Omega_n[d] = (block_len - d) Omega[d]``,
    row 0 halved, so that ``sum_d rho(d) M_d = K + K^H`` (:func:`sigma1`)."""
    d = np.arange(tag_order + 1)[:, None]
    omega = np.where(d < block_len, np.exp(-2j * np.pi * (d * np.arange(window)) / block_len), 0)
    omega_n = np.where(d == 0, block_len / 2, block_len - d) * omega
    lag = np.subtract.outer(np.arange(window), np.arange(window))
    c = np.divide(1, 1 - np.exp(-2j * np.pi * lag / block_len),
                  out=np.zeros((window, window), dtype=complex), where=lag != 0)
    for table in (omega, omega_n, c):
        table.setflags(write=False)
    return omega, omega_n, c


@lru_cache(maxsize=8)
def _periodogram_tables(block_len: int, window: int, tag_order: int) -> tuple[np.ndarray, ...]:
    """Read-only real ``(G, M)`` that take a tag's lag spectra from its periodogram.

    With ``k = tag_order + 1`` and ``N = 2k - 1``, ``G`` maps a tag's float view (real
    and imaginary parts interleaved) to ``[Re T | Im T]``, ``T`` its zero-padded ``N``-point
    DFT. ``P = |T|^2`` is the DFT of the two-sided autocorrelation, whose ``N`` lags do
    not alias, so ``rho(d) = sum_q P_q exp(2 pi i q d / N) / N``. ``M`` folds that inverse
    DFT into :func:`_lag_tables`' ``Omega_n`` and ``Omega``: ``P M`` interleaves ``2 Re(h_n,p)``
    and ``-4 Im(h_p)`` over ``p``. It is stacked twice, ``2N x 2 window``, so that
    ``[Re T | Im T]^2 M`` adds the two squares in the product.
    """
    k = tag_order + 1
    n = 2 * k - 1
    omega, omega_n, _ = _lag_tables(block_len, window, tag_order)
    f = np.exp(-2j * np.pi * np.outer(np.arange(k), np.arange(n)) / n)
    g = np.empty((2 * k, 2 * n))
    g[0::2], g[1::2] = np.hstack([f.real, f.imag]), np.hstack([-f.imag, f.real])
    inverse = f.conj().T / n
    m = np.empty((n, 2 * window))
    m[:, 0::2], m[:, 1::2] = 2 * (inverse @ omega_n).real, -4 * (inverse @ omega).imag
    m = np.vstack([m, m])
    for table in (g, m):
        table.setflags(write=False)
    return g, m


def _amp(params: SystemParams) -> float:
    """``|tag_gain| sqrt(source_power / floor)``."""
    floor = energy_scales(params, 0.0, 0.0).noise_floor
    return abs(params.tag_gain) * (math.sqrt(params.source_power) / math.sqrt(floor))


def sigma1(params: SystemParams, tag: np.ndarray, reflect: np.ndarray) -> np.ndarray:
    """``Sigma_1 / floor``, ``window x window``, for one realization's tag and reflect taps.

    It is ``Sigma_0 + amp^2 diag(H_r) (K + K^H) diag(H_r)^H``, with ``K[p, q] =
    (h_p - h_q) C[p, q] + delta_pq h_n,p``, ``h = rho Omega`` and ``h_n = rho Omega_n``.
    A lift/floor within a few orders of the largest double can overflow entries to inf
    or nan; every threshold lies below 40 noise floors there, so fixed mode decides 1
    every bit-1 trial where ``Sigma_1`` is not finite, and the kernel every trial whose
    statistic is not.
    """
    k = len(tag)
    omega, omega_n, c = _lag_tables(params.block_len, params.window, k - 1)
    rho = np.correlate(tag, tag, "full")[k - 1:]    # rho[d] = sum_j tag[j + d] conj(tag[j])
    h, h_n = rho @ omega, rho @ omega_n
    h_r = reflect @ _dft_rows(params.block_len, params.window, len(reflect)).T
    amp = _amp(params)
    x = h_r[:, None] * ((h[:, None] - h) * c + np.diag(h_n)) * h_r.conj()
    with np.errstate(over="ignore", invalid="ignore"):
        return sigma0(params) + amp * (amp * (x + x.conj().T))


def signal_form(params: SystemParams, tag: np.ndarray, reflect: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """``Re(u^H (Sigma_1 - Sigma_0) u)`` for ``(m, k)`` tag and ``(m, reflect_order + 1)``
    reflect taps and ``(m, window)`` normals.

    It is ``amp^2 sum_p [2 Re(h_n,p) |b_p|^2 - 4 Im(h_p) Im(conj(b_p) z_p)]``, with the
    lag spectra ``h``, ``h_n`` and ``H_r`` of :func:`sigma1`, ``b = conj(H_r) u`` and ``z =
    C b``. The lag spectra come from the tag's periodogram in two real products,
    ``[Re T | Im T] = tag G`` and then ``[Re T | Im T]^2 M`` (:func:`_periodogram_tables`),
    ``O(k^2 + k window)`` work per trial in place of a sum per lag; ``C b`` is
    ``O(window^2)``. ``z`` is overwritten with ``conj(b) z`` and its real parts with
    ``|b|^2``, so the sum is one row-wise dot of two ``(m, 2 window)`` real arrays; as
    ``amp`` multiplies it last, the form overflows only to ``+inf``.
    """
    k = tag.shape[1]
    g, table = _periodogram_tables(params.block_len, params.window, k - 1)
    _, _, c = _lag_tables(params.block_len, params.window, k - 1)
    spectrum = tag.view(np.float64) @ g
    spectrum *= spectrum
    hh = spectrum @ table
    h_r = reflect @ _dft_rows(params.block_len, params.window, reflect.shape[1]).T
    b = h_r.conj() * u
    z = b @ c.T
    np.multiply(z, b.conj(), out=z)
    np.add(b.real ** 2, b.imag ** 2, out=z.real)
    form = np.einsum("ij,ij->i", hh, z.view(np.float64))
    amp = _amp(params)
    with np.errstate(over="ignore", invalid="ignore"):
        return amp * (amp * form)
