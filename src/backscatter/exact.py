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
``Sigma_1 - Sigma_0`` needs only ``H_r`` and the tag's two lag spectra ``e_p = 2 Re
h_n,p`` and ``a_p = -4 Im h_p``, with ``h = rho Omega``, ``h_n = rho Omega_n`` and
``Omega_n[d] = (block_len - d) Omega[d]``, row 0 halved: ``window`` numbers each,
which :func:`_spectra` reads off the tag's periodogram for both :func:`sigma1` and
:func:`signal_form`. The latter gives a redrawn bit-1 trial's ``Re(u^H (Sigma_1 -
Sigma_0) u)`` without forming ``Sigma_1``.
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
    return _sigma0(params.block_len, params.reflect_order, params.window)[0]


@lru_cache(maxsize=8)
def _sigma0(block_len: int, reflect_order: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    # F_W F_W^H is exactly block_len I; only the folded samples' part is multiplied out
    f = _dft_rows(block_len, window)[:, :reflect_order]
    s = (block_len * np.eye(window) + np.einsum("pi,qi->pq", f, f.conj())) / (
        block_len + reflect_order)
    lam = np.linalg.eigvalsh(s)
    s.setflags(write=False)
    lam.setflags(write=False)
    return s, lam


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
    return _sigma0(params.block_len, params.reflect_order, params.window)[1]


@lru_cache(maxsize=8)
def _lag_tables(block_len: int, window: int, tag_order: int) -> tuple[np.ndarray, ...]:
    """Read-only real ``(G, M)`` that take a tag's lag spectra from its periodogram, and ``C``.

    With ``k = tag_order + 1`` and ``N = 2k - 1``, ``G`` maps a tag's float view (real
    and imaginary parts interleaved) to ``[Re T | Im T]``, ``T`` its zero-padded ``N``-point
    DFT. ``P = |T|^2`` is the DFT of the two-sided autocorrelation, whose ``N`` lags do
    not alias, so ``rho(d) = sum_q P_q exp(2 pi i q d / N) / N``. ``M`` folds that inverse
    DFT into ``Omega`` and ``Omega_n[d] = (block_len - d) Omega[d]``, row 0 halved, so
    that ``P M`` interleaves ``e_p = 2 Re(h_n,p)`` and ``a_p = -4 Im(h_p)`` over ``p``, with
    ``h = rho Omega`` and ``h_n = rho Omega_n``. It is stacked twice, ``2N x 2 window``, so
    that ``[Re T | Im T]^2 M`` adds the two squares in the product.
    """
    k = tag_order + 1
    n = 2 * k - 1
    d = np.arange(k)[:, None]
    omega = np.where(d < block_len, np.exp(-2j * np.pi * (d * np.arange(window)) / block_len), 0)
    omega_n = np.where(d == 0, block_len / 2, block_len - d) * omega
    f = np.exp(-2j * np.pi * np.outer(np.arange(k), np.arange(n)) / n)
    g = np.empty((2 * k, 2 * n))
    g[0::2], g[1::2] = np.hstack([f.real, f.imag]), np.hstack([-f.imag, f.real])
    inverse = f.conj().T / n
    m = np.empty((n, 2 * window))
    m[:, 0::2], m[:, 1::2] = 2 * (inverse @ omega_n).real, -4 * (inverse @ omega).imag
    lag = np.subtract.outer(np.arange(window), np.arange(window))
    c = np.divide(1, 1 - np.exp(-2j * np.pi * lag / block_len),
                  out=np.zeros((window, window), dtype=complex), where=lag != 0)
    tables = g, np.vstack([m, m]), c
    for table in tables:
        table.setflags(write=False)
    return tables


def _spectra(params: SystemParams, tag: np.ndarray, reflect: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tag's lag spectra, ``H_r`` and ``C`` for one realization's taps or ``(m, k)`` and
    ``(m, reflect_order + 1)`` stacks of them; the tags contiguous and complex.

    The spectra, ``e`` and ``a`` of :func:`_lag_tables` interleaved on the last axis, are
    two real products, ``[Re T | Im T] = tag G`` and then ``[Re T | Im T]^2 M``.
    """
    g, m, c = _lag_tables(params.block_len, params.window, tag.shape[-1] - 1)
    spectrum = tag.view(np.float64) @ g
    spectrum *= spectrum
    h_r = reflect @ _dft_rows(params.block_len, params.window, reflect.shape[-1]).T
    return spectrum @ m, h_r, c


def _amp(params: SystemParams) -> float:
    """``|tag_gain| sqrt(source_power / floor)``."""
    floor = energy_scales(params, 0.0, 0.0).noise_floor
    return abs(params.tag_gain) * (math.sqrt(params.source_power) / math.sqrt(floor))


def sigma1(params: SystemParams, tag: np.ndarray, reflect: np.ndarray) -> np.ndarray:
    """``Sigma_1 / floor``, ``window x window``, for one realization's tag and reflect taps.

    It is ``Sigma_0 + amp^2 diag(H_r) X diag(H_r)^H`` with ``X[p, q] = delta_pq e_p +
    (i / 2) (a_q - a_p) C[p, q]``, the lag spectra ``e`` and ``a`` of :func:`_spectra`;
    half of the product plus its conjugate transpose keeps the sum exactly Hermitian.
    Any 1-D tag is taken as a contiguous complex copy, which the taps of a
    :class:`ChannelSet` already are. A lift/floor within a few orders of the largest
    double can overflow entries to inf or nan; every threshold lies below 40 noise
    floors there, so fixed mode decides 1 every bit-1 trial where ``Sigma_1`` is not
    finite, and the kernel every trial whose statistic is not.
    """
    spectra, h_r, c = _spectra(params, np.ascontiguousarray(tag, dtype=complex), reflect)
    e, a = spectra[0::2], spectra[1::2]
    x = h_r[:, None] * (np.diag(e / 2) + 0.25j * (a - a[:, None]) * c) * h_r.conj()
    amp = _amp(params)
    with np.errstate(over="ignore", invalid="ignore"):
        return sigma0(params) + amp * (amp * (x + x.conj().T))


def signal_form(params: SystemParams, tag: np.ndarray, reflect: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """``Re(u^H (Sigma_1 - Sigma_0) u)`` for ``(m, k)`` tag and ``(m, reflect_order + 1)``
    reflect taps and ``(m, window)`` normals.

    It is ``amp^2 sum_p [e_p |b_p|^2 + a_p Im(conj(b_p) z_p)]``, with the lag spectra
    ``e``, ``a`` and ``H_r`` of :func:`_spectra`, ``b = conj(H_r) u`` and ``z = C b``: the
    spectra take ``O(k^2 + k window)`` work per trial and ``C b`` ``O(window^2)``. ``z`` is
    overwritten with ``conj(b) z`` and its real parts with ``|b|^2``, so the sum is one
    row-wise dot of two ``(m, 2 window)`` real arrays; as ``amp`` multiplies it last, the
    form overflows only to ``+inf``.
    """
    spectra, h_r, c = _spectra(params, tag, reflect)
    b = h_r.conj() * u
    z = b @ c.T
    np.multiply(z, b.conj(), out=z)
    np.add(b.real ** 2, b.imag ** 2, out=z.real)
    form = np.einsum("ij,ij->i", spectra, z.view(np.float64))
    amp = _amp(params)
    with np.errstate(over="ignore", invalid="ignore"):
        return amp * (amp * form)
