"""Cancellation, folding, DFT and the energy statistic.

Folding the tail of the tap convolution onto its head must reproduce a
circular convolution exactly; the DFT of the zero-padded tap vector then
diagonalizes it. Both facts are checked against brute-force oracles.
"""
import numpy as np
import pytest

from backscatter import (cancel_interference, dft, draw_channels, energy_statistics, fold,
                         tag_gate)
from chainkit import (SHORT, chain, circulant, make_params, noise_rx, padded_taps,
                      reader_spectrum)


def circular_convolve(a, b):
    """Index-by-index modular oracle, independent of any transform."""
    n = len(a)
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i] += a[j] * b[(i - j) % n]
    return out


# ------------------------------------------------------------- cancellation

# The reference geometry runs the frame-length convolutions on the real-part
# split; the short one (128-sample frames) runs them as complex convolutions.
@pytest.mark.parametrize("geometry", [{}, SHORT], ids=["reference", "short"])
def test_silent_tag_cancels_exactly(geometry):
    p = make_params(**geometry)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        _, rx = chain(p, draw_channels(p, rng), 0, rng)
        assert np.max(np.abs(cancel_interference(rx, p))) == 0.0


def test_cancelled_length():
    p = make_params()
    rng = np.random.default_rng(0)
    _, rx = chain(p, draw_channels(p, rng), 1, rng)
    assert len(cancel_interference(rx, p)) == p.cancel_len == 248


def test_reflecting_tag_leaves_gated_tap_convolution():
    # noiseless, bit 1: the residue is the reflect filter run over the gated input
    p = make_params()
    rng = np.random.default_rng(3)
    ch = draw_channels(p, rng)
    tagged, rx = chain(p, ch, 1, rng)
    z = cancel_interference(rx, p)
    gated = tag_gate(p, 1).gate * tagged.samples
    want = np.zeros(p.cancel_len, dtype=complex)
    for n in range(p.cancel_len):
        for k, f_k in enumerate(ch.reflect):
            idx = n + p.max_order - k
            if idx >= 0:
                want[n] += f_k * gated[idx]
    want *= p.tag_gain
    assert np.max(np.abs(z - want)) < 1e-12 * np.max(np.abs(want))


# ------------------------------------------------------------- fold

def test_fold_is_identity_without_reflect_memory():
    p = make_params(reflect_order=0)
    z = np.arange(p.cancel_len, dtype=complex)
    assert np.array_equal(fold(z, p), z)


def test_fold_length_and_shape():
    p = make_params()
    z = np.zeros(p.cancel_len, complex)
    assert len(fold(z, p)) == p.block_len == 240
    with pytest.raises(ValueError):
        fold(z[:-1], p)


def test_fold_equals_circular_convolution():
    # noiseless bit-1 residue folded == circular convolution of the padded
    # reflect taps with the gated block
    p = make_params(cp_len=48, eff_len=64, window=2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ch = draw_channels(p, rng)
        tagged, rx = chain(p, ch, 1, rng)
        folded = fold(cancel_interference(rx, p), p)
        block = (tag_gate(p, 1).gate * tagged.samples)[p.max_order: p.max_order + p.block_len]
        want = p.tag_gain * circular_convolve(padded_taps(ch.reflect, p.block_len), block)
        assert np.linalg.norm(folded - want) <= 1e-10 * np.linalg.norm(want)


# ------------------------------------------------------------- dft

def test_dft_impulse_and_constant():
    v = np.zeros(17, complex)
    v[0] = 1.0
    assert np.allclose(dft(v), np.ones(17), atol=1e-12)
    w = np.ones(17, complex)
    want = np.zeros(17, complex)
    want[0] = 17.0
    assert np.allclose(dft(w), want, atol=1e-9)


def test_dft_parseval_unnormalized():
    rng = np.random.default_rng(5)
    for n in (240, 241):  # 241 is prime
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.sum(np.abs(dft(v)) ** 2)
        rhs = n * np.sum(np.abs(v) ** 2)
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_dft_matches_direct_sum():
    rng = np.random.default_rng(6)
    for n in (13, 240):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        kernel = np.exp(-2j * np.pi * p * q / n)
        want = kernel @ v
        assert np.max(np.abs(dft(v) - want)) < 1e-9 * np.max(np.abs(want))


# ------------------------------------------------------------- circulant identity

def test_circulant_diagonalization():
    rng = np.random.default_rng(7)
    p = make_params()
    n = p.block_len
    for _ in range(10):
        taps = (rng.standard_normal(9) + 1j * rng.standard_normal(9)) / np.sqrt(2)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        col = padded_taps(taps, n)
        lhs = dft(circulant(col) @ x)
        rhs = dft(col) * dft(x)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)


def test_row_and_column_spectra_share_magnitudes():
    # first row [f0, 0, ..., 0, fK, ..., f1] vs first column [f0, ..., fK, 0, ...]:
    # their spectra are index-reversed copies, so the magnitude multisets agree
    rng = np.random.default_rng(8)
    n = 240
    taps = (rng.standard_normal(9) + 1j * rng.standard_normal(9)) / np.sqrt(2)
    col = padded_taps(taps, n)
    row = np.zeros(n, dtype=complex)
    row[0] = taps[0]
    row[-(len(taps) - 1):] = taps[1:][::-1]
    mags_col = np.sort(np.abs(dft(col)))
    mags_row = np.sort(np.abs(dft(row)))
    assert np.max(np.abs(mags_col - mags_row)) <= 1e-9 * mags_col[-1]


# ------------------------------------------------------------- statistic

def test_statistic_zero_input():
    assert np.all(energy_statistics(np.zeros(240, complex), 8) == 0.0)


def test_statistic_constant_magnitude():
    v = np.full(240, 3.0 - 4.0j)    # |v|^2 = 25
    assert np.allclose(energy_statistics(v, 8), 25.0)


@pytest.mark.parametrize("window", [7, 8])
def test_statistic_matches_direct_summation(window):
    rng = np.random.default_rng(9)
    v = rng.standard_normal(240) + 1j * rng.standard_normal(240)
    want = np.sum(np.abs(v[:window]) ** 2) / window
    assert abs(energy_statistics(v, window) - want) <= 1e-12 * want


def test_statistic_window_bounds():
    v = np.ones(16, complex)
    assert isinstance(energy_statistics(v, 16), float)
    with pytest.raises(ValueError):
        energy_statistics(v, 17)
    with pytest.raises(ValueError):
        energy_statistics(v, 0)


def test_statistic_mean_stays_finite_where_the_sum_would_overflow():
    # eight squares of 1e308 sum past the largest double; their mean does not
    got = energy_statistics(np.full(8, 1e154 + 0j), 8)
    assert got == 1e154 ** 2 and np.isfinite(got)


# ------------------------------------------------------------- noise bookkeeping

def test_folded_noise_energy_identity():
    # doubling on the wrapped head plus the plain tail equals twice the
    # cancelled length, for any valid geometry
    rng = np.random.default_rng(10)
    for _ in range(50):
        ko = int(rng.integers(0, 10))
        q = max(int(rng.integers(0, 10)), ko)
        cp = q + ko + int(rng.integers(ko + 1, 40))
        p = make_params(cp_len=cp, eff_len=cp, direct_order=q, tag_order=0,
                        reflect_order=ko, window=1)
        assert 4 * p.reflect_order + 2 * (p.block_len - p.reflect_order) == 2 * p.cancel_len


def test_folded_noise_spectrum_power():
    # noise-only frames: mean spectral bin energy ~ 2 * cancel_len * noise_power
    p = make_params()
    rng = np.random.default_rng(11)
    trials = 4000
    total = 0.0
    for _ in range(trials):
        total += np.mean(np.abs(reader_spectrum(p, noise_rx(p, rng))) ** 2)
    mean_energy = total / trials
    want = 2 * p.cancel_len * p.noise_power
    # per-symbol bin-mean variance: 4 nw^2 (block_len + 3 reflect_order)
    sigma = np.sqrt(4 * (p.block_len + 3 * p.reflect_order)) * p.noise_power / np.sqrt(trials)
    assert abs(mean_energy - want) < 3 * sigma
