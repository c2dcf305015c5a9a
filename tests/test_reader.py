"""Cancellation, folding, DFT and the energy statistic.

Folding the tail of the tap convolution onto its head must reproduce a
circular convolution exactly; the DFT of the zero-padded tap vector then
diagonalizes it. Both facts are checked against brute-force oracles.
"""
import numpy as np
import pytest

from backscatter import (cancel_interference, derive_params, dft, draw_channels,
                         energy_statistics, fold, gen_source_symbol, synth_reader_rx,
                         tag_gate, tag_input)


def make_params(**overrides):
    cfg = dict(cp_len=256, eff_len=1024, direct_order=8, tag_order=8, reflect_order=8,
               tag_gain=0.5, noise_power=1.0, source_power=2.0, window=8,
               trials=100)
    cfg.update(overrides)
    return derive_params(cfg)


def receive(p, bit, seed, noise_seed=None, channels=None):
    rng = np.random.default_rng(seed)
    ch = channels if channels is not None else draw_channels(p, rng)
    src = gen_source_symbol(p, rng)
    tagged = tag_input(src, ch.tag)
    noise_rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    rx = synth_reader_rx(src, tagged, tag_gate(p, bit), ch, p, noise_rng)
    return src, tagged, ch, rx


def circular_convolve(a, b):
    """Index-by-index modular oracle, independent of any transform."""
    n = len(a)
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i] += a[j] * b[(i - j) % n]
    return out


def padded_taps(taps, n):
    """Tap vector zero-padded to length n (a circulant's first column)."""
    out = np.zeros(n, dtype=complex)
    out[: len(taps)] = taps
    return out


def circulant_from_column(col):
    n = len(col)
    return np.array([[col[(i - j) % n] for j in range(n)] for i in range(n)])


# ------------------------------------------------------------- cancellation

# The reference geometry runs the frame-length convolutions on the real-part
# split; the short one (128-sample frames) runs them as complex convolutions.
@pytest.mark.parametrize("geometry", [
    {},
    dict(cp_len=64, eff_len=64, direct_order=4, tag_order=4, reflect_order=4, window=4),
], ids=["reference", "short"])
def test_silent_tag_cancels_exactly(geometry):
    p = make_params(**geometry)
    for seed in range(10):
        _, _, _, rx = receive(p, 0, seed)
        z = cancel_interference(rx, p)
        assert np.max(np.abs(z)) == 0.0


def test_cancelled_length():
    p = make_params()
    _, _, _, rx = receive(p, 1, 0)
    assert len(cancel_interference(rx, p)) == p.cancel_len == 248


def test_reflecting_tag_leaves_gated_tap_convolution():
    # noiseless, bit 1: the residue is the reflect filter run over the gated input
    p = make_params()
    _, tagged, ch, rx = receive(p, 1, 3)
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
        _, tagged, ch, rx = receive(p, 1, seed)
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
        lhs = dft(circulant_from_column(col) @ x)
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


def test_statistic_matches_direct_summation():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(240) + 1j * rng.standard_normal(240)
    got = energy_statistics(v, 7)     # 34 groups, 2 leftover bins dropped
    assert len(got) == 34
    for t in range(34):
        want = np.sum(np.abs(v[7 * t: 7 * (t + 1)]) ** 2) / 7.0
        assert abs(got[t] - want) <= 1e-12 * want


def test_statistic_window_bounds():
    v = np.ones(16, complex)
    assert len(energy_statistics(v, 16)) == 1
    with pytest.raises(ValueError):
        energy_statistics(v, 17)
    with pytest.raises(ValueError):
        energy_statistics(v, 0)


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
    length = p.cp_len + p.eff_len
    total = 0.0
    for _ in range(trials):
        noise = (rng.standard_normal(length)
                 + 1j * rng.standard_normal(length)) * np.sqrt(p.noise_power / 2)
        z = noise[p.max_order: p.cp_len] - noise[p.eff_len + p.max_order: p.eff_len + p.cp_len]
        spectrum = dft(fold(z, p))
        total += np.mean(np.abs(spectrum) ** 2)
    mean_energy = total / trials
    want = 2 * p.cancel_len * p.noise_power
    # per-symbol bin-mean variance: 4 nw^2 (block_len + 3 reflect_order)
    sigma = np.sqrt(4 * (p.block_len + 3 * p.reflect_order)) * p.noise_power / np.sqrt(trials)
    assert abs(mean_energy - want) < 3 * sigma
