"""Source symbol, tag gate and reader synthesis contracts.

The exactness assertions here (== 0.0, bitwise equality) are deliberate:
prefix/body cancellation and legacy transparency hold in exact arithmetic,
and the synthesis is built so they survive floating point unchanged.
"""
import numpy as np
import pytest

from backscatter import (ChannelSet, FrameOrigin, GateSequence, draw_channels,
                         gen_source_symbol, legacy_window, params_at_snr, synth_reader_rx,
                         tag_gate, tag_input, taps_convolve)
from chainkit import chain, make_params


def brute_force_convolve(x, taps):
    """Independent double-loop oracle for the causal filter."""
    out = np.zeros(len(x), dtype=complex)
    for n in range(len(x)):
        for m, c in enumerate(taps):
            if 0 <= n - m:
                out[n] += c * x[n - m]
    return out


# ---------------------------------------------------------------- source

def test_source_symbol_length_and_cp_copy():
    p = make_params()
    frame = gen_source_symbol(p, np.random.default_rng(3))
    s = frame.samples
    assert frame.origin is FrameOrigin.SOURCE
    assert len(s) == p.cp_len + p.eff_len
    # the prefix is a verbatim copy, bit for bit
    assert np.array_equal(s[: p.cp_len], s[p.eff_len:])


def test_source_symbol_power():
    p = make_params()
    rng = np.random.default_rng(11)
    body = np.concatenate([gen_source_symbol(p, rng).samples[p.cp_len:] for _ in range(100)])
    power = np.mean(np.abs(body) ** 2)     # 102400 samples
    sigma = p.source_power / np.sqrt(len(body))
    assert abs(power - p.source_power) < 3 * sigma


# ---------------------------------------------------------------- gate

def test_gate_bit0_all_zero():
    p = make_params()
    g = tag_gate(p, 0)
    assert g.bit == 0
    assert not g.gate.any()


def test_gate_bit1_support_and_count():
    # support runs from max_order through cp_len - reflect_order - 1 inclusive,
    # which is exactly block_len samples
    p = make_params()
    g = tag_gate(p, 1)
    ones = np.flatnonzero(g.gate)
    assert ones[0] == 8 and ones[-1] == 247
    assert len(ones) == 240 == p.block_len


def test_gate_closes_before_prefix_end():
    # the last reflect_order prefix samples stay silent for either bit
    p = make_params()
    idx = p.cp_len - p.reflect_order
    assert tag_gate(p, 0).gate[idx] == 0
    assert tag_gate(p, 1).gate[idx] == 0


@pytest.mark.parametrize("bit", [0, 1])
def test_gate_is_its_interval(bit):
    p = make_params()
    g = tag_gate(p, bit)
    fresh = np.zeros(p.cp_len + p.eff_len)
    fresh[p.max_order: p.cp_len - p.reflect_order] = bit
    assert np.array_equal(g.gate, fresh) and g.bit == bit
    # the next SNR point changes source_power, not the gate
    assert tag_gate(params_at_snr(p, 3.0), bit) == g


def test_gate_rejects_other_symbols():
    with pytest.raises(ValueError):
        tag_gate(make_params(), 2)


# ---------------------------------------------------------------- tag input

def test_tag_input_identity_channel():
    p = make_params(tag_order=0)
    src = gen_source_symbol(p, np.random.default_rng(5))
    out = tag_input(src, np.array([1.0 + 0j]))
    assert np.array_equal(out.samples, src.samples)
    assert out.origin is FrameOrigin.TAG_INPUT


def test_tag_input_unit_delay():
    p = make_params(tag_order=1)
    src = gen_source_symbol(p, np.random.default_rng(6))
    out = tag_input(src, np.array([0.0, 1.0 + 0j])).samples
    assert out[0] == 0
    assert np.array_equal(out[1:], src.samples[:-1])


def test_tag_input_matches_brute_force():
    rng = np.random.default_rng(8)
    p = make_params(cp_len=32, eff_len=48, tag_order=5, window=4)
    src = gen_source_symbol(p, rng)
    taps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    got = tag_input(src, taps).samples
    want = brute_force_convolve(src.samples, taps)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------- convolution

def complex_samples(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# short and long inputs, up to the reference frame length
LENGTHS = [64, 600, 1280]


@pytest.mark.parametrize("n_taps", [1, 5, 9, 17])
@pytest.mark.parametrize("n", [1, 9, 499, 501, 1280])
def test_taps_convolve_matches_brute_force(n, n_taps):
    rng = np.random.default_rng(100 * n + n_taps)
    x, taps = complex_samples(rng, n), complex_samples(rng, n_taps)
    got = taps_convolve(x, taps)
    want = brute_force_convolve(x, taps)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", LENGTHS)
def test_identity_and_unit_delay_taps_are_exact(n):
    x = complex_samples(np.random.default_rng(n), n)
    assert np.array_equal(taps_convolve(x, np.array([1.0 + 0j])), x)
    delayed = taps_convolve(x, np.array([0.0, 1.0 + 0j]))
    assert delayed[0] == 0
    assert np.array_equal(delayed[1:], x[:-1])


@pytest.mark.parametrize("n_taps", [5, 9])
@pytest.mark.parametrize("n", LENGTHS)
def test_equal_windows_give_equal_outputs(n, n_taps):
    # the prefix/body relation: the last w inputs repeat the first w bit for
    # bit, so every output past the taps' reach repeats too
    rng = np.random.default_rng(n + n_taps)
    x, taps = complex_samples(rng, n), complex_samples(rng, n_taps)
    w = n // 4
    x[n - w:] = x[:w]
    y = taps_convolve(x, taps)
    assert np.array_equal(y[n_taps - 1: w], y[n - w + n_taps - 1:])


def test_tag_input_requires_source_frame():
    p = make_params()
    src = gen_source_symbol(p, np.random.default_rng(5))
    tagged = tag_input(src, np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        tag_input(tagged, np.array([1.0 + 0j]))


def test_reader_synthesis_and_legacy_window_take_only_their_frames():
    p = make_params()
    rng = np.random.default_rng(6)
    src = gen_source_symbol(p, rng)
    ch = draw_channels(p, rng)
    tagged = tag_input(src, ch.tag)
    gate = tag_gate(p, 1)
    with pytest.raises(ValueError, match="source frame and a tag-input frame"):
        synth_reader_rx(tagged, tagged, gate, ch, p)      # the tag input as the source
    with pytest.raises(ValueError, match="source frame and a tag-input frame"):
        synth_reader_rx(src, src, gate, ch, p)            # the source as the tag input
    for frame in (src, tagged):
        with pytest.raises(ValueError, match="expected a reader frame"):
            legacy_window(frame, p)


# ---------------------------------------------------------------- reader rx

def unit_channels(p):
    return ChannelSet(direct=np.zeros(p.direct_order + 1, complex) + np.eye(1, p.direct_order + 1)[0],
                      tag=np.eye(1, p.tag_order + 1, dtype=complex)[0],
                      reflect=np.eye(1, p.reflect_order + 1, dtype=complex)[0])


def test_rx_without_backscatter_is_direct_path_exactly():
    p = make_params(tag_gain=0.0)
    rng = np.random.default_rng(9)
    src = gen_source_symbol(p, rng)
    ch = draw_channels(p, rng)
    tagged = tag_input(src, ch.tag)
    y = synth_reader_rx(src, tagged, tag_gate(p, 1), ch, p, rng=None)
    assert np.array_equal(y.samples, taps_convolve(src.samples, ch.direct))


def test_rx_zero_gate_equals_zero_gain():
    p_gain = make_params()
    rng = np.random.default_rng(10)
    src = gen_source_symbol(p_gain, rng)
    ch = draw_channels(p_gain, rng)
    tagged = tag_input(src, ch.tag)
    silent = synth_reader_rx(src, tagged, tag_gate(p_gain, 0), ch, p_gain, rng=None)
    assert np.array_equal(silent.samples, taps_convolve(src.samples, ch.direct))


def test_rx_single_tap_hand_evaluation():
    # unit single-tap channels, gain 1/2: y = s + 0.5 * gate * s, no noise
    p = make_params(direct_order=0, tag_order=0, reflect_order=0)
    rng = np.random.default_rng(12)
    src = gen_source_symbol(p, rng)
    ch = unit_channels(p)
    gate = tag_gate(p, 1)
    y = synth_reader_rx(src, tag_input(src, ch.tag), gate, ch, p, rng=None).samples
    want = src.samples + 0.5 * gate.gate * src.samples
    assert np.array_equal(y, want)


def test_rx_noise_power():
    p = make_params(noise_power=3.0, tag_gain=0.0)
    rng = np.random.default_rng(13)
    src = gen_source_symbol(p, rng)
    ch = draw_channels(p, rng)
    tagged = tag_input(src, ch.tag)
    clean = synth_reader_rx(src, tagged, tag_gate(p, 0), ch, p, rng=None).samples
    noisy = synth_reader_rx(src, tagged, tag_gate(p, 0), ch, p, np.random.default_rng(99)).samples
    w = noisy - clean
    assert abs(np.mean(np.abs(w) ** 2) - 3.0) < 3 * 3.0 / np.sqrt(len(w))


def random_gates(n, rng):
    """Gates of every shape synth_reader_rx must handle, by name."""
    lo, hi = sorted(int(v) for v in rng.integers(0, n, 2))
    return {"interval": GateSequence(n, lo, hi + 1),
            "to_end": GateSequence(n, n - 5, n),     # reflection tail clipped at the frame end
            "closed": GateSequence(n, lo, lo)}


@pytest.mark.parametrize("seed", range(4))
def test_gate_span_reflection_matches_full_frame_formula(seed):
    p = make_params(tag_gain=0.7 - 0.2j)
    rng = np.random.default_rng(40 + seed)
    ch = draw_channels(p, rng)
    muted = ChannelSet(direct=np.zeros_like(ch.direct), tag=ch.tag, reflect=ch.reflect)
    src = gen_source_symbol(p, rng)
    tagged = tag_input(src, ch.tag)
    for name, gate in random_gates(len(src), rng).items():
        g = gate.gate
        want = (taps_convolve(src.samples, ch.direct)
                + p.tag_gain * taps_convolve(g * tagged.samples, ch.reflect))
        got = synth_reader_rx(src, tagged, gate, ch, p, rng=None).samples
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
        # with the direct path muted, nothing reaches past the open span's spread
        y = synth_reader_rx(src, tagged, gate, muted, p, rng=None).samples
        outside = np.ones(len(y), dtype=bool)
        if g.any():
            first, last = np.flatnonzero(g)[[0, -1]]
            outside[first: last + p.reflect_order + 1] = False
            assert np.any(y != 0), name
        assert np.all(y[outside] == 0), name


# ---------------------------------------------------------------- legacy receiver

def test_legacy_window_length():
    p = make_params()
    _, y = chain(p, draw_channels(p, np.random.default_rng(2)), 1, np.random.default_rng(1),
                 np.random.default_rng(5))
    assert len(legacy_window(y, p)) == p.eff_len


def test_legacy_window_blind_to_tag_bit():
    # identical source, channels and noise stream: flipping the bit changes nothing
    p = make_params()
    for seed in range(5):
        ch = draw_channels(p, np.random.default_rng(100 + seed))
        _, y0 = chain(p, ch, 0, np.random.default_rng(seed), np.random.default_rng(200 + seed))
        _, y1 = chain(p, ch, 1, np.random.default_rng(seed), np.random.default_rng(200 + seed))
        assert np.array_equal(legacy_window(y0, p), legacy_window(y1, p))


def test_reflection_confined_to_interior_prefix():
    # mute direct path and noise: energy may appear only on [max_order, cp_len)
    p = make_params()
    rng = np.random.default_rng(21)
    ch = draw_channels(p, rng)
    muted = ChannelSet(direct=np.zeros_like(ch.direct), tag=ch.tag, reflect=ch.reflect)
    y = chain(p, muted, 1, rng)[1].samples
    assert np.all(y[: p.max_order] == 0)
    assert np.all(y[p.cp_len:] == 0)
    assert np.any(y[p.max_order: p.cp_len] != 0)


def test_direct_path_repeats_across_prefix_and_body_tail():
    # the propagated prefix periodicity that cancellation subtracts away
    p = make_params()
    rng = np.random.default_rng(22)
    ch = draw_channels(p, rng)
    y = chain(p, ch, 0, rng)[1].samples
    q, c, n = p.max_order, p.cp_len, p.eff_len
    assert np.array_equal(y[q:c], y[n + q: n + c])
