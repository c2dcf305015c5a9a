"""Parameter derivation, validation and channel-draw statistics."""
import dataclasses
import math
import pickle
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backscatter import (ChannelSet, InvalidConfig, derive_params, draw_channels,
                         generator, params_at_snr, params_to_map, substream)
from backscatter.core import complex_normal
from chainkit import config

base_config = partial(config, source_power=1.0, trials=1000)


def test_default_geometry():
    p = derive_params(base_config())
    assert p.max_order == 8
    assert p.cancel_len == 248   # one past the last usable offset: 256 - 8
    assert p.block_len == 240    # 248 - 8


@pytest.mark.parametrize("name,value", [
    ("cp_len", 200), ("direct_order", 12), ("tag_order", 11), ("reflect_order", 3)])
def test_derived_lengths_follow_replace(name, value):
    p = derive_params(base_config())
    assert (p.max_order, p.cancel_len, p.block_len) == (8, 248, 240)   # read before the replace
    q = dataclasses.replace(p, **{name: value})
    max_order = max(q.direct_order, q.tag_order, q.reflect_order)
    assert q.max_order == max_order
    assert q.cancel_len == q.cp_len - max_order
    assert q.block_len == q.cp_len - max_order - q.reflect_order


@pytest.mark.parametrize("used", [False, True])
def test_params_survive_pickle_with_their_lengths(used):
    p = derive_params(base_config(direct_order=3, tag_order=8, reflect_order=5))
    if used:
        assert p.block_len == 243
    q = pickle.loads(pickle.dumps(p))
    assert q == p
    assert (q.max_order, q.cancel_len, q.block_len) == (8, 248, 243)


def test_max_order_is_max_of_three():
    p = derive_params(base_config(direct_order=3, tag_order=8, reflect_order=5))
    assert p.max_order == 8


def test_negative_block_rejected():
    # cp_len=10 with reflect_order=9 leaves no folded block at all
    with pytest.raises(InvalidConfig):
        derive_params(base_config(cp_len=10, eff_len=16, reflect_order=9, window=1))


@pytest.mark.parametrize("field,value", [
    ("window", 0),
    ("window", 241),          # block_len is 240
    ("source_power", 0.0),
    ("noise_power", -1.0),
    ("source_power", 1e-310),   # subnormal
    ("noise_power", 5e-324),
    ("eff_len", 100),         # shorter than the prefix
    ("trials", 0),
    ("direct_order", -2),
    ("cp_len", 0),
    ("source_power", "loud"),   # not a number
    ("source_power", None),
    ("tag_gain", "half"),       # not a complex number
    ("tag_gain", [0.5]),
])
def test_invalid_fields_rejected_by_name(field, value):
    with pytest.raises(InvalidConfig) as exc:
        derive_params(base_config(**{field: value}))
    # the message must let a user find the bad field
    assert field.split("_")[0] in str(exc.value) or field in str(exc.value)


def test_missing_field_rejected():
    cfg = base_config()
    del cfg["noise_power"]
    with pytest.raises(InvalidConfig, match="noise_power"):
        derive_params(cfg)


def test_non_integer_rejected():
    with pytest.raises(InvalidConfig, match="cp_len"):
        derive_params(base_config(cp_len=256.5))


def test_fold_needs_single_wrap():
    # reflect tail longer than the folded block would wrap more than once
    with pytest.raises(InvalidConfig, match="reflect_order"):
        derive_params(base_config(cp_len=20, eff_len=32, direct_order=0, tag_order=0,
                                  reflect_order=7, window=1))


def test_rederiving_is_idempotent():
    p = derive_params(base_config())
    assert "max_order" not in params_to_map(p)    # derived, never an input
    assert derive_params(params_to_map(p)) == p


# Non-finite numbers, and decimal texts (as a config file holds them) whose
# magnitude overflows a double.
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
_OVERFLOWING = st.builds("{}{}e{}".format, st.sampled_from(["", "-"]),
                         st.integers(1, 9), st.integers(309, 10_000))
# Finite gains whose power |tag_gain|**2, used by the detector scales, overflows.
_POWER_OVERFLOWING = st.floats(1.35e154, 1.7e308) | st.floats(-1.7e308, -1.35e154)
_BAD_FIELD_VALUES = st.one_of(
    st.tuples(st.sampled_from(["source_power", "noise_power", "tag_gain"]),
              st.one_of(_NON_FINITE, _OVERFLOWING)),
    st.tuples(st.just("tag_gain"), _POWER_OVERFLOWING))


@settings(deadline=None)
@given(field_value=_BAD_FIELD_VALUES, imaginary=st.booleans())
def test_non_finite_or_overflowing_values_never_yield_params(field_value, imaginary):
    field, value = field_value
    if field == "tag_gain" and imaginary:
        value = complex(0.5, float(value))
    with pytest.raises(InvalidConfig, match=field):
        derive_params(base_config(**{field: value}))


@pytest.mark.parametrize("field,value", [
    ("tag_gain", 1.3e154),                  # |tag_gain|**2 just below overflow
    ("tag_gain", complex(9e153, -9e153)),
    ("source_power", sys.float_info.min),   # smallest normal double
    ("noise_power", sys.float_info.min),
])
def test_extreme_finite_values_are_accepted(field, value):
    assert getattr(derive_params(base_config(**{field: value})), field) == value


@settings(deadline=None)
@given(snr_db=st.one_of(_NON_FINITE, st.floats(6500, 1e308), st.floats(-1e308, -6500)),
       noise_power=st.floats(1e-300, 1e300))
def test_non_finite_or_overflowing_snr_never_yields_params(snr_db, noise_power):
    p = derive_params(base_config(noise_power=noise_power))
    with pytest.raises(InvalidConfig, match="snr_db"):
        params_at_snr(p, snr_db)


def test_length_relation_over_random_valid_configs():
    rng = np.random.default_rng(123)
    for _ in range(200):
        lo, mo, ko = (int(v) for v in rng.integers(0, 12, size=3))
        q = max(lo, mo, ko)
        cp = int(rng.integers(q + ko + 2 + ko, q + ko + 80))  # block_len >= reflect_order+1
        p = derive_params(base_config(
            cp_len=cp, eff_len=cp + int(rng.integers(0, 64)),
            direct_order=lo, tag_order=mo, reflect_order=ko, window=1))
        # folding removes exactly the reflect-path memory
        assert p.cancel_len - p.block_len == p.reflect_order
        assert p.block_len >= 1


def test_channel_lengths():
    p = derive_params(base_config(direct_order=3, tag_order=8, reflect_order=5))
    ch = draw_channels(p, np.random.default_rng(0))
    assert len(ch.direct) == 4 and len(ch.tag) == 9 and len(ch.reflect) == 6


def test_channel_draw_reproducible():
    p = derive_params(base_config())
    a = draw_channels(p, np.random.default_rng(77))
    b = draw_channels(p, np.random.default_rng(77))
    assert np.array_equal(a.direct, b.direct)
    assert np.array_equal(a.tag, b.tag)
    assert np.array_equal(a.reflect, b.reflect)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64])
def test_channel_draw_is_the_three_draws_bit_for_bit(bit_generator):
    # one fill sliced three ways: the direct, tag and reflect draws in order,
    # leaving the generator where the three draws leave it
    p = derive_params(base_config(direct_order=3, tag_order=8, reflect_order=5))
    one, three = (np.random.Generator(bit_generator(61)) for _ in range(2))
    ch = draw_channels(p, one)
    for taps, n in ((ch.direct, 4), (ch.tag, 9), (ch.reflect, 6)):
        assert taps.tobytes() == complex_normal(three, n, 1.0).tobytes()
    assert one.standard_normal(3).tobytes() == three.standard_normal(3).tobytes()


def test_channel_moments():
    # sample-moment oracle: per-tap mean ~ 0 and power ~ 1 over 1e5 draws
    p = derive_params(base_config())
    rng = np.random.default_rng(2024)
    n = 100_000
    taps = np.concatenate([np.concatenate(
        [c.direct, c.tag, c.reflect]) for c in (draw_channels(p, rng) for _ in range(n // 27 + 1))])
    taps = taps[:n]
    power = np.mean(np.abs(taps) ** 2)
    assert 0.98 <= power <= 1.02
    # |mean| of n complex unit-power samples has std 1/sqrt(n) per axis
    assert abs(np.mean(taps)) < 4.0 / np.sqrt(n)
    # circular symmetry: real and imaginary parts carry half the power each
    assert abs(np.mean(taps.real ** 2) - 0.5) < 0.01


def test_substream_is_stateless_and_distinct():
    root = np.random.SeedSequence(9)
    a1 = generator(substream(root, 4, 2)).integers(0, 2 ** 63)
    a2 = generator(substream(root, 4, 2)).integers(0, 2 ** 63)
    b = generator(substream(root, 4, 3)).integers(0, 2 ** 63)
    assert a1 == a2
    assert a1 != b


def test_channelset_is_plain_container():
    ch = ChannelSet(direct=np.ones(1), tag=np.ones(1), reflect=np.ones(1))
    with pytest.raises(AttributeError):
        ch.direct = np.zeros(1)  # frozen
