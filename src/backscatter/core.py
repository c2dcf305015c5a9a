"""Configuration, derived block lengths, channel draws and shared sample containers.

All quantities live at complex baseband with one sample per chip. A symbol
period is ``cp_len + eff_len`` samples: a cyclic prefix followed by the
effective body, where the prefix is a verbatim copy of the last ``cp_len``
body samples.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from enum import Enum
from typing import Mapping

import numpy as np


class InvalidConfig(ValueError):
    """Raised when a parameter set violates a structural constraint."""


class FrameOrigin(Enum):
    SOURCE = "source"
    TAG_INPUT = "tag_input"
    READER_RX = "reader_rx"


@dataclass(frozen=True)
class SystemParams:
    """Validated scalar configuration for one link setup.

    ``direct_order``, ``tag_order`` and ``reflect_order`` are channel memory
    orders (tap count minus one) for the source-to-reader, source-to-tag and
    tag-to-reader paths. ``max_order`` is their maximum and marks the first
    prefix sample free of inter-path memory.

    Derived lengths:
      cancel_len  samples that survive the prefix/body subtraction,
                  ``cp_len - max_order``
      block_len   samples kept after folding the convolution tail back onto
                  the head, ``cancel_len - reflect_order``
    """

    cp_len: int
    eff_len: int
    direct_order: int
    tag_order: int
    reflect_order: int
    source_power: float
    noise_power: float
    tag_gain: complex
    window: int
    trials: int

    @property
    def max_order(self) -> int:
        return max(self.direct_order, self.tag_order, self.reflect_order)

    @property
    def cancel_len(self) -> int:
        return self.cp_len - self.max_order

    @property
    def block_len(self) -> int:
        return self.cancel_len - self.reflect_order


@dataclass(frozen=True)
class ChannelSet:
    """One realization of the three multipath tap vectors.

    ``direct`` has ``direct_order + 1`` taps (source to reader), ``tag`` has
    ``tag_order + 1`` (source to tag), ``reflect`` has ``reflect_order + 1``
    (tag to reader).
    """

    direct: np.ndarray
    tag: np.ndarray
    reflect: np.ndarray


@dataclass(frozen=True)
class SymbolFrame:
    """One symbol period of complex samples at a named point in the chain."""

    samples: np.ndarray
    origin: FrameOrigin

    def __len__(self) -> int:
        return len(self.samples)


# Smallest accepted power: the smallest normal double. A subnormal power has
# lost significant bits and the energies derived from it underflow; a run at
# noise_power 1e-310 decides no better than a coin flip.
MIN_POWER = sys.float_info.min

# Field types are strings under ``from __future__ import annotations``.
_REQUIRED = tuple(f.name for f in fields(SystemParams))
_INT_FIELDS = tuple(f.name for f in fields(SystemParams) if f.type == "int")


def derive_params(raw: Mapping[str, object]) -> SystemParams:
    """Build a validated :class:`SystemParams` from a flat field map.

    Raises :class:`InvalidConfig` naming the offending field on any
    violation.
    """
    for name in _REQUIRED:
        if name not in raw:
            raise InvalidConfig(f"missing field: {name}")

    vals: dict[str, object] = {}
    for name in _INT_FIELDS:
        v = raw[name]
        if isinstance(v, bool) or (not isinstance(v, (int, np.integer))
                                   and (not isinstance(v, float) or not float(v).is_integer())):
            raise InvalidConfig(f"{name} must be an integer, got {v!r}")
        vals[name] = int(v)
    for name in ("source_power", "noise_power"):
        try:
            vals[name] = float(raw[name])  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise InvalidConfig(f"{name} must be numeric, got {raw[name]!r}") from None
    try:
        vals["tag_gain"] = complex(raw["tag_gain"])  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise InvalidConfig(f"tag_gain must be a complex number, got {raw['tag_gain']!r}") from None

    p = SystemParams(**vals)  # type: ignore[arg-type]

    if p.cp_len < 1:
        raise InvalidConfig(f"cp_len must be positive, got {p.cp_len}")
    for name in ("direct_order", "tag_order", "reflect_order"):
        if getattr(p, name) < 0:
            raise InvalidConfig(f"{name} must be non-negative, got {getattr(p, name)}")
    if p.eff_len < p.cp_len:
        raise InvalidConfig(f"eff_len must be >= cp_len, got eff_len={p.eff_len} cp_len={p.cp_len}")
    if p.block_len < 1:
        raise InvalidConfig(
            f"cp_len too short: block_len = cp_len - max_order - reflect_order = {p.block_len} < 1")
    # Folding wraps the reflect_order tail samples once; more than one wrap
    # is undefined, so the folded block must be at least that long.
    if p.reflect_order > p.block_len:
        raise InvalidConfig(
            f"reflect_order {p.reflect_order} exceeds block_len {p.block_len}; fold is undefined")
    if not 1 <= p.window <= p.block_len:
        raise InvalidConfig(f"window must satisfy 1 <= window <= block_len={p.block_len}, got {p.window}")
    for name in ("source_power", "noise_power"):
        if not MIN_POWER <= getattr(p, name) < math.inf:
            raise InvalidConfig(f"{name} must be finite and >= {MIN_POWER} "
                                f"(no subnormals), got {getattr(p, name)}")
    # The detector scales use |tag_gain|**2, which must be a finite float too.
    try:
        gain_power = abs(p.tag_gain) ** 2
    except OverflowError:
        gain_power = math.inf
    if not gain_power < math.inf:
        raise InvalidConfig(f"tag_gain must be finite with a finite |tag_gain|**2, got {p.tag_gain}")
    if p.trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {p.trials}")
    return p


def params_to_map(params: SystemParams) -> dict[str, object]:
    """Flat field map of ``params``, suitable for :func:`derive_params`."""
    return {f.name: getattr(params, f.name) for f in fields(params)}


def complex_normal(rng: np.random.Generator, n: int, power: float) -> np.ndarray:
    """n i.i.d. circularly-symmetric complex Gaussians of the given power: a complex view of
    ``2 n`` interleaved real and imaginary draws, each of variance ``power / 2``."""
    parts = rng.standard_normal(2 * n)
    parts *= math.sqrt(power / 2.0)
    return parts.view(np.complex128)


def draw_channels(params: SystemParams, rng: np.random.Generator) -> ChannelSet:
    """Draw one i.i.d. circularly-symmetric unit-variance tap set.

    Real and imaginary parts of each tap carry variance 1/2 so that the
    per-tap power is exactly one. Draw order is direct, tag, reflect, so a
    fixed generator state reproduces the same realization. The taps are one
    draw, sliced: bit for bit the three draws in that order.
    """
    d = params.direct_order + 1
    t = d + params.tag_order + 1
    taps = complex_normal(rng, t + params.reflect_order + 1, 1.0)
    return ChannelSet(direct=taps[:d], tag=taps[d:t], reflect=taps[t:])


def substream(seq: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Child stream at ``key`` under ``seq``.

    Purely functional: the child is determined by the parent's entropy and
    the key path, never by spawn order. Trials keyed by their own index stay
    reproducible under any worker count.
    """
    return np.random.SeedSequence(entropy=seq.entropy, spawn_key=tuple(seq.spawn_key) + key)


def generator(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.default_rng(seq)
