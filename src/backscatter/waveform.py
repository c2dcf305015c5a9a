"""Source symbol synthesis, tag gating and the reader's received samples.

The tag never generates a carrier: it either reflects the incident samples
or stays silent. For bit 1 its gate is the prefix interval
``[max_order, cp_len - reflect_order)``, so that, after the reflect-path
spread, backscatter energy stays inside the prefix and legacy receivers
(which drop the prefix) see nothing of it; for bit 0 the gate is empty.

Exactness contract: every convolution here adds the taps in one fixed order
at every output position, so two positions whose input windows are bitwise
identical give bitwise-identical outputs. The reader's prefix/body
cancellation rests on this.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChannelSet, FrameOrigin, SymbolFrame, SystemParams, complex_normal


@dataclass(frozen=True)
class GateSequence:
    """Reflection gate for one symbol period of ``length`` samples.

    The tag reflects on samples ``[start, stop)`` and is silent elsewhere;
    the gate is closed when ``start == stop``.
    """

    length: int
    start: int
    stop: int

    @property
    def bit(self) -> int:
        """The bit the gate carries: 1 when it opens at all."""
        return int(self.stop > self.start)

    @property
    def gate(self) -> np.ndarray:
        """The per-sample 0/1 gate, built on each access."""
        gate = np.zeros(self.length)
        gate[self.start: self.stop] = 1.0
        return gate


def taps_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal FIR filter with zero pre-history, output trimmed to ``len(x)``.

    One complex ``np.convolve``, which keeps the exactness contract in the
    module docstring.
    """
    return np.convolve(np.asarray(x, dtype=complex), np.asarray(taps, dtype=complex))[: len(x)]


def gen_source_symbol(params: SystemParams, rng: np.random.Generator) -> SymbolFrame:
    """One source symbol: Gaussian body plus verbatim cyclic prefix.

    Body samples are i.i.d. circularly-symmetric with power
    ``source_power``; the subcarrier content is irrelevant to every statistic
    downstream, so no transform is involved. The prefix copies the last
    ``cp_len`` body samples bit for bit.
    """
    body = complex_normal(rng, params.eff_len, params.source_power)
    return SymbolFrame(samples=np.concatenate([body[-params.cp_len:], body]),
                       origin=FrameOrigin.SOURCE)


def tag_gate(params: SystemParams, bit: int) -> GateSequence:
    """Reflection gate for ``bit``: open on the interior prefix window only.

    For bit 1 the gate is the interval ``[max_order, cp_len - reflect_order)``
    (``block_len`` samples); for bit 0 it is empty.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    start = params.max_order
    stop = params.cp_len - params.reflect_order if bit else start
    return GateSequence(params.cp_len + params.eff_len, start, stop)


def tag_input(source: SymbolFrame, tag_taps: np.ndarray) -> SymbolFrame:
    """Samples arriving at the tag antenna: source filtered by the tag path."""
    if source.origin is not FrameOrigin.SOURCE:
        raise ValueError(f"expected a source frame, got {source.origin}")
    return SymbolFrame(samples=taps_convolve(source.samples, tag_taps),
                       origin=FrameOrigin.TAG_INPUT)


def synth_reader_rx(source: SymbolFrame, tag_in: SymbolFrame, gate: GateSequence,
                    channels: ChannelSet, params: SystemParams,
                    rng: np.random.Generator | None = None) -> SymbolFrame:
    """Received samples at the reader for one symbol period.

    Direct path plus the attenuated reflection of the gated tag input, plus
    white noise of power ``noise_power``. Pass ``rng=None`` for a noiseless
    frame (diagnostics and exactness tests).

    The reflection is zero outside the gate's interval plus the reflect-path
    spread, so only the tag input on the interval is convolved and added,
    clipped at the frame end; a closed gate adds nothing. The direct path is
    filtered over the whole frame, which keeps prefix/body cancellation exact.
    """
    if source.origin is not FrameOrigin.SOURCE or tag_in.origin is not FrameOrigin.TAG_INPUT:
        raise ValueError("synth_reader_rx needs a source frame and a tag-input frame")
    y = taps_convolve(source.samples, channels.direct)
    lo, hi = gate.start, gate.stop
    if hi > lo:
        reflected = np.convolve(tag_in.samples[lo:hi], channels.reflect)
        stop = min(lo + len(reflected), len(y))
        y[lo:stop] += params.tag_gain * reflected[: stop - lo]
    if rng is not None:
        y += complex_normal(rng, len(y), params.noise_power)
    return SymbolFrame(samples=y, origin=FrameOrigin.READER_RX)


def legacy_window(frame: SymbolFrame, params: SystemParams) -> np.ndarray:
    """The samples a legacy receiver keeps: the body, with the prefix dropped."""
    if frame.origin is not FrameOrigin.READER_RX:
        raise ValueError(f"expected a reader frame, got {frame.origin}")
    return frame.samples[params.cp_len:]
