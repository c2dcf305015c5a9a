"""Ambient backscatter link simulation and detection over frequency-selective channels.

A passive tag gates its reflection of a cyclic-prefixed source symbol so
that the reader can cancel the direct-path interference exactly, fold the
residue into a circular block, and detect the tag bit from averaged
spectral energy with a maximum-likelihood threshold.
"""
from .core import (ChannelSet, FrameOrigin, InvalidConfig, SymbolFrame, SystemParams,
                   derive_params, draw_channels, generator, params_to_map, substream)
from .detector import (DegenerateScales, DetectionScales, DomainError, ThresholdKind,
                       analytic_ber, compute_scales, detect,
                       equiprobable_threshold, equiprobable_threshold_exact,
                       optimal_threshold, optimal_threshold_simplified, qfunc,
                       qfunc_approx, threshold_for)
from .reader import cancel_interference, dft, fold, energy_statistics
from .sim import (BerRecord, ChannelMode, TrialOutcome, estimate_ber, params_at_snr,
                  run_trial, sweep)
from .waveform import (GateSequence, gen_source_symbol, legacy_window, synth_reader_rx,
                       tag_gate, tag_input, taps_convolve)

__version__ = "0.1.0"

__all__ = [
    "BerRecord", "ChannelMode", "ChannelSet", "DegenerateScales", "DetectionScales",
    "DomainError", "FrameOrigin", "GateSequence", "InvalidConfig",
    "SymbolFrame", "SystemParams", "ThresholdKind", "TrialOutcome", "analytic_ber",
    "cancel_interference", "compute_scales", "derive_params", "detect", "dft",
    "draw_channels", "equiprobable_threshold", "equiprobable_threshold_exact",
    "estimate_ber", "fold", "gen_source_symbol", "generator", "legacy_window",
    "optimal_threshold", "optimal_threshold_simplified", "params_at_snr",
    "params_to_map", "qfunc", "qfunc_approx", "run_trial", "substream",
    "synth_reader_rx", "sweep", "tag_gate", "tag_input", "taps_convolve",
    "energy_statistics", "threshold_for",
]
