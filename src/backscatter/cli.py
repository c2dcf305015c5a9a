"""Command-line front end: parse configuration, run sweeps, emit CSV.

Configuration comes from an optional flat key=value file plus flags, with
flags taking precedence. Results land in a CSV (written to a temp file and
renamed, so a failed run never leaves a partial file) and a summary table on
standard output.
"""
import argparse
import math
import os
import stat
import sys
import tempfile
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .core import InvalidConfig, derive_params
from .detector import ThresholdKind
from .sim import BerRecord, ChannelMode, sweep

CSV_HEADER = "snr_db,w,threshold_kind,channel_mode,trials,empirical_ber,stderr,analytic_ber"

_KIND_CHOICES = {**{kind.value: [kind] for kind in ThresholdKind}, "both": list(ThresholdKind)}
_MODE_CHOICES = {mode.value: mode for mode in ChannelMode}


class ConfigError(ValueError):
    """Bad configuration; the message names the offending field."""


@dataclass
class RunConfig:
    """A resolved run; its defaults are the built-in configuration.

    The ``int``, ``float`` and ``complex`` fields are the physical keys: each
    is a config-file key of the same name and, except ``seed`` (the root of
    the sweep's random stream), a field of :func:`derive_params`.
    """

    cp_len: int = 256
    eff_len: int = 1024
    direct_order: int = 8
    tag_order: int = 8
    reflect_order: int = 8
    tag_gain: complex = 0.5 + 0.0j
    noise_power: float = 1.0
    trials: int = 100_000
    seed: int = 1
    snr_values: list[float] = field(default_factory=lambda: [20.0])
    w_values: list[int] = field(default_factory=lambda: [8])
    kinds: list[ThresholdKind] = field(default_factory=lambda: [ThresholdKind.OPTIMAL])
    mode: ChannelMode = ChannelMode.FIXED_REALIZATION
    out_path: str = "ber.csv"


_PHYSICAL = {f.name: f.type for f in fields(RunConfig) if f.type in (int, float, complex)}


# Most points an SNR axis may have; the count is checked before the list is built.
MAX_SNR_POINTS = 1000


def _parse_snr_axis(text: str) -> list[float]:
    """'start:stop:step' (stop inclusive, at most MAX_SNR_POINTS points) or a single value."""
    if ":" not in text:
        return [float(text)]
    parts = [float(p) for p in text.split(":")]
    if len(parts) != 3:
        raise ValueError("expected START:STOP:STEP")
    start, stop, step = parts
    if not all(map(math.isfinite, parts)):
        raise ValueError("components must be finite")
    if step <= 0 or stop < start:
        raise ValueError("need step > 0 and stop >= start")
    steps = (stop - start) / step    # inf when the ratio overflows
    count = int(round(steps)) + 1 if steps < MAX_SNR_POINTS else math.inf
    if count > MAX_SNR_POINTS:
        raise ValueError(f"more than {MAX_SNR_POINTS} points")
    values = [start + i * step for i in range(count)]
    return [v for v in values if v <= stop + 1e-9]


def _parse_w_list(text: str) -> list[int]:
    values = [int(p) for p in text.split(",") if p.strip() != ""]
    if not values:
        raise ValueError("empty list")
    return values


def _choice(table: dict[str, object]) -> Callable[[str], object]:
    def parse(text: str) -> object:
        if text not in table:
            raise ValueError(f"expected one of {sorted(table)}")
        return table[text]
    return parse


# Config key -> (RunConfig attribute, parser of the key's text value).
_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    **{name: (name, kind) for name, kind in _PHYSICAL.items()},
    "snr": ("snr_values", _parse_snr_axis),
    "w": ("w_values", _parse_w_list),
    "threshold": ("kinds", _choice(_KIND_CHOICES)),
    "channel_mode": ("mode", _choice(_MODE_CHOICES)),
    "out": ("out_path", str),
}


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
                key, value = stripped.split("=", 1)
                entries[key.strip().lower().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    return entries


_PARSER = argparse.ArgumentParser(      # full names only: _join_flag_values knows no others
    prog="backscatter-sim", allow_abbrev=False,
    description="Monte Carlo BER sweeps for a CP-gated ambient backscatter link.")
_FLAGS = {action.option_strings[0] for action in (       # each takes one value
    _PARSER.add_argument("--config", metavar="PATH", help="flat key=value config file"),
    _PARSER.add_argument("--snr", metavar="START:STOP:STEP", help="SNR axis in dB, stop inclusive; or one value"),
    _PARSER.add_argument("--w", metavar="LIST", help="comma list of averaging-window sizes"),
    _PARSER.add_argument("--threshold", choices=sorted(_KIND_CHOICES), help="threshold kind(s)"),
    _PARSER.add_argument("--channel-mode", choices=sorted(_MODE_CHOICES), help="fixed realization or redraw per trial"),
    _PARSER.add_argument("--trials", metavar="N", help="Monte Carlo trials per point"),
    _PARSER.add_argument("--seed", metavar="N", help="RNG seed (fallback: BACKSCATTER_SEED)"),
    _PARSER.add_argument("--out", metavar="PATH", help="output CSV path"))}


def _join_flag_values(argv: list[str]) -> list[str]:
    """``argv`` with each flag joined to its value, as ``--snr=-10:20:10``: argparse takes
    a separate value that starts with ``-`` and is not a plain number for a flag."""
    joined, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _FLAGS else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve defaults, config file, environment and flags into a RunConfig.

    Precedence, lowest to highest: built-in defaults, BACKSCATTER_SEED (seed
    only), config file, flags. This only parses each value; :func:`run` checks
    the parameter set.
    """
    args = vars(_PARSER.parse_args(_join_flag_values(sys.argv[1:] if argv is None else argv)))
    cfg = RunConfig()
    env_seed = os.environ.get("BACKSCATTER_SEED")
    if env_seed is not None:
        _apply_entries(cfg, {"seed": env_seed})
    if config_path := args.pop("config"):
        _apply_entries(cfg, _read_config_file(config_path))
    _apply_entries(cfg, {key: value for key, value in args.items() if value is not None})
    return cfg


def _apply_entries(cfg: RunConfig, entries: dict[str, str]) -> None:
    for key, value in entries.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key: {key}")
        attr, parse = _KEYS[key]
        try:
            setattr(cfg, attr, parse(value))
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot use {value!r} ({exc})") from None


def _format_value(value: float | None) -> str:
    return "" if value is None else format(value, ".9g")


def _csv_lines(records: list[BerRecord]) -> list[str]:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            _format_value(r.snr_db), str(r.window), r.threshold_kind.value,
            r.channel_mode.value, str(r.trials), _format_value(r.empirical_ber),
            _format_value(r.stderr), _format_value(r.analytic_ber),
        ]))
    return lines


def _file_mode(path: str) -> int:
    """Permission bits ``path`` keeps, or gets as ``open(path, "w")`` would create it."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)     # the umask can only be read by setting it
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".ber-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            # mkstemp creates the file 0600
            os.fchmod(fh.fileno(), _file_mode(path))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run(cfg: RunConfig) -> int:
    """Execute the configured sweep; returns the process exit code.

    The code is 2 when a parameter or a (window, SNR) cell of the grid is
    invalid, which :func:`sweep` finds before its first trial, and 1 for any
    other failure. No CSV is written in either case.
    """
    try:
        # sweep derives every window of w_values, and window 1 fits any geometry
        params = derive_params({**{name: getattr(cfg, name) for name in _PHYSICAL},
                                "source_power": 1.0, "window": 1})
        if cfg.seed < 0:
            raise InvalidConfig(f"seed must be a non-negative integer, got {cfg.seed}")
        records = sweep(params, cfg.snr_values, cfg.w_values, cfg.kinds, cfg.mode,
                        np.random.SeedSequence(cfg.seed))
        _write_atomic(cfg.out_path, "\n".join(_csv_lines(records)) + "\n")
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidConfig) else 1

    print(f"{'snr_db':>8} {'w':>4} {'threshold':>12} {'mode':>7} {'trials':>9} "
          f"{'empirical':>12} {'stderr':>12} {'analytic':>12}")
    for r in records:
        analytic = f"{r.analytic_ber:.6g}" if r.analytic_ber is not None else "-"
        print(f"{r.snr_db:8.6g} {r.window:4d} {r.threshold_kind.value:>12} "
              f"{r.channel_mode.value:>7} {r.trials:9d} {r.empirical_ber:12.6g} "
              f"{r.stderr:12.6g} {analytic:>12}")
    print(f"wrote {len(records)} rows to {cfg.out_path}")
    return 0


def main(argv: list[str] | None = None) -> None:
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    raise SystemExit(run(cfg))


if __name__ == "__main__":
    main()
