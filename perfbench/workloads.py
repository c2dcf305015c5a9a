"""The benchmark's workloads and how one sweep of each is run and timed.

Importing this module loads only the standard library, so the set-up probe
can start its clock before ``import backscatter`` (and numpy with it).
The package is always loaded from ``src/`` of the checkout that holds this
file, never from an installed copy.
"""
from __future__ import annotations

import contextlib
import io
import math
import multiprocessing
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

REFERENCE = {"cp_len": 256, "eff_len": 1024, "direct_order": 8, "tag_order": 8,
             "reflect_order": 8, "tag_gain": 0.5, "noise_power": 1.0}
SHORT = {"cp_len": 64, "eff_len": 64, "direct_order": 4, "tag_order": 4,
         "reflect_order": 4, "tag_gain": 0.5, "noise_power": 1.0}

# Trials per point of the one-point warm-up. At least 2 x workers, so a
# parallel workload starts its first pool inside the warm-up.
WARMUP_TRIALS = 8


class MissingSource(RuntimeError):
    """The checkout holds no ``src/backscatter`` package to benchmark."""


@dataclass(frozen=True)
class Workload:
    name: str
    geometry: dict
    snr: str            # CLI axis form: START:STOP:STEP (stop inclusive) or one value
    windows: tuple[int, ...]
    threshold: str      # optimal | equiprobable | both
    mode: str           # fixed | redraw
    trials: int         # per point, per repetition
    workers: int
    via_cli: bool       # cli.parse_config + cli.run, else sim.sweep
    oracle_trials: int  # per point, reference-chain trials for the correctness check


WORKLOADS = {w.name: w for w in (
    Workload("fixed-snr", REFERENCE, "15:24:3", (8, 10), "optimal", "fixed",
             trials=400, workers=1, via_cli=True, oracle_trials=400),
    Workload("redraw-window", REFERENCE, "20", (2, 4, 8, 16), "both", "redraw",
             trials=300, workers=1, via_cli=False, oracle_trials=400),
    Workload("wide-grid-2w", SHORT, "0:30:2", (2, 4, 8, 16), "both", "fixed",
             trials=100, workers=2, via_cli=False, oracle_trials=100),
)}


@dataclass(frozen=True)
class Point:
    """One sweep row, whichever path produced it."""

    snr_db: float
    window: int
    kind: str
    mode: str
    trials: int
    ber: float
    stderr: float
    analytic: float | None

    @property
    def errors(self) -> int:
        return round(self.ber * self.trials)


def load_backscatter():
    """Import ``backscatter`` (with its ``cli`` and ``sim`` modules) from ``src/``."""
    init = SRC / "backscatter" / "__init__.py"
    if not init.is_file():
        raise MissingSource(f"no package source at {init}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import backscatter
    import backscatter.cli
    import backscatter.sim
    if Path(backscatter.__file__).resolve() != init.resolve():
        raise MissingSource(f"imported backscatter from {backscatter.__file__}, not {init}")
    return backscatter


def cpu_seconds() -> float:
    """User + system CPU of this process and its children, reaped or still running.

    Live children are read from ``/proc``, so a worker pool that outlives a
    sweep is charged for its work too.
    """
    live = 0.0
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        live += (int(stat[11]) + int(stat[12])) / os.sysconf("SC_CLK_TCK")
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime + live


def snr_values(axis: str) -> list[float]:
    """Expand a CLI SNR axis the way ``--snr`` does."""
    parts = [float(p) for p in axis.split(":")]
    if len(parts) == 1:
        return parts
    start, stop, step = parts
    return [start + i * step for i in range(int(round((stop - start) / step)) + 1)]


def kinds(wl: Workload) -> list[str]:
    return ["optimal", "equiprobable"] if wl.threshold == "both" else [wl.threshold]


def grid(wl: Workload) -> list[tuple[float, int, str]]:
    """(snr, window, kind) per point, in the sweep's enumeration order."""
    return [(s, w, k) for w in wl.windows for s in snr_values(wl.snr) for k in kinds(wl)]


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep``; repetition 0 uses the workload seed itself."""
    return seed + 100_003 * rep


def base_params(bs, wl: Workload, seed: int, window: int | None = None, trials: int | None = None):
    return bs.derive_params({**wl.geometry, "source_power": 1.0,
                             "window": window or wl.windows[0],
                             "trials": trials or wl.trials, "seed": seed})


def _cli_argv(wl: Workload, snr: str, windows, trials: int, seed: int, out: Path) -> list[str]:
    return ["--snr", snr, "--w", ",".join(map(str, windows)), "--threshold", wl.threshold,
            "--channel-mode", wl.mode, "--trials", str(trials), "--seed", str(seed),
            "--out", str(out)]


def _read_csv(path: Path) -> list[Point]:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    points = []
    for row in rows:
        snr, w, kind, mode, trials, ber, err, analytic = row.split(",")
        points.append(Point(float(snr), int(w), kind, mode, int(trials), float(ber),
                            float(err), float(analytic) if analytic else None))
    return points


def timed_sweep(bs, wl: Workload, seed: int, tmpdir: Path, *, workers: int | None = None,
                snr: str | None = None, windows=None, trials: int | None = None):
    """Run the workload's sweep once; returns (wall seconds, points, csv bytes).

    Only the call into the package is timed. The keyword arguments shrink the
    sweep for the warm-up and the self-tests.
    """
    snr = snr or wl.snr
    windows = windows or wl.windows
    trials = trials or wl.trials
    if wl.via_cli:
        out = tmpdir / f"{wl.name}.csv"
        argv = _cli_argv(wl, snr, windows, trials, seed, out)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = bs.cli.run(bs.cli.parse_config(argv))
            wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"cli.run exited {code}")
        return wall, _read_csv(out), out.stat().st_size

    import numpy as np
    params = base_params(bs, wl, seed, windows[0], trials)
    kind_enum = [bs.ThresholdKind(k) for k in kinds(wl)]
    t0 = time.perf_counter()
    records = bs.sim.sweep(params, snr_values(snr), list(windows), kind_enum,
                           bs.ChannelMode(wl.mode), np.random.SeedSequence(seed),
                           workers=wl.workers if workers is None else workers)
    wall = time.perf_counter() - t0
    return wall, [Point(r.snr_db, r.window, r.threshold_kind.value, r.channel_mode.value,
                        r.trials, r.empirical_ber, r.stderr, r.analytic_ber)
                  for r in records], 0


def warm_up(bs, wl: Workload, seed: int, tmpdir: Path) -> None:
    """One point at the workload's geometry and path, through its worker count."""
    timed_sweep(bs, wl, seed, tmpdir, snr=str(snr_values(wl.snr)[0]),
                windows=wl.windows[:1], trials=WARMUP_TRIALS)


def sound(p: Point, trials: int) -> str | None:
    """Why a point is unusable on its face, or None."""
    if not (math.isfinite(p.ber) and math.isfinite(p.stderr)):
        return f"non-finite ber={p.ber} stderr={p.stderr}"
    if p.trials != trials or not 0.0 <= p.ber <= 1.0:
        return f"trials={p.trials} ber={p.ber}"
    return None
