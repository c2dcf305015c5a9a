"""Golden records: CSVs of the current stream layout, regenerated and compared byte for byte.

Each file in ``tests/golden`` is named for the stream layout that wrote it (README, "CSV
schema"). A change that moves the layout rewrites them in the same change and says why;
any other change leaves every byte as it is. Rewrite them with

    PYTHONPATH=src:tests python tests/test_golden.py
"""
from pathlib import Path

import numpy as np
import pytest

from backscatter import ChannelMode, ThresholdKind, cli, sweep
from chainkit import SHORT, make_params

GOLDEN = Path(__file__).parent / "golden"
LAYOUT = 8

# CI's fixed and W=64 redraw commands, a redraw grid over both ends of the windows, and
# the W=64 command at -10 dB, where about a sixth of its trials err (none do at 20 dB)
CLI_RECORDS = {
    "fixed-ci": "--snr 15:24:3 --w 8,10 --threshold both --channel-mode fixed --trials 30000",
    "redraw-grid": "--snr 0:30:10 --w 2,4,8,16 --threshold both --channel-mode redraw --trials 3000",
    "redraw-w64": "--snr 20 --w 64 --threshold both --channel-mode redraw --trials 500",
    "redraw-w64-low": "--snr -10 --w 64 --threshold both --channel-mode redraw --trials 500",
}
RECORDS = [*CLI_RECORDS, "fixed-short-2w"]


def golden_path(name):
    return GOLDEN / f"layout{LAYOUT}-{name}.csv"


def write_record(name, path):
    """Write record ``name`` to ``path``. The sweep is a fixed one on the short geometry
    with workers=2: W=2 runs each cell as one block in a one-worker pool, W=16 as two
    blocks of up to 7281 trials in a two-worker pool."""
    if name in CLI_RECORDS:
        with pytest.raises(SystemExit) as exc:
            cli.main([*CLI_RECORDS[name].split(), "--seed", "1", "--out", str(path)])
        assert exc.value.code == 0
        return
    records = sweep(make_params(**SHORT, trials=8000), [0.0, 10.0, 20.0], [2, 16],
                    list(ThresholdKind), ChannelMode.FIXED_REALIZATION,
                    np.random.SeedSequence(1), workers=2)
    path.write_text("\n".join(cli._csv_lines(records)) + "\n")


@pytest.mark.parametrize("name", RECORDS)
def test_golden_record_is_unchanged(tmp_path, name):
    out = tmp_path / "record.csv"
    write_record(name, out)
    assert out.read_bytes() == golden_path(name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for record in RECORDS:
        write_record(record, golden_path(record))
