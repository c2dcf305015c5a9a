"""Command-line surface: config precedence, CSV contract, exit codes."""
import math
import os
import re
import stat

import pytest

from backscatter.cli import (CSV_HEADER, MAX_SNR_POINTS, ConfigError, RunConfig, main,
                             parse_config, run)
from backscatter.detector import ThresholdKind
from backscatter.sim import ChannelMode


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


# ------------------------------------------------------------- parsing

def test_empty_invocation_yields_reference_defaults(monkeypatch):
    monkeypatch.delenv("BACKSCATTER_SEED", raising=False)
    cfg = parse_config([])
    assert (cfg.cp_len, cfg.eff_len) == (256, 1024)
    assert (cfg.direct_order, cfg.tag_order, cfg.reflect_order) == (8, 8, 8)
    assert cfg.tag_gain == 0.5
    assert cfg.noise_power == 1.0
    assert cfg.trials == 100_000
    assert cfg.seed == 1
    assert cfg.w_values == [8]
    assert cfg.kinds == [ThresholdKind.OPTIMAL]
    assert cfg.mode is ChannelMode.FIXED_REALIZATION


def test_snr_axis_forms(capsys):
    assert parse_config(["--snr", "15:25:5"]).snr_values == [15.0, 20.0, 25.0]
    assert parse_config(["--snr", "17.5"]).snr_values == [17.5]
    assert parse_config(["--snr", "-1e1"]).snr_values == [-10.0]     # argparse takes it for a flag
    # the point limit is inclusive and counts the points kept: 999.6 rounds up to 1000
    # steps, but the axis stops at 999
    assert MAX_SNR_POINTS == 1000
    assert len(parse_config(["--snr", "0:999:1"]).snr_values) == 1000
    kept = parse_config(["--snr", "0:999.6:1"]).snr_values
    assert len(kept) == 1000 and kept[-1] == 999.0
    for axis in ("25:15:5", "0:1000:1"):
        with pytest.raises(SystemExit) as exc:
            main(["--snr", axis])
        assert exc.value.code == 2
        assert "snr" in capsys.readouterr().err


def test_w_zero_exits_2_naming_w(capsys):
    code = run_cli(["--w", "0", "--out", "x.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert "W=0" in err or "window" in err


def test_flag_overrides_file(tmp_path, monkeypatch):
    monkeypatch.delenv("BACKSCATTER_SEED", raising=False)
    cfile = tmp_path / "run.cfg"
    cfile.write_text("trials = 50\nseed = 9\nw = 4\n# comment line\n")
    cfg = parse_config(["--config", str(cfile), "--trials", "75"])
    assert cfg.trials == 75      # flag wins
    assert cfg.seed == 9         # file survives where no flag given
    assert cfg.w_values == [4]


def test_env_seed_is_fallback_only(monkeypatch):
    monkeypatch.setenv("BACKSCATTER_SEED", "321")
    assert parse_config([]).seed == 321
    assert parse_config(["--seed", "7"]).seed == 7


def test_unknown_key_rejected(tmp_path):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("cp_length = 128\n")
    with pytest.raises(ConfigError, match="cp_length"):
        parse_config(["--config", str(cfile)])


def test_missing_config_file_exits_2(capsys):
    assert run_cli(["--config", "/nonexistent/run.cfg"]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("flags,config_line,name", [
    (["--trials", "x"], None, "trials"),            # malformed scalars
    (["--seed", "1.5"], None, "seed"),
    ([], "tag_gain = abc", "tag_gain"),
    ([], "noise_power = foo", "noise_power"),
    ([], "noise_power = inf", "noise_power"),       # non-finite or overflowing
    ([], "noise_power = 1e400", "noise_power"),
    ([], "tag_gain = nan", "tag_gain"),
    ([], "tag_gain = 0.5+1e999j", "tag_gain"),
    (["--snr", "nan"], None, "snr"),
    (["--snr", "4000"], None, "snr"),
    (["--snr", "-4000"], None, "snr"),
    (["--snr", "0:inf:1"], None, "snr"),
    ([], "tag_gain = 1e200", "tag_gain"),           # finite, but |tag_gain|**2 overflows
    ([], "noise_power = 1e-310", "noise_power"),    # subnormal
    (["--snr", "-90"], "noise_power = 1e-300", "snr"),   # source power underflows
    (["--snr", "0:30:1e-9"], None, "snr"),          # too many SNR points
    (["--seed", "-1"], None, "seed"),               # seeds the stream, not derive_params
    ([], "seed = -1", "seed"),
    (["--snr", "1:2"], None, "snr: cannot use '1:2'"),         # two of START:STOP:STEP
    (["--w", ","], None, "w: cannot use ','"),                  # an empty window list
    ([], "threshold = foo", "threshold: cannot use 'foo'"),
    ([], "threshold both", "run.cfg:1: expected key=value"),   # a line without '='
])
def test_bad_value_exits_2_naming_field(tmp_path, capsys, flags, config_line, name):
    out = tmp_path / "x.csv"
    argv = flags + ["--out", str(out)]
    if config_line is not None:
        cfile = tmp_path / "run.cfg"
        cfile.write_text(config_line + "\n")
        argv += ["--config", str(cfile)]
    assert run_cli(argv) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_from_env_or_code_exits_2(tmp_path, capsys, monkeypatch):
    # the paths to run() that take no --seed flag
    out = tmp_path / "x.csv"
    monkeypatch.setenv("BACKSCATTER_SEED", "-1")
    assert run_cli(["--trials", "10", "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert run(RunConfig(seed=-1, trials=10, out_path=str(out))) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["fixed", "redraw"])
@pytest.mark.parametrize("flags,config_line,name", [
    ([], "tag_gain = 1e151", "signal_lift"),          # the lift overflows
    (["--snr", "0"], "noise_power = 1e307", "noise_floor"),
])
def test_scale_overflow_exits_1_without_csv(tmp_path, capsys, flags, config_line, name, mode):
    # valid configuration whose drawn channel scales overflow: found at run time
    out = tmp_path / "x.csv"
    cfile = tmp_path / "run.cfg"
    cfile.write_text(config_line + "\n")
    argv = flags + ["--config", str(cfile), "--channel-mode", mode, "--trials", "60",
                    "--seed", "1", "--out", str(out)]
    assert run_cli(argv) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------- running

def small_cfg(tmp_path, **overrides):
    cfg = RunConfig(cp_len=64, eff_len=64, direct_order=4, tag_order=4, reflect_order=4,
                    trials=300, seed=3, snr_values=[12.0], w_values=[4],
                    out_path=str(tmp_path / "out.csv"))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_default_shape_single_row(tmp_path):
    cfg = small_cfg(tmp_path)
    assert run(cfg) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert len(rows) == 1
    snr, w, kind, mode, trials, ber, stderr, analytic = rows[0]
    assert (snr, w, kind, mode, trials) == ("12", "4", "optimal", "fixed", "300")
    assert analytic != ""


def test_grid_row_count_and_order(tmp_path):
    cfg = small_cfg(tmp_path, snr_values=[10.0, 15.0, 20.0],
                    kinds=[ThresholdKind.OPTIMAL, ThresholdKind.EQUIPROBABLE])
    assert run(cfg) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert len(rows) == 6
    assert [r[0] for r in rows] == ["10", "10", "15", "15", "20", "20"]
    assert [r[2] for r in rows] == ["optimal", "equiprobable"] * 3


def test_redraw_mode_leaves_analytic_empty(tmp_path):
    cfg = small_cfg(tmp_path, mode=ChannelMode.REDRAW_PER_TRIAL)
    assert run(cfg) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert rows[0][3] == "redraw"
    assert rows[0][7] == ""


def test_stderr_column_recomputes_from_its_own_row(tmp_path):
    cfg = small_cfg(tmp_path, snr_values=[6.0, 12.0], trials=500)
    assert run(cfg) == 0
    for row in read_rows(tmp_path / "out.csv"):
        trials, ber, stderr = int(row[4]), float(row[5]), float(row[6])
        assert stderr == pytest.approx(math.sqrt(ber * (1 - ber) / trials), rel=1e-7)


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = small_cfg(tmp_path, out_path=str(tmp_path / "a.csv"))
    cfg_b = small_cfg(tmp_path, out_path=str(tmp_path / "b.csv"))
    assert run(cfg_a) == 0 and run(cfg_b) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("overrides,name", [
    ({"w_values": [4, 0]}, "window"),
    ({"snr_values": [12.0, 4000.0]}, "snr_db"),
])
def test_bad_later_grid_cell_exits_2_without_csv(tmp_path, capsys, overrides, name):
    # the grid is checked cell by cell before the first trial of the first cell
    cfg = small_cfg(tmp_path, **overrides)
    assert run(cfg) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("axis", ["snr_values", "w_values", "kinds"])
def test_empty_axis_exits_2_without_csv(tmp_path, capsys, axis):
    cfg = small_cfg(tmp_path, **{axis: []})
    assert run(cfg) == 2
    assert axis in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_unwritable_output_exits_1_without_file(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "out.csv"
    cfg = small_cfg(tmp_path, out_path=str(out))
    assert run(cfg) == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_output_onto_a_directory_exits_1_and_removes_its_temp_file(tmp_path, capsys):
    # the CSV is written to a temp file beside --out, whose rename onto a directory fails
    out = tmp_path / "existing"
    out.mkdir()
    assert run(small_cfg(tmp_path, out_path=str(out))) == 1
    assert "error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


def test_negative_snr_axis_in_every_spelling(tmp_path):
    # a flag's value reaches its parser whatever it starts with: a separate --snr value
    # that starts with '-' writes the CSV of --snr=VALUE and of the config line
    cfile = tmp_path / "run.cfg"
    cfile.write_text("snr = -10:20:10\n")
    csvs = []
    for i, axis in enumerate([["--snr", "-10:20:10"], ["--snr=-10:20:10"],
                              ["--config", str(cfile)]]):
        out = tmp_path / f"{i}.csv"
        assert run_cli([*axis, "--w", "4", "--trials", "200", "--seed", "5",
                        "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1] == csvs[2]
    assert [row[0] for row in read_rows(out)] == ["-10", "0", "10", "20"]


@pytest.mark.parametrize("value", ["10", "-10:20:10"])
def test_abbreviated_flag_exits_2_naming_it(capsys, value):
    # flags take their full names only, so every flag argparse accepts is one the CLI
    # joins to its value: an abbreviation is refused whatever its value starts with
    assert run_cli(["--sn", value]) == 2
    assert "--sn" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_exits_0_naming_every_flag(capsys, flag):
    assert run_cli([flag]) == 0
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == {
        "--help", "--config", "--snr", "--w", "--threshold", "--channel-mode", "--trials",
        "--seed", "--out"}


def run_under_umask(cfg, umask):
    old = os.umask(umask)
    try:
        return run(cfg)
    finally:
        os.umask(old)


def test_new_csv_gets_the_mode_open_would_give(tmp_path):
    assert run_under_umask(small_cfg(tmp_path), 0o027) == 0
    assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == 0o640


def test_overwritten_csv_keeps_its_mode(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("old\n")
    out.chmod(0o640)
    assert run_under_umask(small_cfg(tmp_path), 0o022) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert len(read_rows(out)) == 1


def test_main_end_to_end(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BACKSCATTER_SEED", raising=False)
    out = tmp_path / "cli.csv"
    code = run_cli(["--snr", "10", "--w", "4", "--trials", "200", "--seed", "2",
                    "--threshold", "both", "--channel-mode", "redraw",
                    "--out", str(out)])
    assert code == 0
    assert len(read_rows(out)) == 2
    assert "wrote 2 rows" in capsys.readouterr().out


def test_csv_floats_carry_nine_significant_digits(tmp_path):
    cfg = small_cfg(tmp_path, trials=700)
    assert run(cfg) == 0
    ber_field = read_rows(tmp_path / "out.csv")[0][5]
    value = float(ber_field)
    if 0 < value < 1:
        assert len(ber_field.replace("0.", "").lstrip("0")) >= 1
    analytic_field = read_rows(tmp_path / "out.csv")[0][7]
    mantissa = analytic_field.replace("-", "").replace(".", "").lstrip("0")
    mantissa = mantissa.split("e")[0]
    assert len(mantissa) == 9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_gain_bins_stay_finite_in_noise_floor_units(tmp_path):
    # at tag_gain 1e150 a bin's magnitude in linear units passes 1.34e154, so
    # its square overflows; in units of the noise floor it does not
    out = tmp_path / "x.csv"
    cfile = tmp_path / "run.cfg"
    cfile.write_text("tag_gain = 1e150\n")
    assert run_cli(["--config", str(cfile), "--channel-mode", "redraw", "--snr", "20:30:5",
                    "--w", "2,4,8,16", "--trials", "300", "--seed", "3", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 12
    assert all(math.isfinite(float(row[5])) for row in rows)


@pytest.mark.parametrize("mode", ["fixed", "redraw"])
def test_tag_longer_than_the_block_runs(tmp_path, mode):
    # tag_order 12 > block_len 6: the tag's lags past the block never reach
    # the window, so the sweep runs like any other
    out = tmp_path / "x.csv"
    cfile = tmp_path / "run.cfg"
    cfile.write_text("cp_len = 20\neff_len = 64\ndirect_order = 0\ntag_order = 12\n"
                     "reflect_order = 2\n")
    assert run_cli(["--config", str(cfile), "--snr", "10", "--w", "4", "--channel-mode", mode,
                    "--threshold", "both", "--trials", "300", "--seed", "1",
                    "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row[5:] if v)


@pytest.mark.parametrize("config_line", ["tag_gain = 1e77", "tag_gain = 1e150"])
def test_huge_finite_gain_writes_no_nan(tmp_path, config_line):
    out = tmp_path / "x.csv"
    cfile = tmp_path / "run.cfg"
    cfile.write_text(config_line + "\n")
    assert run_cli(["--config", str(cfile), "--threshold", "both", "--trials", "60",
                    "--seed", "1", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row[5:])
