"""Self-tests of the benchmark harness, on shrunken workloads.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "fixed-snr": dict(trials=40, oracle_trials=40),
    "redraw-window": dict(trials=12, oracle_trials=12),
    "wide-grid-2w": dict(snr="0:30:15", windows=(2, 16), trials=8, oracle_trials=8),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, changes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workloads.WORKLOADS[name], **changes))
    monkeypatch.setattr(run, "MIN_REPS", 2)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def run_bench(capsys, workload: str, trace: int) -> tuple[dict, list[str]]:
    assert run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_printed_with_unit(tiny, capsys, workload, trace):
    result, lines = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in spec:
        assert any(line.split()[0::2] == [m["name"], m["unit"]] for line in lines), m["name"]
    assert any(line.startswith("failed_frac 0 ratio") for line in lines)
    if not trace:  # the raw rates are printed beside the bounded normalized rate
        assert any(line.split()[::2] == ["trials_per_s", "trials/s"] for line in lines)
        assert any(line.split()[::2] == ["trials_per_cpu_s", "trials/cpu-s"] for line in lines)


def test_wrong_engine_is_counted_as_failed(tiny, capsys, monkeypatch):
    bs = workloads.load_backscatter()
    honest = bs.sim.estimate_ber

    def inverted(*args, **kwargs):
        rec = honest(*args, **kwargs)
        return dataclasses.replace(rec, empirical_ber=1.0 - rec.empirical_ber)

    monkeypatch.setattr(bs.sim, "estimate_ber", inverted)
    result, lines = run_bench(capsys, "fixed-snr", 0)
    assert not result["correct"] and result["failed"] > 0
    frac = next(line for line in lines if line.startswith("failed_frac")).split()[1]
    assert float(frac) == result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("workload", ["redraw-window", "wide-grid-2w"])
def test_trace_accounting(tiny, workload, tmp_path):
    bs = workloads.load_backscatter()
    wl = workloads.WORKLOADS[workload]
    metrics, attempted, failed, problems = run.per_layer(bs, wl, 1, 0.0, tmp_path)
    assert not failed and not problems
    points = len(workloads.grid(wl))       # count metrics are per sweep
    trials = points * wl.trials
    assert metrics["sim.points"] == points
    assert metrics["sim.run_trial.calls"] == trials      # worker calls included
    assert metrics["reader.dft.calls"] == trials
    assert metrics["waveform.samples_per_trial"] == 3 * (wl.geometry["cp_len"]
                                                         + wl.geometry["eff_len"])
    assert metrics["sim.pools_created"] == (points if wl.workers > 1 else 0)
    self_us = sum(v for k, v in metrics.items()
                  if k.endswith(".us_per_trial") and not k.startswith("trace."))
    total = metrics["trace.us_per_trial"]
    assert self_us + metrics["trace.unaccounted_frac"] * total == pytest.approx(total)
    assert 0 <= metrics["trace.unaccounted_frac"] < 0.05


def test_traced_disagreement_is_a_failure():
    a, b = run.Rep(1), run.Rep(1)
    p = workloads.Point(20.0, 8, "optimal", "fixed", 10, 0.1, 0.09, 0.01)
    a.points, b.points = [p], [dataclasses.replace(p, ber=0.2)]
    assert list(run.disagreements([a], [b], "traced")) == [(0, 0)]
    assert run.disagreements([a], [a], "traced") == {}


def test_fisher_exact_matches_scipy_and_handles_zero_counts():
    stats = pytest.importorskip("scipy.stats")
    for table in [(0, 10, 0, 10), (0, 400, 3, 400), (72, 400, 90, 400), (5, 40, 35, 40)]:
        k1, n1, k2, n2 = table
        expected = stats.fisher_exact([[k1, n1 - k1], [k2, n2 - k2]]).pvalue
        assert oracle.fisher_exact(*table) == pytest.approx(expected, rel=1e-6)
    assert oracle.fisher_exact(0, 10, 0, 10) == 1.0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_tmp", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "fixed-snr",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_rate_cancels_host_speed():
    reps = [run.Rep(1, cal=2 * calibrate.PASSES_PER_REF_S[1], wall=1.0, cpu=0.5),
            run.Rep(2, cal=2 * calibrate.PASSES_PER_REF_S[1], wall=1.0, cpu=0.5)]
    for r in reps:
        r.points = [workloads.Point(20.0, 8, "optimal", "fixed", 100, 0.1, 0.03, 0.1)]
    # a host twice as fast as the reference halves the CPU time and doubles the
    # calibration rate: the rate per reference second is the reference host's
    assert run.median_tps(reps, "cpu") == 200.0
    assert run.ref_tps(reps, 1) == 100.0
