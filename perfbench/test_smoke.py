"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits every metric named in BENCHMARK.json,
with its unit, in both modes; that outputs pass their oracles; that the
known defects are counted; that one seed gives one fingerprint; and that
the benchmark refuses to run without the library's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402  (all, also those run by hand)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.2", "--tiny",
         *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def fingerprint(out):
    return re.search(r"fingerprint (\w+)", out.stdout).group(1)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted(workload, trace, kind):
    out = bench("--workload", workload, "--seed", 3, "--trace", trace)
    res = result(out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    assert {name: m["unit"] for name, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert "reference kernel: median" in out.stdout
    if trace:
        share = float(re.search(r"sum to ([\d.]+) of it", out.stdout)[1])
        assert share == pytest.approx(1.0, abs=1e-6)
        assert "fingerprints agree" in out.stdout


@pytest.mark.parametrize("workload,defect", [
    ("futamura_dsl", "dsl-trailing-tokens"),
    ("flatten_route", "flatten-redeclared-local"),
])
def test_known_defects_counted(workload, defect):
    out = bench("--workload", workload, "--seed", 3, "--trace", 0)
    res = result(out)
    assert defect in out.stdout
    assert res["metrics"]["pass_ratio"]["value"] < 1


def test_kernel_scale():
    import calibrate
    assert calibrate.sample() > 0
    slow = [2 * calibrate.REFERENCE_S] * 3
    assert calibrate.factors(slow) == pytest.approx([0.5] * 3)
    # a job's scale is the mean of the samples within WINDOW of it
    samples = [calibrate.REFERENCE_S] * 20 + [3 * calibrate.REFERENCE_S]
    scale = calibrate.factors(samples)
    assert scale[0] == pytest.approx(1.0)
    assert scale[-1] == pytest.approx(
        (calibrate.WINDOW + 1) / (calibrate.WINDOW + 3))


def test_same_seed_same_fingerprint():
    runs = [bench("--workload", "futamura_dsl", "--seed", seed)
            for seed in (5, 5, 6)]
    prints = [fingerprint(out) for out in runs]
    assert prints[0] == prints[1] != prints[2]


def test_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "futamura_dsl", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
