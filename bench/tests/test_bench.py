"""Self-test of the benchmark: every workload at tiny size, in both modes.

    python3 -m pytest -q bench/tests

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that corrupted expected outputs drive error_rate to 1, that the benchmark
refuses to run without the program, and that the host clock scales a span
by the probes inside it and leaves SIGALRM as it found it.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, run_py: Path = BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(run_py), "--seconds", "0", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, section):
    out = result(bench("--workload", workload, "--seed", "1", "--trace", str(trace)))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(out["metrics"]) == set(declared)
    for name, m in out["metrics"].items():
        assert m["unit"] == declared[name], name
        assert isinstance(m["value"], (int, float)), name
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_host_clock_scales_by_the_probes_inside_a_span():
    sys.path.insert(0, str(BENCH))
    import hostclock

    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock(0.002) as clock:
        first = len(clock.probes)
        _, host, scaled = clock.time(lambda: time.sleep(0.1))
        inside = clock.probes[first:]
    assert len(inside) >= hostclock.MIN_PROBES
    assert host >= 0.1
    assert scaled == pytest.approx(
        host * hostclock.REFERENCE_PROBE_S * len(inside) / sum(inside))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_layer_notes_cover_every_per_layer_metric():
    notes = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
    assert set(notes) == {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture
def corrupted(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(ROOT / "tests" / "golden", golden)
    for path in golden.glob("*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["nodes"][0]["packets_received"] += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    reference["mesh"]["tiny"]["frames"] += 1
    reference["cli-io"]["tiny"]["sweep"][0][2] += 1
    ref_path = tmp_path / "reference.json"
    ref_path.write_text(json.dumps(reference), encoding="utf-8")
    return ["--golden-dir", str(golden), "--reference", str(ref_path)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_output_fails_every_pass(workload, corrupted):
    out = result(bench("--workload", workload, "--seed", "1", *corrupted))
    assert not out["correct"]
    assert out["failed"] == out["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1",
                 cwd=tmp_path, run_py=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
