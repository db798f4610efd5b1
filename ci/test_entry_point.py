"""Checks that need a process of their own or a long run: the peak memory of
a 30-day export and of its report, a second process's export, and a cold
start through a jittered night, each through ``liotsim`` when it is on PATH,
else ``python -m liotsim.cli``.  Run: PYTHONPATH=src python -m pytest -q -rP ci
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from liotsim.scenario import preset_dict

EXAMPLE = Path(__file__).resolve().parents[1] / "docs" / "scenario-example.yaml"
LIOTSIM = ([shutil.which("liotsim")] if shutil.which("liotsim")
           else [sys.executable, "-m", "liotsim.cli"])
# Runs argv[1:], then prints its exit code and its own peak resident memory
# in KiB, from wait4 (RUSAGE_CHILDREN is the peak of every child so far).
# Linux starts a child's peak at the high-water mark of the process that
# spawned it, so a bare interpreter spawns it, not this pytest process.
PROBE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def liotsim_cli(*args) -> tuple[str, float]:
    """stdout of liotsim with args, which must exit 0, and its peak RSS in MiB."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *LIOTSIM, *map(str, args)],
                          check=True, capture_output=True, text=True, timeout=600)
    *lines, last = proc.stdout.splitlines()
    code, kib = map(int, last.split())
    assert code == 0, proc.stderr
    return "\n".join(lines), kib / 1024


@pytest.fixture(scope="module")
def month(tmp_path_factory):
    """Thirty days of ble-700lx at an hourly grid (134,130 cycle records and
    668,318 frames), exported, and the peak RSS of the simulate that did it."""
    tmp = tmp_path_factory.mktemp("month")
    doc = {**preset_dict("ble-700lx"), "duration_s": 2592000.0, "sample_interval_s": 3600.0}
    (tmp / "month.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    return tmp, liotsim_cli("simulate", "--scenario", tmp / "month.yaml", "--out", tmp)[1]


def test_a_30_day_export_peaks_under_80_mib(month):
    # About 35 MiB, records and frames as columns; 38 MiB when hashlib
    # loaded OpenSSL, 143 MiB when each record and frame was an object.
    print(f"30-day simulate --out peak RSS: {month[1]:.1f} MiB")
    assert month[1] <= 80


def test_a_30_day_report_peaks_under_45_mib(month):
    # About 25 MiB, 33 B a record; 75 MiB when it held each record as an object.
    _, peak = liotsim_cli("report", "--records", month[0] / "records.csv",
                          "--trace", month[0] / "trace.csv")
    print(f"30-day report peak RSS: {peak:.1f} MiB")
    assert peak <= 45


def test_another_process_writes_the_same_export(tmp_path):
    for name in ("first", "second"):
        liotsim_cli("simulate", "--scenario", EXAMPLE, "--out", tmp_path / name)
    files = [{p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
             for name in ("first", "second")]
    assert files[0] == files[1] and len(files[0]) == 3


# Both nodes boot at v_min on curves through 0 lx, charge, wait out twelve
# dark hours and deliver again after dawn.
NIGHT = {
    "version": 1, "duration_s": 86400.0, "seed": 1, "sample_interval_s": 60.0,
    "illumination": {"kind": "step", "steps": [[0, 700], [28800, 0], [72000, 700]],
                     "jitter_pct": 0.05, "jitter_seed": 1},
    "channel": {"loss": 0.0018, "seed": 0},
    "nodes": [{"id": f"{kind}-1", "kind": kind, "harvester": {"points": points},
               "supercap": {"capacitance_f": 0.4, "voltage_v": 3.3}}
              for kind, points in (("ble", [[0, 0.0], [500, 0.764], [700, 0.987]]),
                                   ("liot", [[0, 0.0], [500, 0.451], [700, 0.643]]))],
}


def test_a_cold_start_delivers_through_the_night_in_both_exports(tmp_path):
    (tmp_path / "night.yaml").write_text(yaml.safe_dump(NIGHT), encoding="utf-8")
    tables = []
    for fmt in ("csv", "jsonl"):  # each writes its own records and trace files
        liotsim_cli("simulate", "--scenario", tmp_path / "night.yaml", "--format", fmt,
                    "--out", tmp_path)
        tables.append(liotsim_cli("report", "--records", tmp_path / f"records.{fmt}",
                                  "--trace", tmp_path / f"trace.{fmt}")[0])
    assert tables[1] == tables[0]
    rows = [line.split() for line in tables[0].splitlines()[1:]]
    assert [(node, int(received) > 0) for node, _, received, *_ in rows] == [
        ("ble-1", True), ("liot-1", True)]
