import concurrent.futures
import csv
import gc
import json
import os
import re
import tracemalloc
import warnings

import pytest
import yaml

from cases import BAD_VALUES, bad_value_cases, fleet_year, shared_run
from liotsim import cli, metrics, scenario
from liotsim.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from liotsim.protocol import SessionOutcome
from liotsim.scenario import set_by_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_ble_700lx(capsys):
    code, out, _ = run_cli(capsys, "solve", "--profile", "ble-table1",
                           "--lux", "700")
    assert code == EXIT_OK
    assert "0.98665 mW" in out
    assert "5.560 s" in out
    assert "12.842 s" in out
    assert "19.322 s" in out
    assert "margin 5%" in out


def test_solve_liot_500lx(capsys):
    code, out, _ = run_cli(capsys, "solve", "--profile", "liot-table2",
                           "--lux", "500")
    assert code == EXIT_OK
    assert "1350.000 s" in out
    assert "1354.611 s" in out
    assert "samples per 8 h:  21" in out


def test_solve_direct_harvest_power(capsys):
    code, out, _ = run_cli(capsys, "solve", "--profile", "liot-table2",
                           "--harvest-mw", "0.642665266862095")
    assert code == EXIT_OK
    assert "620.000 s" in out


# The LIoT build's Table 2 profile, written out as a file would give it.
LIOT_PROFILE_DOC = {
    "voltage_v": 3.3,
    "sleep_current_ma": 0.087,
    "stages": [
        {"name": "gw_request", "current_ma": 12.69, "duration_s": 0.428},
        {"name": "liot_sensor_read", "current_ma": 17.73, "duration_s": 0.525},
        {"name": "liot_data_upload", "current_ma": 14.58, "duration_s": 3.58},
        {"name": "liot_sleep_set", "current_ma": 9.81, "duration_s": 0.078},
    ],
}


# The BLE build's Table 1 profile, written out likewise.
BLE_PROFILE_DOC = {
    "voltage_v": 3.3,
    "sleep_current_ma": 0.070,
    "stages": [
        {"name": "sensor_read", "current_ma": 7.550, "duration_s": 0.260},
        {"name": "ble_advertise", "current_ma": 0.400, "duration_s": 4.000},
        {"name": "ble_data_exchange", "current_ma": 0.800, "duration_s": 1.300},
    ],
}


# A profile given as a file takes the margin of the node kind whose stages
# it holds, as the built-in of that kind does.
@pytest.mark.parametrize("doc, argv, builtin, lines", [
    ({"profile": "liot-table2", "harvester": "liot-table2"}, ["--lux", "700"],
     "liot-table2", ["sleep time:       620.000 s"]),
    (LIOT_PROFILE_DOC, ["--harvest-mw", "1.2"], "liot-table2",
     ["sleep time:       238.669 s"]),
    ({"profile": "ble-table1", "harvester": "ble-table1"}, ["--lux", "700"],
     "ble-table1", ["duty cycle:       19.322 s (margin 5%)", "samples per 8 h:  1490"]),
    (BLE_PROFILE_DOC, ["--harvest-mw", "0.98665"], "ble-table1",
     ["duty cycle:       19.322 s (margin 5%)", "samples per 8 h:  1490"]),
    # A harvest that covers the burst: no sleep, and no margin on the burst.
    (BLE_PROFILE_DOC, ["--harvest-mw", "50"], "ble-table1",
     ["sleep time:       0 s (harvest covers continuous operation)",
      "duty cycle:       5.560 s (margin 5%)", "samples per 8 h:  5179"]),
], ids=["built-in names", "bare profile", "BLE built-in names",
        "bare BLE profile", "bare BLE profile, continuous"])
def test_solve_profile_file_matches_the_built_in(capsys, tmp_path, doc, argv, builtin,
                                                 lines):
    path = tmp_path / "profile.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", "--profile", str(path), *argv)
    assert code == EXIT_OK
    for line in lines:
        assert line in out.splitlines()
    assert out == run_cli(capsys, "solve", "--profile", builtin, *argv)[1]


def test_solve_takes_the_ble_margin_only_for_a_profile_a_ble_node_accepts(
        capsys, tmp_path):
    path = tmp_path / "profile.yaml"
    # The BLE stages and a gw_request: no node kind runs this burst.
    gw_request = LIOT_PROFILE_DOC["stages"][0]
    doc = {**BLE_PROFILE_DOC, "stages": [*BLE_PROFILE_DOC["stages"], gw_request]}
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", "--profile", str(path),
                           "--harvest-mw", "0.98665")
    assert code == EXIT_OK and "(margin 0%)" in out
    # A second sensor_read is no profile at all.
    doc["stages"][-1] = BLE_PROFILE_DOC["stages"][0]
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--profile", str(path),
                             "--harvest-mw", "0.98665")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "profile: stage 'sensor_read' is given twice" in err


def test_solve_bare_profile_file_needs_a_harvest_power(capsys, tmp_path):
    path = tmp_path / "profile.yaml"
    path.write_text(yaml.safe_dump(LIOT_PROFILE_DOC), encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", "--profile", str(path), "--lux", "700")
    assert code == EXIT_VALIDATION
    assert "profile file has no harvester curve; use --harvest-mw" in err


def test_solve_profile_file_rejects_an_unknown_key(capsys, tmp_path):
    path = tmp_path / "profile.yaml"
    doc = {"profile": "ble-table1", "harvester": "ble-table1", "margn": 0.5}
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--profile", str(path), "--lux", "700")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == "error: margn: unknown key\n"


def test_solve_zero_harvest_is_infeasible(capsys):
    code, out, _ = run_cli(capsys, "solve", "--profile", "ble-table1",
                           "--harvest-mw", "0")
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in out


def test_solve_argument_validation(capsys):
    code, _, err = run_cli(capsys, "solve", "--profile", "ble-table1")
    assert code == EXIT_VALIDATION
    code, _, err = run_cli(capsys, "solve", "--profile", "ble-table1",
                           "--lux", "700", "--harvest-mw", "1.0")
    assert code == EXIT_VALIDATION
    code, _, err = run_cli(capsys, "solve", "--profile", "no-such-thing",
                           "--lux", "700")
    assert code == EXIT_VALIDATION
    assert "no-such-thing" in err
    # A scenario file's rules: every number finite, the margin >= 0.
    for flag, value in (("--harvest-mw", "nan"), ("--harvest-mw", "inf"),
                        ("--lux", "nan"), ("--lux", "-5"), ("--lux", "inf"),
                        ("--margin", "nan"), ("--margin", "-1"), ("--margin", "-2"),
                        ("--margin", "inf")):
        argv = ["solve", "--profile", "ble-table1", flag, value]
        if flag == "--margin":
            argv += ["--lux", "700"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_VALIDATION, ""), (flag, value)
        assert err == f"error: {flag} must be a finite number >= 0\n"


def test_simulate_preset_writes_outputs(capsys, tmp_path):
    out_dir = str(tmp_path / "out")
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "liot-700lx",
                           "--duration", "3600", "--out", out_dir)
    assert code == EXIT_OK
    assert "liot-1" in out
    assert "1.000" in out
    for name in ("summary.json", "records.csv", "trace.csv"):
        assert os.path.exists(os.path.join(out_dir, name))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    # Boots asleep for 620 s, then one session every 624.611 s.
    assert summary["nodes"][0]["packets_sent"] == 5
    assert summary["nodes"][0]["pdr"] == 1.0


def test_simulate_rejects_bad_duration_and_scenario(capsys):
    code, _, err = run_cli(capsys, "simulate", "--scenario", "liot-700lx",
                           "--duration", "0")
    assert code == EXIT_VALIDATION
    assert "duration" in err
    code, _, err = run_cli(capsys, "simulate", "--scenario", "missing.yaml")
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_simulate_format_without_out_exits_2(capsys, fmt):
    code, out, err = run_cli(capsys, "simulate", "--scenario", "liot-700lx",
                             "--format", fmt)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "--out" in err


def test_simulate_scenario_file(capsys, tmp_path):
    doc = {
        "version": 1,
        "duration_s": 2000.0,
        "nodes": [
            {
                "id": "n1",
                "kind": "liot",
                "supercap": {"capacitance_f": 0.4, "voltage_v": 4.235},
            }
        ],
    }
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == EXIT_OK
    assert "n1" in out


@pytest.mark.parametrize("key,value,path", bad_value_cases(
    ("gateway.present", "no", "gateway.present"),
    ("gateway.liot_concurrency", 2, "gateway.liot_concurrency"),
    *BAD_VALUES,
))
def test_simulate_rejects_coerced_gateway_values(capsys, tmp_path, key, value, path):
    doc = {
        "version": 1,
        "duration_s": 100.0,
        "nodes": [{"id": "n1", "kind": "liot",
                   "supercap": {"capacitance_f": 0.4, "voltage_v": 4.235}}],
    }
    set_by_path(doc, key, value)
    scenario_path = tmp_path / "s.yaml"
    scenario_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario_path))
    assert code == EXIT_VALIDATION
    assert f"invalid scenario: {path}: " in err


def test_simulate_rejects_a_run_over_the_cycle_budget(capsys, tmp_path):
    # About 1.7e7 cycle records, past the limit of 1.5e7.
    path = tmp_path / "fleet.yaml"
    path.write_text(yaml.safe_dump(fleet_year("ble-700lx", 7)), encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == EXIT_VALIDATION
    assert "invalid scenario: duration_s: 7 node(s) x 3.16224e+07 s" in err


# Files that hold no document of the expected shape.
MALFORMED_FILES = {
    "list": "- version: 1\n- duration_s: 100\n",
    "empty": "",
    "unparsable": "version: [1,\n",
}


@pytest.mark.parametrize("command,content", [
    (cmd, name) for cmd in ("simulate", "sweep", "solve") for name in MALFORMED_FILES
])
def test_malformed_files_exit_2(capsys, tmp_path, command, content):
    path = tmp_path / "doc.yaml"
    path.write_text(MALFORMED_FILES[content], encoding="utf-8")
    argv = {
        "simulate": ["--scenario", str(path)],
        "sweep": ["--scenario", str(path), "--param", "seed", "--values", "1"],
        "solve": ["--profile", str(path), "--harvest-mw", "1.0"],
    }[command]
    code, _, err = run_cli(capsys, command, *argv)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and "Traceback" not in err
    if content != "unparsable":
        assert f"{path} does not contain a mapping" in err


def test_sweep_lux_reproduces_both_ble_operating_points(capsys, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run_cli(
        capsys, "sweep", "--scenario", "ble-700lx",
        "--param", "illumination.lux", "--values", "500,700", "--out", out,
    )
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = {float(r["param_value"]): r for r in csv.DictReader(fh)}
    assert set(rows) == {500.0, 700.0}
    # Longer duty cycle at 500 lx means fewer sessions in the same 8 h.
    assert int(rows[500.0]["packets_sent"]) < int(rows[700.0]["packets_sent"])
    assert int(rows[700.0]["packets_sent"]) == pytest.approx(1491, rel=0.01)
    assert int(rows[500.0]["packets_sent"]) == pytest.approx(1042, rel=0.05)


def test_sweep_loss_makes_pdr_monotone(capsys, tmp_path):
    out = str(tmp_path / "loss.csv")
    code, _, _ = run_cli(
        capsys, "sweep", "--scenario", "liot-700lx",
        "--param", "channel.loss", "--values", "0,0.05,0.1", "--out", out,
    )
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = sorted(csv.DictReader(fh), key=lambda r: float(r["param_value"]))
    pdrs = [float(r["pdr"]) for r in rows]
    assert pdrs[0] == 1.0
    assert pdrs == sorted(pdrs, reverse=True)


def test_sweep_parallel_matches_serial(capsys, tmp_path):
    args = ["sweep", "--scenario", "liot-700lx", "--param", "duration_s",
            "--values", "1000,2000"]
    a = tmp_path / "serial.csv"
    b = tmp_path / "parallel.csv"
    assert run_cli(capsys, *args, "--out", str(a), "--jobs", "1")[0] == EXIT_OK
    assert run_cli(capsys, *args, "--out", str(b), "--jobs", "2")[0] == EXIT_OK
    assert a.read_text() == b.read_text()


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: keeps the worker count it is
    asked for and maps in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_sweep_pool_has_at_most_one_worker_per_point(capsys, monkeypatch):
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    args = ["sweep", "--scenario", "liot-700lx", "--param", "duration_s"]
    tables = {}
    for values, jobs in (("100,200", "64"), ("100,200", "2"), ("100,200", "1"),
                         ("100", "64")):
        code, out, _ = run_cli(capsys, *args, "--values", values, "--jobs", jobs)
        assert code == EXIT_OK
        tables.setdefault(values, set()).add(out)
    # Only the two-point sweeps with two jobs or more use a pool, of two.
    assert _InProcessPool.sizes == [2, 2]
    assert all(len(outs) == 1 for outs in tables.values())


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(capsys, jobs):
    code, out, err = run_cli(capsys, "sweep", "--scenario", "liot-700lx",
                             "--param", "duration_s", "--values", "100",
                             "--jobs", jobs)
    assert code == EXIT_VALIDATION
    assert out == "" and "--jobs" in err


def test_sweep_rejects_a_signed_list_index(capsys):
    # nodes.-1 would set the last node's margin if int() read the index.
    code, out, err = run_cli(capsys, "sweep", "--scenario", "ble-700lx",
                             "--param", "nodes.-1.margin", "--values", "0.1")
    assert code == EXIT_VALIDATION
    assert out == "" and "nodes.-1: no such list index" in err


def test_sweep_over_seed_takes_integral_values(capsys, tmp_path):
    # --values parses numbers as floats; 1.0 and 2.0 must still be seeds.
    out = str(tmp_path / "seeds.csv")
    code, _, _ = run_cli(
        capsys, "sweep", "--scenario", "liot-700lx", "--param", "seed",
        "--values", "1,2", "--out", out,
    )
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["param_value"]) for r in rows] == [1.0, 2.0]
    code, _, err = run_cli(
        capsys, "sweep", "--scenario", "liot-700lx", "--param", "seed",
        "--values", "1.5",
    )
    assert code == EXIT_VALIDATION
    assert "seed: must be an integer" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_sweep_out_is_closed_when_its_write_fails(capsys):
    # 120 rows overflow the file's buffer, so the write itself fails, not
    # only the flush at close.
    values = ",".join(str(d) for d in range(1, 121))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "sweep", "--scenario", "liot-700lx",
                               "--param", "duration_s", "--values", values,
                               "--out", "/dev/full")
        gc.collect()
    assert code == EXIT_IO
    assert err.startswith("error: cannot write /dev/full: ")
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("argv", [
    ["solve", "--profile", "ble-table1", "--harvest-mw", "50"],
    ["sweep", "--scenario", "liot-700lx", "--param", "duration_s", "--values", "100"],
], ids=["solve", "sweep"])
def test_a_closed_stdout_exits_4_and_nothing_fails_at_exit(capsys, monkeypatch, argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # as under `liotsim ... | head -c1`
    stdout = open(write_end, "w", buffering=1)
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"
    stdout.close()  # the flush at exit, which the broken pipe would fail again


def test_sweep_validates_before_running(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--scenario", "liot-700lx",
        "--param", "channel.loss", "--values", "0,2.0",
    )
    assert code == EXIT_VALIDATION
    assert "2.0" in err
    # An infinite capacitance is rejected at its key, not run.
    code, _, err = run_cli(capsys, "sweep", "--scenario", "ble-700lx", "--param",
                           "nodes.0.supercap.capacitance_f", "--values", "0.4,inf")
    assert code == EXIT_VALIDATION
    assert "nodes[0].supercap.capacitance_f: must be finite" in err


def test_report_round_trip(capsys, tmp_path):
    out_dir = str(tmp_path / "out")
    run_cli(capsys, "simulate", "--scenario", "liot-700lx",
            "--duration", "3600", "--out", out_dir)
    code, out, _ = run_cli(
        capsys, "report",
        "--records", os.path.join(out_dir, "records.csv"),
        "--trace", os.path.join(out_dir, "trace.csv"),
    )
    assert code == EXIT_OK
    assert "liot-1" in out
    assert "1.000" in out


def test_report_matches_the_simulate_table(capsys, tmp_path):
    # Both tables count the cycle records, so they agree.  The second run
    # ends during liot-1's first session, which is recorded as run_ended:
    # one packet sent, none received.  The third ends before liot-1's first
    # wake: no record, only trace rows, and both tables list it.
    for preset, duration, row in (
        ("ble-700lx", [], ["1490", "1479"]),
        ("liot-700lx", ["--duration", "622"], ["1", "0", "0.000", "4.300"]),
        ("liot-700lx", ["--duration", "100"], ["0", "0", "0.000", "4.245"]),
    ):
        out_dir = str(tmp_path / "-".join([preset, *duration]))
        code, simulated, _ = run_cli(capsys, "simulate", "--scenario", preset,
                                     *duration, "--out", out_dir)
        assert code == EXIT_OK
        code, reported, _ = run_cli(
            capsys, "report",
            "--records", os.path.join(out_dir, "records.csv"),
            "--trace", os.path.join(out_dir, "trace.csv"),
        )
        assert code == EXIT_OK
        node, _kind, *columns = simulated.splitlines()[1].split()
        assert [line.split() for line in reported.splitlines()[1:]] == [[node, *columns]]
        assert columns[:len(row)] == row


def test_report_without_voltage_samples_prints_a_dash(capsys, tmp_path):
    out_dir = str(tmp_path / "out")
    run_cli(capsys, "simulate", "--scenario", "liot-700lx",
            "--duration", "3600", "--out", out_dir)
    records = os.path.join(out_dir, "records.csv")
    # A trace file whose rows all belong to another node.
    other = tmp_path / "other-trace.csv"
    other.write_text("node_id,time_s,scap_v\nliot-9,0.0,4.2\nliot-9,1.0,4.2\n")
    for extra in ([], ["--trace", str(other)]):
        code, out, _ = run_cli(capsys, "report", "--records", records, *extra)
        assert code == EXIT_OK
        assert out.splitlines()[1].split() == ["liot-1", "5", "5", "1.000", "-"]


def test_report_keeps_records_as_columns(capsys, tmp_path):
    """report reads the records into RecordColumns, 33 B a record, not a
    CycleRecord of over 200 B each."""
    out_dir = tmp_path / "out"
    doc = scenario.preset_dict("ble-700lx")
    doc.update(duration_s=259200.0, sample_interval_s=3600.0)
    path = tmp_path / "three-days.yaml"
    path.write_text(yaml.safe_dump(doc))
    run_cli(capsys, "simulate", "--scenario", str(path), "--out", str(out_dir))
    records = str(out_dir / "records.csv")
    n = sum(map(len, metrics.load_record_columns(records).values()))
    assert n > 13000
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "report", "--records", records,
                               "--trace", str(out_dir / "trace.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert out.splitlines()[1].split()[:2] == ["ble-1", str(n)]
    assert peak < 64 * n + 2**20


# Line 5 of a CSV export holds record 3.
@pytest.mark.parametrize("bad", [
    pytest.param(lambda lines: lines[4].replace(",3,", ",three,", 1), id="index-three"),
    pytest.param(lambda lines: lines[4].replace(",3,", ",4,", 1), id="index-4"),
    pytest.param(lambda lines: lines[3], id="record-2-again"),
])
def test_load_record_columns_names_the_line_of_a_bad_record(tmp_path, bad):
    out_dir = tmp_path / "out"
    result = shared_run(scenario.load_preset("liot-700lx"))
    cli._write_outputs(result, str(out_dir), "csv")
    path = out_dir / "records.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join([*lines[:4], bad(lines), *lines[5:]]), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 5: ")):
        metrics.load_record_columns(str(path))


EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "scenario-example.yaml")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("argv", [
    *(pytest.param([preset], id=preset) for preset in scenario.PRESET_NAMES),
    # Jittered steps put samples on light pieces' ends.
    pytest.param([EXAMPLE], id="scenario-example"),
    # The run ends between two sample times.
    pytest.param(["liot-700lx", "--duration", "622"], id="liot-700lx-622s"),
])
def test_exported_files_never_reach_the_row_reader(capsys, tmp_path, monkeypatch, argv,
                                                   fmt):
    """Every line simulate --out writes is laid out as the chunk path
    matches it, so reading the files back never starts the row reader.  The
    summary's voltage stats are voltage_stats of the trace read back, bit
    for bit, not only to the table's three decimals."""
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", *argv, "--format", fmt,
                         "--out", str(out_dir))
    assert code == EXIT_OK

    def row_reader(*args, **kwargs):
        raise AssertionError("an exported file reached the row reader")

    monkeypatch.setattr(metrics, "_csv_body", row_reader)
    monkeypatch.setattr(metrics, "_jsonl_rows", row_reader)
    records = metrics.load_record_columns(str(out_dir / f"records.{fmt}"))
    traces = metrics.load_trace_columns(str(out_dir / f"trace.{fmt}"))
    nodes = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["nodes"]
    counts = {node["node_id"]: (node["packets_sent"], node["packets_received"])
              for node in nodes}
    assert {nid: (len(c), c.outcomes().count(SessionOutcome.DELIVERED))
            for nid, c in records.items()} == counts
    assert {n["node_id"]: (n["scap_avg_v"], n["scap_min_v"], n["scap_max_v"])
            for n in nodes} == {nid: metrics.voltage_stats(times, volts)
                                for nid, (times, volts) in traces.items()}


def test_report_takes_voltage_stats_once_per_node(capsys, tmp_path, monkeypatch):
    """simulate folds the stats as it samples; report applies voltage_stats
    to each node's trace read back, once."""
    calls = []
    stats = metrics.voltage_stats

    def counted(*args):
        calls.append(args)
        return stats(*args)

    monkeypatch.setattr(metrics, "voltage_stats", counted)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", EXAMPLE, "--duration", "1300",
                         "--out", str(out_dir))
    assert code == EXIT_OK and calls == []
    code, out, _ = run_cli(capsys, "report", "--records", str(out_dir / "records.csv"),
                           "--trace", str(out_dir / "trace.csv"))
    assert code == EXIT_OK
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["ble-1", "liot-1"]
    assert len(calls) == 2


def test_report_missing_file(capsys, tmp_path):
    for path in (tmp_path / "nope.csv", tmp_path):  # missing, then a directory
        code, _, err = run_cli(capsys, "report", "--records", str(path))
        assert code == EXIT_IO
        assert str(path) in err


def _truncated(text):
    """text cut in the middle of its last line."""
    *lines, last = text.splitlines(keepends=True)
    return "".join(lines) + last[:len(last) // 2]


TRACE_ROW = '{"node_id": "liot-1", "scap_v": "4.3", "time_s": "0.0"}\n'


def _first_record_with(column, value, fmt):
    """A corruption that sets column of the first record to value and writes
    the records as fmt."""
    def corrupt(text):
        rows = list(csv.DictReader(text.splitlines()))
        rows[0][column] = value
        if fmt == "jsonl":
            return "".join(json.dumps({**r, "cycle_index": int(r["cycle_index"])},
                                      sort_keys=True) + "\n" for r in rows)
        lines = [rows[0].keys(), *(r.values() for r in rows)]
        return "".join(",".join(cells) + "\r\n" for cells in lines)
    return corrupt


def _trace_rows(fmt, *rows):
    """A corruption that replaces the trace with rows of liot-1, as fmt."""
    if fmt == "jsonl":
        return lambda text: "".join(json.dumps(
            {"node_id": "liot-1", "scap_v": v, "time_s": t}) + "\n" for t, v in rows)
    return lambda text: "node_id,time_s,scap_v\r\n" + "".join(
        f"liot-1,{t},{v}\r\n" for t, v in rows)

# (file replaced, its content from the simulated one, line named in the error)
MALFORMED_EXPORTS = {
    "truncated records": ("records", _truncated, 6),
    "records header lacks a column": (
        "records", lambda text: text.replace(",fail_reason,", ",", 1), 1),
    "jsonl records without keys": ("records", lambda text: "{}\n", 1),
    "trace time null": (
        "trace", lambda text: TRACE_ROW.replace('"0.0"', "null"), 1),
    "trace voltage a number": (
        "trace", lambda text: TRACE_ROW.replace('"4.3"', "4.3"), 1),
    "trace only a json list": ("trace", lambda text: "[1,2]\n", 1),
    "jsonl trace line not an object": (
        "trace", lambda text: TRACE_ROW + "[1, 2]\n", 2),
    "jsonl trace line with trailing data": (
        "trace", lambda text: TRACE_ROW + TRACE_ROW.strip() + " 7\n", 2),
    "unparsable jsonl trace line": ("trace", lambda text: TRACE_ROW[:-9] + "\n", 1),
    "trace voltage not a number": (
        "trace", lambda text: "node_id,time_s,scap_v\r\nliot-1,0.0,high\r\n", 2),
}
# Rows that parse but break a rule; the header of a CSV file is its line 1.
for _fmt, _first in (("csv", 2), ("jsonl", 1)):
    MALFORMED_EXPORTS.update({
        f"{_fmt} records end_s nan": (
            "records", _first_record_with("end_s", "nan", _fmt), _first),
        f"{_fmt} records energy_consumed_j nan": (
            "records", _first_record_with("energy_consumed_j", "nan", _fmt), _first),
        f"{_fmt} records scap_v_end inf": (
            "records", _first_record_with("scap_v_end", "inf", _fmt), _first),
        f"{_fmt} trace time going back": (
            "trace", _trace_rows(_fmt, ("0.0", "4.4"), ("5.0", "4.0"), ("1.0", "4.5")),
            _first + 2),
        f"{_fmt} trace voltage nan": (
            "trace", _trace_rows(_fmt, ("0.0", "nan")), _first),
    })


@pytest.mark.parametrize("case", list(MALFORMED_EXPORTS))
def test_report_on_a_malformed_export_exits_2(capsys, tmp_path, case):
    which, corrupt, line = MALFORMED_EXPORTS[case]
    out_dir = tmp_path / "out"
    run_cli(capsys, "simulate", "--scenario", "liot-700lx",
            "--duration", "3600", "--out", str(out_dir))
    paths = {kind: out_dir / f"{kind}.csv" for kind in ("records", "trace")}
    path = paths[which]
    with open(path, encoding="utf-8", newline="") as fh:
        text = corrupt(fh.read())
    path.write_text(text, encoding="utf-8", newline="")
    code, _, err = run_cli(capsys, "report", "--records", str(paths["records"]),
                           "--trace", str(paths["trace"]))
    assert code == EXIT_VALIDATION
    assert err.startswith(f"error: cannot parse input: {path}: line {line}: ")
    assert "Traceback" not in err


def test_simulate_keeps_the_trace_only_to_export_it(capsys, tmp_path, monkeypatch):
    """simulate without --out prints the summary, which folds the samples
    as the run takes them, so its run keeps no trace; with --out the run
    keeps the trace it exports, and the table is the same."""
    traces = []
    kernel_run = cli.kernel.run

    def kept(sc, *, trace=False):
        traces.append(trace)
        return kernel_run(sc, trace=trace)

    monkeypatch.setattr(cli.kernel, "run", kept)
    argv = ("simulate", "--scenario", "liot-700lx", "--duration", "1300")
    code, table, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    code, exported, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == EXIT_OK
    assert traces == [False, True]
    assert exported == table


def test_export_and_read_back_hold_no_whole_trace(tmp_path):
    """simulate --out writes a chunk of lines at a time, and report reads a
    trace into two float columns: neither holds a (t, V) object per sample,
    which takes over 100 B a sample (3 MiB for this 8-h trace)."""
    result = shared_run(scenario.load_preset("ble-700lx"))
    nr, = result.nodes.values()
    samples = len(nr.volts)
    assert samples == 28801
    tracemalloc.start()
    try:
        cli._write_outputs(result, str(tmp_path), "csv")
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        columns = metrics.load_trace_columns(str(tmp_path / "trace.csv"))
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert write_peak < 2**20
    assert read_peak < 16 * samples + 2**20
    times, volts = columns["ble-1"]
    assert volts == nr.volts and list(times) == list(nr.sample_times())
