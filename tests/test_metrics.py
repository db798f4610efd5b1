import csv
import json
import math
import pickle
import re
from array import array

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from cases import shared_run
from liotsim import metrics
from liotsim.energy import BLE_HARVESTER, BLE_PROFILE, Supercap
from liotsim.fsm import NodeConfig, NodeKind
from liotsim.kernel import IlluminationProfile, Scenario
from liotsim.metrics import (
    CycleRecord,
    ExportError,
    RecordColumns,
    RunSummary,
    export_records,
    export_summary,
    export_trace,
    load_records,
    load_trace,
    load_trace_columns,
    summarize_node,
    summary_dict,
    voltage_stats,
)
from liotsim.protocol import FailReason, SessionOutcome


def _record(i=0, outcome=SessionOutcome.DELIVERED, reason=None) -> CycleRecord:
    return CycleRecord(
        node_id="n1",
        cycle_index=i,
        start_s=i * 10.0,
        end_s=i * 10.0 + 9.5,
        outcome=outcome,
        fail_reason=reason,
        scap_v_start=4.463,
        scap_v_end=4.4576,
        energy_consumed_j=0.0151899,
        energy_harvested_j=0.0148,
    )


def _records(sent: int, received: int) -> list[CycleRecord]:
    """received delivered records, then timed-out ones up to sent."""
    return [_record(i) if i < received
            else _record(i, SessionOutcome.FAILED, FailReason.TIMEOUT)
            for i in range(sent)]


def _outcomes(records) -> list[SessionOutcome]:
    return [r.outcome for r in records]


def test_pdr_from_counts():
    # Every record is a packet sent, a run_ended one too; delivered ones
    # were received.
    records = _records(1490, 1479)
    records.append(_record(1490, SessionOutcome.FAILED, FailReason.RUN_ENDED))
    no_trace = (0.0, 0.0, 0.0)
    ble = summarize_node("n", "ble", _outcomes(records), no_trace)
    assert (ble.packets_sent, ble.packets_received) == (1491, 1479)
    assert ble.pdr == pytest.approx(1479 / 1491)
    assert ble.pdr == pytest.approx(0.991, abs=0.001)
    assert summarize_node("n", "liot", _outcomes(_records(21, 21)), no_trace).pdr == 1.0
    assert summarize_node("n", "liot", [], no_trace).pdr == 0.0


def test_time_weighted_average_handles_uneven_sampling():
    # 4.0 V for 1 s then 5.0 V for 3 s; plain mean of samples would be 4.5.
    times, volts = [0.0, 1.0, 1.0, 4.0], [4.0, 4.0, 5.0, 5.0]
    avg, lo, hi = voltage_stats(times, volts)
    assert avg == pytest.approx((4.0 * 1.0 + 5.0 * 3.0) / 4.0)
    assert (lo, hi) == (4.0, 5.0)
    assert voltage_stats([], []) == (0.0, 0.0, 0.0)
    assert voltage_stats([3.0], [4.2]) == (4.2, 4.2, 4.2)


def test_cycle_record_validation():
    with pytest.raises(ValueError):
        CycleRecord("n", 0, 5.0, 5.0, SessionOutcome.DELIVERED, None,
                    4.4, 4.4, 0.01, 0.01)
    with pytest.raises(ValueError):
        CycleRecord("n", 0, 0.0, 1.0, SessionOutcome.DELIVERED, None,
                    4.4, 4.4, -0.01, 0.01)


@pytest.mark.parametrize("field", ["start_s", "end_s", "consumed_j", "harvested_j"])
def test_cycle_rule_rejects_nan(field):
    cells = {"start_s": 0.0, "end_s": 1.0, "consumed_j": 0.01, "harvested_j": 0.01}
    cells[field] = math.nan
    with pytest.raises(ValueError):
        metrics.check_cycle(**cells)


def test_cycle_record_has_slots_and_pickles():
    record = _record(1, SessionOutcome.FAILED, FailReason.TIMEOUT)
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record


def _node_columns(node_id: str, boot_v: float, rows) -> RecordColumns:
    """node_id's columns, built with append from (end_s, outcome, fail
    reason, scap_v_end, consumed J, harvested J) rows."""
    columns = RecordColumns(node_id, boot_v)
    for row in rows:
        columns.append(*row)
    return columns


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_records_round_trip(tmp_path, fmt):
    columns = [
        _node_columns("n1", 4.463, [
            (9.5, SessionOutcome.DELIVERED, None, 4.4576, 0.0151899, 0.0148),
            (19.5, SessionOutcome.FAILED, FailReason.TIMEOUT, 4.45, 0.0151, 0.0147),
            (29.5, SessionOutcome.FAILED, FailReason.NO_GATEWAY, 4.44, 0.015, 0.0146),
        ]),
        _node_columns("n0", 4.235, [
            (624.6, SessionOutcome.DELIVERED, None, 4.1, 0.2234, 0.2233),
        ]),
    ]
    path = str(tmp_path / f"records.{fmt}")
    export_records(columns, fmt, path)
    # Node by node in the order given, each record where its node's last ended.
    assert load_records(path) == [*columns[0], *columns[1]]
    assert [r.start_s for r in load_records(path)] == [0.0, 9.5, 19.5, 0.0]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_records_export_reads_a_generator_once(tmp_path, fmt):
    # Three delivered cycles, then two timed out, for each of two nodes.
    delivered = (SessionOutcome.DELIVERED, None)
    timed_out = (SessionOutcome.FAILED, FailReason.TIMEOUT)
    rows = [(10.0 * i, *(delivered if i <= 3 else timed_out), 4.4, 0.015, 0.0148)
            for i in range(1, 6)]
    columns = [_node_columns(nid, 4.463, rows) for nid in ("n1", "n0")]
    ours, reference = tmp_path / f"ours.{fmt}", tmp_path / f"reference.{fmt}"
    export_records((c for c in columns), fmt, str(ours))
    export_records(columns, fmt, str(reference))
    assert ours.read_bytes() == reference.read_bytes()
    assert load_records(str(ours)) == [r for c in columns for r in c]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_trace_round_trip_is_lossless(tmp_path, fmt):
    traces = {
        "n1": [(0.0, 4.463), (1.0, 4.462999871), (2.0, 1.0 / 3.0 + 4.0)],
        "n2": [(0.0, 4.235)],
    }
    path = str(tmp_path / f"trace.{fmt}")
    export_trace(traces, fmt, path)
    assert load_trace(path) == traces


def _dict_row_trace_export(traces, fmt, path):
    """One dict per sample through csv.DictWriter or json.dumps; export_trace
    must write the same bytes."""
    rows = [{"node_id": nid, "time_s": repr(t), "scap_v": repr(v)}
            for nid in sorted(traces) for t, v in traces[nid]]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.DictWriter(fh, fieldnames=["node_id", "time_s", "scap_v"])
            writer.writeheader()
            writer.writerows(rows)
        else:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")


# Ids the csv module must quote or JSON must escape, and floats whose repr
# takes an exponent or all 17 digits.
AWKWARD_TRACES = {
    "a,b": [(0.0, 1e-300), (1e20, 1.0 / 3.0)],
    'q"x': [(0.5, -0.0), (2.0 / 3.0, 4.463)],
    "\u00e9\nz": [(1e-5, 5e-324)],
    "n\u00f8de \u2603": [(0.1 + 0.2, 1.7976931348623157e308)],
    "plain": [(float(i), 4.0 + i / 7.0) for i in range(5)],
    "": [(3.0, 4.2)],
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_trace_export_writes_the_dict_writer_bytes(tmp_path, fmt):
    ours, reference = tmp_path / f"ours.{fmt}", tmp_path / f"reference.{fmt}"
    export_trace(AWKWARD_TRACES, fmt, str(ours))
    _dict_row_trace_export(AWKWARD_TRACES, fmt, str(reference))
    assert ours.read_bytes() == reference.read_bytes()
    assert load_trace(str(ours)) == AWKWARD_TRACES


def _record_row(r: CycleRecord) -> dict:
    return {
        "node_id": r.node_id,
        "cycle_index": r.cycle_index,
        "start_s": repr(r.start_s),
        "end_s": repr(r.end_s),
        "outcome": r.outcome.value,
        "fail_reason": r.fail_reason.value if r.fail_reason else "",
        "scap_v_start": repr(r.scap_v_start),
        "scap_v_end": repr(r.scap_v_end),
        "energy_consumed_j": repr(r.energy_consumed_j),
        "energy_harvested_j": repr(r.energy_harvested_j),
    }


def _dict_row_records_export(records, fmt, path):
    """One dict per record through csv.DictWriter or json.dumps;
    export_records must write the same bytes."""
    rows = list(map(_record_row, records))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.DictWriter(fh, fieldnames=list(metrics.RECORD_FIELDS))
            writer.writeheader()
            writer.writerows(rows)
        else:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")


# In increasing order, so that each but the last can start a cycle that
# ends at the next.
EXTREME_FLOATS = (0.0, 5e-324, 1e-300, 1e-5, 0.1 + 0.2, 1.0 / 3.0, 1e20,
                  1.7976931348623157e308)


# Increasing cycle ends, one for each pair _awkward_columns writes: the
# extreme floats above 0.0, and more between them.
AWKWARD_ENDS = (5e-324, 1e-300, 1e-5, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 7.0, 1e20,
                1e100, 1e300, 1e307, 1.7976931348623157e308)


def _awkward_columns() -> list[RecordColumns]:
    """For each AWKWARD_TRACES id, in that (unsorted) order, columns built
    with append of a record of every (outcome, fail reason) pair a closed
    cycle can hold, ending at AWKWARD_ENDS, its other floats drawn from
    EXTREME_FLOATS (and -0.0)."""
    pairs = [(o, r) for o, r in metrics.RECORD_PAIRS if o is not SessionOutcome.PENDING]
    x, n = EXTREME_FLOATS, len(EXTREME_FLOATS)
    nodes = []
    for k, nid in enumerate(AWKWARD_TRACES):
        rows = []
        for i, ((outcome, reason), end) in enumerate(zip(pairs, AWKWARD_ENDS, strict=True)):
            j = (i + k) % n
            rows.append((end, outcome, reason, -0.0 if i % 2 else x[j],
                         x[(j + 1) % n], x[(j + 2) % n]))
        nodes.append(_node_columns(nid, -0.0 if k % 2 else x[k], rows))
    return nodes


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_records_export_writes_the_dict_writer_bytes(tmp_path, monkeypatch, fmt, chunk):
    monkeypatch.setattr(metrics, "EXPORT_CHUNK", chunk)
    columns = _awkward_columns()
    records = [r for c in columns for r in c]
    ours, reference = tmp_path / f"ours.{fmt}", tmp_path / f"reference.{fmt}"
    export_records(iter(columns), fmt, str(ours))
    _dict_row_records_export(records, fmt, str(reference))
    assert ours.read_bytes() == reference.read_bytes()
    assert load_records(str(ours)) == records


def _columns(traces):
    """traces as load_trace_columns returns them."""
    return {nid: (array("d", [t for t, _ in points]),
                  array("d", [v for _, v in points]))
            for nid, points in traces.items()}


# 1 ends every node's samples on a chunk boundary; 3 splits "plain" (5
# samples) and leaves the other nodes a part of one chunk.
@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_trace_export_streams_one_pass_samples_in_chunks(
    tmp_path, monkeypatch, fmt, chunk
):
    monkeypatch.setattr(metrics, "EXPORT_CHUNK", chunk)
    ours, reference = tmp_path / f"ours.{fmt}", tmp_path / f"reference.{fmt}"
    one_pass = {nid: (p for p in points) for nid, points in AWKWARD_TRACES.items()}
    export_trace(one_pass, fmt, str(ours))
    _dict_row_trace_export(AWKWARD_TRACES, fmt, str(reference))
    assert ours.read_bytes() == reference.read_bytes()
    assert load_trace(str(ours)) == AWKWARD_TRACES
    assert load_trace_columns(str(ours)) == _columns(AWKWARD_TRACES)


def _interleaved(traces):
    """(node_id, t, V) rows taking one sample of each node in turn."""
    pending = {nid: list(points) for nid, points in traces.items()}
    while any(pending.values()):
        for nid, points in pending.items():
            if points:
                t, v = points.pop(0)
                yield nid, t, v


def _csv_text(columns, rows, newline):
    lines = [",".join(columns)]
    for nid, t, v in rows:
        cells = {"node_id": nid, "time_s": repr(t), "scap_v": repr(v)}
        lines.append(",".join(cells[c] for c in columns))
    return newline.join(lines) + newline


def _jsonl_text(keys, rows, blank=""):
    lines = []
    for nid, t, v in rows:
        cells = {"node_id": nid, "time_s": repr(t), "scap_v": repr(v)}
        lines.append(blank + json.dumps({k: cells[k] for k in keys}) + "\n")
    return "".join(lines)


TRACES = {
    "n1": [(0.0, 4.463), (1.0, 4.462999871), (2.0, 1.0 / 3.0 + 4.0)],
    "n2": [(0.0, 4.235), (0.5, 4.2)],
}
SORTED_ROWS = [(nid, t, v) for nid in TRACES for t, v in TRACES[nid]]
FIELDS = ["node_id", "time_s", "scap_v"]
REORDERED = ["scap_v", "node_id", "time_s"]


LAYOUTS = {
    "csv columns reordered": _csv_text(REORDERED, SORTED_ROWS, "\r\n"),
    "csv lf line ends": _csv_text(FIELDS, SORTED_ROWS, "\n"),
    "csv nodes interleaved": _csv_text(FIELDS, _interleaved(TRACES), "\r\n"),
    "csv blank lines": "\r\n" + _csv_text(FIELDS, SORTED_ROWS, "\r\n\r\n"),
    "jsonl keys reordered": _jsonl_text(REORDERED, SORTED_ROWS),
    "jsonl nodes interleaved": _jsonl_text(FIELDS, _interleaved(TRACES)),
    "jsonl blank lines": _jsonl_text(FIELDS, SORTED_ROWS, blank=" \n\n"),
    "jsonl indented": _jsonl_text(FIELDS, SORTED_ROWS, blank="\t "),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_load_trace_reads_any_column_order_and_layout(tmp_path, layout):
    path = tmp_path / "trace"
    path.write_text(LAYOUTS[layout], encoding="utf-8", newline="")
    assert load_trace(str(path)) == TRACES
    assert load_trace_columns(str(path)) == _columns(TRACES)


def _row_reader_columns(path, load=load_trace_columns):
    """path's columns as load reads them with the chunk path disabled: no
    line matches its pattern, so the row reader reads every line."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_line_pattern", lambda fields, jsonl: "(?!)")
        return load(path)


def _read_back(read, path):
    """(each node's id and column bytes, in order) or the message read raises."""
    try:
        columns = read(path)
    except ValueError as exc:
        return str(exc)
    return [(nid, *_column_bytes(c)) for nid, c in columns.items()]


def _column_bytes(c) -> list[bytes]:
    """The bytes of each of a node's columns, and of its boot voltage if it
    has one, so that -0.0 is not 0.0."""
    if isinstance(c, RecordColumns):
        c = (array("d", [c.boot_v]), c.end_s, c.scap_v_end, c.consumed_j, c.harvested_j,
             c.codes)
    return list(map(bytes, c))


def _escaped(text):
    """text as a JSON string with every character escaped."""
    return '"' + "".join(json.dumps(c)[1:-1] if ord(c) > 0xFFFF else f"\\u{ord(c):04x}"
                         for c in text) + '"'


def _trace_line(fmt, nid, t, v, kind=None):
    """The line export_trace writes for a sample, changed as the mutant kind
    says (None: unchanged)."""
    cells = {"node_id": nid, "time_s": repr(t), "scap_v": repr(v)}
    if kind == "bad float":
        cells["scap_v"] = "4.2.1"
    elif kind == "nan voltage":
        cells["scap_v"] = "nan"
    elif kind in ("inf time", "-inf time"):
        cells["time_s"] = kind.split()[0]
    elif kind == "backwards time":  # unless it is its node's first sample
        cells["time_s"] = repr(-1.7976931348623157e308)
    return _mutated_line(fmt, cells, kind)


def _mutated_line(fmt, cells, kind):
    """The line of cells (a dict in the columns' order) as an exporter writes
    it, laid out as the mutant kind says: "blank", "quoted id", "reordered"
    or "short row"."""
    if fmt == "csv":
        nid = cells["node_id"]
        row = [metrics._csv_cell(str(cell)) for cell in cells.values()]
        if kind == "quoted id":
            row[0] = '"' + nid.replace('"', '""') + '"'
        if kind == "short row":
            row.pop()
        line = ",".join(row) + ("\n" if kind == "reordered" else "\r\n")
    else:
        keys = sorted(cells)
        if kind == "reordered":
            keys.reverse()
        if kind == "short row":
            keys.pop()
        line = "{" + ", ".join(
            f'"{k}": ' + (_escaped(cells[k]) if kind == "quoted id" and k == "node_id"
                          else json.dumps(cells[k])) for k in keys) + "}\n"
    return ("\r\n" if fmt == "csv" else "\n") + line if kind == "blank" else line


# Ids that neither format quotes or escapes: "n1" fills chunks 0 and 1 of 3 lines.
PLAIN_TRACES = {"n1": [(float(i), 4.0 + i / 8.0) for i in range(6)], "n2": [(0.5, 4.1)]}

MUTANTS = ["blank", "quoted id", "reordered", "short row", "bad float", "nan voltage",
           "inf time", "-inf time", "backwards time"]

_ids = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
_times = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8,
                  unique=True)
_traces = st.dictionaries(_ids, _times.map(sorted).flatmap(lambda ts: st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=len(ts), max_size=len(ts)
).map(lambda vs: list(zip(ts, vs)))), max_size=4)


def _broken_then_short(breakers):
    """A mutant that breaks a rule of the export and, on the next line, a
    short row, which does not parse: the row reader reads the two in one
    batch, and the error raised must still be the first one's."""
    return st.tuples(st.integers(0, 1), st.integers(0, 3), st.sampled_from(breakers)).map(
        lambda m: [m, (m[0], m[1] + 1, "short row")])


# (chunk index, line in that chunk, mutant) lists; half of them a pair of
# _broken_then_short.
_mutants = st.one_of(
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 4), st.sampled_from(MUTANTS)),
             max_size=3),
    _broken_then_short(["bad float", "nan voltage", "inf time", "-inf time",
                        "backwards time"]))
# The reader properties below write a file per example.  Shrinking a failure
# has no bound on the examples it runs, so a broken reader could hold the
# suite for minutes and grow it to nearly a GiB; a failure is reported as
# drawn.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(traces=_traces, mutants=_mutants, fmt=st.sampled_from(["csv", "jsonl"]),
       chunk=st.sampled_from([1, 3, metrics.READ_CHUNK]))
@example(traces=AWKWARD_TRACES, mutants=[], fmt="csv", chunk=1)
@example(traces=AWKWARD_TRACES, mutants=[], fmt="jsonl", chunk=3)
# Chunk 0 of these holds the quoted id "a,b": the row reader reads all of it.
@example(traces=AWKWARD_TRACES, mutants=[(1, 1, "quoted id"), (2, 0, "backwards time")],
         fmt="csv", chunk=3)
@example(traces=AWKWARD_TRACES, mutants=[(1, 1, "-inf time")], fmt="csv", chunk=3)
@example(traces=AWKWARD_TRACES, mutants=[(2, 2, "inf time")], fmt="csv", chunk=3)
# Chunk 0 of these is the exporter's, so chunk 1 reaches the chunk path: its
# run of "n1" ends at an inf time, or goes back in its middle.
@example(traces=PLAIN_TRACES, mutants=[(1, 2, "inf time")], fmt="csv", chunk=3)
@example(traces=PLAIN_TRACES, mutants=[(1, 1, "backwards time")], fmt="csv", chunk=3)
@example(traces=PLAIN_TRACES, mutants=[(1, 2, "inf time")], fmt="jsonl", chunk=3)
@example(traces=PLAIN_TRACES, mutants=[(1, 1, "backwards time")], fmt="jsonl", chunk=3)
# Chunks of one line reach the row reader at line 1 a row at a time, while
# the row reader alone reads a batch of many rows that ends in the short
# row: line 1's bad float is still the error raised.
@example(traces=PLAIN_TRACES, mutants=[(0, 0, "bad float"), (0, 1, "short row")],
         fmt="csv", chunk=1)
def test_chunked_trace_read_matches_the_row_reader(tmp_path_factory, traces, mutants,
                                                   fmt, chunk):
    """load_trace_columns returns what the row reader returns, or raises its
    message naming the same line, whichever chunks the mutated lines are in."""
    path = tmp_path_factory.mktemp("trace") / f"trace.{fmt}"
    samples = [(nid, t, v) for nid in sorted(traces) for t, v in traces[nid]]
    kinds = {min(k * chunk + offset, len(samples) - 1): kind
             for k, offset, kind in mutants if samples}
    export_trace(traces, fmt, str(path))
    unchanged = path.read_bytes()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            fh.write("node_id,time_s,scap_v\r\n")
        fh.writelines(_trace_line(fmt, *sample, kinds.get(i))
                      for i, sample in enumerate(samples))
    expected = _read_back(_row_reader_columns, str(path))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "READ_CHUNK", chunk)
        assert _read_back(load_trace_columns, str(path)) == expected
    if not kinds:  # the exporter writes the nodes in id order
        assert path.read_bytes() == unchanged
        in_order = {nid: traces[nid] for nid in sorted(traces)}
        assert expected == _read_back(lambda _: _columns(in_order), None)


def _record_line(fmt, r: CycleRecord, kind=None):
    """The line export_records writes for a record, changed as the mutant
    kind says (None: unchanged)."""
    cells = _record_row(r)
    if kind == "bad float":
        cells["scap_v_end"] = "4.2.1"
    elif kind == "nan energy":
        cells["energy_consumed_j"] = "nan"
    elif kind == "index off by one":
        cells["cycle_index"] += 1
    elif kind == "start moved":  # before any record ends, and before this one
        cells["start_s"] = "-1.0"
    elif kind == "voltage moved" and r.cycle_index:  # a first record's is the boot voltage
        cells["scap_v_start"] = repr(math.nextafter(r.scap_v_start, math.inf))
    elif kind == "unknown outcome":
        cells["outcome"] = "lost"
    return _mutated_line(fmt, cells, kind)


LAYOUT_MUTANTS = ["blank", "quoted id", "reordered"]
RECORD_MUTANTS = [*LAYOUT_MUTANTS, "short row", "bad float", "nan energy",
                  "index off by one", "start moved", "voltage moved", "unknown outcome"]

_finite = st.floats(allow_nan=False, allow_infinity=False)
_energies = st.floats(min_value=0.0, allow_infinity=False)
_ends = st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                 min_size=1, max_size=6, unique=True).map(sorted)
# (end_s, outcome, fail reason, scap_v_end, consumed J, harvested J) rows.
_record_rows = _ends.flatmap(lambda ends: st.lists(
    st.tuples(st.sampled_from(metrics.RECORD_PAIRS), _finite, _energies, _energies),
    min_size=len(ends), max_size=len(ends),
).map(lambda rest: [(end, *pair, v, c, h) for end, (pair, v, c, h) in zip(ends, rest)]))
_record_columns = st.dictionaries(_ids, st.tuples(_finite, _record_rows), max_size=3).map(
    lambda nodes: [_node_columns(nid, boot_v, rows) for nid, (boot_v, rows) in nodes.items()])

# Ids that neither format quotes or escapes: "n1" fills chunks 0 and 1 of 3 lines.
PLAIN_COLUMNS = [
    _node_columns("n1", 4.4, [(10.0 * i, *pair, 4.4 - i / 8.0, 0.015, 0.0148)
                              for i, pair in enumerate(metrics.RECORD_PAIRS[:6], 1)]),
    _node_columns("n2", 4.2, [(7.0, SessionOutcome.DELIVERED, None, 4.1, 0.2, 0.0)]),
]


# READ_CHUNK counts trace lines of 3 cells: 1, 10 and 512 of them make
# chunks of 1, 3 and 153 record lines of 10 cells.
@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(columns=_record_columns,
       mutants=st.one_of(
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 4),
                              st.sampled_from(RECORD_MUTANTS)), max_size=3),
           _broken_then_short(["bad float", "nan energy", "index off by one",
                               "start moved", "voltage moved", "unknown outcome"])),
       fmt=st.sampled_from(["csv", "jsonl"]),
       read_chunk=st.sampled_from([1, 10, metrics.READ_CHUNK]))
@example(columns=_awkward_columns(), mutants=[], fmt="csv", read_chunk=10)
@example(columns=_awkward_columns(), mutants=[], fmt="jsonl", read_chunk=10)
@example(columns=PLAIN_COLUMNS, mutants=[(1, 1, "start moved")], fmt="csv", read_chunk=10)
@example(columns=PLAIN_COLUMNS, mutants=[(1, 2, "index off by one")], fmt="csv",
         read_chunk=10)
@example(columns=PLAIN_COLUMNS, mutants=[(1, 0, "voltage moved")], fmt="csv", read_chunk=10)
@example(columns=PLAIN_COLUMNS, mutants=[(1, 0, "nan energy")], fmt="jsonl", read_chunk=10)
@example(columns=PLAIN_COLUMNS, mutants=[(1, 1, "unknown outcome")], fmt="jsonl",
         read_chunk=10)
# A bare CR in a quoted CSV id ends a line, as CRLF and LF do.
@example(columns=[_node_columns("\r", 4.4, [(7.0, SessionOutcome.DELIVERED, None, 4.1,
                                             0.2, 0.0)])],
         mutants=[(0, 0, "short row")], fmt="csv", read_chunk=1)
# The row reader's batch ends in the short row; record 0's bad float is
# still the error raised.
@example(columns=PLAIN_COLUMNS, mutants=[(0, 0, "bad float"), (0, 1, "short row")],
         fmt="csv", read_chunk=1)
def test_chunked_record_read_matches_the_row_reader(tmp_path_factory, columns, mutants,
                                                    fmt, read_chunk):
    """load_record_columns returns what the row reader returns, or raises its
    message naming the same line, whichever chunks the mutated lines are in.
    The line it names is that of the first mutant that breaks a rule, and
    with none the columns read back are the ones exported."""
    path = tmp_path_factory.mktemp("records") / f"records.{fmt}"
    records = [r for c in columns for r in c]
    chunk = max(1, read_chunk * 3 // 10)
    kinds = {min(k * chunk + offset, len(records) - 1): kind
             for k, offset, kind in mutants if records}
    export_records(columns, fmt, str(path))
    unchanged = path.read_bytes()
    lines = [_record_line(fmt, r, kinds.get(i)) for i, r in enumerate(records)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            fh.write(",".join(metrics.RECORD_FIELDS) + "\r\n")
        fh.writelines(lines)
    expected = _read_back(
        lambda p: _row_reader_columns(p, metrics.load_record_columns), str(path))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "READ_CHUNK", read_chunk)
        assert _read_back(metrics.load_record_columns, str(path)) == expected
    bad = [i for i, kind in sorted(kinds.items()) if kind not in LAYOUT_MUTANTS
           and not (kind == "voltage moved" and records[i].cycle_index == 0)]
    if bad:
        # The line a row ends on, an id with a line break in CSV taking two.
        # The file is read with newline="", so CRLF, a bare CR and LF each
        # end a line.
        line = (fmt == "csv") + len(re.findall(r"\r\n|\r|\n", "".join(lines[:bad[0] + 1])))
        assert expected.startswith(f"{path}: line {line}: ")
    else:
        assert expected == _read_back(lambda _: {c.node_id: c for c in columns}, None)
    if not kinds:
        assert path.read_bytes() == unchanged


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("rows, line", [
    ([("n1", 0.0, 4.4), ("n1", 5.0, 4.0), ("n1", 1.0, 4.5)], 3),
    ([("n1", 0.0, 4.4), ("n2", 0.0, 4.0), ("n1", 0.0, 4.5)], 3),
    ([("n1", 0.0, 4.4), ("n1", 1.0, math.nan)], 2),
    ([("n1", math.inf, 4.4)], 1),
])
def test_load_trace_rejects_times_out_of_order_and_non_finite_floats(tmp_path, fmt,
                                                                     rows, line):
    text = _csv_text(FIELDS, rows, "\r\n") if fmt == "csv" else _jsonl_text(FIELDS, rows)
    path = tmp_path / f"trace.{fmt}"
    path.write_text(text, encoding="utf-8", newline="")
    line += fmt == "csv"  # the header
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ")):
        load_trace_columns(str(path))


@pytest.mark.parametrize("bad_row", [False, True])
def test_a_byte_not_utf8_fails_where_the_row_reader_fails(tmp_path, bad_row):
    """The bad byte lies in a later 8 KiB block of the file than line 11,
    but in the same chunk of lines: a bad row before it is still reported,
    on the chunk path (CRLF) and in the row reader (LF)."""
    rows = [("node-with-a-long-id", float(i), 4.0) for i in range(400)]
    if bad_row:
        rows[9] = ("node-with-a-long-id", 0.0, 4.0)  # line 11, not after line 10
    path = tmp_path / "trace.csv"
    for newline in ("\r\n", "\n"):
        data = _csv_text(FIELDS, rows, newline).encode()
        assert len(data) > 8192 + 2000
        path.write_bytes(data[:-2000] + b"\xff" + data[-2000:])
        message = _read_back(load_trace_columns, str(path))
        assert message == _read_back(_row_reader_columns, str(path))
        assert message.startswith(f"{path}: line 11: " if bad_row
                                  else f"{path}: not UTF-8 text")


def test_a_csv_cell_over_the_field_size_limit_fails_as_in_the_row_reader(tmp_path):
    path = tmp_path / "trace.csv"
    nid = "n" * (csv.field_size_limit() + 1)
    path.write_text(_csv_text(FIELDS, [(nid, 0.0, 4.0)], "\r\n"), encoding="utf-8", newline="")
    message = _read_back(load_trace_columns, str(path))
    assert message == _read_back(_row_reader_columns, str(path))
    assert message.startswith(f"{path}: line 2: field larger than field limit")


def _relaid(path, bad=None, cell=None):
    """path rewritten in a layout the exporter does not write (CSV lines end
    with LF, JSONL keys are in reverse order), the cell of row bad set to nan."""
    csv_file = path.endswith(".csv")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh) if csv_file else map(json.loads, fh))
    if bad is not None:
        rows[bad][cell] = "nan"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if csv_file:
            writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        else:
            fh.writelines(json.dumps(dict(reversed(row.items()))) + "\n" for row in rows)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("export", ["trace", "records"])
@pytest.mark.parametrize("bad", [None, 0, 200, 399])
def test_the_row_reader_hands_add_run_whole_runs(tmp_path, monkeypatch, fmt, export, bad):
    """One node's 400 rows in a layout the exporter does not write reach the
    rule function a chunk's worth at a time; a run it rejects is added again
    a row at a time, up to the row that breaks a rule."""
    n = 400
    path = str(tmp_path / f"{export}.{fmt}")
    if export == "trace":
        export_trace({"n1": [(float(i), 4.0) for i in range(n)]}, fmt, path)
        fields, rule, load, cell = (metrics.TRACE_FIELDS, "_add_trace_run",
                                    load_trace_columns, "scap_v")
    else:
        rows = [(10.0 * i, SessionOutcome.DELIVERED, None, 4.0, 0.01, 0.01)
                for i in range(1, n + 1)]
        export_records([_node_columns("n1", 4.0, rows)], fmt, path)
        fields, rule, load, cell = (metrics.RECORD_FIELDS, "_add_record_run",
                                    metrics.load_record_columns, "energy_consumed_j")
    _relaid(path, bad, cell)
    add_run, sizes = getattr(metrics, rule), []

    def counted(columns, nid, *cells):
        sizes.append(len(cells[0]))
        add_run(columns, nid, *cells)

    monkeypatch.setattr(metrics, rule, counted)
    size = metrics.READ_CHUNK * len(metrics.TRACE_FIELDS) // len(fields)  # rows a chunk
    if bad is None:
        load(path)
        assert len(sizes) <= math.ceil(n / size)
        return
    line = bad + 1 + (fmt == "csv")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ")):
        load(path)
    # The runs before the bad one, the bad run, then its rows up to the bad one.
    k = bad // size
    assert sizes == [size] * k + [min(size, n - k * size)] + [1] * (bad - k * size + 1)


def test_summary_round_trip(tmp_path):
    summary = RunSummary(
        duration_s=28800.0, seed=1, config_hash="abc123",
        nodes=(summarize_node("n1", "liot", _outcomes(_records(46, 46)),
                              voltage_stats([0.0], [4.3])),),
    )
    path = str(tmp_path / "summary.json")
    export_summary(summary, path)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == summary_dict(summary)
    assert summary.node("n1").packets_sent == 46
    with pytest.raises(KeyError):
        summary.node("missing")


def test_export_bad_paths(tmp_path):
    with pytest.raises(ExportError):
        export_records([], "csv", str(tmp_path / "nope" / "r.csv"))
    with pytest.raises(ExportError):
        load_records(str(tmp_path / "missing.csv"))
    with pytest.raises(ValueError):
        export_records([], "xml", str(tmp_path / "r.xml"))


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e4),
            st.floats(min_value=3.3, max_value=4.5),
        ),
        min_size=2,
        max_size=30,
    ).map(lambda pts: sorted(pts))
)
# A subnormal span: area / span rounds to 4.667 V.
@example([(0.0, 4.5), (1.5e-323, 4.5)])
def test_time_weighted_average_bounded_by_extrema(trace):
    ts = [t for t, _ in trace]
    if ts[-1] == ts[0]:
        return
    avg, lo, hi = voltage_stats(ts, [v for _, v in trace])
    assert lo - 1e-12 <= avg <= hi + 1e-12


def _short_scenario():
    node = NodeConfig(
        node_id="b", kind=NodeKind.BLE, profile=BLE_PROFILE,
        harvester=BLE_HARVESTER, supercap=Supercap(0.4, 4.463), margin=0.05,
    )
    return Scenario(
        duration_s=600.0, nodes=(node,),
        illumination=IlluminationProfile(kind="constant", lux=700.0), seed=9,
    )


def test_run_energy_totals_match_per_cycle_sum():
    result = shared_run(_short_scenario())
    nr = result.nodes["b"]
    per_cycle = sum(r.energy_consumed_j for r in nr.records)
    assert per_cycle + nr.trailing_consumed_j == pytest.approx(
        nr.total_consumed_j, rel=1e-6
    )


def test_trace_row_count_matches_sample_interval():
    result = shared_run(_short_scenario())
    # 1 Hz sampling over 600 s plus the t=0 sample.
    assert len(result.nodes["b"].trace) == 601
