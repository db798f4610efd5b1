"""Run observables: per-cycle records, voltage traces, summaries, exporters."""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import re
from array import array
from dataclasses import asdict, dataclass, field
from itertools import chain, groupby, islice
from math import isfinite
from operator import itemgetter, lt
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .protocol import FailReason, SessionOutcome


@dataclass(frozen=True, slots=True)
class CycleRecord:
    node_id: str
    cycle_index: int
    start_s: float
    end_s: float
    outcome: SessionOutcome
    fail_reason: Optional[FailReason]
    scap_v_start: float
    scap_v_end: float
    energy_consumed_j: float
    energy_harvested_j: float

    def __post_init__(self) -> None:
        check_cycle(self.start_s, self.end_s, self.energy_consumed_j,
                    self.energy_harvested_j)


def check_cycle(start_s: float, end_s: float, consumed_j: float,
                harvested_j: float) -> None:
    """The rule of every cycle record: it ends after it starts, and neither
    of its energies is negative.  Written so that NaN breaks it."""
    if not end_s > start_s:
        raise ValueError("cycle must have positive duration")
    if not (consumed_j >= 0 and harvested_j >= 0):
        raise ValueError("energy fields must be >= 0")


# Each (outcome, fail reason) pair a record can hold; RecordColumns keeps
# the pair of each record as its index here, one byte.
RECORD_PAIRS = tuple((o, r) for o in SessionOutcome for r in (None, *FailReason))
_OUTCOMES = tuple(o for o, _ in RECORD_PAIRS)
# Keyed by identity: Enum.__hash__ is a Python function, slow once a cycle.
_PAIR_CODE = {(id(o), id(r)): code for code, (o, r) in enumerate(RECORD_PAIRS)}


@dataclass(slots=True)
class RecordColumns:
    """One node's cycle records, as columns with one entry per record.

    A record starts where the one before it ends, at that one's voltage
    (the first at 0.0 and boot_v); its cycle index is its position and its
    node id is node_id.  Iterating builds each CycleRecord as it is read.
    """

    node_id: str
    boot_v: float
    end_s: array = field(default_factory=lambda: array("d"))
    scap_v_end: array = field(default_factory=lambda: array("d"))
    consumed_j: array = field(default_factory=lambda: array("d"))
    harvested_j: array = field(default_factory=lambda: array("d"))
    codes: bytearray = field(default_factory=bytearray)  # index into RECORD_PAIRS

    def append(
        self, end_s: float, outcome: SessionOutcome, fail_reason: Optional[FailReason],
        scap_v_end: float, consumed_j: float, harvested_j: float,
    ) -> None:
        """Add the next record; one that breaks check_cycle raises ValueError
        and adds nothing."""
        ends = self.end_s
        check_cycle(ends[-1] if ends else 0.0, end_s, consumed_j, harvested_j)
        self.codes.append(_PAIR_CODE[id(outcome), id(fail_reason)])
        ends.append(end_s)
        self.scap_v_end.append(scap_v_end)
        self.consumed_j.append(consumed_j)
        self.harvested_j.append(harvested_j)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[CycleRecord]:
        ends, volts = self.end_s, self.scap_v_end
        rows = zip(chain((0.0,), ends), ends, self.codes,
                   chain((self.boot_v,), volts), volts,
                   self.consumed_j, self.harvested_j)
        for i, (start, end, code, v_start, v_end, consumed, harvested) in enumerate(rows):
            outcome, fail_reason = RECORD_PAIRS[code]
            yield CycleRecord(self.node_id, i, start, end, outcome, fail_reason,
                              v_start, v_end, consumed, harvested)

    def outcomes(self) -> list[SessionOutcome]:
        """The outcome of each record, in order."""
        return list(map(_OUTCOMES.__getitem__, self.codes))


@dataclass(frozen=True)
class NodeSummary:
    node_id: str
    kind: str
    packets_sent: int
    packets_received: int
    pdr: float
    scap_avg_v: float
    scap_min_v: float
    scap_max_v: float


@dataclass(frozen=True)
class RunSummary:
    duration_s: float
    seed: int
    config_hash: str
    nodes: tuple[NodeSummary, ...]

    def node(self, node_id: str) -> NodeSummary:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(node_id)


def voltage_stats(
    times: Iterable[float], volts: Sequence[float]
) -> tuple[float, float, float]:
    """(avg, min, max) of volts[i] sampled at times[i], average trapezoid-weighted."""
    if not volts:
        return 0.0, 0.0, 0.0
    times = iter(times)
    t0 = first = next(times)
    v0 = volts[0]
    area = 0.0
    for t1, v1 in zip(times, islice(volts, 1, None)):
        area += 0.5 * (v0 + v1) * (t1 - t0)
        t0, v0 = t1, v1
    return finish_voltage_stats(area, t0 - first, volts[0], min(volts), max(volts))


def finish_voltage_stats(
    area: float, span: float, first_v: float, lo: float, hi: float
) -> tuple[float, float, float]:
    """(avg, min, max) of a trace from its trapezoid area over its time span,
    its first sample and its extremes; a trace that spans no time averages
    its first sample.  voltage_stats finishes with it, and so does a run,
    which folds the area and extremes as it samples (see fsm.accrue_energy).
    """
    if span <= 0:
        return first_v, lo, hi
    # area / span rounds outside [lo, hi] when the span is tiny.
    return min(max(area / span, lo), hi), lo, hi


def summarize_node(
    node_id: str,
    kind: str,
    outcomes: Sequence[SessionOutcome],
    stats: tuple[float, float, float],
) -> NodeSummary:
    """Counts, PDR and voltage stats of one node from the outcome of each of
    its cycle records and its trace's (avg, min, max) voltage.

    Each cycle record is one packet sent; the delivered ones were received.
    """
    sent = len(outcomes)
    received = outcomes.count(SessionOutcome.DELIVERED)
    pdr = received / sent if sent > 0 else 0.0
    return NodeSummary(node_id, kind, sent, received, pdr, *stats)


# --- export / import --------------------------------------------------------
#
# CSV files carry a header row and end each line with CRLF; JSONL files hold
# one object per line, keys sorted.  Floats are written with repr() (as JSON
# strings in JSONL; a repr needs no quoting or escaping in either format), so
# an export-parse round trip is lossless at full double precision.  Readers
# take the columns or keys in any order; a row they cannot parse, or that
# breaks its export's rules (_add_record_run, _add_trace_run), raises
# ValueError naming the file and the line.

# Each column, with the JSON type of its cells in JSONL.
RECORD_FIELDS = {
    "node_id": str, "cycle_index": int, "start_s": str, "end_s": str,
    "outcome": str, "fail_reason": str, "scap_v_start": str, "scap_v_end": str,
    "energy_consumed_j": str, "energy_harvested_j": str,
}

TRACE_FIELDS = {"node_id": str, "time_s": str, "scap_v": str}

# Lines joined into one write: export memory stays at one chunk, under 1 MiB
# in either format, however many rows there are.
EXPORT_CHUNK = 2048

# Cells read back per chunk, counted in trace lines of 3 cells: a chunk is
# 512 lines of a trace or 153 of records.  A chunk and the cells matched from
# it take about 150 kB.
READ_CHUNK = 512

# A line as the exporter writes it, one group per cell, a JSON line's groups
# in sorted key order.  A JSON string free of '"', backslash and U+0000-U+001F
# is its own raw text, and a JSON int its own digits; a CSV cell free of ',',
# '"', CR, LF and NUL is read as it is written.
_JSON_CELL = {str: r'"([^"\\\x00-\x1f]*)"', int: r"(-?(?:0|[1-9][0-9]*))"}
_CELL = r'([^,"\r\n\x00]*)'


def _line_pattern(fields: dict[str, type], jsonl: bool) -> str:
    """The regex of one line of an export of fields, laid out as the exporter
    lays it out."""
    if jsonl:
        return (r"^\{" + ", ".join(f'"{key}": {_JSON_CELL[fields[key]]}'
                                   for key in sorted(fields)) + r"\}\n")
    return "^" + ",".join([_CELL] * len(fields)) + r"\r\n"


class ExportError(OSError):
    pass


def export_records(columns: Iterable[RecordColumns], fmt: str, path: str) -> None:
    """One row per record, node by node in the order given, as _write_lines
    lays out rows.  Each row is written from its node's columns; no
    CycleRecord is built."""
    cell = _cell_encoder(fmt)
    pairs = [(cell(o.value), cell(r.value if r else "")) for o, r in RECORD_PAIRS]

    def node_lines(c: RecordColumns) -> Iterator[str]:
        qid, ends, volts = cell(c.node_id), c.end_s, c.scap_v_end
        rows = enumerate(zip(chain((0.0,), ends), ends, map(pairs.__getitem__, c.codes),
                             chain((c.boot_v,), volts), volts, c.consumed_j,
                             c.harvested_j))
        if fmt == "csv":
            return (f"{qid},{i},{start!r},{end!r},{o},{f},{v_start!r},{v_end!r},"
                    f"{consumed!r},{harvested!r}\r\n"
                    for i, (start, end, (o, f), v_start, v_end, consumed, harvested)
                    in rows)
        return (f'{{"cycle_index": {i}, "end_s": "{end!r}", '
                f'"energy_consumed_j": "{consumed!r}", '
                f'"energy_harvested_j": "{harvested!r}", '
                f'"fail_reason": {f}, "node_id": {qid}, "outcome": {o}, '
                f'"scap_v_end": "{v_end!r}", '
                f'"scap_v_start": "{v_start!r}", "start_s": "{start!r}"}}\n'
                for i, (start, end, (o, f), v_start, v_end, consumed, harvested) in rows)

    lines = chain.from_iterable(map(node_lines, columns))
    _write_lines(fmt, path, RECORD_FIELDS, lines)


def load_record_columns(path: str) -> dict[str, RecordColumns]:
    """Each node's records, nodes in order of first appearance, read by
    _load_columns and checked by _add_record_run."""
    return _load_columns(path, RECORD_FIELDS, _add_record_run)


def load_records(path: str) -> list[CycleRecord]:
    """The records of an export, node by node, as load_record_columns reads them."""
    return [r for c in load_record_columns(path).values() for r in c]


# The code of each (outcome, fail reason) pair, by the text of its two cells.
_CODE_OF_CELLS = {(o.value, r.value if r else ""): code
                  for code, (o, r) in enumerate(RECORD_PAIRS)}


def _add_record_run(columns: dict[str, RecordColumns], node_id: str, cycle_index, start_s,
                    end_s, outcome, fail_reason, scap_v_start, scap_v_end,
                    energy_consumed_j, energy_harvested_j) -> None:
    """The add_run of records (see _load_columns): every float is finite, each
    record holds a known (outcome, fail reason) pair and keeps check_cycle,
    and the records tile their node's run: each cycle index is the record's
    position, and each record starts at the time (0.0 for the first) and
    voltage the record before it ends at."""
    floats = [array("d", map(float, cells)) for cells in (
        start_s, end_s, scap_v_start, scap_v_end, energy_consumed_j, energy_harvested_j)]
    if not all(map(isfinite, chain.from_iterable(floats))):
        raise ValueError("times, voltages and energies must be finite")
    starts, ends, v_starts, v_ends, consumed, harvested = floats
    try:
        codes = bytearray(map(_CODE_OF_CELLS.__getitem__, zip(outcome, fail_reason)))
    except KeyError as exc:
        raise ValueError("no outcome %r with fail_reason %r" % exc.args[0]) from None
    node = columns.get(node_id) or RecordColumns(node_id, v_starts[0])
    first = len(node)
    if (list(map(int, cycle_index)) != list(range(first, first + len(codes)))
            or starts != (node.end_s[-1:] or array("d", [0.0])) + ends[:-1]
            or v_starts != (node.scap_v_end[-1:] or v_starts[:1]) + v_ends[:-1]):
        raise ValueError(f"node {node_id!r}: a record's cycle_index must be its position, "
                         "its start_s and scap_v_start the end_s and scap_v_end of the "
                         "record before it")
    for cycle in zip(starts, ends, consumed, harvested):
        check_cycle(*cycle)
    node.end_s.extend(ends)
    node.scap_v_end.extend(v_ends)
    node.consumed_j.extend(consumed)
    node.harvested_j.extend(harvested)
    node.codes.extend(codes)
    columns[node_id] = node


def export_trace(
    traces: Mapping[str, Iterable[tuple[float, float]]], fmt: str, path: str
) -> None:
    """One row per sample, nodes in id order, laid out as _write_lines lays
    out rows.  Each node's (t, V) samples are read once, as they are written.
    """
    cell = _cell_encoder(fmt)

    def node_lines(nid: str) -> Iterator[str]:
        samples, qid = traces[nid], cell(nid)
        if fmt == "csv":
            return (f"{qid},{t!r},{v!r}\r\n" for t, v in samples)
        return (f'{{"node_id": {qid}, "scap_v": "{v!r}", "time_s": "{t!r}"}}\n'
                for t, v in samples)

    lines = chain.from_iterable(map(node_lines, sorted(traces)))
    _write_lines(fmt, path, TRACE_FIELDS, lines)


def load_trace_columns(path: str) -> dict[str, tuple[array, array]]:
    """Each node's (times, volts) columns, nodes in order of first appearance,
    read by _load_columns and checked by _add_trace_run."""
    return _load_columns(path, TRACE_FIELDS, _add_trace_run)


def _add_trace_run(columns: dict[str, tuple[array, array]], node_id: str, time_s,
                   scap_v) -> None:
    """The add_run of traces (see _load_columns): every time and voltage is
    finite, and a node's times increase."""
    times = array("d", map(float, time_s))
    volts = array("d", map(float, scap_v))
    # Increasing times between finite ends are all finite.
    if not (isfinite(times[0]) and isfinite(times[-1]) and all(map(isfinite, volts))):
        raise ValueError("time_s and scap_v must be finite")
    column_times, column_volts = columns.get(node_id) or (array("d"), array("d"))
    ordered = column_times[-1:] + times
    if not all(map(lt, ordered, islice(ordered, 1, None))):
        k = next(k for k in range(len(times)) if not ordered[k] < ordered[k + 1])
        raise ValueError(f"node {node_id!r}: time_s {ordered[k + 1]!r} is not after "
                         f"the time before it, {ordered[k]!r}")
    column_times.extend(times)
    column_volts.extend(volts)
    columns[node_id] = column_times, column_volts


def _load_columns(path: str, fields: dict[str, type], add_run) -> dict:
    """Each node's columns of an export of fields (node_id first), built by
    add_run(columns, node_id, *cells), which adds a run of one node's rows,
    given as the cells of each other field, to that node's columns, or adds
    nothing and raises ValueError when a row breaks one of its export's rules.

    The file is read READ_CHUNK trace lines' worth of cells at a time.  A
    chunk whose every line is laid out as the exporter writes it is matched
    in one regex pass.  From the first chunk in any other layout, the row
    reader reads the rest of the file, up to as many rows at a time as a
    chunk has lines.  Either way
    each run of one node's rows goes to add_run whole (see _add_runs), and
    an error met reading a chunk or a row is raised after the rows before
    it are added, so a bad file fails at its first bad line.
    """
    columns: dict = {}
    with _export_file(path) as (fh, jsonl):
        if jsonl:
            start, names = 0, sorted(fields)
            rows = functools.partial(_jsonl_rows, path=path, fields=fields)
        else:
            names, start = _csv_header(fh, path, fields)
            if names is None:
                return columns
            rows = functools.partial(_csv_body, path=path, fields=fields, header=names)
        pattern = re.compile(_line_pattern(fields, jsonl), re.M)
        groups = itemgetter(*map(names.index, fields))  # each field's group
        size = max(1, READ_CHUNK * len(TRACE_FIELDS) // len(fields))
        chunks = _batched(fh, size)
        for lines in chunks:
            text = "".join(lines)
            # The csv module rejects a cell longer than its field size limit.
            matched = (pattern.findall(text)
                       if jsonl or len(text) <= csv.field_size_limit() else ())
            # A match runs from a line's start to its end: one a line means
            # every line is the exporter's.
            if len(matched) < len(lines):
                # The row reader reads the rest of the file, from this chunk's
                # first line.
                rest = rows(chain(lines, chain.from_iterable(chunks)), start=start)
                for batch in _batched(rest, size):
                    numbers, cells = zip(*batch)
                    _add_runs(columns, add_run, path, numbers, *zip(*cells))
                break
            _add_runs(columns, add_run, path, range(start + 1, start + len(lines) + 1),
                      *groups(tuple(zip(*matched))))
            start += len(lines)
    return columns


def _batched(items: Iterable, size: int) -> Iterator[list]:
    """items in lists of up to size; a ValueError met reading them is
    raised after the list of the items before it."""
    while True:
        batch: list = []
        try:
            batch.extend(islice(items, size))
        except ValueError:
            if batch:
                yield batch
            raise
        if batch:
            yield batch
        if len(batch) < size:
            return


def _add_runs(columns: dict, add_run, path: str, line_numbers: Sequence[int],
              ids: Sequence[str], *cells: Sequence) -> None:
    """Hand add_run each run of one node's rows, row i being that of node
    ids[i] with cells column[i], read from line line_numbers[i].  A run
    add_run rejects is added again a row at a time, so the error names its
    first bad line."""
    end = 0
    for nid, run in groupby(ids):
        first, end = end, end + len(list(run))
        try:
            add_run(columns, nid, *(column[first:end] for column in cells))
        except ValueError:
            for i in range(first, end):
                try:
                    add_run(columns, nid, *(column[i:i + 1] for column in cells))
                except ValueError as exc:
                    raise _bad_row(path, line_numbers[i], exc) from None


def load_trace(path: str) -> dict[str, list[tuple[float, float]]]:
    """The (t, V) samples of each node, as load_trace_columns reads them."""
    return {nid: list(zip(times, volts))
            for nid, (times, volts) in load_trace_columns(path).items()}


def summary_dict(summary: RunSummary) -> dict:
    """summary as summary.json v1 holds it: its fields, nodes a list."""
    d = asdict(summary)
    return {"version": 1, **d, "nodes": list(d["nodes"])}


def export_summary(summary: RunSummary, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary_dict(summary), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ExportError(f"cannot write summary to {path}: {exc}") from exc


def _check_format(fmt: str) -> None:
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unsupported export format {fmt!r}")


def _write_lines(fmt: str, path: str, fields: dict[str, type],
                 lines: Iterable[str]) -> None:
    """Write a CSV file's header row, then lines, EXPORT_CHUNK lines per write."""
    _check_format(fmt)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if fmt == "csv":
                fh.write(",".join(fields) + "\r\n")
            lines = iter(lines)
            while chunk := "".join(islice(lines, EXPORT_CHUNK)):
                fh.write(chunk)
    except OSError as exc:
        raise ExportError(f"cannot write {fmt} to {path}: {exc}") from exc


def _cell_encoder(fmt: str):
    """A function that encodes a text cell as fmt writes it in a row of
    several cells: quoted by the csv module, or as a JSON string.  It encodes
    each distinct text once."""
    return functools.cache(_csv_cell if fmt == "csv" else json.dumps)


def _csv_cell(text: str) -> str:
    """text as the csv module writes it in a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _bad_row(path: str, line: int, problem) -> ValueError:
    return ValueError(f"{path}: line {line}: {problem}")


@contextlib.contextmanager
def _export_file(path: str) -> Iterator[tuple[io.TextIOBase, bool]]:
    """(the open file, whether it holds JSONL) of a CSV or JSONL export; an
    error reading it raises ExportError, and bytes that are not UTF-8 raise
    ValueError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            head = fh.read(1)
            while head.isspace():
                head = fh.read(1)
            fh.seek(0)
            yield fh, head == "{"
    except OSError as exc:
        raise ExportError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def _csv_header(fh, path: str, fields: dict[str, type]) -> tuple[Optional[list[str]], int]:
    """(the header row, None if the file has no row; the lines it took),
    blank lines before it skipped."""
    reader = csv.reader(fh)
    try:
        header = next(filter(None, reader), None)
    except csv.Error as exc:
        raise _bad_row(path, reader.line_num, exc) from None
    if header is not None and sorted(header) != sorted(fields):
        raise _bad_row(path, reader.line_num,
                       f"the header must name the columns {', '.join(fields)}")
    return header, reader.line_num


def _csv_body(lines: Iterable[str], path: str, fields: dict[str, type],
              header: list[str], start: int) -> Iterator[tuple[int, tuple]]:
    """The rows of CSV lines after the header, the first line numbered start + 1."""
    reader = csv.reader(lines)
    cells = itemgetter(*map(header.index, fields))
    width = len(fields)
    try:
        for row in reader:
            if len(row) != width:
                if not row:
                    continue  # a blank line
                raise _bad_row(path, start + reader.line_num,
                               f"{len(row)} cells where the header has {width}")
            yield start + reader.line_num, cells(row)
    except csv.Error as exc:
        raise _bad_row(path, start + reader.line_num, exc) from None


def _jsonl_rows(lines: Iterable[str], path: str, fields: dict[str, type],
                start: int) -> Iterator[tuple[int, tuple]]:
    """The rows of JSONL lines, the first line numbered start + 1."""
    decode = json.JSONDecoder().raw_decode
    cells = itemgetter(*fields)
    width = len(fields)
    types = tuple(fields.values())
    for line, text in enumerate(lines, start + 1):
        text = text.strip()
        if not text:
            continue
        try:
            obj, end = decode(text)
        except ValueError as exc:
            raise _bad_row(path, line, exc) from None
        if end != len(text):
            raise _bad_row(path, line, "data after the JSON value")
        try:
            row = cells(obj)
        except (KeyError, TypeError):
            row = None
        if row is None or len(obj) != width or tuple(map(type, row)) != types:
            raise _bad_row(path, line, "expected an object of " + ", ".join(
                f"{name}: {kind.__name__}" for name, kind in fields.items()))
        yield line, row
