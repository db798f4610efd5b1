"""Run observables: per-cycle records, voltage traces, summaries, exporters."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence

from .protocol import FailReason, SessionOutcome


@dataclass(frozen=True)
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
        if self.end_s <= self.start_s:
            raise ValueError("cycle must have positive duration")
        if self.energy_consumed_j < 0 or self.energy_harvested_j < 0:
            raise ValueError("energy fields must be >= 0")


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
    lo, hi = min(volts), max(volts)
    times = iter(times)
    t0 = first = next(times)
    v0 = volts[0]
    area = 0.0
    for t1, v1 in zip(times, islice(volts, 1, None)):
        area += 0.5 * (v0 + v1) * (t1 - t0)
        t0, v0 = t1, v1
    span = t0 - first
    if span <= 0:
        return volts[0], lo, hi
    # area / span rounds outside [lo, hi] when the span is tiny.
    return min(max(area / span, lo), hi), lo, hi


def time_weighted_voltage_stats(
    trace: list[tuple[float, float]]
) -> tuple[float, float, float]:
    """voltage_stats of a (t, V) trace."""
    return voltage_stats([t for t, _ in trace], [v for _, v in trace])


def summarize_node(
    node_id: str,
    kind: str,
    records: Sequence[CycleRecord],
    times: Iterable[float],
    volts: Sequence[float],
) -> NodeSummary:
    """Counts, PDR and voltage stats of one node (volts[i] sampled at times[i]).

    Each cycle record is one packet sent; the delivered ones were received.
    """
    sent = len(records)
    received = sum(1 for r in records if r.outcome is SessionOutcome.DELIVERED)
    pdr = received / sent if sent > 0 else 0.0
    avg, lo, hi = voltage_stats(times, volts)
    return NodeSummary(node_id, kind, sent, received, pdr, avg, lo, hi)


# --- export / import --------------------------------------------------------
#
# CSV files carry a header row; floats are serialized with repr() so an
# export-parse round trip is lossless at full double precision.

RECORD_FIELDS = (
    "node_id", "cycle_index", "start_s", "end_s", "outcome", "fail_reason",
    "scap_v_start", "scap_v_end", "energy_consumed_j", "energy_harvested_j",
)

TRACE_FIELDS = ("node_id", "time_s", "scap_v")


class ExportError(OSError):
    pass


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


def _parse_record(row: dict) -> CycleRecord:
    return CycleRecord(
        node_id=row["node_id"],
        cycle_index=int(row["cycle_index"]),
        start_s=float(row["start_s"]),
        end_s=float(row["end_s"]),
        outcome=SessionOutcome(row["outcome"]),
        fail_reason=FailReason(row["fail_reason"]) if row["fail_reason"] else None,
        scap_v_start=float(row["scap_v_start"]),
        scap_v_end=float(row["scap_v_end"]),
        energy_consumed_j=float(row["energy_consumed_j"]),
        energy_harvested_j=float(row["energy_harvested_j"]),
    )


def export_records(records: Iterable[CycleRecord], fmt: str, path: str) -> None:
    rows = [_record_row(r) for r in records]
    _write(fmt, path, RECORD_FIELDS, rows)


def load_records(path: str) -> list[CycleRecord]:
    return [_parse_record(row) for row in _read(path, RECORD_FIELDS)]


def export_trace(
    traces: dict[str, list[tuple[float, float]]], fmt: str, path: str
) -> None:
    rows = [
        {"node_id": nid, "time_s": repr(t), "scap_v": repr(v)}
        for nid in sorted(traces)
        for t, v in traces[nid]
    ]
    _write(fmt, path, TRACE_FIELDS, rows)


def load_trace(path: str) -> dict[str, list[tuple[float, float]]]:
    traces: dict[str, list[tuple[float, float]]] = {}
    for row in _read(path, TRACE_FIELDS):
        traces.setdefault(row["node_id"], []).append(
            (float(row["time_s"]), float(row["scap_v"]))
        )
    return traces


def summary_dict(summary: RunSummary) -> dict:
    return {
        "version": 1,
        "duration_s": summary.duration_s,
        "seed": summary.seed,
        "config_hash": summary.config_hash,
        "nodes": [
            {
                "node_id": n.node_id,
                "kind": n.kind,
                "packets_sent": n.packets_sent,
                "packets_received": n.packets_received,
                "pdr": n.pdr,
                "scap_avg_v": n.scap_avg_v,
                "scap_min_v": n.scap_min_v,
                "scap_max_v": n.scap_max_v,
            }
            for n in summary.nodes
        ],
    }


def summary_from_dict(d: dict) -> RunSummary:
    return RunSummary(
        duration_s=d["duration_s"],
        seed=d["seed"],
        config_hash=d["config_hash"],
        nodes=tuple(
            NodeSummary(
                node_id=n["node_id"],
                kind=n["kind"],
                packets_sent=n["packets_sent"],
                packets_received=n["packets_received"],
                pdr=n["pdr"],
                scap_avg_v=n["scap_avg_v"],
                scap_min_v=n["scap_min_v"],
                scap_max_v=n["scap_max_v"],
            )
            for n in d["nodes"]
        ),
    )


def export_summary(summary: RunSummary, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary_dict(summary), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ExportError(f"cannot write summary to {path}: {exc}") from exc


def load_summary(path: str) -> RunSummary:
    with open(path, encoding="utf-8") as fh:
        return summary_from_dict(json.load(fh))


def _write(fmt: str, path: str, fields: tuple[str, ...], rows: list[dict]) -> None:
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unsupported export format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if fmt == "csv":
                writer = csv.DictWriter(fh, fieldnames=list(fields))
                writer.writeheader()
                writer.writerows(rows)
            else:
                for row in rows:
                    fh.write(json.dumps(row, sort_keys=True))
                    fh.write("\n")
    except OSError as exc:
        raise ExportError(f"cannot write {fmt} to {path}: {exc}") from exc


def _read(path: str, fields: tuple[str, ...]) -> list[dict]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            head = fh.read(1)
            fh.seek(0)
            if head == "{":  # JSON-lines
                return [json.loads(line) for line in fh if line.strip()]
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise ExportError(f"cannot read {path}: {exc}") from exc
