"""Command-line entry point: solve, simulate, sweep, and report subcommands."""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import math
import os
import sys
from typing import Optional

import yaml

from . import fsm, kernel, metrics, scenario as scenario_mod
from .energy import (
    active_totals,
    builtin_harvester,
    builtin_profile,
    solve_sleep_time,
)
from .metrics import ExportError
from .scenario import ScenarioError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

EIGHT_HOURS_S = 8 * 3600.0


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_profile_arg(ref: str):
    """Profile argument: a built-in preset name or a YAML file."""
    try:
        return builtin_profile(ref), builtin_harvester(ref)
    except KeyError:
        pass
    if not os.path.exists(ref):
        raise CliError(
            f"profile {ref!r} is neither a built-in preset nor a file", EXIT_VALIDATION
        )
    try:
        return scenario_mod.load_profile_file(ref)
    except OSError as exc:
        raise CliError(str(exc), EXIT_IO)
    except (ScenarioError, yaml.YAMLError) as exc:
        raise CliError(str(exc), EXIT_VALIDATION)


def cmd_solve(args) -> int:
    if (args.lux is None) == (args.harvest_mw is None):
        raise CliError("pass exactly one of --lux or --harvest-mw", EXIT_VALIDATION)
    # The rules of a scenario file: numbers are finite, a margin is >= 0.
    for flag, value in (("--lux", args.lux), ("--harvest-mw", args.harvest_mw),
                        ("--margin", args.margin)):
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise CliError(f"{flag} must be a finite number >= 0", EXIT_VALIDATION)
    profile, harvester = _load_profile_arg(args.profile)
    if args.harvest_mw is not None:
        p_harv = args.harvest_mw
    else:
        if harvester is None:
            raise CliError(
                "profile file has no harvester curve; use --harvest-mw", EXIT_VALIDATION
            )
        p_harv = harvester.power_mw(args.lux)
    margin = args.margin
    if margin is None:
        # A profile that a BLE node accepts solves with a BLE node's margin.
        ble = not fsm.burst_mismatch(profile, fsm.BLE)
        margin = fsm.DEFAULT_MARGIN[fsm.BLE] if ble else 0.0

    sleep = solve_sleep_time(profile, p_harv)
    t_active, e_active = active_totals(profile)
    print(f"harvest power:    {p_harv:.5f} mW")
    print(f"active cycle:     {t_active:.3f} s, {e_active:.5f} J")
    if sleep is None:
        print("sleep time:       infeasible (harvest cannot cover even sleep)")
        return EXIT_INFEASIBLE
    if sleep == 0.0:
        print("sleep time:       0 s (harvest covers continuous operation)")
        cycle = t_active
    else:
        cycle = (t_active + sleep) * (1.0 + margin)
        print(f"sleep time:       {sleep:.3f} s")
    print(f"duty cycle:       {cycle:.3f} s (margin {margin:.0%})")
    print(f"samples per 8 h:  {int(EIGHT_HOURS_S // cycle)}")
    return EXIT_OK


def _load_scenario_doc(ref: str) -> dict:
    """The scenario document of a preset name or a YAML file."""
    try:
        return scenario_mod.resolve_scenario_dict(ref)
    except FileNotFoundError:
        raise CliError(
            f"{ref!r} is neither a preset ({', '.join(scenario_mod.PRESET_NAMES)}) "
            "nor a scenario file", EXIT_VALIDATION,
        )
    except OSError as exc:
        raise CliError(str(exc), EXIT_IO)
    except (ScenarioError, yaml.YAMLError) as exc:
        raise CliError(f"invalid scenario: {exc}", EXIT_VALIDATION)


def _print_summary(summary: metrics.RunSummary) -> None:
    print(f"{'node':<10} {'kind':<5} {'sent':>6} {'received':>9} "
          f"{'PDR':>6} {'avg SCap (V)':>13}")
    for n in summary.nodes:
        print(f"{n.node_id:<10} {n.kind:<5} {n.packets_sent:>6} "
              f"{n.packets_received:>9} {n.pdr:>6.3f} {n.scap_avg_v:>13.3f}")


def _write_outputs(result: kernel.RunResult, out_dir: str, fmt: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        metrics.export_summary(result.summary, os.path.join(out_dir, "summary.json"))
        ext = "csv" if fmt == "csv" else "jsonl"
        columns = (nr.record_columns for nr in result.nodes.values())
        metrics.export_records(columns, fmt, os.path.join(out_dir, f"records.{ext}"))
        samples = {nid: nr.samples() for nid, nr in result.nodes.items()}
        metrics.export_trace(samples, fmt, os.path.join(out_dir, f"trace.{ext}"))
    except (OSError, ExportError) as exc:
        raise CliError(str(exc), EXIT_IO)


def cmd_simulate(args) -> int:
    if args.format is not None and not args.out:
        raise CliError("--format needs --out, the directory to export to",
                       EXIT_VALIDATION)
    doc = _load_scenario_doc(args.scenario)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.duration is not None:
        doc["duration_s"] = args.duration
    try:
        sc = scenario_mod.scenario_from_dict(doc)
    except ScenarioError as exc:
        raise CliError(f"invalid scenario: {exc}", EXIT_VALIDATION)
    # Only an export reads the trace, so only --out keeps it.
    result = kernel.run(sc, trace=bool(args.out))
    if args.out:
        _write_outputs(result, args.out, args.format or "csv")
    _print_summary(result.summary)
    return EXIT_OK


def _sweep_one(sc: kernel.Scenario, value) -> list[dict]:
    result = kernel.run(sc)
    return [{"param_value": value, **node}
            for node in metrics.summary_dict(result.summary)["nodes"]]


def cmd_sweep(args) -> int:
    import csv

    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}", EXIT_VALIDATION)
    values = []
    for raw in args.values.split(","):
        raw = raw.strip()
        try:
            values.append(float(raw))
        except ValueError:
            values.append(raw)
    doc = _load_scenario_doc(args.scenario)
    # Build every point before running anything.  Each point sets the same
    # path, so one document serves them all.
    scenarios = []
    for v in values:
        try:
            scenario_mod.set_by_path(doc, args.param, v)
            scenarios.append(scenario_mod.scenario_from_dict(doc))
        except ScenarioError as exc:
            raise CliError(f"invalid sweep point {v!r}: {exc}", EXIT_VALIDATION)

    # A pool starts all of its workers at once: no more than there are points.
    workers = min(args.jobs, len(scenarios))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            all_rows = list(pool.map(_sweep_one, scenarios, values))
    else:
        all_rows = list(map(_sweep_one, scenarios, values))

    rows = [row for rows_ in all_rows for row in rows_]
    rows.sort(key=lambda r: (str(type(r["param_value"])), r["param_value"],
                             r["node_id"]))
    try:
        # The file is closed however the write ends; stdout stays open.
        with (open(args.out, "w", encoding="utf-8", newline="") if args.out
              else contextlib.nullcontext(sys.stdout)) as out:
            writer = csv.DictWriter(out, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}", EXIT_IO)
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        records = metrics.load_record_columns(args.records)
        traces = metrics.load_trace_columns(args.trace) if args.trace else {}
    except ExportError as exc:
        raise CliError(str(exc), EXIT_IO)
    except ValueError as exc:
        raise CliError(f"cannot parse input: {exc}", EXIT_VALIDATION)
    print(f"{'node':<10} {'sent':>6} {'received':>9} {'PDR':>6} "
          f"{'avg SCap (V)':>13}")
    # A node whose run closed no cycle has trace rows but no records.
    for node_id in sorted(records.keys() | traces.keys()):
        times, volts = traces.get(node_id, ((), ()))
        outcomes = records[node_id].outcomes() if node_id in records else []
        # Records do not carry the node kind, and the table does not show it.
        n = metrics.summarize_node(node_id, "", outcomes,
                                   metrics.voltage_stats(times, volts))
        # Without voltage samples there is no average to show.
        avg = f"{n.scap_avg_v:>13.3f}" if volts else f"{'-':>13}"
        print(f"{node_id:<10} {n.packets_sent:>6} {n.packets_received:>9} "
              f"{n.pdr:>6.3f} {avg}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liotsim",
        description="Energy-budget solver and discrete-event simulator for "
                    "batteryless BLE and light-based IoT sensor nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the balance-point sleep time")
    p.add_argument("--profile", required=True,
                   help="built-in profile (ble-table1, liot-table2) or YAML file")
    p.add_argument("--lux", type=float, help="illuminance; uses the harvester curve")
    p.add_argument("--harvest-mw", type=float, help="harvest power directly, in mW")
    p.add_argument("--margin", type=float, default=None,
                   help="duty-cycle stretch fraction (default 0.05 for a profile "
                        "that holds every stage of a BLE node, 0 otherwise)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run one scenario")
    p.add_argument("--scenario", required=True, help="preset name or YAML file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duration", type=float, default=None,
                   help="override the scenario duration in seconds")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=("csv", "jsonl"), default=None,
                   help="export format of --out (default csv)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a scenario across parameter values")
    p.add_argument("--scenario", required=True)
    p.add_argument("--param", required=True,
                   help="dotted schema path, e.g. illumination.lux")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default=None, help="merged CSV path (default stdout)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per value (default 1)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="summarize exported cycle records")
    p.add_argument("--records", required=True, help="records export (csv or jsonl)")
    p.add_argument("--trace", default=None, help="voltage trace export")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
