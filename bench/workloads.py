"""The three workloads of the liotsim benchmark.

Each workload makes its inputs from the benchmark seed, builds every Scenario
its pass will run (the set-up that ``setup_s`` times) and lists the steps of
one pass, each a kind and a callable (the work that ``wall_s`` times).  The
step outputs of a pass are reduced to a small digest outside the timed
region, and the digests are checked afterwards.  Steps look the program's
functions up when they run, so the tracer's wrappers apply to them.

Why these workloads:

* ``paper-8h`` is the paper's own workload: the four 8-hour presets and the
  criterion-5 Monte-Carlo batch.  Almost all of its time is the 1-second
  energy sampling tick; light, channel and gateway do little work.
* ``mesh`` puts 18 nodes on one gateway for an hour under jittered, stepped
  light and per-link loss, so per-event kernel cost, protocol steps, channel
  draws and illumination lookups show, which ``paper-8h`` barely exercises.
* ``cli-io`` goes through ``liotsim.cli.main`` and is the only workload where
  export and import move real volume, YAML is parsed and the process-pool
  sweep runs.

The mesh and cli-io scenarios are generated here, not read from the
repository's docs, and use no ``environment`` or ``gateway`` keys, so schema
and documentation changes cannot silently change a workload.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import filecmp
import io
import json
import os
import random
import statistics
import time
from dataclasses import dataclass

import yaml

from liotsim import kernel, metrics, scenario
from liotsim.protocol import SENSOR_CHANNELS, LinkType, SessionOutcome

DEFAULT_SEED = 1
SIZES = ("full", "tiny")

# Acceptance criterion 5: mean session PDR over the batch, per preset.
BATCH_TARGETS = (("ble-700lx", 0.991, 0.01), ("ble-500lx", 0.912, 0.02))


@dataclass(frozen=True)
class Expected:
    """Where the expected outputs come from."""

    golden_dir: str  # preset summaries, one <preset>.json each
    reference: dict  # integer counts at DEFAULT_SEED: workload -> size -> counts


def _node_hours(scenarios) -> float:
    return sum(sc.duration_s * len(sc.nodes) for sc in scenarios) / 3600.0


def _sent_received(summary: dict) -> dict[str, list[int]]:
    return {
        n["node_id"]: [n["packets_sent"], n["packets_received"]]
        for n in summary["nodes"]
    }


def _received_le_sent(counts: dict[str, list[int]], where: str) -> list[str]:
    return [
        f"{where}: node {nid} received {r} > sent {s}"
        for nid, (s, r) in counts.items()
        if r > s
    ]


def _pinned_errors(name: str, size: str, got: dict, expected: Expected) -> list[str]:
    want = expected.reference.get(name, {}).get(size)
    if got == want:
        return []
    return [f"{name}: counts at seed {DEFAULT_SEED} differ from the pinned reference"]


class PaperWorkload:
    """Four presets at seed 1, then the criterion-5 batch of both BLE presets."""

    name = "paper-8h"

    def __init__(self, seed: int, size: str, workdir: str, expected: Expected):
        rng = random.Random(f"{self.name}|{seed}")
        n = 24 if size == "full" else 2
        self.batch_seeds = [rng.randrange(1, 2**31) for _ in range(n)]
        self.expected = expected

    def build(self) -> None:
        self.presets = [(p, scenario.load_preset(p)) for p in scenario.PRESET_NAMES]
        self.batch = []
        for preset, _, _ in BATCH_TARGETS:
            for s in self.batch_seeds:
                doc = scenario.preset_dict(preset)
                doc["seed"] = s
                self.batch.append((preset, scenario.scenario_from_dict(doc)))
        self.node_hours = _node_hours(sc for _, sc in self.presets + self.batch)

    def steps(self, index: int):
        # Keep only summaries: a whole RunResult per run would dominate peak RSS.
        return [(p, lambda sc=sc: kernel.run(sc).summary)
                for p, sc in self.presets + self.batch]

    def digest(self, index: int, outputs) -> list[tuple[str, dict]]:
        names = [p for p, _ in self.presets + self.batch]
        return [(p, metrics.summary_dict(s)) for p, s in zip(names, outputs)]

    def check(self, digests) -> list[list[str]]:
        golden = {}
        for p in scenario.PRESET_NAMES:
            path = os.path.join(self.expected.golden_dir, f"{p}.json")
            with open(path, encoding="utf-8") as fh:
                golden[p] = json.load(fh)
        out = []
        for dg in digests:
            presets, batch = dg[: len(golden)], dg[len(golden):]
            errs = [f"{p}: summary differs from the golden"
                    for p, summary in presets if summary != golden[p]]
            for p, summary in dg:
                errs += _received_le_sent(_sent_received(summary), p)
            for preset, target, tol in BATCH_TARGETS:
                mean = statistics.mean(s["nodes"][0]["pdr"] for p, s in batch if p == preset)
                if abs(mean - target) > tol:
                    errs.append(f"{preset}: batch mean PDR {mean:.4f} not {target}±{tol}")
            out.append(errs)
        return out


def mesh_doc(seed: int, size: str) -> dict:
    rng = random.Random(f"mesh|{seed}")
    n_ble, duration = (16, 3600.0) if size == "full" else (4, 1200.0)

    def supercap(lo: float, hi: float) -> dict:
        return {"capacitance_f": 0.4, "voltage_v": round(rng.uniform(lo, hi), 3)}

    nodes = [
        {"id": f"ble-{i + 1:02d}", "kind": "ble", "supercap": supercap(4.30, 4.50),
         "adv_mode": "uniform"}
        for i in range(n_ble)
    ]
    nodes.append({"id": "liot-full", "kind": "liot", "supercap": supercap(4.20, 4.45)})
    nodes.append({"id": "liot-subset", "kind": "liot", "supercap": supercap(4.20, 4.45),
                  "sensors": sorted(rng.sample(SENSOR_CHANNELS, 2))})
    return {
        "version": 1,
        "duration_s": duration,
        "seed": rng.randrange(1, 2**31),
        "illumination": {
            "kind": "step",
            "steps": [[0.0, 700.0], [duration / 2, 500.0]],
            "jitter_pct": 0.05,
            "jitter_seed": rng.randrange(2**31),
        },
        "channel": {
            "per_link_loss": {
                link.value: round(rng.uniform(0.002, 0.02), 4) for link in LinkType
            },
            "seed": rng.randrange(2**31),
        },
        "nodes": nodes,
    }


class MeshWorkload:
    """16 BLE nodes and 2 LIoT nodes on one gateway for one simulated hour."""

    name = "mesh"

    def __init__(self, seed: int, size: str, workdir: str, expected: Expected):
        self.seed, self.size, self.expected = seed, size, expected
        self.doc = mesh_doc(seed, size)

    def build(self) -> None:
        self.scenario = scenario.scenario_from_dict(copy.deepcopy(self.doc))
        self.node_hours = _node_hours([self.scenario])

    def steps(self, index: int):
        return [("run", lambda: kernel.run(self.scenario))]

    def digest(self, index: int, outputs) -> dict:
        result, = outputs
        return {
            "summary": metrics.summary_dict(result.summary),
            "delivered_records": {
                nid: sum(1 for r in nr.records if r.outcome is SessionOutcome.DELIVERED)
                for nid, nr in result.nodes.items()
            },
            "frames": len(result.frames),
            "frames_delivered": sum(1 for f in result.frames if f.delivered),
        }

    @staticmethod
    def counts(dg: dict) -> dict:
        return {
            "nodes": _sent_received(dg["summary"]),
            "frames": dg["frames"],
            "frames_delivered": dg["frames_delivered"],
        }

    def default_seed_counts(self, digests=()) -> dict:
        """Integer counts at DEFAULT_SEED, from an untimed run when the seed differs."""
        if self.seed == DEFAULT_SEED and digests:
            return self.counts(digests[0])
        ref = MeshWorkload(DEFAULT_SEED, self.size, "", self.expected)
        ref.build()
        return self.counts(ref.digest(0, [step() for _, step in ref.steps(0)]))

    def check(self, digests) -> list[list[str]]:
        pinned = _pinned_errors(self.name, self.size,
                                self.default_seed_counts(digests), self.expected)
        out = []
        for dg in digests:
            errs = list(pinned)
            if dg != digests[0]:
                errs.append("pass output differs from the first pass")
            counts = _sent_received(dg["summary"])
            errs += _received_le_sent(counts, self.name)
            errs += [f"{nid}: delivered records != packets_received"
                     for nid, (_, r) in counts.items() if dg["delivered_records"][nid] != r]
            if dg["frames_delivered"] > dg["frames"]:
                errs.append("more frames delivered than sent")
            out.append(errs)
        return out


def cli_doc(seed: int, size: str) -> tuple[dict, list[int]]:
    """A 2-node scenario (BLE plus subset LIoT, step lux) and the sweep's lux values."""
    rng = random.Random(f"cli-io|{seed}")
    duration = 28800.0 if size == "full" else 3600.0
    doc = {
        "version": 1,
        "duration_s": duration,
        "seed": rng.randrange(1, 2**31),
        "illumination": {"kind": "step", "steps": [[0.0, 700.0], [duration / 2, 500.0]]},
        "channel": {"loss": round(rng.uniform(0.001, 0.01), 4),
                    "seed": rng.randrange(2**31)},
        "nodes": [
            {"id": "ble-1", "kind": "ble",
             "supercap": {"capacitance_f": 0.4,
                          "voltage_v": round(rng.uniform(4.35, 4.50), 3)}},
            {"id": "liot-1", "kind": "liot",
             "supercap": {"capacitance_f": 0.4,
                          "voltage_v": round(rng.uniform(4.20, 4.45), 3)},
             "sensors": sorted(rng.sample(SENSOR_CHANNELS, 2))},
        ],
    }
    lux = sorted(rng.sample(range(500, 701, 10), 4 if size == "full" else 2))
    return doc, lux


SWEEP_PRESET = "ble-700lx"
SWEEP_PARAM = "illumination.lux"
SWEEP_JOBS = 2  # the reference machine has 2 cores


class CliIoWorkload:
    """simulate --out (csv and jsonl), report on each, and a --jobs 2 lux sweep."""

    name = "cli-io"

    def __init__(self, seed: int, size: str, workdir: str, expected: Expected):
        self.seed, self.size, self.workdir, self.expected = seed, size, workdir, expected
        self.doc, self.lux = cli_doc(seed, size)
        self.values = ",".join(str(v) for v in self.lux)
        self.scenario_path = os.path.join(workdir, f"scenario-{seed}.yaml")
        self.sweep_jobs1_s = 0.0

    def build(self) -> None:
        self.scenario = scenario.scenario_from_dict(copy.deepcopy(self.doc))
        points = []
        for v in self.lux:
            d = scenario.preset_dict(SWEEP_PRESET)
            scenario.set_by_path(d, SWEEP_PARAM, float(v))
            points.append(scenario.scenario_from_dict(d))
        self.node_hours = 2 * _node_hours([self.scenario]) + _node_hours(points)

    def write_inputs(self) -> None:
        with open(self.scenario_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.doc, fh, sort_keys=False)

    @staticmethod
    def _main(argv: list[str]) -> tuple[int, str]:
        """(exit code, stdout) of one cli.main call."""
        from liotsim import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def _sweep(self, jobs: int, out: str) -> tuple[int, str]:
        return self._main(["sweep", "--scenario", SWEEP_PRESET, "--param", SWEEP_PARAM,
                           "--values", self.values, "--jobs", str(jobs), "--out", out])

    def _pass_dir(self, index: int) -> str:
        return os.path.join(self.workdir, f"pass-{index}")

    def steps(self, index: int):
        """Step kinds are '<subcommand>.<detail>'; each returns (exit code, stdout)."""
        base = self._pass_dir(index)
        argvs = {}
        for fmt in ("csv", "jsonl"):
            argvs[f"simulate.{fmt}"] = ["simulate", "--scenario", self.scenario_path,
                                        "--out", os.path.join(base, fmt), "--format", fmt]
        for fmt in ("csv", "jsonl"):
            d = os.path.join(base, fmt)
            argvs[f"report.{fmt}"] = ["report", "--records", os.path.join(d, f"records.{fmt}"),
                                      "--trace", os.path.join(d, f"trace.{fmt}")]
        out = [(kind, lambda argv=argv: self._main(argv)) for kind, argv in argvs.items()]
        sweep_csv = os.path.join(base, "sweep.csv")
        out.append((f"sweep.jobs{SWEEP_JOBS}", lambda: self._sweep(SWEEP_JOBS, sweep_csv)))
        return out

    def digest(self, index: int, outputs) -> dict:
        kinds = [kind for kind, _ in self.steps(index)]
        return {"dir": self._pass_dir(index), "calls": dict(zip(kinds, outputs))}

    @staticmethod
    def written(dg: dict) -> tuple[int, int]:
        """(data rows in the records and trace files, bytes of every file written)."""
        rows = size = 0
        for root, _, files in os.walk(dg["dir"]):
            for f in files:
                path = os.path.join(root, f)
                size += os.path.getsize(path)
                if f.startswith(("records.", "trace.")):
                    with open(path, encoding="utf-8") as fh:
                        rows += sum(1 for _ in fh) - f.endswith(".csv")
        return rows, size

    def reference_outputs(self) -> None:
        """Untimed: the in-memory run of the scenario and a --jobs 1 sweep."""
        self.ref = kernel.run(scenario.load_scenario_file(self.scenario_path))
        self.jobs1_path = os.path.join(self.workdir, f"sweep-jobs1-{self.seed}.csv")
        t0 = time.perf_counter()
        self.jobs1_code, _ = self._sweep(1, self.jobs1_path)
        self.sweep_jobs1_s = time.perf_counter() - t0
        with open(self.jobs1_path, encoding="utf-8", newline="") as fh:
            sweep = [[row["param_value"], row["node_id"], int(row["packets_sent"]),
                      int(row["packets_received"])] for row in csv.DictReader(fh)]
        self.ref_counts = {
            "simulate": _sent_received(metrics.summary_dict(self.ref.summary)),
            "sweep": sweep,
        }

    def default_seed_counts(self) -> dict:
        if self.seed == DEFAULT_SEED:
            return self.ref_counts
        ref = CliIoWorkload(DEFAULT_SEED, self.size, self.workdir, self.expected)
        ref.write_inputs()
        ref.reference_outputs()
        return ref.ref_counts

    def _round_trip_errors(self, pass_dir: str, ref_summary: dict) -> list[str]:
        """Exported files read back equal to the in-memory run."""
        errs = []
        for fmt in ("csv", "jsonl"):
            d = os.path.join(pass_dir, fmt)
            try:
                if metrics.load_records(os.path.join(d, f"records.{fmt}")) != self.ref.records:
                    errs.append(f"{fmt} records round trip differs from the run")
                if metrics.load_trace(os.path.join(d, f"trace.{fmt}")) != self.ref.traces:
                    errs.append(f"{fmt} trace round trip differs from the run")
                with open(os.path.join(d, "summary.json"), encoding="utf-8") as fh:
                    if json.load(fh) != ref_summary:
                        errs.append(f"{fmt} summary.json differs from the run")
            except (OSError, ValueError, KeyError) as exc:
                errs.append(f"{fmt} output unreadable: {exc}")
        return errs

    @staticmethod
    def _same_exports(a: str, b: str) -> bool:
        names = [os.path.join(fmt, f"{kind}.{fmt}") for fmt in ("csv", "jsonl")
                 for kind in ("records", "trace")]
        names += [os.path.join(fmt, "summary.json") for fmt in ("csv", "jsonl")]
        try:
            return all(filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False)
                       for n in names)
        except OSError:
            return False

    def check(self, digests) -> list[list[str]]:
        self.reference_outputs()
        ref_summary = metrics.summary_dict(self.ref.summary)
        with open(self.jobs1_path, "rb") as fh:
            jobs1_bytes = fh.read()
        common = [f"--jobs 1 sweep exited {self.jobs1_code}"] if self.jobs1_code else []
        common += _received_le_sent(self.ref_counts["simulate"], "simulate")
        common += [f"sweep {v}: node {nid} received {r} > sent {s}"
                   for v, nid, s, r in self.ref_counts["sweep"] if r > s]
        common += _pinned_errors(self.name, self.size, self.default_seed_counts(),
                                 self.expected)
        # Reading exports back is the costly check: a pass whose files are
        # byte-identical to the first pass's shares its result.
        first = digests[0]["dir"]
        first_round_trip = self._round_trip_errors(first, ref_summary)
        out = []
        for dg in digests:
            errs = common + [f"{key} exited {rc}" for key, (rc, _) in dg["calls"].items() if rc]
            if self._same_exports(dg["dir"], first):
                errs += first_round_trip
            else:
                errs += self._round_trip_errors(dg["dir"], ref_summary)
            report_csv, report_jsonl = (dg["calls"][f"report.{f}"][1] for f in ("csv", "jsonl"))
            if report_csv != report_jsonl or not all(n in report_csv for n in self.ref.nodes):
                errs.append("report output differs between csv and jsonl")
            try:
                with open(os.path.join(dg["dir"], "sweep.csv"), "rb") as fh:
                    if fh.read() != jobs1_bytes:
                        errs.append(f"--jobs {SWEEP_JOBS} sweep CSV differs from --jobs 1")
            except OSError as exc:
                errs.append(f"sweep output unreadable: {exc}")
            out.append(errs)
        return out


WORKLOADS = {w.name: w for w in (PaperWorkload, MeshWorkload, CliIoWorkload)}
