#!/usr/bin/env python3
"""Benchmark of liotsim: one workload per invocation, measured from outside.

    python3 bench/run.py --workload paper-8h --seed 3 --seconds 20 --trace 0

Run it from anywhere; the program is imported from ``src/`` next to this
directory.  The workload's inputs come from ``--seed``.  Passes repeat for
about ``--seconds`` (at least one), and their outputs are checked after the
timed region.  Every metric is printed with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``, where a pass is one
attempt and fails when any of its checks fails.

Times are host seconds scaled to the reference host's quiet speed by the
probe of ``hostclock.py``; the table also prints the unscaled ``host_wall_s``.
``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: seconds of one pass, set-up excluded: per step kind, steps per
  pass × the median step time;
* ``node_hours_per_s``: simulated node-hours per second of a pass;
* ``setup_s``: median, over fresh interpreters, of importing liotsim and
  building every Scenario the pass runs;
* ``peak_rss_mib``: ``ru_maxrss`` of this process after the passes.

``--trace 1`` runs the same passes, then one more with the outside-in
tracer of ``tracing.py`` installed, and reports the per-layer metrics.
``error_rate`` (failed ÷ attempted) is printed in the table in both modes.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
REFERENCE = BENCH / "reference.json"
WORK_ROOT = ROOT / ".bench_build"

SETUP_PROBES = 9  # fresh interpreters timed per run, after one untimed warm-up
SETUP_PROBE_INTERVAL_S = 0.005  # set-up takes under 0.2 s, so probe the host often
MAX_PASSES = 1000
FAIL_REASONS = ("timeout", "no_gateway", "protocol_violation", "brown_out")
CLI_SUBCOMMANDS = ("simulate", "report", "sweep")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("paper-8h", "mesh", "cli-io"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the self-test")
    p.add_argument("--golden-dir", default=str(GOLDEN_DIR),
                   help="expected preset summaries (default tests/golden)")
    p.add_argument("--reference", default=str(REFERENCE),
                   help="pinned counts at the default seed (default bench/reference.json)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program() -> None:
    sys.path.insert(0, str(SRC))


def setup_probe(args) -> None:
    """Child side of setup_s: import liotsim and build every Scenario of a pass."""
    from hostclock import HostClock

    def setup() -> None:
        load_program()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, args.size, "", None).build()

    with HostClock(SETUP_PROBE_INTERVAL_S) as clock:
        _, _, scaled = clock.time(setup)
    print(repr(scaled))


def setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--seconds", "0",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        if i:  # the first probe only fills the bytecode caches
            samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


class Samples:
    """Host and scaled seconds of every step run, by step kind."""

    def __init__(self) -> None:
        self.host: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)


def run_pass(wl, index: int, clock, samples: Samples) -> list:
    """Run the steps of one pass, adding each step's seconds to samples."""
    outputs = []
    for kind, step in wl.steps(index):
        result, host, scaled = clock.time(step)
        outputs.append(result)
        samples.host[kind].append(host)
        samples.scaled[kind].append(scaled)
    return outputs


def timed_passes(wl, seconds: float, clock) -> tuple[Samples, list]:
    """Run passes for about `seconds`, at least one; digest each outside the timing."""
    samples = Samples()
    digests = [wl.digest(0, run_pass(wl, 0, clock, samples))]
    first = sum(map(sum, samples.host.values()))
    while len(digests) < max(1, min(MAX_PASSES, int(seconds / first))):
        digests.append(wl.digest(len(digests), run_pass(wl, len(digests), clock, samples)))
    return samples, digests


def pass_seconds(times: dict[str, list[float]], passes: int) -> float:
    """Seconds of one pass: per step kind, steps per pass × median step time.

    Medians keep a burst of load from other processes on the machine out of
    the figure; with one step of each kind this is the median pass.
    """
    return sum(len(v) / passes * statistics.median(v) for v in times.values())


def layer_metrics(wl, tracer, traced: Samples, traced_digest, untraced: Samples,
                  passes: int) -> dict:
    import tracing
    import workloads

    m: dict = {}
    for name in tracing.SPAN_NAMES:
        m[f"{name}.calls"] = (tracer.calls[name], "count")
        m[f"{name}.self_s"] = (tracer.self_s[name], "s")
    c = tracer.counts
    events = c["ticks"] + c["frames"] + tracer.calls["fsm.advance"]
    m["kernel.ticks"] = (c["ticks"], "count")
    m["kernel.frames"] = (c["frames"], "count")
    m["kernel.events"] = (events, "count")
    m["kernel.us_per_event"] = (
        1e6 * tracer.self_s["kernel.run"] / events if events else 0.0, "us")
    m["kernel.frame_delivery"] = (
        c["frames_delivered"] / c["frames"] if c["frames"] else 0.0, "ratio")
    m["fsm.transitions"] = (c["transitions"], "count")
    m["protocol.sessions"] = (c["sessions"], "count")
    m["protocol.delivered"] = (c["delivered"], "count")
    for reason in FAIL_REASONS:
        m[f"protocol.fail.{reason}"] = (c[f"fail.{reason}"], "count")

    # Only cli-io goes through cli.main and writes files; elsewhere these read 0.
    for sub in CLI_SUBCOMMANDS:
        wall = sum(sum(v) for kind, v in traced.scaled.items() if kind.split(".")[0] == sub)
        m[f"cli.main.{sub}.wall_s"] = (wall if wl.name == "cli-io" else 0.0, "s")
    rows, size, speedup = 0, 0, 0.0
    if wl.name == "cli-io":
        rows, size = wl.written(traced_digest)
        # Both sides untraced and in host seconds: the --jobs 1 sweep of the
        # check, the median --jobs 2 sweep.
        jobs2 = untraced.host[f"sweep.jobs{workloads.SWEEP_JOBS}"]
        speedup = wl.sweep_jobs1_s / statistics.median(jobs2)
    m["cli.sweep.speedup"] = (speedup, "ratio")
    m["metrics.rows_written"] = (rows, "count")
    m["metrics.bytes_written"] = (size, "B")
    m["trace_overhead"] = (
        pass_seconds(traced.scaled, 1) / pass_seconds(untraced.scaled, passes), "ratio")
    return m


def run(args) -> dict:
    setup_s = None if args.trace else setup_seconds(args)
    load_program()
    import tracing
    import workloads
    from hostclock import HostClock

    with open(args.reference, encoding="utf-8") as fh:
        expected = workloads.Expected(args.golden_dir, json.load(fh))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir, expected)
        wl.build()
        if hasattr(wl, "write_inputs"):
            wl.write_inputs()
        with HostClock() as clock:
            samples, digests = timed_passes(wl, args.seconds, clock)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        host_wall = pass_seconds(samples.host, len(digests))
        if args.trace:
            traced = Samples()
            with tracing.Tracer() as tracer, HostClock() as clock:
                wl.build()
                outputs = run_pass(wl, len(digests), clock, traced)
            traced_digest = wl.digest(len(digests), outputs)
            del outputs
            failures = wl.check(digests + [traced_digest])
            metrics = layer_metrics(wl, tracer, traced, traced_digest, samples, len(digests))
        else:
            failures = wl.check(digests)
            wall = pass_seconds(samples.scaled, len(digests))
            metrics = {
                "wall_s": (wall, "s"),
                "node_hours_per_s": (wl.node_hours / wall, "node-h/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mib": (peak_rss_mib, "MiB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"passes": len(digests), "failures": failures, "metrics": metrics,
            "host_wall_s": host_wall}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "liotsim" / "__init__.py").is_file():
        print(f"error: no liotsim package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    out = run(args)
    failures = out["failures"]
    failed = sum(1 for errs in failures if errs)
    for i, errs in enumerate(failures):
        for e in errs:
            print(f"pass {i}: {e}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {out['passes']}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'host_wall_s':<36} {out['host_wall_s']:>14.6g} s (unscaled)")
    print(f"  {'error_rate':<36} {failed / len(failures):>14.6g} failed/attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
