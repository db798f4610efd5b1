#!/usr/bin/env python3
"""Record the benchmark baseline of the current commit in bench/baseline.json.

    python3 bench/record_baseline.py            # seeds 1-10, about 20 minutes
    python3 bench/record_baseline.py --seeds 3

For every workload it runs the benchmark once per seed with tracing off and
keeps each end-to-end metric's values, median, quartiles and spread (the
distance between the quartiles as a share of the median).  It then makes two
traced runs at the default seed, requires their counts to repeat exactly, and
keeps the per-layer metrics of the first.  The ble-700lx preset is traced on
its own too, so its counts can be cited against a profile.  The git SHA, the
Python version and os.cpu_count() are recorded with the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT, load_program

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not out["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return out


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def ble_700lx_counts() -> dict[str, int]:
    load_program()
    import tracing
    from liotsim import kernel, scenario

    sc = scenario.load_preset("ble-700lx")
    with tracing.Tracer() as tracer:
        kernel.run(sc)
    return {**{f"{k}.calls": v for k, v in sorted(tracer.calls.items())},
            **dict(sorted(tracer.counts.items()))}


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    p.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = p.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for w in workloads:
        runs = [bench(w, seed, 0) for seed in range(1, args.seeds + 1)]
        end_to_end = {}
        for name in bounds:
            end_to_end[name] = spread([r["metrics"][name]["value"] for r in runs])
            end_to_end[name]["bound"] = bounds[name]
            print(f"{w:<9} {name:<17} median {end_to_end[name]['median']:10.4f}  "
                  f"spread {end_to_end[name]['spread']:.4f}  bound {bounds[name]}", flush=True)
        traced = [bench(w, 1, 1)["metrics"] for _ in range(2)]
        counts = {k: v["value"] for k, v in traced[0].items() if v["unit"] in ("count", "B")}
        repeat = counts == {k: v["value"] for k, v in traced[1].items() if k in counts}
        print(f"{w:<9} traced counts repeat exactly: {repeat}", flush=True)
        record["workloads"][w] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced[0].items()},
            "traced_counts_repeat": repeat,
        }
    record["ble-700lx_traced_counts"] = ble_700lx_counts()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
