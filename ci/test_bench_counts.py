"""The per-layer counts of a tiny traced paper-8h pass of bench/run.py.
Run: python -m pytest -q -rP ci/test_bench_counts.py"""

import json
import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_a_traced_pass_counts_one_segment_per_advance_and_one_decision_per_frame():
    # A delivery closes its node's energy segment only near v_min, which no
    # preset reaches: one accrue_energy per advance and one at each run's end
    # (30,911 = 30,903 + 8 over the pass's 8 runs; 53,307 when every delivery
    # closed one).  The tracer re-runs each run with trace=True to read its
    # trace, so every count doubles: 61,822 = 61,806 + 16.  Each logged frame
    # is one delivery decision (75,708 of each).
    out = subprocess.run([sys.executable, str(RUN_PY), "--workload", "paper-8h", "--size",
                          "tiny", "--seed", "1", "--seconds", "0", "--trace", "1"],
                         check=True, capture_output=True, text=True, timeout=600).stdout
    line = json.loads(out.splitlines()[-1])
    value = {name: metric["value"] for name, metric in line["metrics"].items()}
    calls = {layer: value[f"{layer}.calls"] for layer in (
        "fsm.accrue_energy", "fsm.advance", "kernel.run", "kernel.deliver")}
    print(calls, "frames:", value["kernel.frames"])
    assert line["correct"]
    assert calls["fsm.accrue_energy"] == calls["fsm.advance"] + calls["kernel.run"]
    assert calls["kernel.deliver"] == value["kernel.frames"]
