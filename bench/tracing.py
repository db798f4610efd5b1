"""Outside-in tracing of liotsim: wrap public functions where callers look them up.

Nothing in ``src/liotsim`` changes.  Each target below is rebound, for the
duration of a ``with Tracer():`` block, at the attribute its callers read at
call time (``fsm.accrue_energy`` is looked up on the ``liotsim.fsm`` module by
the kernel, ``supercap_step`` on ``liotsim.fsm`` by ``accrue_energy``, and so
on).  A function reached through two lookup sites is wrapped at both under one
span name.

Spans are aggregated in memory as they close: a call count, and self time,
which is the span's duration minus the time of the wrapped spans inside it.
A pass of the paper workload opens millions of spans, so individual spans
are not kept.  Forked sweep workers inherit the wrappers, but what they
record stays in the child process.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (span name, module, attribute where the caller looks the function up)
TARGETS = (
    ("kernel.run", "liotsim.kernel", "run"),
    ("kernel.lux_at", "liotsim.kernel", "IlluminationProfile.lux_at"),
    ("kernel.deliver", "liotsim.kernel", "deliver"),
    ("kernel.scenario_fingerprint", "liotsim.kernel", "scenario_fingerprint"),
    ("fsm.accrue_energy", "liotsim.fsm", "accrue_energy"),
    ("fsm.advance", "liotsim.fsm", "advance"),
    ("fsm.receive", "liotsim.fsm", "receive"),
    ("fsm.schedule_next_cycle", "liotsim.fsm", "schedule_next_cycle"),
    ("energy.supercap_step", "liotsim.fsm", "supercap_step"),
    ("energy.power_mw", "liotsim.energy", "HarvesterCurve.power_mw"),
    ("energy.solve_sleep_time", "liotsim.fsm", "solve_sleep_time"),
    ("energy.solve_sleep_time", "liotsim.kernel", "solve_sleep_time"),
    ("protocol.exchange_step", "liotsim.kernel", "exchange_step"),
    ("protocol.ble_exchange_step", "liotsim.fsm", "ble_exchange_step"),
    ("protocol.ble_exchange_step", "liotsim.protocol", "ble_exchange_step"),
    ("protocol.liot_exchange_step", "liotsim.fsm", "liot_exchange_step"),
    ("protocol.liot_exchange_step", "liotsim.protocol", "liot_exchange_step"),
    ("sensors.read_sensors", "liotsim.fsm", "read_sensors"),
    ("metrics.summarize_node", "liotsim.metrics", "summarize_node"),
    ("metrics.export_records", "liotsim.metrics", "export_records"),
    ("metrics.export_trace", "liotsim.metrics", "export_trace"),
    ("metrics.load_records", "liotsim.metrics", "load_records"),
    ("metrics.load_trace", "liotsim.metrics", "load_trace"),
    ("scenario.scenario_from_dict", "liotsim.scenario", "scenario_from_dict"),
    ("scenario.resolve_scenario_dict", "liotsim.scenario", "resolve_scenario_dict"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def run_counts(result) -> Counter:
    """Simulated counts of one ``kernel.run`` result.

    A target a later version of the program no longer has reads as 0.
    """
    c: Counter = Counter()
    for nr in result.nodes.values():
        c["ticks"] += len(nr.trace)
        c["transitions"] += len(getattr(nr, "transitions", ()))
        for r in nr.records:
            if r.fail_reason is not None:
                c[f"fail.{r.fail_reason.value}"] += 1
    for n in result.summary.nodes:
        c["sessions"] += n.packets_sent
        c["delivered"] += n.packets_received
    c["frames"] += len(result.frames)
    c["frames_delivered"] += sum(1 for f in result.frames if f.delivered)
    return c


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()  # simulated counts, summed over runs
        self._open: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter
        observe = name == "kernel.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += dt
            if observe:
                self.counts.update(run_counts(result))
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
