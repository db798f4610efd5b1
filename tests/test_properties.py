"""Properties of whole runs over generated small scenarios."""

import copy
import dataclasses
import math
import os
import tempfile
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cases import shared_run
from liotsim import fsm
from liotsim.energy import active_totals, builtin_harvester
from liotsim.kernel import LightTable, estimated_cycles, gateway_sleep_s, run, shortest_cycle_s
from liotsim.metrics import export_records, load_records, voltage_stats
from liotsim.protocol import (
    BLE_SCRIPT,
    LIOT_SCRIPT,
    FailReason,
    FrameKind,
    SessionOutcome,
)
from liotsim.scenario import (
    ScenarioError,
    preset_dict,
    resolve_scenario_dict,
    scenario_from_dict,
)

LUX = st.floats(0.0, 1000.0)
SESSION_OPENERS = (FrameKind.ADV_ESS.value, FrameKind.NODE_ID_LUX.value)


@st.composite
def small_scenarios(draw) -> dict:
    """A scenario document: 1-3 nodes, at most 1800 s, light in [0, 1000] lx."""
    duration = draw(st.one_of(st.integers(1, 1800).map(float),
                              st.floats(1.0, 1800.0)))
    if draw(st.booleans()):
        light = {"kind": "constant", "lux": draw(LUX)}
    else:
        starts = draw(st.lists(st.floats(1.0, duration), max_size=3, unique=True))
        light = {"kind": "step",
                 "steps": [[t, draw(LUX)] for t in [0.0, *sorted(starts)]]}
    if draw(st.booleans()):
        light.update(jitter_pct=0.1, jitter_seed=draw(st.integers(0, 99)))
    kinds = draw(st.lists(st.sampled_from(("ble", "liot")), min_size=1, max_size=3))
    nodes = []
    for i, kind in enumerate(kinds):
        node = preset_dict(f"{kind}-700lx")["nodes"][0]
        node["id"] = f"{kind}-{i}"
        node["supercap"]["voltage_v"] = draw(st.floats(3.3, 4.5))
        nodes.append(node)
    return {**preset_dict("ble-700lx"), "duration_s": duration,
            "illumination": light, "nodes": nodes}


@settings(max_examples=20, deadline=None)
@given(small_scenarios(), st.sampled_from((0.1, 0.37, 1.0, 60.0, 3600.0)))
def test_trace_follows_the_sampling_rule_and_nothing_else_moves(doc, interval_s):
    sc = scenario_from_dict({**doc, "sample_interval_s": interval_s})
    result = shared_run(sc)
    at_1s = shared_run(scenario_from_dict({**doc, "sample_interval_s": 1.0}))
    end = doc["duration_s"]
    boot_v = {n["id"]: n["supercap"]["voltage_v"] for n in doc["nodes"]}
    expected = list(takewhile(lambda t: t <= end, fsm.sample_times(interval_s)))
    if expected[-1] < end:
        expected.append(end)  # the run ends off the grid
    for node_id, nr in result.nodes.items():
        times = [t for t, _ in nr.trace]
        assert times == expected
        assert times[-1] == end
        ref = at_1s.nodes[node_id]
        assert nr.records == ref.records
        assert nr.total_harvested_j == ref.total_harvested_j
        summary = result.summary.node(node_id)
        # The summary's voltage stats are the trace's.
        assert (summary.scap_avg_v, summary.scap_min_v, summary.scap_max_v) == (
            voltage_stats(nr.sample_times(), nr.volts))
        assert summary.packets_sent == len(nr.records)
        assert summary.packets_received == sum(
            1 for r in nr.records if r.outcome is SessionOutcome.DELIVERED)
        check_records_are_the_account(nr, result.frames, node_id,
                                      boot_v[node_id], end)
    # A run that keeps no trace takes and folds the same samples (shared_run
    # keeps its trace); nothing here reads the trace, so nothing reruns.
    untraced = run(sc)
    assert untraced.summary == result.summary
    assert untraced.frames == result.frames
    for node_id, nr in untraced.nodes.items():
        ref = result.nodes[node_id]
        assert nr.record_columns == ref.record_columns
        assert (nr.total_consumed_j, nr.total_harvested_j, nr.trailing_consumed_j) == (
            ref.total_consumed_j, ref.total_harvested_j, ref.trailing_consumed_j)


@st.composite
def fast_cycling_scenarios(draw) -> dict:
    """small_scenarios whose nodes may boot at v_min, harvest nothing in the
    dark (and so sleep the floor), or harvest enough to run continuously, so
    that their cycles come near the shortest that kernel.shortest_cycle_s
    allows."""
    doc = draw(small_scenarios())
    for node in doc["nodes"]:
        v_boot = node["supercap"]["voltage_v"]
        node["supercap"]["voltage_v"] = draw(st.sampled_from((3.3, 3.31, v_boot)))
        gain = draw(st.sampled_from((1.0, 10.0, 1000.0)))
        curve = builtin_harvester(node["harvester"])
        points = [[lux, p * gain] for lux, p in curve.points]
        node["harvester"] = {"points": [[0.0, 0.0], *points]}
    return doc


@settings(max_examples=40, deadline=None)
@given(fast_cycling_scenarios())
def test_no_run_closes_more_records_than_its_estimate(doc):
    sc = scenario_from_dict(doc)
    result = shared_run(sc)
    closed = {node_id: len(nr.record_columns) for node_id, nr in result.nodes.items()}
    for cfg in sc.nodes:
        assert closed[cfg.node_id] <= sc.duration_s / shortest_cycle_s(cfg) + 1
    assert sum(closed.values()) <= estimated_cycles(sc)
    # Each cycle logs at most one handshake's frames.
    script = {fsm.NodeKind.BLE: BLE_SCRIPT, fsm.NodeKind.LIOT: LIOT_SCRIPT}
    assert len(result.frames) <= sum(len(script[cfg.kind]) * closed[cfg.node_id]
                                     for cfg in sc.nodes)


# The stages that await the gateway: one that expires unanswered runs on
# once, to its timeout.
AWAIT_STAGES = (fsm.GW_REQUEST, fsm.BLE_DATA_EXCHANGE, fsm.LIOT_SLEEP_SET)


def both_kinds() -> dict:
    """The 700-lx BLE and LIoT preset nodes together, for half an hour."""
    nodes = [preset_dict(f"{kind}-700lx")["nodes"][0] for kind in ("ble", "liot")]
    return {**preset_dict("ble-700lx"), "duration_s": 1800.0, "nodes": nodes}


@settings(max_examples=30, deadline=None)
@given(fast_cycling_scenarios(), st.sampled_from((0.0, 0.2, 1.0)), st.booleans(),
       st.sampled_from(fsm.ADV_MODES))
# Every move of both bursts, each await stage's run-on included, whatever
# the draws reach.
@example(both_kinds(), 0.2, True, "uniform")
def test_every_timer_fires_at_its_nodes_deadline(doc, loss, present, adv_mode):
    # A node has one timer at a time, the one pushed after its last advance,
    # so no timer is ever superseded: each advance comes at the deadline the
    # node's previous one set.  Each advance makes one move of its node's
    # burst order: to sleep, to the burst's next stage, or an await stage's
    # run-on to its timeout; a delivery moves no node.
    advance, receive, calls = fsm.advance, fsm.receive, []

    def checked(state, cfg, now, **kw):
        assert now == state.phase_deadline
        calls.append(now)
        before, timeout = state.phase, state.timeout_s
        out = advance(state, cfg, now, **kw)
        after = state.phase
        if after is before and before in AWAIT_STAGES:
            assert state.phase_deadline == timeout and state.timeout_s is None
        else:
            order = (fsm.SLEEP, *fsm.BURST[cfg.kind], fsm.SLEEP)
            assert after is fsm.SLEEP or after is order[order.index(before) + 1], (
                before, after)
        return out

    def unmoved(state, cfg, frame, now, light):
        phase = (state.phase, state.phase_deadline)
        out = receive(state, cfg, frame, now, light)
        assert (state.phase, state.phase_deadline) == phase
        return out

    doc["channel"] = {"loss": loss, "seed": 0}
    doc["gateway"] = {"present": present}
    for node in doc["nodes"]:
        if node["kind"] == "ble":
            node["adv_mode"] = adv_mode
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsm, "advance", checked)
        mp.setattr(fsm, "receive", unmoved)
        result = run(scenario_from_dict(doc))
    # Every record but a run_ended one is closed by an advance.
    assert len(calls) >= sum(1 for r in result.records
                             if r.fail_reason is not FailReason.RUN_ENDED)


def check_records_are_the_account(nr, frames, node_id, boot_v, end) -> None:
    """The records tile the run, and each holds the session its node opened.

    The record view chains: each record starts where the one before it
    ended, at its voltage, and its cycle index is its position.  Every
    session-opening frame the node sent lies in its own record, in order; a
    record without one is a cycle that browned out before its session
    opened.  A session still open at the end is the last record, closed as
    run_ended at the end of the run.  An export of the node's record
    columns in either format reads back as the view.
    """
    records = nr.records
    opened = iter([f.sent_s for f in frames
                   if f.src == node_id and f.kind in SESSION_OPENERS])
    next_open = next(opened, None)
    start, v_start = 0.0, boot_v
    for i, r in enumerate(records):
        assert (r.cycle_index, r.start_s, r.scap_v_start) == (i, start, v_start)
        start, v_start = r.end_s, r.scap_v_end
        if next_open is not None and next_open <= r.end_s:
            assert r.start_s <= next_open
            next_open = next(opened, None)
        else:
            assert r.fail_reason is FailReason.BROWN_OUT
        if r.fail_reason is FailReason.RUN_ENDED:
            assert (i, r.end_s) == (len(records) - 1, end)
    assert next_open is None
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "jsonl"):
            path = os.path.join(tmp, f"records.{fmt}")
            export_records([nr.record_columns], fmt, path)
            assert load_records(path) == records


EXAMPLE = Path(__file__).resolve().parent.parent / "docs" / "scenario-example.yaml"
# Values put in place of a leaf: other types, edge numbers and empty containers.
ODD_VALUES = (None, True, False, 0, -1, 0.0, -0.5, 0.5, 1e300, math.nan, math.inf,
              -math.inf, "", "x", [], {}, [1], {"x": 1})


def _leaves(doc, path=()):
    """The path of every scalar in a document, list items by their index."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def one_leaf_mutants(draw) -> dict:
    """Two presets or the docs example, 120 s long, with one leaf replaced
    by an odd value, a multiple of itself or another leaf's value."""
    base = draw(st.sampled_from(("ble-500lx", "liot-700lx", str(EXAMPLE))))
    doc = resolve_scenario_dict(base)
    doc["duration_s"] = 120.0
    paths = list(_leaves(doc))
    path = draw(st.sampled_from(paths))
    old = _at(doc, path)
    options = [st.sampled_from(ODD_VALUES),
               st.sampled_from(paths).map(lambda p: copy.deepcopy(_at(doc, p)))]
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        options.append(st.sampled_from((-1.0, 0.5, 2.0, 1e6)).map(lambda k: old * k))
    *parent, leaf = path
    _at(doc, parent)[leaf] = draw(st.one_of(options))
    return doc


@settings(max_examples=60, deadline=None)
@given(one_leaf_mutants())
def test_a_mutated_scenario_is_rejected_by_path_or_runs(doc):
    try:
        sc = scenario_from_dict(doc)
    except ScenarioError:
        return
    result = shared_run(dataclasses.replace(sc, duration_s=min(sc.duration_s, 120.0)))
    boot_v = {n.node_id: n.supercap.voltage_v for n in sc.nodes}
    for node_id, nr in result.nodes.items():
        check_records_are_the_account(nr, result.frames, node_id,
                                      boot_v[node_id], result.summary.duration_s)


@st.composite
def lean_light_scenarios(draw) -> dict:
    """One or two nodes that boot near v_min, on curves that harvest nothing
    in the dark, under step light with dark spells, per-second jitter or a
    sinusoid of a few cycles a run."""
    duration = draw(st.floats(60.0, 1200.0))
    kind = draw(st.sampled_from(("step", "jitter", "sinusoid")))
    if kind == "sinusoid":
        mean = draw(st.floats(100.0, 1000.0))
        light = {"kind": "sinusoid", "mean": mean,
                 "amplitude": draw(st.floats(0.0, mean)),
                 "period_s": draw(st.floats(60.0, 1200.0))}
    else:
        starts = draw(st.lists(st.floats(1.0, duration), max_size=3, unique=True))
        light = {"kind": "step",
                 "steps": [[t, draw(st.sampled_from((0.0, 300.0, 700.0, 1000.0)))]
                           for t in [0.0, *sorted(starts)]]}
        if kind == "jitter":
            light.update(jitter_pct=0.5, jitter_seed=draw(st.integers(0, 99)))
    nodes = []
    for i, node_kind in enumerate(draw(st.lists(st.sampled_from(("ble", "liot")),
                                                min_size=1, max_size=2))):
        node = preset_dict(f"{node_kind}-700lx")["nodes"][0]
        node["id"] = f"{node_kind}-{i}"
        node["supercap"]["voltage_v"] = draw(st.floats(3.3, 3.5))
        node["efficiency"] = draw(st.sampled_from((1.0, 0.8)))
        gain = draw(st.sampled_from((1.0, 5.0, 20.0)))
        curve = builtin_harvester(node["harvester"])
        node["harvester"] = {"points": [[0.0, 0.0],
                                        *[[lux, p * gain] for lux, p in curve.points]]}
        nodes.append(node)
    return {**preset_dict("ble-700lx"), "duration_s": duration, "illumination": light,
            "nodes": nodes, "channel": {"loss": draw(st.sampled_from((0.0, 0.3)))}}


def _first_funded_ms(pieces, cfg, now, v, end) -> float:
    """The first time on a 1-ms grid after now at which the node, sleeping
    from voltage v at now, could start a burst: V^2 >= funded_v_sq, and a
    feasible solve at the light in force.  pieces are (start, end, harvest
    power) in time order; end when no grid time before the run's end is.
    The grid is stepped through only in pieces where V^2 reaches
    funded_v_sq."""
    cap, need_sq = cfg.supercap, fsm.funded_v_sq(cfg)
    p_load = cfg.profile.sleep_power_mw
    k = 1
    for start, stop, p_harv in pieces:
        if stop <= now:
            continue
        t0, stop = max(start, now), min(stop, end)
        p_w = (p_harv - p_load) * 1e-3
        if p_w > 0:
            p_w *= cfg.efficiency
        v_sq_end = v * v + 2.0 * p_w * (stop - t0) / cap.capacitance_f
        v_sq_end = min(max(v_sq_end, cap.v_min**2), cap.v_max**2)
        if (max(v * v, v_sq_end) >= need_sq
                and fsm.schedule_next_cycle(cfg, p_harv) is not None):
            while now + k * 1e-3 < stop:
                t = now + k * 1e-3
                if t >= t0:
                    v_sq = v * v + 2.0 * p_w * (t - t0) / cap.capacitance_f
                    if min(max(v_sq, cap.v_min**2), cap.v_max**2) >= need_sq:
                        return t
                k += 1
        k = max(k, math.ceil((stop - now) / 1e-3))
        v = v_sq_end ** 0.5
    return end


@settings(max_examples=25, deadline=None)
@given(lean_light_scenarios())
def test_every_burst_is_funded_and_every_wait_is_the_shortest(doc):
    sc = scenario_from_dict(doc)
    cfgs = {cfg.node_id: cfg for cfg in sc.nodes}
    advance, funded_wake = fsm.advance, fsm._funded_wake
    bursts, waits = [], []

    def checked_advance(state, cfg, now, **kw):
        asleep = state.phase is fsm.SLEEP
        out = advance(state, cfg, now, **kw)
        if asleep and state.phase is not fsm.SLEEP:
            bursts.append((cfg.node_id, now, state.voltage_v))
        return out

    def kept_wake(state, cfg, now, light):
        v = state.voltage_v  # the wait runs the node on to its wake
        wake = funded_wake(state, cfg, now, light)
        waits.append((cfg.node_id, now, v, wake))
        return wake

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsm, "advance", checked_advance)
        mp.setattr(fsm, "_funded_wake", kept_wake)
        run(sc)
    # Every burst starts with the supercap holding its energy above v_min.
    for node_id, _, v in bursts:
        need_sq = fsm.funded_v_sq(cfgs[node_id])
        assert v * v >= need_sq - 4 * math.ulp(need_sq)
    # The run's whole light table, none of it dropped: it has no readers.
    light = LightTable(sc.illumination, sc.duration_s, [c.harvester for c in sc.nodes])
    while light.ends[-1] != math.inf:
        light.fill()
    for node_id, now, v, wake in waits:
        cfg = cfgs[node_id]
        pieces = zip([0.0, *light.ends], light.ends, light.power[cfg.harvester])
        assert wake <= _first_funded_ms(pieces, cfg, now, v, sc.duration_s) + 1e-9
        if wake == sc.duration_s:
            continue  # a wake at the end of the run never comes
        # A wake before the end starts a burst at once.
        assert now < wake
        assert any(b == node_id and t == wake for b, t, _ in bursts)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("ble", "liot")), st.floats(500.0, 1000.0), st.floats(0.0, 0.5),
       st.floats(3.3, 4.5))
@example("ble", 560.0, 0.0, 3.3)
@example("liot", 690.0, 0.2, 4.235)
def test_under_constant_light_each_gap_is_the_burst_and_the_armed_sleep(kind, lux, margin,
                                                                         v_boot):
    # At loss 0 every stage ends at its nominal time: after its first delivery
    # a node delivers once per burst and armed sleep, a BLE node's own solve
    # stretched by its margin, or the LIoT node's assignment, without one.
    doc = preset_dict(f"{kind}-700lx")
    doc["nodes"][0].update(margin=margin, supercap={"capacitance_f": 0.4, "voltage_v": v_boot})
    doc.update(duration_s={"ble": 600.0, "liot": 10800.0}[kind], sample_interval_s=3600.0,
               illumination={"kind": "constant", "lux": lux}, channel={"loss": 0.0})
    sc = scenario_from_dict(doc)
    (cfg,) = sc.nodes
    solve = fsm.schedule_next_cycle if kind == "ble" else gateway_sleep_s
    sleep = solve(cfg, cfg.harvester.power_mw(lux))
    assert sleep > 0
    ends = [r.end_s for r in run(sc).records if r.outcome is SessionOutcome.DELIVERED]
    assert len(ends) >= 3
    for before, after in zip(ends, ends[1:]):
        assert after - before == pytest.approx(active_totals(cfg.profile)[0] + sleep, rel=1e-9)
