import bisect
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import random
import struct
import subprocess
import sys
from itertools import islice, takewhile

import pytest
from hypothesis import given, settings, strategies as st

from cases import shared_run
from liotsim.energy import (
    BLE_HARVESTER,
    BLE_PROFILE,
    LIOT_HARVESTER,
    LIOT_PROFILE,
    HarvesterCurve,
    Supercap,
    supercap_segment,
)
from liotsim import fsm, kernel
from liotsim.fsm import NodeConfig, NodeKind
from liotsim.kernel import (
    ILLUMINATION_KINDS,
    ChannelModel,
    FrameLogEntry,
    GatewayConfig,
    IlluminationProfile,
    LightTable,
    Scenario,
    deliver,
    per_frame_loss_for_session_pdr,
    run,
    scenario_fingerprint,
)
from liotsim.metrics import voltage_stats
from liotsim.protocol import (
    BLE_SCRIPT,
    GATEWAY_ID,
    LIOT_SCRIPT,
    FailReason,
    Frame,
    LinkType,
)
from liotsim.scenario import (
    PRESET_NAMES,
    load_preset,
    load_scenario_file,
    preset_dict,
    scenario_from_dict,
    set_by_path,
)

DOCS_EXAMPLE = os.path.join(
    os.path.dirname(__file__), os.pardir, "docs", "scenario-example.yaml"
)


def ble_node(node_id="ble-1", **kw) -> NodeConfig:
    defaults = dict(
        node_id=node_id,
        kind=NodeKind.BLE,
        profile=BLE_PROFILE,
        harvester=BLE_HARVESTER,
        supercap=Supercap(0.4, 4.463),
        margin=0.05,
    )
    defaults.update(kw)
    return NodeConfig(**defaults)


def liot_node(node_id="liot-1", **kw) -> NodeConfig:
    defaults = dict(
        node_id=node_id,
        kind=NodeKind.LIOT,
        profile=LIOT_PROFILE,
        harvester=LIOT_HARVESTER,
        supercap=Supercap(0.4, 4.235),
        margin=0.0,
    )
    defaults.update(kw)
    return NodeConfig(**defaults)


def test_illumination_constant():
    prof = IlluminationProfile(kind="constant", lux=700.0)
    assert prof.lux_at(0.0) == 700.0
    assert prof.lux_at(12345.6) == 700.0


def test_illumination_step():
    prof = IlluminationProfile(
        kind="step", steps=((0.0, 700.0), (14400.0, 500.0))
    )
    assert prof.lux_at(0.0) == 700.0
    assert prof.lux_at(14399.9) == 700.0
    assert prof.lux_at(14400.0) == 500.0
    assert prof.lux_at(20000.0) == 500.0


def test_illumination_sinusoid():
    prof = IlluminationProfile(
        kind="sinusoid", mean=600.0, amplitude=100.0, period_s=28800.0
    )
    assert prof.lux_at(7200.0) == pytest.approx(700.0)
    assert prof.lux_at(0.0) == pytest.approx(600.0)
    # Held at its value at the start of each second.
    assert prof.lux_at(100.9) == prof.lux_at(100.0) < prof.lux_at(101.0)


def _reference_step_lux(steps, t):
    """The lux of a step profile at t, by a linear scan of its steps."""
    lux = steps[0][1]
    for start, step_lux in steps:
        if start <= t:
            lux = step_lux
    return lux


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.001, 1e6), max_size=40, unique=True),
       st.lists(st.floats(0.0, 2e6), max_size=20), st.data())
def test_step_lux_is_the_last_step_started(starts, times, data):
    steps = tuple((t, data.draw(st.floats(0.0, 1e5)))
                  for t in [0.0, *sorted(starts)])
    prof = IlluminationProfile(kind="step", steps=steps)
    # The step starts themselves, and the floats just before them.
    on_steps = [t for t, _ in steps] + [math.nextafter(t, 0.0) for t, _ in steps]
    for t in times + on_steps:
        assert prof.lux_at(t) == _reference_step_lux(steps, t)


def _attached_node(light, node=None):
    """The state of a node at boot, reading light from its first piece."""
    cfg = node or ble_node()
    state = fsm.initial_state(cfg, 1.0)
    light.attach(state, cfg.harvester)
    return state, cfg


def test_light_schedule_change_points(monkeypatch):
    monkeypatch.setattr(kernel, "LIGHT_CHUNK", 4)
    curve = BLE_HARVESTER

    def powers(profile, starts):
        return [curve.power_mw(profile.lux_at(t)) for t in starts]

    steps = IlluminationProfile(kind="step", steps=((0.0, 700.0), (10.5, 500.0)))
    light = LightTable(steps, 30.0, [curve])
    assert (light.ends, light.power) == (
        [10.5, math.inf], {curve: powers(steps, [0.0, 10.5])})
    constant = LightTable(IlluminationProfile(), 30.0, [curve, curve])
    assert (constant.ends, constant.power) == (
        [math.inf], {curve: [curve.power_mw(700.0)]})
    # Jitter adds every whole second up to the end of the run, 4 at a time.
    jittered = dataclasses.replace(steps, jitter_pct=0.1, jitter_seed=4)
    light = LightTable(jittered, 12.0, [curve])
    assert light.ends == [1.0, 2.0, 3.0, 4.0]
    assert light.power[curve] == powers(jittered, [0.0, 1.0, 2.0, 3.0])
    state, cfg = _attached_node(light)
    assert state.p_harv is light.power[curve]
    # Walking past the filled pieces drops those the only node has passed.
    fsm.accrue_energy(state, cfg, 10.75, light)
    assert light.ends == [9.0, 10.0, 10.5, 11.0]
    assert light.power[curve] == powers(jittered, [8.0, 9.0, 10.0, 10.5])
    assert state.light_i == 3
    # A segment that ends on a change point leaves the cursor on the piece
    # starting there; the last piece starts at the end of the run.
    fsm.accrue_energy(state, cfg, 12.0, light)
    assert light.ends == [12.0, math.inf]
    assert state.light_i == 1
    assert light.power[curve] == powers(jittered, [11.0, 12.0])


@st.composite
def light_walks(draw):
    """A light profile, its run length and the times at which each of one to
    three nodes closes an energy segment, ending with the end of the run.

    Times are drawn from the whole run and from its change points, so
    segments end on piece boundaries as well as inside pieces.
    """
    duration = draw(st.floats(1.0, 50.0))
    kind = draw(st.sampled_from(("constant", "step", "sinusoid")))
    kw = {}
    if kind == "step":
        starts = draw(st.lists(st.floats(0.1, duration), max_size=4, unique=True))
        kw["steps"] = tuple((t, draw(st.floats(0.0, 1000.0)))
                            for t in [0.0, *sorted(starts)])
    elif kind == "sinusoid":
        kw.update(mean=600.0, amplitude=draw(st.floats(0.0, 600.0)),
                  period_s=draw(st.floats(1.0, 100.0)))
    else:
        kw["lux"] = draw(st.floats(0.0, 1000.0))
    if draw(st.booleans()):
        kw.update(jitter_pct=0.1, jitter_seed=draw(st.integers(0, 9)))
    profile = IlluminationProfile(kind=kind, **kw)
    points = [t for t, _ in profile.steps] + [float(s) for s in range(int(duration))]
    times = st.one_of(st.floats(0.0, duration), st.sampled_from(points))
    walks = draw(st.lists(st.lists(times, max_size=10).map(sorted),
                          min_size=1, max_size=3))
    order = draw(st.permutations([n for n, walk in enumerate(walks) for _ in walk]))
    return profile, duration, walks, order


@settings(max_examples=100, deadline=None)
@given(light_walks())
def test_light_schedule_answers_what_the_profile_says(case):
    # A small chunk makes the nodes walk across many fills and drops.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "LIGHT_CHUNK", 4)
        _check_light_walks(*case)


def _check_light_walks(profile, duration, walks, order):
    """Walk the nodes of a light_walks case through a fresh table, and check
    every piece the table holds at any time."""
    dark = HarvesterCurve(points=((0.0, 0.0), (1000.0, 2.0)))
    harvesters = (BLE_HARVESTER, dark, BLE_HARVESTER)
    light = LightTable(profile, duration, harvesters)
    # Each piece starts where the one before it ends, the first one at 0;
    # start_of holds the start of every piece seen by its end.
    start_of = {light.ends[0]: 0.0}
    seen: dict[float, tuple] = {}

    def head_start():
        return start_of[light.ends[0]]

    def note_pieces():
        starts = [head_start(), *light.ends[:-1]]
        for i, (start, end) in enumerate(zip(starts, light.ends)):
            assert start_of.setdefault(end, start) == start
            piece = (start, end, *(column[i] for column in light.power.values()))
            assert seen.setdefault(start, piece) == piece
        for curve, column in light.power.items():
            assert column == [curve.power_mw(profile.lux_at(t)) for t in starts]

    def noting_fill(fill=light.fill):
        note_pieces()
        last_end = light.ends[-1]
        fill()
        # The head piece was seen unless the fill dropped every piece, and
        # then it starts where the last of them ended.
        start_of.setdefault(light.ends[0], last_end)
        note_pieces()

    light.fill = noting_fill
    nodes = [_attached_node(light, ble_node(f"n{n}", harvester=harvesters[n]))
             for n in range(len(walks))]
    note_pieces()
    # The nodes close their segments interleaved, then all at the end.
    nexts = [iter(walk) for walk in walks]
    for n in [*order, *range(len(walks))]:
        state, cfg = nodes[n]
        fsm.accrue_energy(state, cfg, next(nexts[n], duration), light)
        # The cursor holds the piece in force at the segment's end.
        i = state.light_i
        start = light.ends[i - 1] if i else head_start()
        assert start <= state.last_energy_update < light.ends[i]
        assert state.p_harv[i] == cfg.harvester.power_mw(
            profile.lux_at(state.last_energy_update))
        note_pieces()
    # The pieces seen tile the run, each holds the lux in force at its start
    # all the way through, and the inner ends are the change points.
    starts, ends = zip(*(seen[t][:2] for t in sorted(seen)))
    assert starts[0] == 0.0 and ends[-1] == math.inf
    assert list(starts[1:]) == list(ends[:-1])
    assert starts[-1] <= duration
    assert all(profile.lux_at((a + min(b, duration)) / 2) == profile.lux_at(a)
               for a, b in zip(starts, ends))
    change_points = {t for t, _ in profile.steps}
    if profile.jitter_pct > 0 or profile.kind == "sinusoid":
        change_points.update(map(float, range(math.floor(duration) + 1)))
    assert list(ends[:-1]) == sorted(t for t in change_points if 0 < t <= duration)


def test_illumination_domain_and_validation():
    prof = IlluminationProfile(kind="constant", lux=700.0)
    with pytest.raises(ValueError):
        prof.lux_at(-1.0)
    with pytest.raises(ValueError):
        prof.lux_at(math.nan)
    with pytest.raises(ValueError):
        IlluminationProfile(kind="step", steps=((5.0, 700.0),))
    with pytest.raises(ValueError):
        IlluminationProfile(kind="sinusoid", mean=100.0, amplitude=200.0)
    with pytest.raises(ValueError):
        IlluminationProfile(kind="nope")


def test_illumination_jitter_is_seeded_and_bounded():
    prof = IlluminationProfile(kind="constant", lux=700.0, jitter_pct=0.1,
                               jitter_seed=3)
    vals = [prof.lux_at(t) for t in (0.0, 100.0, 200.5)]
    assert all(630.0 <= v <= 770.0 for v in vals)
    assert vals == [prof.lux_at(t) for t in (0.0, 100.0, 200.5)]
    assert prof.lux_at(200.1) == prof.lux_at(200.9)  # per-second granularity


def _reference_lux(profile, t):
    """The lux at t, one time at a time: a scan over the steps, and a
    fresh generator seeded for the second of t when jitter is on."""
    if profile.kind == "constant":
        v = profile.lux
    elif profile.kind == "step":
        v = _reference_step_lux(profile.steps, t)
    else:
        v = profile.mean + profile.amplitude * math.sin(
            2.0 * math.pi * math.floor(t) / profile.period_s)
    if profile.jitter_pct > 0:
        rng = random.Random(f"{profile.jitter_seed}|lux|{math.floor(t)}")
        v *= 1.0 + rng.uniform(-profile.jitter_pct, profile.jitter_pct)
    return max(v, 0.0)


def _reference_power(curve, lux):
    """The curve's power at lux, one lux at a time: a bisect over its points."""
    pts = curve.points
    if lux <= pts[0][0]:
        return pts[0][1]
    if lux >= pts[-1][0]:
        return pts[-1][1]
    i = bisect.bisect_right(pts, (lux, math.inf))
    (x0, y0), (x1, y1) = pts[i - 1], pts[i]
    return y0 + (y1 - y0) * (lux - x0) / (x1 - x0)


def _bits(values):
    return [v.hex() for v in values]


@st.composite
def light_columns(draw):
    """A light profile of any kind, two lists of times to evaluate it at, and
    a harvester curve of 1-6 points over the luxes that it reaches.

    The first list is a chunk of the run's change points from anywhere in
    it, the second any one or more non-decreasing times.  Step starts fall
    on whole seconds and between them, and jitter of up to 90 % moves
    consecutive luxes across several of the curve's segments, up and down.
    """
    duration = draw(st.floats(1.0, 60.0))
    kind = draw(st.sampled_from(ILLUMINATION_KINDS))
    kw = {}
    if kind == "step":
        starts = draw(st.lists(st.one_of(st.integers(1, 60).map(float),
                                         st.floats(0.01, 60.0)),
                               max_size=8, unique=True))
        kw["steps"] = tuple((t, draw(st.floats(0.0, 1200.0)))
                            for t in [0.0, *sorted(starts)])
    elif kind == "sinusoid":
        mean = draw(st.floats(0.0, 1000.0))
        kw.update(mean=mean, amplitude=draw(st.floats(0.0, mean)),
                  period_s=draw(st.floats(1.0, 100.0)))
    else:
        kw["lux"] = draw(st.floats(0.0, 1200.0))
    if draw(st.booleans()):
        kw.update(jitter_pct=draw(st.floats(0.01, 0.9)),
                  jitter_seed=draw(st.integers(0, 2**31)))
    profile = IlluminationProfile(kind=kind, **kw)
    points = list(kernel._change_points(profile, duration))
    first = draw(st.integers(0, len(points) - 1))
    chunk = points[first:draw(st.integers(first + 1, len(points)))]
    times = sorted(draw(st.lists(st.floats(0.0, duration), min_size=1, max_size=20)))
    luxes = sorted(draw(st.lists(st.floats(0.0, 1300.0), min_size=1, max_size=6,
                                 unique=True)))
    powers = sorted(draw(st.lists(st.floats(0.0, 5.0), min_size=len(luxes),
                                  max_size=len(luxes))))
    return profile, chunk, times, HarvesterCurve(points=tuple(zip(luxes, powers)))


@settings(max_examples=100, deadline=None)
@given(light_columns())
def test_light_columns_equal_the_value_at_a_time_reference(case):
    profile, chunk, times, curve = case
    for starts in (chunk, times):
        luxes = profile.lux_column(starts)
        assert _bits(luxes) == _bits(_reference_lux(profile, t) for t in starts)
        # The luxes forth and back, and the curve's points and their neighbours.
        xs = [x for x, _ in curve.points]
        luxes += [*luxes[::-1], *xs, *(math.nextafter(x, 0.0) for x in xs),
                  *(math.nextafter(x, math.inf) for x in xs), 0.0]
        luxes = [x for x in luxes if x >= 0]
        assert _bits(curve.power_column(luxes)) == _bits(
            _reference_power(curve, x) for x in luxes)
    # The one-value cases are the columns' and keep their errors.
    for t in [*chunk, *times]:
        assert profile.lux_at(t) == _reference_lux(profile, t)
    for bad in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValueError):
            profile.lux_at(bad)
        with pytest.raises(ValueError):
            curve.power_mw(bad)


def test_deliver_degenerate_probabilities():
    rng = random.Random(0)
    assert all(deliver(0.0, rng) for _ in range(100))
    assert not any(deliver(1.0, rng) for _ in range(100))
    assert rng.random() == random.Random(0).random()  # neither draws


def test_deliver_matches_loss_rate():
    rng = random.Random(17)
    n = 100_000
    lost = sum(0 if deliver(0.088, rng) else 1 for _ in range(n))
    assert lost / n == pytest.approx(0.088, abs=0.003)


def test_per_link_loss_map():
    channel = ChannelModel(loss={LinkType.BLE_ADV: 1.0})
    assert channel.loss_for(LinkType.BLE_ADV) == 1.0
    assert channel.loss_for(LinkType.BLE_CONN) == 0.0
    assert ChannelModel(loss=0.25).loss_for(LinkType.IR_UPLINK) == 0.25
    with pytest.raises(ValueError):
        ChannelModel(loss=1.5)


def test_session_loss_calibration_inverts():
    p = per_frame_loss_for_session_pdr(0.991, 5)
    assert (1.0 - p) ** 5 == pytest.approx(0.991, rel=1e-12)
    assert per_frame_loss_for_session_pdr(1.0, 4) == 0.0
    with pytest.raises(ValueError):
        per_frame_loss_for_session_pdr(0.0, 5)
    with pytest.raises(ValueError):
        per_frame_loss_for_session_pdr(0.9, 0)


def test_run_is_deterministic_and_fingerprinted():
    sc = Scenario(
        duration_s=4000.0,
        nodes=(liot_node(),),
        channel=ChannelModel(loss=0.02),
        illumination=IlluminationProfile(kind="constant", lux=700.0),
        seed=5,
    )
    a, b = run(sc), run(sc)
    assert a.summary == b.summary
    assert a.records == b.records
    assert a.traces == b.traces
    assert a.frames == b.frames
    assert scenario_fingerprint(sc) == a.summary.config_hash
    # A different seed changes the channel draws.
    c = run(Scenario(
        duration_s=4000.0, nodes=(liot_node(),),
        channel=ChannelModel(loss=0.02),
        illumination=IlluminationProfile(kind="constant", lux=700.0), seed=6,
    ))
    assert c.summary.config_hash != a.summary.config_hash


def _scenario_of(num) -> Scenario:
    """One scenario with every number of a float field passed through num."""
    profile = dataclasses.replace(
        BLE_PROFILE, voltage_v=num(3),
        active_stages=tuple(dataclasses.replace(s, duration_s=num(s.duration_s))
                            for s in BLE_PROFILE.active_stages))
    return Scenario(
        duration_s=num(100),
        nodes=(ble_node(profile=profile, margin=num(0), backoff_s=num(60),
                        efficiency=num(1),
                        harvester=HarvesterCurve(((num(0), num(0)), (num(700), num(1)))),
                        supercap=Supercap(num(1), num(4), num(3), num(5))),),
        channel=ChannelModel(loss={LinkType.BLE_ADV: num(0), LinkType.BLE_CONN: num(1)}),
        illumination=IlluminationProfile(kind="step",
                                         steps=((num(0), num(700)), (num(50), num(500)))),
        sample_interval_s=num(2),
    )


def test_equal_scenarios_get_one_config_hash():
    # A library caller may pass an int where the parser passes a float.
    ints = _scenario_of(lambda x: int(x) if float(x).is_integer() else x)
    floats = _scenario_of(float)
    assert ints == floats
    assert scenario_fingerprint(ints) == scenario_fingerprint(floats)
    assert run(ints).summary == run(floats).summary
    assert (scenario_fingerprint(Scenario(duration_s=100, nodes=(ble_node(),),
                                          channel=ChannelModel(loss=1),
                                          illumination=IlluminationProfile(lux=700)))
            == scenario_fingerprint(Scenario(duration_s=100.0, nodes=(ble_node(),),
                                             channel=ChannelModel(loss=1.0),
                                             illumination=IlluminationProfile(lux=700.0))))
    # Seeds stay integers.
    assert type(ChannelModel(seed=3).seed) is int
    assert type(IlluminationProfile(jitter_seed=3).jitter_seed) is int
    # The hash is hashlib's SHA-256 of the scenario's JSON, whichever module
    # computes it.
    for sc in [*map(load_preset, PRESET_NAMES), load_scenario_file(DOCS_EXAMPLE)]:
        blob = json.dumps(dataclasses.asdict(sc), default=str, sort_keys=True)
        assert scenario_fingerprint(sc) == hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="the interpreter has no built-in SHA-256 module")
def test_importing_the_cli_leaves_openssl_unloaded():
    # hashlib maps OpenSSL's libcrypto, a few MiB of resident memory per process.
    src = os.path.dirname(os.path.dirname(kernel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import sys, liotsim, liotsim.cli; "
             "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_short_run_yields_zero_packets_but_valid_summary():
    sc = Scenario(duration_s=0.1, nodes=(ble_node(),))
    result = run(sc)
    node = result.summary.nodes[0]
    assert node.packets_sent == 0
    assert node.packets_received == 0
    assert node.pdr == 0.0
    assert node.scap_avg_v == pytest.approx(4.463, abs=1e-3)


def test_absent_gateway_fails_every_session():
    sc = Scenario(
        duration_s=4000.0,
        nodes=(liot_node(),),
        gateway=GatewayConfig(present=False),
    )
    result = run(sc)
    node = result.summary.nodes[0]
    assert node.packets_sent > 0
    assert node.packets_received == 0
    # An optical node cannot tell a missing gateway from a silent one:
    # every session dies by request timeout.
    reasons = {r.fail_reason for r in result.records}
    assert {fr.value for fr in reasons if fr} == {"timeout"}

    ble_sc = Scenario(
        duration_s=100.0,
        nodes=(ble_node(),),
        gateway=GatewayConfig(present=False),
    )
    ble_result = run(ble_sc)
    assert ble_result.summary.nodes[0].packets_received == 0
    ble_reasons = {r.fail_reason for r in ble_result.records}
    assert {fr.value for fr in ble_reasons if fr} == {"no_gateway"}


def test_a_burst_that_outruns_its_energy_browns_out_and_counts_as_sent():
    # A node wakes only once its supercap holds one burst above v_min, so
    # only a burst that draws more than that browns out: here every
    # attribute request is lost, the exchange runs on to its timeout, and a
    # quarter milliwatt barely covers sleep.  Each such cycle is a record,
    # so it is a packet sent and not received.
    doc = preset_dict("ble-700lx")
    doc["duration_s"] = 7200.0
    doc["illumination"] = {"kind": "constant", "lux": 1000.0}
    doc["channel"] = {"per_link_loss": {"ble_conn": 1.0}}
    doc["nodes"][0]["supercap"]["voltage_v"] = 3.3
    doc["nodes"][0]["harvester"] = {"points": [[0, 0], [1000, 0.25]]}
    result = run(scenario_from_dict(doc))
    (node,) = result.summary.nodes
    records = result.records
    assert {r.fail_reason for r in records} == {FailReason.BROWN_OUT}
    assert (node.packets_sent, node.packets_received) == (8, 0) == (len(records), 0)
    # Each brown-out comes at the exchange's timeout, twice its 1.3 s after
    # the 4-s advertising window that the cycle's one advertisement opened.
    opened = [f.sent_s for f in result.frames if f.kind == "adv_ess"]
    assert len(opened) == len(records)
    for r, sent in zip(records, opened):
        assert r.start_s < sent and r.end_s == pytest.approx(sent + 4.0 + 2 * 1.3)
        assert r.scap_v_end == 3.3


@pytest.mark.parametrize("preset,sent,received", [("liot-700lx", 46, 46),
                                                   ("ble-700lx", 1490, 1478)])
def test_a_node_started_at_v_min_waits_to_fund_its_bursts(preset, sent, received):
    # From v_min a node holds no energy for a burst, so it sleeps until it
    # does and never browns out.  It delivers about what it delivers from
    # the preset's voltage (46 of 46, and 1,479 of 1,490).
    doc = preset_dict(preset)
    set_by_path(doc, "nodes.0.supercap.voltage_v", 3.3)
    result = run(scenario_from_dict(doc))
    (node,) = result.summary.nodes
    assert FailReason.BROWN_OUT not in {r.fail_reason for r in result.records}
    assert (node.packets_sent, node.packets_received) == (sent, received)
    assert result.records[-1].end_s <= doc["duration_s"]


# (ir_uplink loss, scenario seed) -> ({node: (sent, received, timeouts)},
# frames sent) for two LIoT nodes over 2 h; vlc_downlink loss is half the IR
# loss, channel seed 1.
TRANSCEIVER_TABLE = {
    (0.0, 2): ({"liot-1": (11, 5, 6), "liot-2": (11, 6, 5)}, 66),
    (0.0, 3): ({"liot-1": (11, 5, 6), "liot-2": (11, 6, 5)}, 66),
    (0.2, 2): ({"liot-1": (11, 5, 6), "liot-2": (11, 3, 8)}, 64),
    (0.2, 3): ({"liot-1": (11, 5, 6), "liot-2": (11, 5, 6)}, 73),
    (0.5, 2): ({"liot-1": (11, 2, 9), "liot-2": (11, 1, 10)}, 46),
    (0.5, 3): ({"liot-1": (11, 3, 8), "liot-2": (11, 1, 10)}, 46),
}


def test_two_liot_nodes_share_one_optical_transceiver():
    # Both boot together; the gateway services one at a time, the loser
    # times out and recovers on its next cycle.
    sc = Scenario(
        duration_s=7200.0,
        nodes=(liot_node("liot-1"), liot_node("liot-2")),
        seed=2,
    )
    result = run(sc)
    total_recv = sum(n.packets_received for n in result.summary.nodes)
    total_sent = sum(n.packets_sent for n in result.summary.nodes)
    assert total_sent >= 2
    assert total_recv >= 1
    assert total_recv < total_sent  # at least one collision loss
    for n in result.summary.nodes:
        assert n.scap_min_v >= 3.3
    # Under optical loss the pinned counts of each node and the frame count
    # show who held the transceiver when.
    for (ir_loss, seed), (counts, n_frames) in TRANSCEIVER_TABLE.items():
        sc = Scenario(
            duration_s=7200.0,
            nodes=(liot_node("liot-1"), liot_node("liot-2")),
            channel=ChannelModel(loss={LinkType.IR_UPLINK: ir_loss,
                                       LinkType.VLC_DOWNLINK: ir_loss / 2},
                                 seed=1),
            seed=seed,
        )
        result = run(sc)
        got = {
            n.node_id: (n.packets_sent, n.packets_received,
                        sum(1 for r in result.nodes[n.node_id].records
                            if r.fail_reason is FailReason.TIMEOUT))
            for n in result.summary.nodes
        }
        assert (got, len(result.frames)) == (counts, n_frames), (ir_loss, seed)


@pytest.mark.parametrize("harvester,lux,expected", [
    (LIOT_HARVESTER, 700.0, pytest.approx(620.0, abs=0.01)),
    (LIOT_HARVESTER, 500.0, pytest.approx(1350.0, abs=0.01)),
    # Harvest covers the whole active burst: the node runs continuously.
    (HarvesterCurve(points=((0.0, 500.0),)), 700.0, 0.0),
    # Harvest cannot even cover sleep: the node backs off.
    (HarvesterCurve(points=((0.0, 0.0),)), 700.0, 60.0),
], ids=["700lx", "500lx", "continuous", "infeasible"])
def test_gateway_assigned_sleep(harvester, lux, expected):
    cfg = liot_node(harvester=harvester)
    assert cfg.backoff_s == 60.0
    assert kernel.gateway_sleep_s(cfg, harvester.power_mw(lux)) == expected


def test_subset_upload_still_delivers():
    # A short (subset) upload ends before the full-upload stage window, so
    # the sleep assignment arrives early and must be held, not rejected.
    sc = Scenario(
        duration_s=4000.0,
        nodes=(liot_node(sensors=("temperature", "humidity")),),
    )
    node = run(sc).summary.nodes[0]
    assert node.packets_sent > 0
    assert node.packets_received == node.packets_sent


def test_invalid_scenarios_rejected():
    with pytest.raises(ValueError):
        Scenario(duration_s=0.0, nodes=(ble_node(),))
    with pytest.raises(ValueError):
        Scenario(duration_s=10.0, nodes=())
    with pytest.raises(ValueError):
        Scenario(duration_s=10.0, nodes=(ble_node("a"), ble_node("a")))
    with pytest.raises(ValueError):
        Scenario(duration_s=10.0, nodes=(ble_node(),), sample_interval_s=0.0)


def test_energy_ledger_balances_voltage_change():
    sc = Scenario(duration_s=3600.0, nodes=(liot_node(),), seed=3)
    result = run(sc)
    nr = result.nodes["liot-1"]
    cap = 0.4
    v0, v1 = nr.trace[0][1], nr.trace[-1][1]
    dE = 0.5 * cap * (v1 * v1 - v0 * v0)
    assert dE == pytest.approx(nr.total_harvested_j - nr.total_consumed_j,
                               abs=1e-6)
    per_cycle = sum(r.energy_consumed_j for r in nr.records)
    assert per_cycle + nr.trailing_consumed_j == pytest.approx(
        nr.total_consumed_j, rel=1e-9
    )


def test_lux_is_evaluated_once_per_change_point(monkeypatch):
    # A small chunk makes the run fill its light table many times.
    monkeypatch.setattr(kernel, "LIGHT_CHUNK", 4)
    evaluated = []
    lux_column = IlluminationProfile.lux_column

    def counting_lux_column(self, starts):
        evaluated.extend(starts)
        return lux_column(self, starts)

    monkeypatch.setattr(IlluminationProfile, "lux_column", counting_lux_column)
    sc = Scenario(
        duration_s=1800.0,
        nodes=(ble_node("ble-1"), ble_node("ble-2"), liot_node()),
        illumination=IlluminationProfile(kind="constant", lux=650.0,
                                         jitter_pct=0.05, jitter_seed=9),
    )
    result = run(sc)
    assert sum(n.packets_sent for n in result.summary.nodes) > 0
    # Each whole second of the run starts one piece, evaluated once, in order.
    assert evaluated == [float(t) for t in range(1801)]


def test_a_second_ble_node_leaves_the_first_as_it_was_at_loss_0():
    # BLE nodes hold no lock at the gateway, and a lossless channel draws
    # nothing, so a second BLE node cannot move the first one's cycles or
    # its trace.  Under loss the nodes draw from one channel stream, and a
    # second node then moves the first one's losses.
    doc = preset_dict("ble-700lx")
    doc["channel"]["loss"] = 0.0
    alone = run(scenario_from_dict(doc)).nodes["ble-1"]
    doc["nodes"].append({"id": "ble-2", "kind": "ble", "adv_mode": "uniform",
                         "supercap": {"capacitance_f": 0.4, "voltage_v": 4.3}})
    paired = run(scenario_from_dict(doc)).nodes["ble-1"]
    assert (len(alone.record_columns), len(alone.volts)) == (1490, 28801)
    for name in ("end_s", "scap_v_end", "consumed_j", "harvested_j", "codes"):
        assert (bytes(getattr(alone.record_columns, name))
                == bytes(getattr(paired.record_columns, name))), name
    assert bytes(alone.volts) == bytes(paired.volts)
    assert alone.last_sample_s == paired.last_sample_s


def _two_hour_step_run(sample_interval_s: float):
    doc = preset_dict("liot-700lx")
    doc["duration_s"] = 7200.0
    doc["illumination"] = {"kind": "step", "steps": [[0, 700], [3600, 500]]}
    doc["sample_interval_s"] = sample_interval_s
    return run(scenario_from_dict(doc))


def test_energy_is_independent_of_sample_interval():
    # Each light level holds for one hour: P mW * 1e-3 * 3600 s = P * 3.6 J.
    exact = (LIOT_HARVESTER.power_mw(700.0) + LIOT_HARVESTER.power_mw(500.0)) * 3.6
    assert exact == pytest.approx(3.9373789562565094, abs=1e-12)
    results = [_two_hour_step_run(dt) for dt in (1.0, 60.0, 3600.0)]
    reference = results[0].nodes["liot-1"]
    for result in results:
        nr = result.nodes["liot-1"]
        assert abs(nr.total_harvested_j - exact) <= 1e-9
        node = result.summary.node("liot-1")
        assert (node.packets_sent, node.packets_received) == (8, 8)
        assert len(nr.records) == len(reference.records)
        for got, want in zip(nr.records, reference.records):
            assert abs(got.energy_harvested_j - want.energy_harvested_j) <= 1e-9
            assert abs(got.scap_v_end - want.scap_v_end) <= 1e-9
    assert [len(r.nodes["liot-1"].trace) for r in results] == [7201, 121, 3]


def test_trace_sample_after_a_v_max_crossing_reads_exactly_v_max():
    # Asleep at 700 lx the node nets +0.356 mW, so V^2 climbs from 4.49^2 to
    # 4.5^2 in about 50.6 s; its first wake-up is at 620 s.
    sc = Scenario(duration_s=300.0,
                  nodes=(liot_node(supercap=Supercap(0.4, 4.49)),))
    trace = run(sc).nodes["liot-1"].trace
    assert trace[50][0] == 50.0 and trace[50][1] < 4.5
    assert all(v == 4.5 for _, v in trace[51:])


def _profile_pieces(profile, t0, t1):
    """(end, lux) of each constant piece of (t0, t1], from lux_at alone."""
    points = {t for t, _ in profile.steps}
    if profile.jitter_pct > 0 or profile.kind == "sinusoid":
        points.update(map(float, range(math.ceil(t0), math.ceil(t1))))
    ends = sorted(t for t in points if t0 < t < t1) + [t1]
    return [(end, profile.lux_at(start)) for start, end in zip([t0, *ends], ends)]


def _check_accrue_against_supercap_segment(monkeypatch) -> list:
    """Check every fsm.accrue_energy call of a run against supercap_segment.

    The new trace samples must lie exactly at fsm.sample_times's times in
    (t, now], each must equal supercap_segment from the voltage at the start
    of its piece, and the closing voltage must equal the chained piece ends.
    Returns the end time of each checked call.
    """
    accrue, calls = fsm.accrue_energy, []

    def checked(state, cfg, now, light):
        t, n = state.last_energy_update, len(state.volts)
        cap = dataclasses.replace(cfg.supercap, voltage_v=state.voltage_v)
        p_load = fsm.phase_power_mw(cfg, state.phase)
        accrue(state, cfg, now, light)
        dt, new_volts = state.sample_interval_s, state.volts[n:]
        # The i-th sample is at the i-th time of the rule.
        new_times = list(islice(fsm.sample_times(dt), n, n + len(new_volts)))
        due = takewhile(lambda s: s <= now, fsm.sample_times(dt))
        assert new_times == [s for s in due if t < s]
        new = list(zip(new_times, new_volts))
        if now <= t:
            return
        expected = []
        for t_end, lux in _profile_pieces(light.profile, t, now):
            p_net = cfg.harvester.power_mw(lux) - p_load
            expected += [
                (s, supercap_segment(cap, p_net, s - t, cfg.efficiency)[0])
                for s, _ in new if t < s <= t_end
            ]
            v, _ = supercap_segment(cap, p_net, t_end - t, cfg.efficiency)
            cap = dataclasses.replace(cap, voltage_v=v)
            t = t_end
        assert new == expected
        assert state.voltage_v == cap.voltage_v
        calls.append(now)

    monkeypatch.setattr(fsm, "accrue_energy", checked)
    return calls


def test_inline_sampling_equals_supercap_segment_across_v_max(monkeypatch):
    calls = _check_accrue_against_supercap_segment(monkeypatch)
    # Both nodes start just under v_max; jittered step light splits segments
    # into one piece per second.
    sc = Scenario(
        duration_s=1500.3,
        nodes=(ble_node(supercap=Supercap(0.4, 4.49)),
               liot_node(supercap=Supercap(0.4, 4.49), efficiency=0.9)),
        illumination=IlluminationProfile(
            kind="step", steps=((0.0, 700.0), (700.5, 650.0)), jitter_pct=0.05),
        sample_interval_s=0.7,
    )
    result = run(sc)
    assert calls
    for nr in result.nodes.values():
        volts = [v for _, v in nr.trace]
        assert volts[0] < 4.5 and 4.5 in volts
        assert nr.trace[-1][0] == 1500.3 and nr.trace[-2][0] < 1500.3


def test_inline_sampling_equals_supercap_segment_down_to_v_min(monkeypatch):
    calls = _check_accrue_against_supercap_segment(monkeypatch)
    # Dark from 300 s to 2000 s: the node backs off and drains to v_min.
    dark_harvester = HarvesterCurve(
        points=((0.0, 0.0), (700.0, BLE_HARVESTER.power_mw(700.0))))
    sc = Scenario(
        duration_s=2500.0,
        nodes=(ble_node(supercap=Supercap(0.4, 3.4), harvester=dark_harvester),),
        illumination=IlluminationProfile(
            kind="step", steps=((0.0, 700.0), (300.0, 0.0), (2000.0, 700.0))),
        sample_interval_s=1.3,
    )
    trace = run(sc).nodes["ble-1"].trace
    assert calls
    assert any(v == 3.3 for _, v in trace)
    assert trace[-1][1] > 3.3  # recovers once the light is back
    assert trace[-1][0] == 2500.0


def test_inline_sampling_on_piece_ends_equals_supercap_segment(monkeypatch):
    calls = _check_accrue_against_supercap_segment(monkeypatch)
    # Jittered light changes every second and the grid is 1 s, so every
    # sample lies on a piece end and is that piece's end voltage.  The LIoT
    # node starts just under v_max; the BLE node drains to v_min in the dark
    # from 300 s to 2000 s.
    dark_harvester = HarvesterCurve(
        points=((0.0, 0.0), (700.0, BLE_HARVESTER.power_mw(700.0))))
    sc = Scenario(
        duration_s=2500.0,
        nodes=(liot_node(supercap=Supercap(0.4, 4.49)),
               ble_node(supercap=Supercap(0.4, 3.4), harvester=dark_harvester)),
        illumination=IlluminationProfile(
            kind="step", steps=((0.0, 700.0), (300.0, 0.0), (2000.0, 700.0)),
            jitter_pct=0.05),
        sample_interval_s=1.0,
    )
    result = run(sc)
    assert calls
    liot, ble = result.nodes["liot-1"].trace, result.nodes["ble-1"].trace
    for trace in (liot, ble):
        assert [t for t, _ in trace] == list(map(float, range(2501)))
    assert liot[0][1] < 4.5 and any(v == 4.5 for _, v in liot)
    assert any(v == 3.3 for _, v in ble)
    assert ble[-1][1] > 3.3


def _records_digest(records) -> str:
    """First 16 hex digits of a sha256 over every field of every record."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr((r.node_id, r.cycle_index, r.start_s, r.end_s, r.outcome.value,
                       r.fail_reason and r.fail_reason.value, r.scap_v_start,
                       r.scap_v_end, r.energy_consumed_j,
                       r.energy_harvested_j)).encode())
    return h.hexdigest()[:16]


# (preset, document changes, len(trace), trace[-1], summary (sent, received,
# scap_avg_v, scap_min_v, scap_max_v), number and digest of the cycles closed
# before the end, run_ended records after them), each recorded when the trace
# was still a list of (t, V) tuples, except the last column: the run_ended
# record came later and left the closed cycles as they were.
EDGE_RUNS = {
    "off-grid-end": (
        "liot-700lx", {"duration_s": 1000.5, "sample_interval_s": 7.0},
        144, (1000.5, 4.3131763658558695),
        (1, 1, 4.2898932372591165, 4.235, 4.362380774523844),
        1, "2665b5b6b10dc46c", 0),
    "mid-session-end": (
        "liot-700lx", {"duration_s": 622.0},
        623, (622.0, 4.30683460153058),
        (1, 0, 4.299529762517636, 4.235, 4.363195769991584),
        0, "e3b0c44298fc1c14", 1),
    "near-v-min": (
        "ble-500lx", {"sample_interval_s": 60.0, "nodes.0.supercap.voltage_v": 3.31},
        481, (28800.0, 3.7743418916157143),
        (1050, 953, 3.539712539782298, 3.31, 3.7752458886424605),
        1050, "bcb51f45824f758d", 0),
    "jittered-off-grid-interval": (
        "ble-700lx", {"duration_s": 3600.0, "sample_interval_s": 0.37,
                      "illumination": {"kind": "constant", "lux": 300.0,
                                       "jitter_pct": 0.1, "jitter_seed": 0}},
        9731, (3600.0, 4.497681812889823),
        (131, 131, 4.487429679508789, 4.463, 4.5),
        131, "b90babf28c96f88d", 0),
}


@pytest.mark.parametrize("case", EDGE_RUNS)
def test_voltage_stats_and_trace_view_on_edge_runs(case):
    (preset, changes, n_samples, last, summary, n_closed, digest,
     n_run_ended) = EDGE_RUNS[case]
    doc = preset_dict(preset)
    for path, value in changes.items():
        set_by_path(doc, path, value)
    result = run(scenario_from_dict(doc))
    (nr,) = result.nodes.values()
    (node,) = result.summary.nodes
    trace = nr.trace
    assert trace == nr.trace and trace is not nr.trace  # built anew on each read
    assert result.traces == {node.node_id: trace}
    assert (node.scap_avg_v, node.scap_min_v, node.scap_max_v) == (
        voltage_stats([t for t, _ in trace], [v for _, v in trace]))
    assert (len(trace), trace[-1]) == (n_samples, last)
    assert (node.packets_sent, node.packets_received, node.scap_avg_v,
            node.scap_min_v, node.scap_max_v) == summary
    closed, tail = nr.records[:n_closed], nr.records[n_closed:]
    assert _records_digest(closed) == digest
    assert [(r.fail_reason, r.end_s, r.scap_v_end) for r in tail] == (
        [(FailReason.RUN_ENDED, *last)] * n_run_ended)


def _pinned_four_node_scenario() -> Scenario:
    """Jittered step light through a dark spell, a loss per link, a uniform
    advertiser with conversion loss that browns out, and a LIoT node with
    a subset upload."""
    dark = HarvesterCurve(points=((0.0, 0.0), (700.0, BLE_HARVESTER.power_mw(700.0))))
    return Scenario(
        duration_s=5400.5,
        nodes=(ble_node("ble-1"),
               ble_node("ble-2", harvester=dark, supercap=Supercap(0.4, 3.35),
                        adv_mode="uniform", efficiency=0.9),
               liot_node("liot-1"),
               liot_node("liot-2", supercap=Supercap(0.4, 4.49),
                         sensors=("temperature", "gas"))),
        channel=ChannelModel(loss={LinkType.BLE_ADV: 0.05, LinkType.BLE_CONN: 0.02,
                                   LinkType.IR_UPLINK: 0.1,
                                   LinkType.VLC_DOWNLINK: 0.03}, seed=2),
        illumination=IlluminationProfile(
            kind="step", steps=((0.0, 700.0), (1800.25, 0.0), (2400.0, 550.0)),
            jitter_pct=0.08, jitter_seed=5),
        seed=7,
        sample_interval_s=0.9,
    )


def _run_digest(result) -> str:
    """sha256 over every record, voltage sample, total and frame of a run."""
    h = hashlib.sha256()
    for node_id, nr in result.nodes.items():
        for r in nr.records:
            h.update(repr((r.node_id, r.cycle_index, r.start_s, r.end_s,
                           r.outcome.value, r.fail_reason and r.fail_reason.value,
                           r.scap_v_start, r.scap_v_end, r.energy_consumed_j,
                           r.energy_harvested_j)).encode())
        h.update(repr((node_id, nr.last_sample_s, nr.total_consumed_j,
                       nr.total_harvested_j)).encode())
        h.update(nr.volts.tobytes())
    for f in result.log:
        h.update(repr((f.sent_s, f.arrival_s, f.src, f.dst, f.link, f.kind,
                       f.payload_bytes, f.channel, f.delivered)).encode())
    return h.hexdigest()


def test_jittered_lossy_four_node_run_is_pinned():
    # ble-2 waits out the dark spell in one sleep and never browns out; a
    # mid-burst brown-out is test_a_burst_that_outruns_its_energy_browns_out_and_counts_as_sent's.
    result = shared_run(_pinned_four_node_scenario())
    reasons = {r.fail_reason for nr in result.nodes.values() for r in nr.records}
    assert reasons >= {None, FailReason.TIMEOUT, FailReason.NO_GATEWAY}
    frames = result.frames
    assert (len(frames), sum(1 for f in frames if not f.delivered)) == (2141, 66)
    assert _run_digest(result) == (
        "e3334cca5da78bcb72287839935457e304703cfaef37116b9e81a2cca3ceec88")


def test_each_run_builds_each_nodes_frames_once(monkeypatch):
    sc = _pinned_four_node_scenario()
    built, states = [], []
    check = Frame.__post_init__

    def counted_check(frame):
        check(frame)
        built.append(frame)

    initial_state = fsm.initial_state

    def kept_initial_state(*args, **kwargs):
        states.append(initial_state(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(Frame, "__post_init__", counted_check)
    monkeypatch.setattr(fsm, "initial_state", kept_initial_state)
    script = {NodeKind.BLE: BLE_SCRIPT, NodeKind.LIOT: LIOT_SCRIPT}
    for _ in range(2):  # a second run in the process builds its own
        built.clear()
        states.clear()
        result = run(sc)
        assert len(built) == sum(len(script[cfg.kind]) for cfg in sc.nodes)
        own = {cfg.node_id: st.frames for cfg, st in zip(sc.nodes, states)}
        assert [f for frames in own.values() for f in frames] == built
        # Every session of a node sends and is answered with its node's frames.
        for f in result.log.frames:
            node = f.src if f.dst == GATEWAY_ID else f.dst
            assert any(f is mine for mine in own[node])
        assert {id(f) for f in result.log.frames} == {id(f) for f in built}


def _eighteen_node_scenario() -> Scenario:
    """16 BLE and 2 LIoT nodes under jittered light with off-second steps."""
    return Scenario(
        duration_s=1200.0,
        nodes=(*(ble_node(f"ble-{i}", supercap=Supercap(0.4, 4.3 + 0.01 * i),
                          adv_mode="uniform") for i in range(16)),
               liot_node("liot-1"),
               liot_node("liot-2", supercap=Supercap(0.4, 4.4), sensors=("gas",))),
        channel=ChannelModel(loss={link: 0.01 for link in LinkType}, seed=3),
        illumination=IlluminationProfile(
            kind="step", steps=((0.0, 700.0), (400.5, 500.0), (800.25, 650.0)),
            jitter_pct=0.05, jitter_seed=11),
        seed=9,
    )


@pytest.mark.parametrize("make", [_pinned_four_node_scenario, _eighteen_node_scenario])
def test_light_chunk_size_changes_nothing(monkeypatch, make):
    sc = make()
    digest = _run_digest(shared_run(sc))
    chunk = 4
    monkeypatch.setattr(kernel, "LIGHT_CHUNK", chunk)
    tables = []
    fill = LightTable.fill

    def bounded_fill(light):
        fill(light)
        tables.append(light)
        # Right after a fill the table holds the pieces from the slowest
        # node's cursor to the fastest one's, plus at most one chunk.
        cursors = [state.light_i for state in light.readers] or [0]
        assert len(light.ends) <= max(cursors) - min(cursors) + chunk

    monkeypatch.setattr(LightTable, "fill", bounded_fill)
    assert _run_digest(run(sc)) == digest
    # Each second of the run is a piece: the table filled many times over.
    assert len(tables) > sc.duration_s / chunk


def test_local_sleep_follows_the_light_back():
    # 700 -> 500 -> 700 lx with lossy links: failed cycles solve their sleep
    # locally at each level, so a sleep kept from an earlier lux would move
    # these counts.  Recorded before the local solve was memoised.
    sc = Scenario(
        duration_s=10800.0,
        nodes=(ble_node(), liot_node()),
        channel=ChannelModel(loss=0.1),
        illumination=IlluminationProfile(
            kind="step", steps=((0.0, 700.0), (3600.0, 500.0), (7200.0, 700.0))),
        seed=4,
    )
    result = run(sc)
    got = {
        n.node_id: (n.packets_sent, n.packets_received, len(nr.records),
                    nr.records[-1].end_s, nr.records[-1].scap_v_end)
        for n, nr in zip(result.summary.nodes, result.nodes.values())
    }
    assert got == {
        "ble-1": (503, 313, 503, 10800.0, 4.4965399641300925),
        "liot-1": (13, 6, 13, 10290.389624999993, 4.484645513176975),
    }
    # ble-1's session open at the end is its one run_ended record; the
    # cycles before it were recorded first and are as they were.
    ble = result.nodes["ble-1"].records
    assert ble[-1].fail_reason is FailReason.RUN_ENDED
    assert (len(ble[:-1]), ble[-2].end_s, ble[-2].scap_v_end) == (
        502, 10785.965000000004, 4.494605597133684)


def test_luxes_of_one_harvest_power_share_a_local_solve(monkeypatch):
    # The BLE curve holds its 700-lx power above 700 lx, so 800 and 900 lx
    # are one harvest power: the lossy node solves its sleep once, at boot,
    # and runs as it does under a constant 800 lx.
    power = BLE_HARVESTER.power_mw(800.0)
    assert BLE_HARVESTER.power_mw(900.0) == power == BLE_HARVESTER.power_mw(700.0)
    solved = []
    schedule = fsm.schedule_next_cycle

    def counting(cfg, p_harv_mw):
        solved.append(p_harv_mw)
        return schedule(cfg, p_harv_mw)

    monkeypatch.setattr(fsm, "schedule_next_cycle", counting)

    def lit(illumination):
        return run(Scenario(duration_s=3600.0, nodes=(ble_node(),),
                            channel=ChannelModel(loss=0.1),
                            illumination=illumination, seed=4))

    step = lit(IlluminationProfile(kind="step", steps=((0.0, 800.0), (1800.0, 900.0))))
    assert solved == [power]
    assert len(step.records) > 100 and step.records[-1].end_s > 1800.0
    assert step.records == lit(IlluminationProfile(lux=800.0)).records


def test_records_and_frame_log_take_a_few_bytes_each():
    doc = preset_dict("ble-700lx")
    doc.update(duration_s=86400.0, sample_interval_s=3600.0)
    result = run(scenario_from_dict(doc))
    (nr,) = result.nodes.values()

    def nbytes(buffer) -> int:
        return memoryview(buffer).itemsize * len(buffer)

    records = nr.record_columns
    assert len(records) == len(nr.records) > 4000
    assert sum(map(nbytes, (records.end_s, records.scap_v_end, records.consumed_j,
                            records.harvested_j, records.codes))) <= 40 * len(records)
    log = result.log
    assert len(log) == len(result.frames) > 20000
    # The node's five frames are built once, so the log holds a pointer to each.
    assert len(set(map(id, log.frames))) < 20
    frame_bytes = (nbytes(log.sent_s) + nbytes(log.delivered)
                   + struct.calcsize("P") * len(log.frames))
    assert frame_bytes <= 20 * len(log)


def test_frame_log_lists_lost_frames_and_repeats():
    sc = Scenario(
        duration_s=2000.0,
        nodes=(ble_node("ble-1"), ble_node("ble-2")),
        channel=ChannelModel(loss=0.1),
        seed=3,
    )
    a, b = run(sc), run(sc)
    frames = a.frames
    assert frames == b.frames
    assert a.frames is a.log
    # Each entry is its logged frame's, arriving one airtime after it is sent.
    assert [(f.arrival_s, f.src, f.dst, f.link, f.kind, f.payload_bytes, f.channel)
            for f in frames] == [
        (sent + lf.airtime_s, lf.src, lf.dst, lf.link.value, lf.kind.value,
         lf.payload_bytes, lf.channel)
        for sent, lf in zip(a.log.sent_s, a.log.frames)]
    assert [f.delivered for f in frames] == [d == 1 for d in a.log.delivered]
    assert all(type(f.delivered) is bool for f in frames)
    records = a.records
    assert records == b.records and records is not a.records
    assert all(type(f) is FrameLogEntry for f in frames)
    assert not hasattr(next(iter(frames)), "__dict__")
    lost = [f for f in frames if not f.delivered]
    assert 0 < len(lost) < len(frames)
    assert {f.src for f in lost} >= {"ble-1", GATEWAY_ID}
    assert all(f.arrival_s > f.sent_s for f in frames)
    assert [f.sent_s for f in frames] == sorted(f.sent_s for f in frames)
    assert {f.src for f in frames} == {"ble-1", "ble-2", GATEWAY_ID}
