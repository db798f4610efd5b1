import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from liotsim.energy import (
    BLE_HARVESTER,
    BLE_PROFILE,
    HarvesterCurve,
    LIOT_HARVESTER,
    LIOT_PROFILE,
    FieldError,
    Stage,
    StageName,
    Supercap,
    active_totals,
)
from liotsim.fsm import (
    BURST,
    LEGAL_TRANSITIONS,
    FsmError,
    NodeConfig,
    NodeKind,
    _close_cycle,
    _finish_cycle,
    accrue_energy,
    advance,
    end_run,
    initial_state,
    phase_power_mw,
    receive,
    schedule_next_cycle,
    sleep_or_floor,
)
from liotsim.kernel import IlluminationProfile, LightTable
from liotsim.protocol import (
    BLE_SCRIPT,
    GATEWAY_ID,
    LINK_FOR_KIND,
    LIOT_SCRIPT,
    ExchangeSession,
    FailReason,
    Frame,
    FrameKind,
    LinkType,
    SessionOutcome,
    exchange_step,
)


S = StageName


def ble_cfg(**kw) -> NodeConfig:
    defaults = dict(
        node_id="ble-1",
        kind=NodeKind.BLE,
        profile=BLE_PROFILE,
        harvester=BLE_HARVESTER,
        supercap=Supercap(0.4, 4.463),
        margin=0.05,
    )
    defaults.update(kw)
    return NodeConfig(**defaults)


def liot_cfg(**kw) -> NodeConfig:
    defaults = dict(
        node_id="liot-1",
        kind=NodeKind.LIOT,
        profile=LIOT_PROFILE,
        harvester=LIOT_HARVESTER,
        supercap=Supercap(0.4, 4.235),
        margin=0.0,
    )
    defaults.update(kw)
    return NodeConfig(**defaults)


def lit_state(cfg: NodeConfig, first_sleep_s, lux: float = 700.0):
    """A node at boot and a table of constant light at lux, with the node's
    cursor on it."""
    state = initial_state(cfg, first_sleep_s)
    light = LightTable(IlluminationProfile(lux=lux), 1e6, [cfg.harvester])
    light.attach(state, cfg.harvester)
    return state, light


def test_schedule_local_solve_ble_700lx_gives_published_duty_cycle():
    cfg = ble_cfg()
    sleep = schedule_next_cycle(cfg, cfg.harvester.power_mw(700.0))
    # Full duty cycle: active burst plus the margin-stretched sleep.
    assert 5.56 + sleep == pytest.approx(19.3, abs=0.2)


def test_finish_cycle_arms_the_gateway_assigned_sleep_verbatim():
    # At 500 lx the node's own solve would give about 1350 s.
    cfg = liot_cfg()
    state, _ = lit_state(cfg, 1.0, lux=500.0)
    state.phase = S.LIOT_SLEEP_SET
    state.session = ExchangeSession(LIOT_SCRIPT, state.frames,
                                    outcome=SessionOutcome.DELIVERED,
                                    assigned_sleep_s=620.0)
    _finish_cycle(state, cfg, 10.0, None, state.session.assigned_sleep_s)
    assert state.phase is S.SLEEP
    assert state.phase_deadline - 10.0 == 620.0
    (record,) = state.records
    assert record.outcome is SessionOutcome.DELIVERED


def test_an_infeasible_first_sleep_sleeps_the_floor_and_solves_again_at_wake():
    # Dark until 1000 s, then 700 lx on a curve that harvests nothing at 0 lx.
    cfg = liot_cfg(harvester=HarvesterCurve(
        points=((0.0, 0.0), (700.0, LIOT_HARVESTER.power_mw(700.0)))))
    assert schedule_next_cycle(cfg, cfg.harvester.power_mw(0.0)) is None
    state = initial_state(cfg, None)
    floor = sleep_or_floor(cfg, None)
    assert floor == pytest.approx(620.0, abs=1e-9)
    assert (state.phase, state.phase_deadline) == (S.SLEEP, floor)
    light = LightTable(IlluminationProfile(kind="step", steps=((0.0, 0.0), (1000.0, 700.0))),
                       2000.0, [cfg.harvester])
    light.attach(state, cfg.harvester)
    # Still infeasible at the wake: the node sleeps on, with no record, to
    # the start of the light in which its solve is feasible...
    accrue_energy(state, cfg, floor, light)
    assert advance(state, cfg, floor, rng=random.Random(0), light=light) is None
    assert (state.phase, state.phase_deadline) == (S.SLEEP, 1000.0)
    assert len(state.records) == 0
    # ...and starts its burst there.
    accrue_energy(state, cfg, 1000.0, light)
    uplink = advance(state, cfg, 1000.0, rng=random.Random(0), light=light)
    assert state.phase is S.GW_REQUEST and uplink.kind is FrameKind.NODE_ID_LUX


@pytest.mark.parametrize("make_cfg,builtin,floor", [
    (ble_cfg, BLE_HARVESTER, 12.842), (liot_cfg, LIOT_HARVESTER, 620.0),
], ids=["ble", "liot"])
@pytest.mark.parametrize("fail_reason", [FailReason.NO_GATEWAY, FailReason.BROWN_OUT])
def test_a_cycle_closed_in_the_dark_sleeps_the_floor_then_the_gate_decides(
        make_cfg, builtin, floor, fail_reason):
    # A curve through (0, 0) up to the built-in's 700-lx power: the floor is
    # the sleep solved there, the shortest that any solve arms.
    cfg = make_cfg(harvester=HarvesterCurve(
        points=((0.0, 0.0), (700.0, builtin.power_mw(700.0)))))
    assert sleep_or_floor(cfg, None) == pytest.approx(floor, abs=1e-9)
    # Dark from 5 s; the light is back 1 s after the cycle closes at 10 s.
    state = initial_state(cfg, 100.0)
    light = LightTable(IlluminationProfile(
        kind="step", steps=((0.0, 700.0), (5.0, 0.0), (11.0, 700.0))), 1e4, [cfg.harvester])
    light.attach(state, cfg.harvester)
    accrue_energy(state, cfg, 10.0, light)
    state.phase = BURST[cfg.kind][0]
    if fail_reason is FailReason.BROWN_OUT:
        state.depleted = True
        assert advance(state, cfg, 10.0, rng=random.Random(0), light=light) is None
    else:  # the local solve in the dark is infeasible
        assert schedule_next_cycle(cfg, state.p_harv[state.light_i]) is None
        _finish_cycle(state, cfg, 10.0, fail_reason)
    (record,) = state.records
    assert record.fail_reason is fail_reason
    wake = 10.0 + sleep_or_floor(cfg, None)
    assert (state.phase, state.phase_deadline) == (S.SLEEP, wake)
    # The node's one timer is at the floor's end, not at 11 s, and there the
    # funded node starts its burst.
    accrue_energy(state, cfg, wake, light)
    advance(state, cfg, wake, rng=random.Random(0), light=light)
    assert state.phase is not S.SLEEP and len(state.records) == 1


def test_schedule_continuous_when_harvest_covers_active_power():
    bright = HarvesterCurve(points=((0.0, 50.0),))
    assert schedule_next_cycle(ble_cfg(harvester=bright), bright.power_mw(99999.0)) == 0.0


def test_schedule_infeasible_returns_none():
    dark = HarvesterCurve(points=((0.0, 0.0),))
    assert schedule_next_cycle(ble_cfg(harvester=dark), dark.power_mw(0.0)) is None
    with pytest.raises(ValueError):
        schedule_next_cycle(ble_cfg(), -5.0)


def test_phase_power_lookup():
    assert phase_power_mw(ble_cfg(), S.SLEEP) == pytest.approx(0.231)
    assert phase_power_mw(ble_cfg(), S.BLE_DATA_EXCHANGE) == pytest.approx(0.8 * 3.3)
    assert phase_power_mw(liot_cfg(), S.LIOT_DATA_UPLOAD) == pytest.approx(14.58 * 3.3)
    assert phase_power_mw(liot_cfg(), S.GW_REQUEST) == pytest.approx(12.69 * 3.3)


def test_profile_stage_mismatch_rejected():
    with pytest.raises(ValueError):
        NodeConfig(
            node_id="x", kind=NodeKind.LIOT, profile=BLE_PROFILE,
            harvester=LIOT_HARVESTER, supercap=Supercap(0.4, 4.2),
        )


def test_profile_missing_a_phase_stage_rejected():
    profile = dataclasses.replace(LIOT_PROFILE, active_stages=tuple(
        s for s in LIOT_PROFILE.active_stages
        if s.name is not StageName.LIOT_DATA_UPLOAD))
    with pytest.raises(ValueError, match="liot_data_upload"):
        liot_cfg(profile=profile)


@pytest.mark.parametrize("make_cfg,extra", [
    (ble_cfg, Stage(StageName.GW_REQUEST, 12.69, 0.428)),
    (liot_cfg, Stage(StageName.SENSOR_READ, 7.55, 0.26)),
], ids=["ble", "liot"])
def test_a_profile_with_a_stage_beyond_the_burst_is_rejected(make_cfg, extra):
    # The burst never draws an extra stage's energy, yet the solve and the
    # energy gate would count it.
    profile = make_cfg().profile
    with pytest.raises(FieldError) as exc:
        make_cfg(profile=dataclasses.replace(
            profile, active_stages=(*profile.active_stages, extra)))
    assert exc.value.field == "profile"
    assert f"has extra ['{extra.name.value}']" in exc.value.message


def test_ble_cycle_walkthrough_emits_adv_then_sleeps_without_gateway():
    cfg = ble_cfg()
    rng = random.Random(0)
    state, light = lit_state(cfg, 13.76)
    out = advance(state, cfg, 13.76, rng=rng, light=light)
    assert state.phase is S.SENSOR_READ and out is None
    assert state.session is None
    out = advance(state, cfg, state.phase_deadline, rng=rng, light=light)
    assert state.phase is S.BLE_ADVERTISE
    assert state.session is not None
    assert out.kind is FrameKind.ADV_ESS
    assert len(state.records) == 0
    # No connection request: the advertising window expires into sleep.
    out = advance(state, cfg, state.phase_deadline, rng=rng, light=light)
    assert state.phase is S.SLEEP and out is None
    (record,) = state.records
    assert record.fail_reason.value == "no_gateway"
    assert record.outcome is SessionOutcome.FAILED
    assert state.session is None


def _ble_exchanging(cfg: NodeConfig):
    """A BLE node walked into its data exchange, the gateway's steps played
    by hand.

    Returns the node state, its light table, the connection request it took,
    the attribute request its exchange opened with and the time it entered
    the exchange.
    """
    rng = random.Random(0)
    state, light = lit_state(cfg, 1.0)
    advance(state, cfg, 1.0, rng=rng, light=light)
    advertised = state.phase_deadline
    adv = advance(state, cfg, advertised, rng=rng, light=light)
    conn = exchange_step(state.session, adv)
    receive(state, cfg, conn, advertised, light)
    began = state.phase_deadline
    request = advance(state, cfg, began, rng=rng, light=light)
    assert state.phase is S.BLE_DATA_EXCHANGE
    assert request.kind is FrameKind.ESS_ATTR_REQUEST
    return state, light, conn, request, began


def test_out_of_sequence_frame_in_exchange_is_recorded_as_a_violation():
    cfg = ble_cfg()
    state, light, conn, _, began = _ble_exchanging(cfg)
    # A second connection request is out of sequence in the exchange.
    assert receive(state, cfg, conn, began, light) is None
    assert state.session.fail_reason is FailReason.PROTOCOL_VIOLATION
    while not state.records:
        advance(state, cfg, state.phase_deadline, rng=random.Random(0), light=light)
    (record,) = state.records
    assert (record.outcome, record.fail_reason) == (
        SessionOutcome.FAILED, FailReason.PROTOCOL_VIOLATION)
    # The failed session cannot be answered, so the cycle closes at the end
    # of the 1.3-s stage instead of waiting out twice its length.
    assert record.end_s == began + 1.3


def _awaiting(stage: StageName):
    """A node walked into the await stage stage, the gateway's steps played
    by hand and its answer withheld.

    Returns the node state, its light table, its config, the time its wait
    began, the wait's nominal length and a frame out of sequence there.
    """
    if stage is S.BLE_DATA_EXCHANGE:
        cfg = ble_cfg()
        state, light, conn, _, began = _ble_exchanging(cfg)
        return state, light, cfg, began, cfg.profile.stage(
            StageName.BLE_DATA_EXCHANGE).duration_s, conn
    cfg = liot_cfg()
    rng = random.Random(0)
    state, light = lit_state(cfg, 1.0)
    uplink = advance(state, cfg, 1.0, rng=rng, light=light)
    assert state.phase is S.GW_REQUEST
    request, sleep_set = state.frames[1], state.frames[3]
    if stage is S.GW_REQUEST:
        # The uplink and the wait after it share the gw_request stage.
        uplinked = 1.0 + uplink.airtime_s
        return state, light, cfg, uplinked, state.phase_deadline - uplinked, sleep_set
    assert exchange_step(state.session, uplink) is request
    receive(state, cfg, request, 1.0 + uplink.airtime_s, light)
    advance(state, cfg, state.phase_deadline, rng=rng, light=light)
    assert state.phase is S.LIOT_SENSOR_READ
    data = advance(state, cfg, state.phase_deadline, rng=rng, light=light)
    assert data.kind is FrameKind.SENSOR_DATA
    began = state.phase_deadline
    advance(state, cfg, began, rng=rng, light=light)
    assert state.phase is S.LIOT_SLEEP_SET
    return state, light, cfg, began, cfg.profile.stage(
        StageName.LIOT_SLEEP_SET).duration_s, request


# Each await stage, by what the node does there.
AWAIT_STAGES = {"exchanging": S.BLE_DATA_EXCHANGE, "awaiting_request": S.GW_REQUEST,
                "awaiting_sleep_set": S.LIOT_SLEEP_SET}


@pytest.mark.parametrize("stage", AWAIT_STAGES.values(), ids=list(AWAIT_STAGES))
def test_an_unanswered_await_runs_on_once_and_times_out_at_twice_its_length(stage):
    state, light, cfg, began, nominal, _ = _awaiting(stage)
    rng = random.Random(0)
    assert advance(state, cfg, state.phase_deadline, rng=rng, light=light) is None
    assert state.phase is stage
    assert len(state.records) == 0
    timeout = began + 2.0 * nominal
    assert state.phase_deadline == timeout
    assert advance(state, cfg, timeout, rng=rng, light=light) is None
    assert state.phase is S.SLEEP
    (record,) = state.records
    assert (record.outcome, record.fail_reason, record.end_s) == (
        SessionOutcome.FAILED, FailReason.TIMEOUT, timeout)


@pytest.mark.parametrize("stage", AWAIT_STAGES.values(), ids=list(AWAIT_STAGES))
def test_an_await_whose_session_failed_closes_at_its_nominal_deadline(stage):
    state, light, cfg, began, _, stray = _awaiting(stage)
    deadline = state.phase_deadline
    assert receive(state, cfg, stray, began, light) is None
    assert advance(state, cfg, deadline, rng=random.Random(0), light=light) is None
    assert state.phase is S.SLEEP
    (record,) = state.records
    assert (record.outcome, record.fail_reason, record.end_s) == (
        SessionOutcome.FAILED, FailReason.PROTOCOL_VIOLATION, deadline)


def test_a_cycle_that_breaks_the_record_rule_raises_and_adds_nothing():
    cfg = ble_cfg()
    state = initial_state(cfg, 13.76)
    # A cycle without a session: a brown-out while reading the sensors.
    _close_cycle(state, cfg, 10.0, FailReason.BROWN_OUT, 60.0)
    (first,) = state.records
    assert (first.start_s, first.end_s) == (0.0, 10.0)
    # The next cycle cannot end where the last one ended...
    with pytest.raises(ValueError, match="positive duration"):
        _close_cycle(state, cfg, 10.0, FailReason.BROWN_OUT, 60.0)
    # ...nor consume negative energy.
    state.cycle_consumed_j = -1e-9
    with pytest.raises(ValueError, match=">= 0"):
        _close_cycle(state, cfg, 20.0, FailReason.BROWN_OUT, 60.0)
    assert list(state.records) == [first]
    assert [len(column) for column in (
        state.records.end_s, state.records.scap_v_end, state.records.consumed_j,
        state.records.harvested_j, state.records.codes)] == [1] * 5


def test_end_run_records_the_open_session_as_it_stands():
    cfg = ble_cfg()
    light = LightTable(IlluminationProfile(lux=700.0), 100.0, [cfg.harvester])
    pending, _, _, _, _ = _ble_exchanging(cfg)
    delivered, own_light, _, request, began = _ble_exchanging(cfg)
    data = receive(delivered, cfg, request, began, own_light)
    receive(delivered, cfg, exchange_step(delivered.session, data), began, own_light)
    assert delivered.session.outcome is SessionOutcome.DELIVERED
    for state in (pending, delivered):
        light.attach(state, cfg.harvester)
        end_run(state, cfg, 100.0, light)
        (record,) = state.records
        assert (record.start_s, record.end_s) == (0.0, 100.0)
        assert record.scap_v_start == cfg.supercap.voltage_v
        assert record.scap_v_end == state.voltage_v
        assert state.session is None
    ((pending_record,), (delivered_record,)) = pending.records, delivered.records
    assert pending_record.fail_reason is FailReason.RUN_ENDED
    assert delivered_record.outcome is SessionOutcome.DELIVERED
    assert delivered_record.fail_reason is None
    # A node asleep at the end has no session, so it records nothing.
    asleep = initial_state(cfg, 13.76)
    light.attach(asleep, cfg.harvester)
    end_run(asleep, cfg, 10.0, light)
    assert len(asleep.records) == 0


def test_uniform_advertising_mode_draws_in_range():
    cfg = ble_cfg(adv_mode="uniform")
    rng = random.Random(3)
    for _ in range(20):
        state, light = lit_state(cfg, 1.0)
        advance(state, cfg, 1.0, rng=rng, light=light)
        began = state.phase_deadline
        advance(state, cfg, began, rng=rng, light=light)
        adv = state.phase_deadline - began
        assert 0.5 <= adv <= 4.0


def test_depleted_node_emits_nothing():
    cfg = ble_cfg()
    state, light = lit_state(cfg, 10.0, lux=0.0)
    state.depleted = True
    state.session = None
    frame = Frame(src=GATEWAY_ID, dst="ble-1", link=LinkType.BLE_ADV,
                  kind=FrameKind.CONN_REQ, payload_bytes=22, airtime_s=0.003,
                  channel=37)
    assert receive(state, cfg, frame, 10.0, light) is None
    # A node at v_min sleeps on at its wake deadline, with no record, until
    # its supercap holds one active burst above v_min: from v_min at 0 s,
    # V^2 rises by 2P/C a second at the net harvest P over sleep power.
    state.voltage_v = 3.3  # cfg.supercap.v_min
    accrue_energy(state, cfg, 10.0, light)
    out = advance(state, cfg, 10.0, rng=random.Random(0), light=light)
    assert out is None and state.phase is S.SLEEP
    assert len(state.records) == 0
    net_w = (cfg.harvester.power_mw(0.0) - cfg.profile.sleep_power_mw) * 1e-3
    e_active = active_totals(cfg.profile)[1]
    wake = state.phase_deadline
    assert wake == pytest.approx(e_active / net_w, rel=1e-9)
    # At the wake the supercap holds the burst and the node starts it.
    accrue_energy(state, cfg, wake, light)
    c, v_min = cfg.supercap.capacitance_f, cfg.supercap.v_min
    assert 0.5 * c * (state.voltage_v**2 - v_min**2) == pytest.approx(e_active, rel=1e-12)
    assert advance(state, cfg, wake, rng=random.Random(0), light=light) is None
    assert state.phase is S.SENSOR_READ and not state.depleted


def test_illegal_transition_raises():
    cfg = ble_cfg()
    state = initial_state(cfg, 10.0)
    state.phase = S.BLE_DATA_EXCHANGE
    from liotsim.fsm import _set_phase

    with pytest.raises(FsmError):
        _set_phase(state, cfg, S.SENSOR_READ, 1.0)


def test_margin_zero_liot_cycle_is_exact():
    cfg = liot_cfg()
    sleep = schedule_next_cycle(cfg, cfg.harvester.power_mw(700.0))
    assert 4.611 + sleep == pytest.approx(624.611, abs=1e-6)


def test_legal_transition_tables_cover_all_phases():
    for kind, table in LEGAL_TRANSITIONS.items():
        for src, dsts in table.items():
            assert dsts, f"{kind} {src} has no successors"


def test_legal_transitions_follow_each_burst_in_order():
    assert LEGAL_TRANSITIONS == {
        NodeKind.BLE: {
            S.SLEEP: {S.SLEEP, S.SENSOR_READ},
            S.SENSOR_READ: {S.BLE_ADVERTISE, S.SLEEP},
            S.BLE_ADVERTISE: {S.BLE_DATA_EXCHANGE, S.SLEEP},
            S.BLE_DATA_EXCHANGE: {S.SLEEP},
        },
        NodeKind.LIOT: {
            S.SLEEP: {S.SLEEP, S.GW_REQUEST},
            S.GW_REQUEST: {S.LIOT_SENSOR_READ, S.SLEEP},
            S.LIOT_SENSOR_READ: {S.LIOT_DATA_UPLOAD, S.SLEEP},
            S.LIOT_DATA_UPLOAD: {S.LIOT_SLEEP_SET, S.SLEEP},
            S.LIOT_SLEEP_SET: {S.SLEEP},
        },
    }


K = FrameKind
# What a node does with each frame the gateway may send it, in each of its
# phases; every combination not listed is a protocol violation.
RECEIVE_OUTCOMES = {
    (NodeKind.BLE, S.BLE_ADVERTISE, K.CONN_REQ): "held",
    (NodeKind.BLE, S.BLE_DATA_EXCHANGE, K.ESS_ATTR_REQUEST): "served",
    (NodeKind.BLE, S.BLE_DATA_EXCHANGE, K.CONFIG_OR_DISCONNECT): "served",
    (NodeKind.LIOT, S.GW_REQUEST, K.SENSOR_REQUEST): "held",
    (NodeKind.LIOT, S.LIOT_DATA_UPLOAD, K.SLEEP_SET): "held",
    (NodeKind.LIOT, S.LIOT_SLEEP_SET, K.SLEEP_SET): "served",
}


def _new_session(cfg, frames):
    script = BLE_SCRIPT if cfg.kind is NodeKind.BLE else LIOT_SCRIPT
    return ExchangeSession(script, frames, assigned_sleep_s=620.0)


def _session_awaiting(cfg, frames, kind):
    """A session of cfg's node, sending frames, that has just sent the node
    its gateway frame of kind, or that has just opened when its handshake
    has none."""
    session, frame, sent = _new_session(cfg, frames), None, []
    while (frame := exchange_step(session, frame)) is not None:
        sent.append(frame.kind if frame.src == GATEWAY_ID else None)
    session, frame = _new_session(cfg, frames), None
    for _ in range(sent.index(kind) + 1 if kind in sent else 1):
        frame = exchange_step(session, frame)
    return session


@pytest.mark.parametrize("cfg", [ble_cfg(), liot_cfg()], ids=["ble", "liot"])
def test_receive_holds_serves_or_refuses_each_frame_in_each_phase(cfg):
    for phase in LEGAL_TRANSITIONS[cfg.kind]:
        for kind in FrameKind:
            expected = RECEIVE_OUTCOMES.get((cfg.kind, phase, kind), "violation")
            state, light = lit_state(cfg, 1.0)
            state.phase = phase
            session = state.session = _session_awaiting(cfg, state.frames, kind)
            # Both sessions send the node's frames, so they return the same ones.
            twin = _session_awaiting(cfg, state.frames, kind)
            link = LINK_FOR_KIND[kind]
            frame = Frame(GATEWAY_ID, cfg.node_id, link, kind, 1, 0.01,
                          {LinkType.BLE_ADV: 37, LinkType.BLE_CONN: 5}.get(link))
            out = receive(state, cfg, frame, 0.0, light)
            where = (phase, kind, expected)
            if expected == "held":
                assert out is None and session.held is frame, where
                assert session.outcome is SessionOutcome.PENDING, where
            elif expected == "served":
                assert out is exchange_step(twin, frame), where
                assert session == twin and session.fail_reason is None, where
            else:
                assert out is None and session.held is None, where
                assert session.fail_reason is FailReason.PROTOCOL_VIOLATION, where


@st.composite
def deliveries(draw):
    """A node in any phase, booted anywhere from v_min to v_max, charging
    below 100 % efficiency, under step light of dark and bright pieces, and
    the time of a frame delivered to it: anywhere in the light, within a
    few ulps of the time at which its load alone would drain it to v_min,
    or a relative step of 1e-16 to 0.1 short of that time."""
    make = draw(st.sampled_from((ble_cfg, liot_cfg)))
    bright = HarvesterCurve(points=((0.0, 0.0), (700.0, draw(st.floats(0.01, 60.0)))))
    cfg = make(supercap=Supercap(0.4, draw(st.floats(3.3, 4.5))), harvester=bright,
               efficiency=draw(st.floats(0.05, 1.0, exclude_max=True)))
    phase = draw(st.sampled_from(list(LEGAL_TRANSITIONS[cfg.kind])))
    starts, t = [], 0.0
    for lux in draw(st.lists(st.sampled_from((0.0, 700.0)), min_size=1, max_size=8)):
        starts.append((t, lux))
        t += draw(st.floats(0.001, 30.0))
    cap = cfg.supercap
    drained = (cap.voltage_v**2 - cap.v_min**2) * cap.capacitance_f / (
        2e-3 * phase_power_mw(cfg, phase))
    now = draw(st.floats(0.0, t + 10.0)
               | st.integers(-64, 64).map(lambda k: drained * (1.0 + k * 2.0**-52))
               | st.floats(-16.0, -1.0).map(lambda e: drained * (1.0 - 10.0**e)))
    return cfg, phase, IlluminationProfile(kind="step", steps=tuple(starts)), max(now, 0.0)


@settings(max_examples=100, deadline=None)
@given(deliveries())
# Two dark pieces, and a delivery when the sleep load alone has drained the
# node to v_min: there the bound reads v_min^2 to the last bit, while
# accrue_energy's two-piece chain rounds below it, so only the bound's slack
# makes the delivery close the segment.
@example((ble_cfg(supercap=Supercap(0.4, 3.875), harvester=HarvesterCurve(
    points=((0.0, 0.0), (700.0, 1.0)))), S.SLEEP, IlluminationProfile(
    kind="step", steps=((0.0, 0.0), (1.0, 0.0))), 3571.9696969696984))
def test_a_delivery_leaves_the_segment_open_only_above_v_min(case):
    cfg, phase, profile, now = case

    def booted():
        state = initial_state(cfg, 1.0)
        state.phase = phase
        light = LightTable(profile, 1e7, [cfg.harvester])
        light.attach(state, cfg.harvester)
        return state, light

    state, light = booted()
    frame = Frame(GATEWAY_ID, cfg.node_id, LinkType.BLE_ADV, FrameKind.CONN_REQ,
                  22, 0.003, 37)
    assert receive(state, cfg, frame, now, light) is None  # no session to serve
    if state.last_energy_update == now:
        return  # the delivery closed the segment
    # The segment stayed open, so the node stayed above v_min up to now.
    closed, light = booted()
    accrue_energy(closed, cfg, now, light)
    assert not closed.depleted
