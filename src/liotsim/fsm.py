"""Duty-cycle state machine for one sensor node.

The kernel drives each node with timer and frame-delivery callbacks; the
functions here move a node through the stages of its burst and back to
sleep, debit the supercapacitor for the elapsed stage, return the protocol
frames of the two node variants, and keep the node's cycle records, its one
account of sessions and energy.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, Iterator, Optional

from . import protocol
from .energy import (
    EnergyProfile,
    FieldError,
    HarvesterCurve,
    StageName,
    Supercap,
    active_totals,
    solve_sleep_time,
    store_floats,
)
from .metrics import RecordColumns
from .protocol import (
    BLE_SCRIPT,
    CONFIG_OR_DISCONNECT,
    CONN_REQ,
    DELIVERED,
    ESS_ATTR_REQUEST,
    FAILED,
    LIOT_SCRIPT,
    PENDING,
    SENSOR_REQUEST,
    SLEEP_SET,
    ExchangeSession,
    FailReason,
    Frame,
    FrameKind,
    exchange_step,
    handshake_frames,
)

if TYPE_CHECKING:
    from .kernel import LightTable


class NodeKind(str, Enum):
    BLE = "ble"
    LIOT = "liot"


# Module constants for the members the FSM tests on every event (see the
# note above protocol.ADV_ESS).  A node's phase is the stage it is in, SLEEP
# while asleep.
BLE = NodeKind.BLE
LIOT = NodeKind.LIOT
SLEEP = StageName.SLEEP
SENSOR_READ = StageName.SENSOR_READ
BLE_ADVERTISE = StageName.BLE_ADVERTISE
BLE_DATA_EXCHANGE = StageName.BLE_DATA_EXCHANGE
GW_REQUEST = StageName.GW_REQUEST
LIOT_SENSOR_READ = StageName.LIOT_SENSOR_READ
LIOT_DATA_UPLOAD = StageName.LIOT_DATA_UPLOAD
LIOT_SLEEP_SET = StageName.LIOT_SLEEP_SET

# The stages of each kind's burst, in order; a node's profile holds exactly
# these (see burst_mismatch).
BURST: dict[NodeKind, tuple[StageName, ...]] = {
    NodeKind.BLE: (SENSOR_READ, BLE_ADVERTISE, BLE_DATA_EXCHANGE),
    NodeKind.LIOT: (GW_REQUEST, LIOT_SENSOR_READ, LIOT_DATA_UPLOAD, LIOT_SLEEP_SET),
}

# Each frame kind the gateway sends a node: the stage that serves it, and
# the stages that hold it until a stage boundary consumes it.  The kind in
# any other stage, or a kind not listed, is a protocol violation.
_NODE_INBOX: dict[FrameKind, tuple[Optional[StageName], tuple[StageName, ...]]] = {
    CONN_REQ: (None, (BLE_ADVERTISE,)),
    ESS_ATTR_REQUEST: (BLE_DATA_EXCHANGE, ()),
    CONFIG_OR_DISCONNECT: (BLE_DATA_EXCHANGE, ()),
    SENSOR_REQUEST: (None, (GW_REQUEST,)),
    SLEEP_SET: (LIOT_SLEEP_SET, (LIOT_DATA_UPLOAD,)),
}


def _burst_transitions(
    burst: tuple[StageName, ...]
) -> dict[StageName, frozenset[StageName]]:
    """The stages each phase may move to: sleep goes on or starts the burst,
    each stage moves to the next or aborts to sleep, the last ends in sleep."""
    table = {SLEEP: frozenset({SLEEP, burst[0]})}
    for stage, after in zip(burst, burst[1:]):
        table[stage] = frozenset({after, SLEEP})
    table[burst[-1]] = frozenset({SLEEP})
    return table


LEGAL_TRANSITIONS: dict[NodeKind, dict[StageName, frozenset[StageName]]] = {
    kind: _burst_transitions(burst) for kind, burst in BURST.items()
}
# The moves of a phase the table does not list: none.
_NO_MOVES: frozenset[StageName] = frozenset()

# The handshake each kind of node runs.
_SCRIPT = {NodeKind.BLE: BLE_SCRIPT, NodeKind.LIOT: LIOT_SCRIPT}

# The duty-cycle margin of a node whose config gives none (see
# schedule_next_cycle).
DEFAULT_MARGIN = {NodeKind.BLE: 0.05, NodeKind.LIOT: 0.0}

# How a BLE node times its advertising: the profile's stage duration, or a
# uniform draw from 0.5 to 4 s.
ADV_MODES = ("fixed", "uniform")


class FsmError(RuntimeError):
    pass


@dataclass(frozen=True)
class NodeConfig:
    node_id: str
    kind: NodeKind
    profile: EnergyProfile
    harvester: HarvesterCurve
    supercap: Supercap  # initial buffer state
    margin: Optional[float] = None  # None: DEFAULT_MARGIN of the node's kind
    sensors: tuple[str, ...] = protocol.SENSOR_CHANNELS
    adv_mode: str = "fixed"  # one of ADV_MODES
    efficiency: float = 1.0  # share of the harvest that charging stores

    def __post_init__(self) -> None:
        if self.margin is None:
            object.__setattr__(self, "margin", DEFAULT_MARGIN[self.kind])
        store_floats(self, "margin", "efficiency")
        if not isinstance(self.node_id, str):
            raise FieldError("node_id", "expected a string")
        # The kernel routes every frame addressed to the gateway's id there.
        if self.node_id == protocol.GATEWAY_ID:
            raise FieldError("node_id", f"{protocol.GATEWAY_ID!r} is the gateway's id")
        bad = [s for s in self.sensors if s not in protocol.SENSOR_CHANNELS]
        if bad:
            raise FieldError("sensors", f"unknown channel {bad[0]!r}")
        if not self.sensors or len(set(self.sensors)) != len(self.sensors):
            raise FieldError("sensors", "must name at least one channel, each once")
        if not self.margin >= 0:
            raise FieldError("margin", "must be >= 0")
        if self.adv_mode not in ADV_MODES:
            raise FieldError("adv_mode", f"must be one of {list(ADV_MODES)}")
        if not 0 < self.efficiency <= 1:
            raise FieldError("efficiency", "must lie in (0, 1]")
        mismatch = burst_mismatch(self.profile, self.kind)
        if mismatch:
            raise FieldError("profile", f"a {self.kind.value} node runs the stages "
                             f"{[n.value for n in BURST[self.kind]]}, each once; "
                             f"this profile {mismatch}")
        # A node waits for V^2 >= funded_v_sq before each burst (see advance),
        # so a supercap that cannot reach it would wait forever.
        cap = self.supercap
        if cap.v_max * cap.v_max < funded_v_sq(self):
            raise FieldError(
                "supercap",
                f"holds {0.5 * cap.capacitance_f * (cap.v_max**2 - cap.v_min**2):.4g} J "
                f"between v_min and v_max, less than the "
                f"{active_totals(self.profile)[1]:.4g} J of one active burst",
            )


def burst_mismatch(profile: EnergyProfile, kind: NodeKind) -> str:
    """'' when the profile's stages are exactly the burst of a node of this
    kind, each once; else the stages it lacks and those it has beyond them,
    a second copy of a burst stage included.  The node's burst draws only
    its own stages' energy, while the solve and the energy gate count every
    stage of the profile, so the two must agree."""
    have = Counter(s.name.value for s in profile.active_stages)
    need = Counter(name.value for name in BURST[kind])
    return "; ".join(f"{label} {sorted(names.elements())}" for label, names in (
        ("lacks", need - have), ("has extra", have - need)) if names)


def funded_v_sq(cfg: NodeConfig) -> float:
    """V_need^2: the squared supercap voltage at which the energy stored above
    v_min, 0.5*C*(V^2 - v_min^2), equals the profile's active energy."""
    cap = cfg.supercap
    return cap.v_min**2 + 2.0 * active_totals(cfg.profile)[1] / cap.capacitance_f


def sample_times(interval_s: float) -> Iterator[float]:
    """Trace sample times 0, dt, dt + dt, ..., built by repeated addition.

    accrue_energy samples at exactly these floats; a run's last sample is at
    its end instead when the end falls between two of them (see end_run).
    """
    return accumulate(repeat(interval_s), initial=0.0)


@dataclass(slots=True)
class NodeState:
    """What the node's next event reads; its run's outputs are the records,
    the folded voltage stats and, when the run keeps it, the voltage trace
    (volts)."""

    phase: StageName  # the stage the node is in, SLEEP while asleep
    phase_deadline: float
    voltage_v: float  # supercap voltage; capacitance and limits are cfg.supercap's
    # Constants of the run, looked up once from cfg by initial_state:
    load_mw: dict[StageName, float]  # phase_power_mw of each of the node's phases
    stage_s: dict[StageName, float]  # duration of each stage of the burst
    # (C, v_min, v_max, v_min**2, funded_v_sq(cfg))
    cap: tuple[float, float, float, float, float]
    frames: tuple[Frame, ...]  # handshake_frames of the node's script
    # One record per closed cycle (a sleep period plus the active burst);
    # the open cycle starts where the last record ends.
    records: RecordColumns
    # Set when a closed segment drains V to v_min, cleared by a funded wake.
    # Exact where advance reads it, since each timer closes the segment first;
    # a delivery closes it only when the node may have reached v_min since
    # it opened (see receive).
    depleted: bool = False
    # An await stage's timeout, twice its nominal wait after the wait began
    # (for gw_request, after the uplink); None once the stage has run on to
    # it (see _await_or_time_out).
    timeout_s: Optional[float] = None
    session: Optional[ExchangeSession] = None
    # (p_harv, schedule_next_cycle(cfg, p_harv)) of the node's last local solve
    sleep_memo: tuple[float, Optional[float]] = (math.nan, None)
    # Cursor into the run's LightTable and its harvester's power column there
    light_i: int = 0
    p_harv: list[float] = field(default_factory=list)
    cycle_consumed_j: float = 0.0  # in the open cycle
    cycle_harvested_j: float = 0.0
    last_energy_update: float = 0.0
    # Supercap voltage at sample_times(sample_interval_s), filled as the
    # energy segments containing them close (a sample on a light piece's end
    # is that piece's end voltage, the same float), or None when the run
    # keeps no trace; either way every sample is taken and folded below.
    # last_sample_v is the sample at last_sample_s, the latest one taken.
    volts: Optional[array] = None
    sample_interval_s: float = math.inf
    last_sample_s: float = 0.0
    last_sample_v: float = 0.0
    # The summary's voltage stats, folded as each sample is taken: the
    # trapezoid area under the samples so far, in voltage_stats' expression
    # and order, and the lowest and highest sample (see accrue_energy).
    volts_area: float = 0.0
    volts_lo: float = math.inf
    volts_hi: float = -math.inf


def initial_state(
    cfg: NodeConfig, first_sleep_s: Optional[float], sample_interval_s: float = math.inf,
    trace: bool = False,
) -> NodeState:
    """Node boots asleep, charging, and wakes after its first solved sleep;
    None (infeasible) sleeps the floor as _finish_cycle does.  Like every
    wake, that one starts a burst only if the energy gate of advance lets it.

    The node samples its voltage every sample_interval_s, from the boot
    voltage on; without an interval it takes only that one.  With trace it
    keeps the samples in volts, else only their voltage stats.
    """
    cap = cfg.supercap
    state = NodeState(
        phase=SLEEP,
        phase_deadline=0.0,
        voltage_v=cap.voltage_v,
        load_mw={p: phase_power_mw(cfg, p) for p in LEGAL_TRANSITIONS[cfg.kind]},
        stage_s={s.name: s.duration_s for s in cfg.profile.active_stages},
        cap=(cap.capacitance_f, cap.v_min, cap.v_max, cap.v_min**2, funded_v_sq(cfg)),
        frames=handshake_frames(cfg.node_id, _SCRIPT[cfg.kind], cfg.sensors),
        records=RecordColumns(cfg.node_id, cap.voltage_v),
        volts=array("d", (cap.voltage_v,)) if trace else None,
        sample_interval_s=sample_interval_s,
        last_sample_v=cap.voltage_v,
        volts_lo=cap.voltage_v,
        volts_hi=cap.voltage_v,
    )
    state.phase_deadline = sleep_or_floor(cfg, first_sleep_s)
    return state


def schedule_next_cycle(cfg: NodeConfig, p_harv_mw: float) -> Optional[float]:
    """Locally solved sleep at harvest power p_harv_mw to arm the wake timer
    with; None when infeasible and 0.0 when continuous, as solved.

    A balance sleep stretches the whole cycle by (1 + margin).
    """
    sleep = solve_sleep_time(cfg.profile, p_harv_mw)
    if not sleep:
        return sleep
    t_active = active_totals(cfg.profile)[0]
    return (t_active + sleep) * (1.0 + cfg.margin) - t_active


def phase_power_mw(cfg: NodeConfig, phase: StageName) -> float:
    if phase is SLEEP:
        return cfg.profile.sleep_power_mw
    return cfg.profile.stage(phase).current_ma * cfg.profile.voltage_v


def accrue_energy(
    state: NodeState, cfg: NodeConfig, now: float, light: LightTable
) -> None:
    """Close the node's energy segment: integrate harvest minus load up to now.

    A segment runs from one stage boundary (a timer, which changes the load)
    to the next; _funded_wake closes it at each light piece it walks,
    end_run at the end of the run, and a delivery only where the node may
    have drained to v_min (see receive).  The load is constant since the
    last checkpoint, so each piece of the light table the node's cursor
    walks has constant net power P.  Each piece is integrated in closed form
    with its harvest power: the stored energy 0.5*C*V^2 changes linearly, so
    V^2 = V0^2 + 2*P*t/C, clamped to [v_min, v_max], with charging scaled by
    the efficiency.  Sample times inside a piece are sampled from it.
    Every voltage equals the tests' reference, supercap_segment in
    tests/cases.py, written out here with V0^2 and 2*P hoisted per piece
    (the same floats: the expression still evaluates left to right).  A
    sample time on a piece's end takes the piece-end voltage, which is the
    same expression at the same time, computed once.  Each sample adds its
    trapezoid to volts_area with voltage_stats' expression, on the same
    floats in the same order, so the run's voltage stats need no second walk
    over the trace.  A piece's samples are monotone in time (see below), so
    only its first and last are compared with volts_lo and volts_hi.  Every
    sample is taken and folded; it is appended to volts only when the node
    keeps a trace, and the next call's first trapezoid starts from
    last_sample_v.  The cursor ends on the piece in force at now.
    """
    t = state.last_energy_update
    if now <= t:
        return
    p_load = state.load_mw[state.phase]
    c, v_min, v_max, v_min_sq, _ = state.cap
    efficiency, sqrt = cfg.efficiency, math.sqrt
    v = state.voltage_v
    dt, last = state.sample_interval_s, state.last_sample_s
    # The same repeated addition as sample_times.
    sample_t = last + dt
    # Most calls take no sample; only those that do load the samples' state.
    sampling = sample_t <= now
    if sampling:
        volts = state.volts  # None when the run keeps no trace
        if volts is not None:
            append = volts.append
        v_last = state.last_sample_v
        area, v_lo, v_hi = state.volts_area, state.volts_lo, state.volts_hi
    i, ends, power = state.light_i, light.ends, state.p_harv
    n_ends = len(ends)
    harvested = 0.0
    while t < now:
        end = ends[i]
        t_end = end if end < now else now
        p_harv = power[i]
        p_w = (p_harv - p_load) * 1e-3
        if p_w > 0:
            p_w *= efficiency
        v0_sq = v**2
        two_p_w = 2.0 * p_w
        v_sq = v0_sq + two_p_w * (t_end - t) / c
        if v_sq < v_min_sq:
            v_end = v_min
            state.depleted = True
        else:
            v_end = sqrt(v_sq)
            if v_max < v_end:
                v_end = v_max
        if sample_t < t_end:
            v_a = None
            while sample_t < t_end:
                v_sq = v0_sq + two_p_w * (sample_t - t) / c
                if v_sq < v_min_sq:
                    v_s = v_min
                else:
                    v_s = sqrt(v_sq)
                    if v_max < v_s:
                        v_s = v_max
                if volts is not None:
                    append(v_s)
                if v_a is None:
                    v_a = v_s
                area += 0.5 * (v_last + v_s) * (sample_t - last)
                v_last = v_s
                last = sample_t
                sample_t += dt
            # V^2 is monotone in the sample time, and so is each float step
            # of its expression and each clamp, so the piece's samples are
            # monotone: its extremes are its first and last.
            v_b = v_last
            if v_b < v_a:
                v_a, v_b = v_b, v_a
            if v_a < v_lo:
                v_lo = v_a
            if v_hi < v_b:
                v_hi = v_b
        if sample_t == t_end:
            if volts is not None:
                append(v_end)
            area += 0.5 * (v_last + v_end) * (sample_t - last)
            v_last = v_end
            if v_end < v_lo:
                v_lo = v_end
            elif v_hi < v_end:
                v_hi = v_end
            last = sample_t
            sample_t += dt
        v = v_end
        harvested += p_harv * 1e-3 * (t_end - t)
        t = t_end
        if end <= now:
            i += 1
            if i == n_ends:  # past the filled pieces: the table fills more
                state.light_i = i
                light.fill()
                i, n_ends = state.light_i, len(ends)
    state.light_i = i
    state.voltage_v = v
    if sampling:
        state.last_sample_s, state.last_sample_v = last, v_last
        state.volts_area, state.volts_lo, state.volts_hi = area, v_lo, v_hi
    state.cycle_consumed_j += p_load * 1e-3 * (now - state.last_energy_update)
    state.cycle_harvested_j += harvested
    state.last_energy_update = now


def end_run(
    state: NodeState, cfg: NodeConfig, end: float, light: LightTable
) -> None:
    """Close the node's last energy segment at the end of the run, and sample
    the voltage there unless a sample time falls on the end, folding that
    sample into the voltage stats as accrue_energy folds its own (and
    appending it to volts only when the node keeps a trace).

    A session still open is recorded as it stands: delivered if it was, else
    failed with its own reason or, while pending, RUN_ENDED.
    """
    accrue_energy(state, cfg, end, light)
    if state.last_sample_s < end:
        v = state.voltage_v
        state.volts_area += 0.5 * (state.last_sample_v + v) * (end - state.last_sample_s)
        state.volts_lo = min(state.volts_lo, v)
        state.volts_hi = max(state.volts_hi, v)
        if state.volts is not None:
            state.volts.append(v)
        state.last_sample_s, state.last_sample_v = end, v
    if state.session is not None:  # the sleep this arms never comes
        _close_cycle(state, cfg, end, FailReason.RUN_ENDED, 0.0)


def _set_phase(
    state: NodeState, cfg: NodeConfig, phase: StageName, deadline: float
) -> None:
    allowed = LEGAL_TRANSITIONS[cfg.kind].get(state.phase, _NO_MOVES)
    if phase not in allowed:
        raise FsmError(
            f"illegal transition {state.phase.value} -> {phase.value} "
            f"for {cfg.kind.value} node"
        )
    state.phase = phase
    state.phase_deadline = deadline


def _close_cycle(
    state: NodeState, cfg: NodeConfig, now: float,
    fail_reason: Optional[FailReason], sleep: Optional[float],
) -> None:
    """Record the open cycle with its session's outcome, then sleep (see
    sleep_or_floor).

    A pending session fails with fail_reason; one that has already ended
    keeps its own outcome.  A cycle without a session (a BLE node that
    browned out while reading its sensors) fails with fail_reason.
    """
    session = state.session
    if session is None:
        outcome = FAILED
    else:
        protocol.fail_session(session, fail_reason)
        outcome, fail_reason = session.outcome, session.fail_reason
    state.records.append(now, outcome, fail_reason, state.voltage_v,
                         state.cycle_consumed_j, state.cycle_harvested_j)
    state.cycle_consumed_j = 0.0
    state.cycle_harvested_j = 0.0
    state.session = None
    _set_phase(state, cfg, SLEEP, now + sleep_or_floor(cfg, sleep))


def sleep_or_floor(cfg: NodeConfig, sleep: Optional[float]) -> float:
    """The sleep to arm: sleep, or where it is None (an infeasible solve, a
    brown-out) the node's floor, the sleep solved at its curve's highest
    power, which no solve undercuts; inf where that is infeasible too, as no
    wake could pass the energy gate of advance.  The gate then decides."""
    if sleep is None:
        sleep = solve_sleep_time(cfg.profile, cfg.harvester.points[-1][1])
    return math.inf if sleep is None else sleep


def _funded_wake(state: NodeState, cfg: NodeConfig, now: float,
                 light: LightTable) -> float:
    """The first time from now at which the energy gate of advance holds, or
    the end of the run if none comes before it; the node sleeps on to it.

    The node sleeps at a constant load, so the wait runs it forward with
    accrue_energy, one light piece at a time, as the wake's own
    accrue_energy call would; that call then has nothing left to do.  The
    gate is checked on the node's voltage and the power at its cursor.  In
    a piece of positive net power P (a harvest above sleep power) V^2
    crosses funded_v_sq at t + (funded_v_sq - V0^2) * C / (2P); that time
    moves up by float steps until the voltage accrue_energy reaches there
    passes the gate, so a wake never falls an ulp short.  Elsewhere V^2
    holds or falls, so the gate can hold only from a piece's start.
    """
    p_load = state.load_mw[SLEEP]
    c, _, v_max, _, need_sq = state.cap
    ends, power, run_end = light.ends, state.p_harv, light.end_s
    t = now
    while t < run_end:
        i = state.light_i
        p_harv, t_end = power[i], min(ends[i], run_end)
        if p_harv > p_load:
            v = state.voltage_v
            if v * v >= need_sq:
                return t
            v0_sq = v**2
            two_p_w = 2.0 * ((p_harv - p_load) * 1e-3 * cfg.efficiency)
            wake = t + (need_sq - v0_sq) * c / two_p_w
            step = math.ulp(wake)
            while wake < t_end:
                v_wake = min(math.sqrt(v0_sq + two_p_w * (wake - t) / c), v_max)
                if v_wake * v_wake >= need_sq:
                    t_end = wake
                    break
                wake += step
                step += step
        accrue_energy(state, cfg, t_end, light)
        t = t_end
    return run_end


def _finish_cycle(
    state: NodeState,
    cfg: NodeConfig,
    now: float,
    fail_reason: Optional[FailReason],
    assigned_sleep: Optional[float] = None,
) -> None:
    """Close the cycle and sleep: the gateway's assigned sleep verbatim, else
    the local solve at the harvest power in force, solved only when that
    power differs from the one of the node's last local solve (the solve
    depends only on cfg and the power)."""
    if assigned_sleep is None:
        p_harv = state.p_harv[state.light_i]
        if p_harv != state.sleep_memo[0]:
            state.sleep_memo = (p_harv, schedule_next_cycle(cfg, p_harv))
        sleep = state.sleep_memo[1]
    else:
        sleep = assigned_sleep
    _close_cycle(state, cfg, now, fail_reason, sleep)


def _await_or_time_out(state: NodeState, cfg: NodeConfig, now: float) -> None:
    """An await step that expires unanswered runs on once, to the timeout_s
    set where the stage was entered, then fails the cycle with a timeout.
    A session that has already ended can no longer be answered, so its cycle
    closes at the nominal deadline with the session's own outcome."""
    if state.session.outcome is PENDING and state.timeout_s is not None:
        state.phase_deadline = state.timeout_s
        state.timeout_s = None
        return
    _finish_cycle(state, cfg, now, FailReason.TIMEOUT)


def advance(
    state: NodeState,
    cfg: NodeConfig,
    now: float,
    *,
    rng,
    light: LightTable,
) -> Optional[Frame]:
    """Handle the expiry of the current phase deadline; returns the frame to send.

    A wake is gated on energy: the node starts its burst only when its
    supercap holds the profile's active energy above v_min and the harvest
    power in force is above sleep power, where the local solve is feasible
    (see solve_sleep_time).  Otherwise it sleeps on, with no record, to the
    first time both hold: _funded_wake integrates the node to it, so the
    wake's own accrue_energy call has nothing left to do.  A burst that
    browns out all the same (an await stage run on to its timeout) closes
    its cycle and sleeps the floor (see sleep_or_floor).
    """
    if state.depleted and state.phase is not SLEEP:
        # Brown-out mid-cycle: abort, recover in sleep, count the cycle failed.
        _close_cycle(state, cfg, now, FailReason.BROWN_OUT, None)
        return None

    phase = state.phase

    if phase is SLEEP:
        v, p_harv = state.voltage_v, state.p_harv[state.light_i]
        if v * v < state.cap[4] or p_harv <= state.load_mw[SLEEP]:
            _set_phase(state, cfg, SLEEP, _funded_wake(state, cfg, now, light))
            return None
        state.depleted = False  # a funded wake is above v_min
        if cfg.kind is BLE:
            _set_phase(state, cfg, SENSOR_READ, now + state.stage_s[SENSOR_READ])
            return None
        # LIoT: read the LDR and open the session with an IR uplink; the
        # gateway reads the harvest power the reading implies.  The uplink
        # and the wait for the request share the gw_request stage, whose
        # timeout is twice the wait that follows the uplink.
        session = ExchangeSession(LIOT_SCRIPT, state.frames, harvest_mw=p_harv)
        state.session = session
        out = exchange_step(session, None)
        uplink_end = now + out.airtime_s
        gw_end = now + state.stage_s[GW_REQUEST]
        state.timeout_s = uplink_end + 2.0 * max(gw_end - uplink_end, 1e-9)
        _set_phase(state, cfg, GW_REQUEST, gw_end)
        return out

    if phase is SENSOR_READ:
        session = ExchangeSession(BLE_SCRIPT, state.frames)
        state.session = session
        out = exchange_step(session, None)
        if cfg.adv_mode == "fixed":
            adv = state.stage_s[BLE_ADVERTISE]
        else:
            adv = rng.uniform(0.5, 4.0)
        _set_phase(state, cfg, BLE_ADVERTISE, now + adv)
        return out

    if phase is BLE_ADVERTISE:
        session = state.session
        held = session.held
        if held is not None:
            session.held = None
            nominal = state.stage_s[BLE_DATA_EXCHANGE]
            state.timeout_s = now + 2.0 * nominal
            _set_phase(state, cfg, BLE_DATA_EXCHANGE, now + nominal)
            return exchange_step(session, held)
        _finish_cycle(state, cfg, now, FailReason.NO_GATEWAY)
        return None

    if phase is BLE_DATA_EXCHANGE or phase is LIOT_SLEEP_SET:
        # A BLE session has no assigned sleep, so both end the same way.
        session = state.session
        if session is not None and session.outcome is DELIVERED:
            _finish_cycle(state, cfg, now, None, session.assigned_sleep_s)
        else:
            _await_or_time_out(state, cfg, now)
        return None

    if phase is GW_REQUEST:
        if state.session.held is not None:
            _set_phase(state, cfg, LIOT_SENSOR_READ,
                       now + state.stage_s[LIOT_SENSOR_READ])
        else:
            _await_or_time_out(state, cfg, now)
        return None

    if phase is LIOT_SENSOR_READ:
        session = state.session
        held = session.held
        session.held = None
        _set_phase(state, cfg, LIOT_DATA_UPLOAD, now + state.stage_s[LIOT_DATA_UPLOAD])
        return exchange_step(session, held)

    if phase is LIOT_DATA_UPLOAD:
        nominal = state.stage_s[LIOT_SLEEP_SET]
        state.timeout_s = now + 2.0 * nominal
        _set_phase(state, cfg, LIOT_SLEEP_SET, now + nominal)
        session = state.session
        held = session.held
        if held is not None:
            # Short (subset) uploads finish before the measured full-upload
            # window ends, so the assignment can already be waiting.
            session.held = None
            return exchange_step(session, held)
        return None

    raise FsmError(f"unhandled phase {phase!r} for {cfg.kind.value} node")


def receive(
    state: NodeState, cfg: NodeConfig, frame: Frame, now: float, light: LightTable
) -> Optional[Frame]:
    """Handle a frame delivered to this node at now; returns the frame to send.

    A delivery does not change the node's load, so it closes the node's
    energy segment only when the node may have drained to v_min since the
    segment opened.  Harvest is >= 0, efficiency only scales charging and
    the v_max clamp never takes V^2 below its start less the load's drain,
    so V^2 >= V0^2 - 2*P_load*(now - t0)/C all through the segment.  Where
    that bound stays above v_min^2, by a slack of 1e-9 * v_max^2 that covers
    the rounding of accrue_energy's chain (a few ulps of v_max^2 a piece),
    V has not reached v_min and depleted is already exact; elsewhere
    accrue_energy closes the segment before depleted is read.
    """
    if state.depleted:
        return None  # a browned-out node neither processes nor emits
    c, _, v_max, v_min_sq, _ = state.cap
    v = state.voltage_v
    drain = 2e-3 * state.load_mw[state.phase] * (now - state.last_energy_update) / c
    if v * v - drain < v_min_sq + 1e-9 * v_max * v_max:
        accrue_energy(state, cfg, now, light)
        if state.depleted:
            return None
    session = state.session
    if session is None or session.outcome is not PENDING:
        return None
    served, holding = _NODE_INBOX.get(frame.kind, (None, ()))
    phase = state.phase
    if phase is served:
        return exchange_step(session, frame)
    if phase in holding:
        session.held = frame
        return None
    # Anything else is out of sequence for a node-addressed frame.
    protocol.fail_session(session, FailReason.PROTOCOL_VIOLATION)
    return None
