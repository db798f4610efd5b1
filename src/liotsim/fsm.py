"""Duty-cycle state machine for one sensor node.

The kernel drives each node with timer and frame-delivery callbacks; the
functions here perform the phase transitions, debit the supercapacitor for
the elapsed phase, return the protocol frames of the two node variants, and
keep the node's cycle records, its one account of sessions and energy.
"""

from __future__ import annotations

import math
from array import array
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


class Phase(str, Enum):
    SLEEPING = "sleeping"
    SENSING = "sensing"
    ADVERTISING = "advertising"
    EXCHANGING = "exchanging"
    UPLINKING = "uplinking"
    AWAITING_REQUEST = "awaiting_request"
    UPLOADING = "uploading"
    AWAITING_SLEEP_SET = "awaiting_sleep_set"


# Module constants for the members the FSM tests on every event (see the
# note above protocol.ADV_ESS).
BLE = NodeKind.BLE
LIOT = NodeKind.LIOT
SLEEPING = Phase.SLEEPING
SENSING = Phase.SENSING
ADVERTISING = Phase.ADVERTISING
EXCHANGING = Phase.EXCHANGING
UPLINKING = Phase.UPLINKING
AWAITING_REQUEST = Phase.AWAITING_REQUEST
UPLOADING = Phase.UPLOADING
AWAITING_SLEEP_SET = Phase.AWAITING_SLEEP_SET

# Each frame kind the gateway sends a node: the phase that serves it, and
# the phases that hold it until a phase boundary consumes it.  The kind in
# any other phase, or a kind not listed, is a protocol violation.
_NODE_INBOX: dict[FrameKind, tuple[Optional[Phase], tuple[Phase, ...]]] = {
    CONN_REQ: (None, (ADVERTISING,)),
    ESS_ATTR_REQUEST: (EXCHANGING, ()),
    CONFIG_OR_DISCONNECT: (EXCHANGING, ()),
    SENSOR_REQUEST: (None, (UPLINKING, AWAITING_REQUEST)),
    SLEEP_SET: (AWAITING_SLEEP_SET, (UPLOADING,)),
}

_PHASE_STAGE: dict[NodeKind, dict[Phase, StageName]] = {
    NodeKind.BLE: {
        Phase.SENSING: StageName.SENSOR_READ,
        Phase.ADVERTISING: StageName.BLE_ADVERTISE,
        Phase.EXCHANGING: StageName.BLE_DATA_EXCHANGE,
    },
    NodeKind.LIOT: {
        Phase.UPLINKING: StageName.GW_REQUEST,
        Phase.AWAITING_REQUEST: StageName.GW_REQUEST,
        Phase.SENSING: StageName.LIOT_SENSOR_READ,
        Phase.UPLOADING: StageName.LIOT_DATA_UPLOAD,
        Phase.AWAITING_SLEEP_SET: StageName.LIOT_SLEEP_SET,
    },
}


def _burst_transitions(burst: list[Phase]) -> dict[Phase, frozenset[Phase]]:
    """The phases each phase may move to: sleep goes on or starts the burst,
    each phase moves to the next or aborts to sleep, the last ends in sleep."""
    table = {SLEEPING: frozenset({SLEEPING, burst[0]})}
    for phase, after in zip(burst, burst[1:]):
        table[phase] = frozenset({after, SLEEPING})
    table[burst[-1]] = frozenset({SLEEPING})
    return table


# A node's burst runs through its phases in _PHASE_STAGE order.
LEGAL_TRANSITIONS: dict[NodeKind, dict[Phase, frozenset[Phase]]] = {
    kind: _burst_transitions(list(stages)) for kind, stages in _PHASE_STAGE.items()
}

# The handshake each kind of node runs.
_SCRIPT = {NodeKind.BLE: BLE_SCRIPT, NodeKind.LIOT: LIOT_SCRIPT}

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
    margin: float = 0.05
    sensors: tuple[str, ...] = protocol.SENSOR_CHANNELS
    adv_mode: str = "fixed"  # one of ADV_MODES
    backoff_s: float = 60.0
    efficiency: float = 1.0  # share of the harvest that charging stores

    def __post_init__(self) -> None:
        store_floats(self, "margin", "backoff_s", "efficiency")
        if not self.margin >= 0:
            raise FieldError("margin", "must be >= 0")
        if self.adv_mode not in ADV_MODES:
            raise FieldError("adv_mode", f"must be one of {list(ADV_MODES)}")
        if not self.backoff_s > 0:
            raise FieldError("backoff_s", "must be > 0")
        if not 0 < self.efficiency <= 1:
            raise FieldError("efficiency", "must lie in (0, 1]")
        have = {s.name for s in self.profile.active_stages}
        missing = set(_PHASE_STAGE[self.kind].values()) - have
        if missing:
            raise ValueError(
                f"profile lacks stages for {self.kind.value} node: "
                f"{sorted(m.value for m in missing)}"
            )
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
    """What the node's next event reads; its run's outputs are the records
    and the voltage trace (volts)."""

    phase: Phase
    phase_deadline: float
    voltage_v: float  # supercap voltage; capacitance and limits are cfg.supercap's
    # Constants of the run, looked up once from cfg by initial_state:
    load_mw: dict[Phase, float]  # phase_power_mw of each of the node's phases
    stage_s: dict[Phase, float]  # duration of the stage of each active phase
    # (C, v_min, v_max, v_min**2, funded_v_sq(cfg))
    cap: tuple[float, float, float, float, float]
    frames: tuple[Frame, ...]  # handshake_frames of the node's script
    # One record per closed cycle (a sleep period plus the active burst);
    # the open cycle starts where the last record ends.
    records: RecordColumns
    depleted: bool = False
    # An await phase's timeout, twice its nominal length after it was
    # entered; None once the phase has run on to it (see _await_or_time_out).
    timeout_s: Optional[float] = None
    session: Optional[ExchangeSession] = None
    gw_request_end: float = 0.0
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
    # is that piece's end voltage, the same float); last_sample_s is the time
    # of volts[-1].
    volts: array = field(default_factory=lambda: array("d"))
    sample_interval_s: float = math.inf
    last_sample_s: float = 0.0


def initial_state(
    cfg: NodeConfig, first_sleep_s: Optional[float], sample_interval_s: float = math.inf
) -> NodeState:
    """Node boots asleep, charging, and wakes after its first solved sleep;
    None (infeasible) backs off as _finish_cycle does.  Like every wake, that
    one starts a burst only if the energy gate of advance lets it.

    The voltage trace samples every sample_interval_s; without an interval
    it holds only the boot voltage.
    """
    cap = cfg.supercap
    state = NodeState(
        phase=SLEEPING,
        phase_deadline=0.0,
        voltage_v=cap.voltage_v,
        load_mw={p: phase_power_mw(cfg, p) for p in LEGAL_TRANSITIONS[cfg.kind]},
        stage_s={phase: cfg.profile.stage(name).duration_s
                 for phase, name in _PHASE_STAGE[cfg.kind].items()},
        cap=(cap.capacitance_f, cap.v_min, cap.v_max, cap.v_min**2, funded_v_sq(cfg)),
        frames=handshake_frames(cfg.node_id, _SCRIPT[cfg.kind], cfg.sensors),
        records=RecordColumns(cfg.node_id, cap.voltage_v),
        volts=array("d", (cap.voltage_v,)),
        sample_interval_s=sample_interval_s,
    )
    state.phase_deadline = sleep_or_back_off(cfg, first_sleep_s)
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


def phase_power_mw(cfg: NodeConfig, phase: Phase) -> float:
    if phase is SLEEPING:
        return cfg.profile.sleep_power_mw
    stage = cfg.profile.stage(_PHASE_STAGE[cfg.kind][phase])
    return stage.current_ma * cfg.profile.voltage_v


def accrue_energy(
    state: NodeState, cfg: NodeConfig, now: float, light: LightTable
) -> None:
    """Close the node's energy segment: integrate harvest minus load up to now.

    The load is constant since the last checkpoint, so each piece of the
    light table the node's cursor walks has constant net power.  Each piece
    is integrated in closed form with its harvest power; sample
    times inside a piece are sampled from it.  Every voltage is
    supercap_segment's, written out here with V0^2 and 2*P hoisted per piece
    (the same floats: the expression still evaluates left to right).  A
    sample time on a piece's end takes the piece-end voltage, which is the
    same expression at the same time, computed once.  Samples are only
    appended: the run's voltage stats are taken from the trace after the
    run.  The cursor ends on the piece in force at now.
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
    # Most calls take no sample; only those that do load the trace's state.
    sampling = sample_t <= now
    if sampling:
        append = state.volts.append
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
        while sample_t < t_end:
            v_sq = v0_sq + two_p_w * (sample_t - t) / c
            if v_sq < v_min_sq:
                v_s = v_min
            else:
                v_s = sqrt(v_sq)
                if v_max < v_s:
                    v_s = v_max
            append(v_s)
            last = sample_t
            sample_t += dt
        if sample_t == t_end:
            append(v_end)
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
        state.last_sample_s = last
    state.cycle_consumed_j += p_load * 1e-3 * (now - state.last_energy_update)
    state.cycle_harvested_j += harvested
    state.last_energy_update = now


def end_run(
    state: NodeState, cfg: NodeConfig, end: float, light: LightTable
) -> None:
    """Close the node's last energy segment at the end of the run, and sample
    the voltage there unless a sample time falls on the end; the run's
    voltage stats are taken from the finished trace.

    A session still open is recorded as it stands: delivered if it was, else
    failed with its own reason or, while pending, RUN_ENDED.
    """
    accrue_energy(state, cfg, end, light)
    if state.last_sample_s < end:
        state.volts.append(state.voltage_v)
        state.last_sample_s = end
    if state.session is not None:  # the sleep this arms never comes
        _close_cycle(state, cfg, end, FailReason.RUN_ENDED, 0.0)


def _set_phase(
    state: NodeState, cfg: NodeConfig, phase: Phase, deadline: float
) -> None:
    allowed = LEGAL_TRANSITIONS[cfg.kind].get(state.phase, frozenset())
    if phase not in allowed:
        raise FsmError(
            f"illegal transition {state.phase.value} -> {phase.value} "
            f"for {cfg.kind.value} node"
        )
    state.phase = phase
    state.phase_deadline = deadline


def _close_cycle(
    state: NodeState, cfg: NodeConfig, now: float,
    fail_reason: Optional[FailReason], sleep: float,
) -> None:
    """Record the open cycle with its session's outcome, then sleep.

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
    _set_phase(state, cfg, SLEEPING, now + sleep)


def sleep_or_back_off(cfg: NodeConfig, sleep: Optional[float]) -> float:
    """The sleep to arm: sleep, or the node's back-off when sleep is None
    (infeasible); the energy gate of advance then decides the wake."""
    return cfg.backoff_s if sleep is None else sleep


def _local_sleep(state: NodeState, cfg: NodeConfig, p_harv: float) -> Optional[float]:
    """schedule_next_cycle at harvest power p_harv, solved only when it
    differs from the power of the node's last local solve (the solve
    depends only on cfg and the power)."""
    if p_harv != state.sleep_memo[0]:
        state.sleep_memo = (p_harv, schedule_next_cycle(cfg, p_harv))
    return state.sleep_memo[1]


def _feasible(state: NodeState, cfg: NodeConfig, p_harv: float) -> bool:
    """Whether the local solve at harvest power p_harv is feasible (not
    None).  A harvest above sleep power always is (see solve_sleep_time),
    so only one at or below it is solved."""
    return p_harv > state.load_mw[SLEEPING] or _local_sleep(state, cfg, p_harv) is not None


def _funded_wake(state: NodeState, cfg: NodeConfig, now: float,
                 light: LightTable) -> float:
    """The first time from now at which the energy gate of advance holds, or
    the end of the run if none comes before it.

    Walks the light table's pieces from the node's cursor at sleep load with
    accrue_energy's own arithmetic, so accrue_energy reaches the voltage the
    walk checks.  In a piece of positive net power P (a harvest above sleep
    power, so a feasible solve) V^2 crosses funded_v_sq at
    t + (funded_v_sq - V0^2) * C / (2P); that time moves up by float steps
    until the voltage there passes the gate, so a wake never falls an ulp
    short.  Elsewhere V^2 holds or falls, so the gate can hold only from a
    piece's start.
    """
    p_load = state.load_mw[SLEEPING]
    c, v_min, v_max, v_min_sq, need_sq = state.cap
    efficiency, sqrt, run_end = cfg.efficiency, math.sqrt, light.end_s
    t, v = now, state.voltage_v
    for end, p_harv in light.ahead(state):
        if v * v >= need_sq and _feasible(state, cfg, p_harv):
            return t
        t_end = end if end < run_end else run_end
        p_w = (p_harv - p_load) * 1e-3
        if p_w > 0:
            p_w *= efficiency
        v0_sq = v**2
        two_p_w = 2.0 * p_w
        v_sq = v0_sq + two_p_w * (t_end - t) / c
        if v_sq < v_min_sq:
            v = v_min
        else:
            v = sqrt(v_sq)
            if v_max < v:
                v = v_max
        if p_w > 0 and v * v >= need_sq:
            wake = t + (need_sq - v0_sq) * c / two_p_w
            step = math.ulp(wake)
            while wake < t_end:
                v_wake = min(sqrt(v0_sq + two_p_w * (wake - t) / c), v_max)
                if v_wake * v_wake >= need_sq:
                    return wake
                wake += step
                step += step
            return t_end
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
    the local solve at the harvest power in force."""
    if assigned_sleep is None:
        sleep = _local_sleep(state, cfg, state.p_harv[state.light_i])
    else:
        sleep = assigned_sleep
    _close_cycle(state, cfg, now, fail_reason, sleep_or_back_off(cfg, sleep))


def _await_or_time_out(state: NodeState, cfg: NodeConfig, now: float) -> None:
    """An await step that expires unanswered runs on once, to the timeout_s
    set where the phase was entered, then fails the cycle with a timeout.
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
    supercap holds the profile's active energy above v_min and the local
    solve at the harvest power in force is feasible.  Otherwise it sleeps on,
    with no record, to the first time both hold (_funded_wake).  A burst
    that browns out all the same (an await phase run on to its timeout)
    closes its cycle and sleeps the back-off.
    """
    if state.depleted and state.phase is not SLEEPING:
        # Brown-out mid-cycle: abort, recover in sleep, count the cycle failed.
        _close_cycle(state, cfg, now, FailReason.BROWN_OUT, cfg.backoff_s)
        return None

    phase = state.phase

    if phase is SLEEPING:
        v = state.voltage_v
        if v * v < state.cap[4] or not _feasible(state, cfg, state.p_harv[state.light_i]):
            _set_phase(state, cfg, SLEEPING, _funded_wake(state, cfg, now, light))
            return None
        state.depleted = False  # a funded wake is above v_min
        if cfg.kind is BLE:
            _set_phase(state, cfg, SENSING, now + state.stage_s[SENSING])
            return None
        # LIoT: read the LDR and open the session with an IR uplink; the
        # gateway reads the harvest power the reading implies.
        session = ExchangeSession(LIOT_SCRIPT, state.frames,
                                  harvest_mw=state.p_harv[state.light_i])
        state.session = session
        out = exchange_step(session, None)
        # The uplink and the wait for the request share the gw_request stage.
        state.gw_request_end = now + state.stage_s[UPLINKING]
        _set_phase(state, cfg, UPLINKING, now + out.airtime_s)
        return out

    if phase is SENSING and cfg.kind is BLE:
        session = ExchangeSession(BLE_SCRIPT, state.frames)
        state.session = session
        out = exchange_step(session, None)
        if cfg.adv_mode == "fixed":
            adv = state.stage_s[ADVERTISING]
        else:
            adv = rng.uniform(0.5, 4.0)
        _set_phase(state, cfg, ADVERTISING, now + adv)
        return out

    if phase is ADVERTISING:
        session = state.session
        held = session.held
        if held is not None:
            session.held = None
            nominal = state.stage_s[EXCHANGING]
            state.timeout_s = now + 2.0 * nominal
            _set_phase(state, cfg, EXCHANGING, now + nominal)
            return exchange_step(session, held)
        _finish_cycle(state, cfg, now, FailReason.NO_GATEWAY)
        return None

    if phase is EXCHANGING or phase is AWAITING_SLEEP_SET:
        # A BLE session has no assigned sleep, so both end the same way.
        session = state.session
        if session is not None and session.outcome is DELIVERED:
            _finish_cycle(state, cfg, now, None, session.assigned_sleep_s)
        else:
            _await_or_time_out(state, cfg, now)
        return None

    if phase is UPLINKING:
        state.timeout_s = now + 2.0 * max(state.gw_request_end - now, 1e-9)
        _set_phase(state, cfg, AWAITING_REQUEST, state.gw_request_end)
        return None

    if phase is AWAITING_REQUEST:
        if state.session.held is not None:
            _set_phase(state, cfg, SENSING, now + state.stage_s[SENSING])
        else:
            _await_or_time_out(state, cfg, now)
        return None

    if phase is SENSING and cfg.kind is LIOT:
        session = state.session
        held = session.held
        session.held = None
        _set_phase(state, cfg, UPLOADING, now + state.stage_s[UPLOADING])
        return exchange_step(session, held)

    if phase is UPLOADING:
        nominal = state.stage_s[AWAITING_SLEEP_SET]
        state.timeout_s = now + 2.0 * nominal
        _set_phase(state, cfg, AWAITING_SLEEP_SET, now + nominal)
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
    state: NodeState, cfg: NodeConfig, frame: Frame, now: float
) -> Optional[Frame]:
    """Handle a frame delivered to this node; returns the frame to send."""
    if state.depleted:
        return None  # a browned-out node neither processes nor emits
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
