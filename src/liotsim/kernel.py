"""Deterministic discrete-event engine.

Virtual clock with a heap of (time, insertion seq, kind, subject) tuples, a
gateway agent, a seeded Bernoulli loss channel, time-varying illumination,
and multi-node scenario execution.  One run call owns all of its state;
identical scenario and seed give byte-identical results.

Energy needs no clock of its own: light is piecewise constant, so each
node's supercap is integrated in closed form over each segment of constant
load, from one of its timers to the next (see fsm.accrue_energy).  A frame
delivered to a node leaves the load as it was, so it closes the segment only
where the node may have drained to v_min since the segment opened (see
fsm.receive).  A run builds its light once, as a LightTable of constant
pieces that holds each piece's end and its harvest power per harvester;
every node walks it with its own cursor, and light reaches a node only as
that power.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
import json
import math
import random
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, islice
from typing import Iterable, Iterator, Optional, Sequence, Union

# hashlib maps OpenSSL's libcrypto, a few MiB resident for one digest a run;
# the interpreter's own SHA-256 gives the same bytes (as random.py does).
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import fsm, metrics
from .energy import (
    FieldError,
    HarvesterCurve,
    as_float,
    float_pairs,
    fold_sum,
    require_ints,
    solve_sleep_time,
    store_floats,
)
from .fsm import NodeConfig, NodeState
from .protocol import (
    GATEWAY_ID,
    NODE_ID_LUX,
    PENDING,
    SENSOR_DATA,
    ExchangeSession,
    Frame,
    LinkType,
    exchange_step,
)


class EventKind(Enum):
    TIMER_FIRED = "timer_fired"  # subject: the node id
    FRAME_DELIVERED = "frame_delivered"  # subject: the frame
    RUN_ENDED = "run_ended"  # subject: None


TIMER_FIRED = EventKind.TIMER_FIRED
FRAME_DELIVERED = EventKind.FRAME_DELIVERED
RUN_ENDED = EventKind.RUN_ENDED


@dataclass(frozen=True)
class ChannelModel:
    """Per-frame Bernoulli loss: a scalar applies to every link, a mapping
    gives each link it lists its own loss and leaves the others lossless."""

    loss: Union[float, dict[LinkType, float]] = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_ints(self, "seed")
        if isinstance(self.loss, dict):
            links = {link.value for link in LinkType}
            if not links.issuperset(self.loss):
                raise FieldError("loss", f"keys must be among {sorted(links)}")
            object.__setattr__(self, "loss", {
                LinkType(link): as_float(p, "loss") for link, p in self.loss.items()})
            probs = self.loss.values()
        else:
            store_floats(self, "loss")
            probs = [self.loss]
        if not all(0.0 <= p <= 1.0 for p in probs):
            raise FieldError("loss", "must lie in [0, 1]")

    def loss_for(self, link: LinkType) -> float:
        if isinstance(self.loss, dict):
            return self.loss.get(link, 0.0)
        return self.loss


def deliver(loss: float, rng: random.Random) -> bool:
    """Bernoulli(1 - loss) delivery decision for one frame on a link that
    loses frames with probability loss; draws only when 0 < loss < 1."""
    if loss <= 0.0:
        return True
    if loss >= 1.0:
        return False
    return rng.random() >= loss


def per_frame_loss_for_session_pdr(target_pdr: float, n_frames: int) -> float:
    """Per-frame loss so an n-frame session succeeds with the target rate."""
    if not (0.0 < target_pdr <= 1.0):
        raise ValueError("target_pdr must be in (0, 1]")
    if n_frames <= 0:
        raise ValueError("n_frames must be >= 1")
    return 1.0 - target_pdr ** (1.0 / n_frames)


ILLUMINATION_KINDS = ("constant", "step", "sinusoid")


@dataclass(frozen=True)
class IlluminationProfile:
    """Illuminance vs time: constant, stepwise, or sinusoidal, optional jitter.

    Light is piecewise constant: a step holds from its start time to the next
    one, and the sinusoid and the multiplicative jitter are each held at
    their value at the start of every whole second.
    """

    kind: str = "constant"
    lux: float = 700.0
    steps: tuple[tuple[float, float], ...] = ()  # (t_start, lux)
    mean: float = 0.0
    amplitude: float = 0.0
    period_s: float = 86400.0
    jitter_pct: float = 0.0  # seeded per-second multiplicative jitter
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        store_floats(self, "lux", "mean", "amplitude", "period_s", "jitter_pct")
        object.__setattr__(self, "steps", float_pairs(self.steps, "steps"))
        require_ints(self, "jitter_seed")
        if self.kind not in ILLUMINATION_KINDS:
            raise FieldError("kind", f"must be one of {list(ILLUMINATION_KINDS)}")
        for name in ("lux", "mean", "amplitude"):
            if not getattr(self, name) >= 0:
                raise FieldError(name, "must be >= 0")
        # Light is held per whole second, so a shorter period only aliases.
        if not self.period_s >= 1:
            raise FieldError("period_s", "must be >= 1 s")
        if not (0.0 <= self.jitter_pct < 1.0):
            raise FieldError("jitter_pct", "must be in [0, 1)")
        if self.kind == "step":
            if not self.steps:
                raise FieldError("steps", "step profile needs at least one step")
            ts = [t for t, _ in self.steps]
            if ts[0] != 0.0 or any(b <= a for a, b in zip(ts, ts[1:])):
                raise FieldError("steps", "steps must start at t=0 and increase")
            if not all(lux >= 0 for _, lux in self.steps):
                raise FieldError("steps", "step lux must be >= 0")
        if self.kind == "sinusoid" and self.amplitude > self.mean:
            raise FieldError("amplitude", "sinusoid would go below zero lux")

    def lux_at(self, t_s: float) -> float:
        if not t_s >= 0:
            raise ValueError(f"time {t_s} outside the profile domain")
        return self.lux_column((t_s,))[0]

    def lux_column(self, starts: Sequence[float]) -> list[float]:
        """lux_at of each of starts, one or more times that are >= 0 and
        non-decreasing, in one pass per kind.

        A step profile bisects its step starts for each start.  The jitter
        of a second comes from one generator, reseeded from the second's
        seed string, and is drawn once for all the starts in that second; a
        second whose starts are all dark draws none, as its factor would
        only multiply 0.0.
        No clamp at 0 is needed: every lux, step lux and mean - amplitude is
        validated >= 0, and a jitter factor lies in (0, 2).
        """
        if self.kind == "constant":
            luxes = [self.lux] * len(starts)
        elif self.kind == "step":
            steps, ts = self.steps, [t for t, _ in self.steps]
            luxes = [steps[bisect.bisect_right(ts, t) - 1][1] for t in starts]
        else:
            mean, amplitude, period, floor, sin = (
                self.mean, self.amplitude, self.period_s, math.floor, math.sin)
            two_pi = 2.0 * math.pi
            luxes = [mean + amplitude * sin(two_pi * floor(t) / period) for t in starts]
        if self.jitter_pct > 0:
            p, prefix = self.jitter_pct, f"{self.jitter_seed}|lux|"
            rng, second = None, None
            for k, t in enumerate(starts):
                if luxes[k] == 0.0:  # dark: 0.0 times any factor, so no draw
                    continue
                if (s := math.floor(t)) != second:
                    if rng is None:
                        rng = random.Random(f"{prefix}{s}")
                    else:
                        rng.seed(f"{prefix}{s}")
                    second, factor = s, 1.0 + rng.uniform(-p, p)
                luxes[k] *= factor
        return luxes


# Pieces the light table appends at a time, after dropping those every node
# has passed.
LIGHT_CHUNK = 1024


def _change_points(profile: IlluminationProfile, duration_s: float) -> Iterator[float]:
    """The times at which the light may change, in order, up to duration_s:
    0 for constant light and the step starts for a step profile, merged with
    every whole second when jitter or a sinusoid is on.  The loop runs over
    the step starts; the whole seconds between two of them come from one
    range."""
    starts = ([t for t, _ in profile.steps if t <= duration_s]
              if profile.kind == "step" else [0.0])
    if not (profile.jitter_pct > 0 or profile.kind == "sinusoid"):
        yield from starts
        return
    second = 0  # the first whole second not yet yielded
    for t in starts:
        whole = math.ceil(t)  # the first whole second at or after t
        yield from map(float, range(second, whole))
        yield t
        second = max(second, whole + (whole == t))
    yield from map(float, range(second, math.floor(duration_s) + 1))


class LightTable:
    """The harvest power in force during one run, as a table of constant
    pieces that all of its nodes share.

    Piece i runs from the previous piece's end (0 for the first) to ends[i],
    the next change point (inf after the last), and power[curve][i] is each
    of the run's harvester curves at the lux in force at the piece's start.
    A node walks the table with its cursor NodeState.light_i, which only
    fsm.accrue_energy moves; the node's energy wait moves it through
    accrue_energy too (see fsm._funded_wake).  The table fills LIGHT_CHUNK
    pieces at a time, and first drops those before every node's cursor.  A
    fill builds its chunk as columns: the ends from the change points, the
    luxes of the pieces' starts in one IlluminationProfile.lux_column call,
    and each curve's power in one HarvesterCurve.power_column call, so no
    per-piece lux_at or power_mw call is made.
    """

    def __init__(self, profile: IlluminationProfile, duration_s: float,
                 curves: Iterable[HarvesterCurve]):
        self.profile = profile
        self.end_s = duration_s
        self.ends: list[float] = []
        self.power: dict[HarvesterCurve, list[float]] = {c: [] for c in curves}
        self.readers: list[NodeState] = []
        self._points = _change_points(profile, duration_s)
        self._next = next(self._points)  # start of the first piece not filled
        self.fill()

    def attach(self, state: NodeState, harvester: HarvesterCurve) -> None:
        """Start a node at the first piece, reading its harvester's column."""
        state.light_i, state.p_harv = 0, self.power[harvester]
        self.readers.append(state)

    def fill(self) -> None:
        """Drop the pieces before every node's cursor, then append up to
        LIGHT_CHUNK pieces; the columns shrink and grow in place, and the
        cursors move with them."""
        passed = min((st.light_i for st in self.readers), default=0)
        for column in (self.ends, *self.power.values()):
            del column[:passed]
        for st in self.readers:
            st.light_i -= passed
        if self._next == math.inf:
            return
        ends = list(islice(self._points, LIGHT_CHUNK))
        if len(ends) < LIGHT_CHUNK:
            ends.append(math.inf)
        luxes = self.profile.lux_column([self._next, *ends[:-1]])
        self._next = ends[-1]
        self.ends += ends
        for curve, column in self.power.items():
            column += curve.power_column(luxes)


@dataclass(frozen=True)
class GatewayConfig:
    present: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.present, bool):
            raise FieldError("present", "expected a boolean")


def gateway_sleep_s(cfg: NodeConfig, p_harv_mw: float) -> float:
    """Sleep the gateway assigns a LIoT node whose lux reading implies the
    harvest power p_harv_mw under the node's curve.

    The balance-point sleep, used verbatim; 0 when the harvest covers
    continuous operation, the node's floor when it cannot cover sleep.
    """
    return fsm.sleep_or_floor(cfg, solve_sleep_time(cfg.profile, p_harv_mw))


# Largest run a scenario may ask for: a leap year, and trace samples over
# all nodes (8 bytes of voltage each where the run keeps its trace, so 80 MB
# at the limit; reading the (t, V) view also builds a tuple and a time float
# for every sample).
MAX_DURATION_S = 366 * 86400.0
MAX_TRACE_SAMPLES = 10**7
# Cycles a run may be estimated to close over all of its nodes (see
# shortest_cycle_s).  A cycle keeps one record (33 B of RecordColumns) and
# at most one handshake of up to 5 frames (17 B each in the FrameLog), so
# the limit's records and frames take 1.77e9 B; with the columns' growth
# slack (at most 1/8) and 80 MB of kept trace at its limit, under 2 GiB.
MAX_CYCLES = 15_000_000


@dataclass(frozen=True)
class Scenario:
    duration_s: float
    nodes: tuple[NodeConfig, ...]
    channel: ChannelModel = ChannelModel()
    illumination: IlluminationProfile = IlluminationProfile()
    gateway: GatewayConfig = GatewayConfig()
    seed: int = 1
    sample_interval_s: float = 1.0

    def __post_init__(self) -> None:
        store_floats(self, "duration_s", "sample_interval_s")
        require_ints(self, "seed")
        if not self.duration_s > 0:
            raise FieldError("duration_s", "must be > 0")
        if not self.nodes:
            raise FieldError("nodes", "scenario needs at least one node")
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise FieldError("nodes", "node ids must be unique")
        if not self.sample_interval_s > 0:
            raise FieldError("sample_interval_s", "must be > 0")
        if self.duration_s > MAX_DURATION_S:
            raise FieldError("duration_s", f"must be at most {MAX_DURATION_S:.0f} s "
                                           "(366 days)")
        samples = len(self.nodes) * self.duration_s / self.sample_interval_s
        if samples > MAX_TRACE_SAMPLES:
            raise FieldError(
                "sample_interval_s",
                f"{len(self.nodes)} node(s) x {self.duration_s:g} s / "
                f"{self.sample_interval_s:g} s is {samples:.3g} trace samples, "
                f"above the limit of {MAX_TRACE_SAMPLES:,}",
            )
        cycles = estimated_cycles(self)
        if cycles > MAX_CYCLES:
            raise FieldError(
                "duration_s",
                f"{len(self.nodes)} node(s) x {self.duration_s:g} s is an estimated "
                f"{cycles:.3g} cycles, above the limit of {MAX_CYCLES:,}",
            )


def shortest_cycle_s(cfg: NodeConfig) -> float:
    """A lower bound on the length of each of the node's cycles.

    A cycle is the sleep armed when the cycle before it closed, then a
    burst (see fsm.advance).  That sleep is never shorter than the node's
    floor (fsm.sleep_or_floor), the sleep solved at the curve's highest
    power, without margin:
    - a local solve (fsm.schedule_next_cycle) adds the margin to the solved
      sleep, and a LIoT node's assigned sleep (gateway_sleep_s) is the
      solved sleep, both at the power of some lux;
    - the solved sleep falls as the power rises: it is finite only while
      the active energy exceeds sleep power times active time, and is 0
      from the power that covers the burst on; a curve is non-decreasing
      and clamps above its last point, so its last point's power gives the
      shortest solve (None there means infeasible at every lux);
    - an infeasible solve and a brown-out arm the floor, inf where None;
    - a wake that the energy gate of fsm.advance refuses starts no burst and
      closes no cycle: the node sleeps on to a later wake, which only
      lengthens the cycle.
    A burst lasts at least its first stage, even when it browns out, since
    fsm.advance checks for a brown-out only at a stage deadline.
    Each cycle record but a RUN_ENDED one closes a whole cycle, so a run of
    d seconds closes at most d / shortest_cycle_s(cfg) + 1 records.
    """
    first = cfg.profile.stage(fsm.BURST[cfg.kind][0]).duration_s
    return fsm.sleep_or_floor(cfg, None) + first


def estimated_cycles(sc: Scenario) -> float:
    """An upper bound on the cycle records a run of sc closes, over all of its
    nodes."""
    return sum(sc.duration_s / shortest_cycle_s(cfg) + 1 for cfg in sc.nodes)


def scenario_fingerprint(scenario: Scenario) -> str:
    blob = json.dumps(dataclasses.asdict(scenario), default=str, sort_keys=True)
    return sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class FrameLogEntry:
    sent_s: float
    arrival_s: float
    src: str
    dst: str
    link: str
    kind: str
    payload_bytes: int
    channel: Optional[int]  # the BLE radio channel, None on the optical links
    delivered: bool


@dataclass(slots=True)
class FrameLog:
    """Every frame a run sent, in send order, as three columns: the send
    time, the frame (one of its node's handshake frames, so each is shared)
    and whether the channel delivered it.  A frame arrives at
    sent + frame.airtime_s, the float its delivery was scheduled at."""

    sent_s: array = dataclasses.field(default_factory=lambda: array("d"))
    frames: list[Frame] = dataclasses.field(default_factory=list)
    delivered: bytearray = dataclasses.field(default_factory=bytearray)  # 1 or 0

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[FrameLogEntry]:
        """The entry of each frame, in send order, built as it is read."""
        for sent, f, delivered in zip(self.sent_s, self.frames, self.delivered):
            yield FrameLogEntry(sent, sent + f.airtime_s, f.src, f.dst, f.link.value,
                                f.kind.value, f.payload_bytes, f.channel, delivered == 1)


class _TraceReplay:
    """The voltage samples of a run made without trace: one traced rerun of
    its scenario, made at the first read of any of its nodes' samples and
    kept for all of them.  The kernel is deterministic, so these are the
    samples the run took."""

    __slots__ = ("scenario", "volts")

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.volts: Optional[dict[str, array]] = None

    def node_volts(self, node_id: str) -> array:
        if self.volts is None:
            # The module's run, looked up now, so a wrapper put on it sees this.
            traced = run(self.scenario, trace=True)
            self.volts = {nid: nr.volts for nid, nr in traced.nodes.items()}
        return self.volts[node_id]


@dataclass(eq=False)
class NodeResult:
    """One node's outputs: its cycle records, and its supercap voltage
    samples, read through volts.  A run made with trace keeps the samples; a
    run made without keeps only their stats in its summary, and the first
    read of volts, sample_times(), samples() or trace reruns its scenario
    once (see _TraceReplay).  Equality compares the samples through volts."""

    record_columns: metrics.RecordColumns
    # Supercap voltage samples: volts[i] is at the i-th of
    # fsm.sample_times(sample_interval_s), except that the last one is at
    # last_sample_s, the end of the run when that falls between two times.
    sample_interval_s: float
    _volts: Optional[array] = dataclasses.field(compare=False)  # None: not kept
    last_sample_s: float
    # The records' energy sums plus the unrecorded final cycle's.
    total_consumed_j: float = 0.0
    total_harvested_j: float = 0.0
    trailing_consumed_j: float = 0.0  # consumed in the unrecorded final cycle
    _replay: Optional[_TraceReplay] = dataclasses.field(
        default=None, compare=False, repr=False)

    @property
    def volts(self) -> array:
        """The voltage samples, from the replay on a run that kept none."""
        if self._volts is None:
            self._volts = self._replay.node_volts(self.record_columns.node_id)
        return self._volts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeResult):
            return NotImplemented
        return all(getattr(self, f.name) == getattr(other, f.name)
                   for f in dataclasses.fields(self) if f.compare
                   ) and self.volts == other.volts

    @property
    def records(self) -> list[metrics.CycleRecord]:
        """The cycle records, built anew on each read."""
        return list(self.record_columns)

    def sample_times(self) -> Iterator[float]:
        """The time of each voltage sample, in order."""
        grid = fsm.sample_times(self.sample_interval_s)
        return chain(islice(grid, len(self.volts) - 1), (self.last_sample_s,))

    def samples(self) -> Iterator[tuple[float, float]]:
        """The (t, V) samples, in order, each made as it is read."""
        return zip(self.sample_times(), self.volts)

    @property
    def trace(self) -> list[tuple[float, float]]:
        """The (t, V) samples, built anew on each read."""
        return list(self.samples())


@dataclass
class RunResult:
    summary: metrics.RunSummary
    nodes: dict[str, NodeResult]
    frames: FrameLog  # len() is the frame count; iterating builds each entry

    @property
    def records(self) -> list[metrics.CycleRecord]:
        """Every node's cycle records, node by node, built anew on each read."""
        return [r for nr in self.nodes.values() for r in nr.record_columns]

    @property
    def traces(self) -> dict[str, list[tuple[float, float]]]:
        """Each node's (t, V) samples, built anew on each read; on a run made
        without trace, the first read reruns it once (see NodeResult)."""
        return {nid: nr.trace for nid, nr in self.nodes.items()}


def run(scenario: Scenario, *, trace: bool = False) -> RunResult:
    """Execute a scenario to completion; deterministic for a given seed.

    Pop events in (time, insertion) order until the run ends.  A node's next
    deadline that comes strictly before every queued event is run in place,
    without a push and a pop: the heap would hand it back next all the same.
    A deadline equal to the first queued time goes through the heap, so an
    event queued earlier at that time keeps its turn, and a node that sleeps
    to the run's end meets RUN_ENDED there instead of waking at it again and
    again.

    Every run takes every voltage sample and folds it into its summary's
    voltage stats.  With trace it also keeps the samples, 8 bytes each;
    without, the first read of a node's samples reruns the scenario once
    with trace (see NodeResult).

    The per-event functions are looked up once a run, not at import, so that
    a wrapper put on the module before the run sees every call.
    """
    sc = scenario
    heap: list[tuple[float, int, EventKind, object]] = []
    push, pop, seq = heapq.heappush, heapq.heappop, count(1)  # seq breaks time ties
    rng_channel = random.Random(f"{sc.seed}|channel|{sc.channel.seed}")
    link_loss = {link: sc.channel.loss_for(link) for link in LinkType}
    frames = FrameLog()
    log_sent, log_frame = frames.sent_s.append, frames.frames.append
    log_delivered = frames.delivered.append
    light = LightTable(sc.illumination, sc.duration_s, [cfg.harvester for cfg in sc.nodes])
    # Each node's (state, cfg, rng), so that an event looks its node up once.
    nodes: dict[str, tuple[NodeState, NodeConfig, random.Random]] = {}
    # The LIoT session the gateway's one optical transceiver last took on.
    gw_liot_busy: Optional[ExchangeSession] = None
    accrue, advance, receive = fsm.accrue_energy, fsm.advance, fsm.receive
    delivers, exchange, assigned_sleep = deliver, exchange_step, gateway_sleep_s
    gateway_present = sc.gateway.present

    def send(frame: Frame, now: float) -> None:
        """Log a frame; only a delivered one becomes an event (losses time out)."""
        ok = delivers(link_loss[frame.link], rng_channel)
        log_sent(now)
        log_frame(frame)
        log_delivered(ok)
        if ok:
            push(heap, (now + frame.airtime_s, next(seq), FRAME_DELIVERED, frame))

    for cfg in sc.nodes:
        p_harv = light.power[cfg.harvester][0]
        first = fsm.schedule_next_cycle(cfg, p_harv)
        state = fsm.initial_state(cfg, first, sc.sample_interval_s, trace)
        state.sleep_memo = (p_harv, first)
        light.attach(state, cfg.harvester)
        rng = random.Random(f"{sc.seed}|node|{cfg.node_id}")
        nodes[cfg.node_id] = (state, cfg, rng)
        push(heap, (state.phase_deadline, next(seq), TIMER_FIRED, cfg.node_id))
    push(heap, (sc.duration_s, next(seq), RUN_ENDED, None))

    clock = 0.0
    while heap:
        time, _, kind, subject = pop(heap)
        if time < clock:
            raise RuntimeError("causality violation: event in the past")
        clock = time

        if kind is TIMER_FIRED:
            # A node's one timer, at its deadline after its last advance;
            # RUN_ENDED stays queued, so the heap is never empty here.
            state, cfg, rng = nodes[subject]
            while True:
                accrue(state, cfg, time, light)
                out = advance(state, cfg, time, rng=rng, light=light)
                if out is not None:
                    send(out, time)
                time = state.phase_deadline
                if not time < heap[0][0]:
                    break
                if time < clock:
                    raise RuntimeError("causality violation: event in the past")
                clock = time
            push(heap, (time, next(seq), TIMER_FIRED, subject))
            continue

        if kind is RUN_ENDED:
            for state, cfg, _ in nodes.values():
                fsm.end_run(state, cfg, time, light)
            break

        frame = subject  # FRAME_DELIVERED
        if frame.dst != GATEWAY_ID:
            # No node takes the gateway's id, so dst is one of the run's nodes.
            state, cfg, _ = nodes[frame.dst]
            out = receive(state, cfg, frame, time, light)
        elif not gateway_present:
            continue
        else:  # the gateway's side of its node's session
            state, cfg, _ = nodes[frame.src]
            session = state.session
            if session is None or session.outcome is not PENDING:
                continue
            if frame.kind is NODE_ID_LUX:
                # Single optical transceiver: one LIoT session serviced at a
                # time.  A session that has ended, delivered or failed, leaves
                # it free.
                busy = gw_liot_busy
                if busy is not None and busy is not session and busy.outcome is PENDING:
                    continue  # the transceiver is occupied
                gw_liot_busy = session
            elif frame.kind is SENSOR_DATA:
                session.assigned_sleep_s = assigned_sleep(cfg, session.harvest_mw)
            out = exchange(session, frame)
        if out is not None:
            send(out, time)

    replay = None if trace else _TraceReplay(sc)
    results = {
        node_id: NodeResult(
            record_columns=state.records,
            sample_interval_s=state.sample_interval_s,
            _volts=state.volts,
            last_sample_s=state.last_sample_s,
            total_consumed_j=fold_sum(state.records.consumed_j) + state.cycle_consumed_j,
            total_harvested_j=fold_sum(state.records.harvested_j)
            + state.cycle_harvested_j,
            trailing_consumed_j=state.cycle_consumed_j,
            _replay=replay,
        )
        for node_id, (state, _, _) in nodes.items()
    }
    # Each node folded its voltage stats as it sampled (see fsm.accrue_energy);
    # its samples start at 0 s with the boot voltage, so they span
    # last_sample_s.
    node_summaries = tuple(
        metrics.summarize_node(
            node_id, cfg.kind.value, state.records.outcomes(),
            metrics.finish_voltage_stats(state.volts_area, state.last_sample_s,
                                         cfg.supercap.voltage_v, state.volts_lo,
                                         state.volts_hi))
        for node_id, (state, cfg, _) in nodes.items()
    )
    summary = metrics.RunSummary(duration_s=sc.duration_s, seed=sc.seed,
                                 config_hash=scenario_fingerprint(sc), nodes=node_summaries)
    return RunResult(summary=summary, nodes=results, frames=frames)
