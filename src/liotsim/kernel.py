"""Deterministic discrete-event engine.

Virtual clock with a heap of (time, insertion seq, kind, subject) tuples, a
gateway agent, a seeded Bernoulli loss channel, time-varying illumination,
and multi-node scenario execution.  One kernel owns all of its state;
identical scenario and seed give byte-identical results.

Energy needs no clock of its own: light is piecewise constant, so each
node's supercap is integrated in closed form whenever one of its own events
closes the segment since its previous one (see fsm.accrue_energy).  A run
builds its light once, as a LightTable of constant pieces that holds each
piece's end and its harvest power per harvester; every node walks it with
its own cursor, and light reaches a node only as that power.
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
    StageName,
    as_float,
    float_pairs,
    fold_sum,
    solve_sleep_time,
    store_floats,
)
from .fsm import NodeConfig, NodeKind, NodeState
from .protocol import (
    GATEWAY_ID,
    LIOT_SCRIPT,
    NODE_ID_LUX,
    PENDING,
    SENSOR_DATA,
    ExchangeSession,
    Frame,
    LinkType,
    exchange_step,
    handshake_frames,
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
        if isinstance(self.loss, dict):
            loss = {link: as_float(p) for link, p in self.loss.items()}
            object.__setattr__(self, "loss", loss)
            probs = list(loss.values())
        else:
            store_floats(self, "loss")
            probs = [self.loss]
        if any(isinstance(p, bool) or not isinstance(p, (int, float))
               or not 0.0 <= p <= 1.0 for p in probs):
            raise FieldError("loss", "loss probabilities must be numbers in [0, 1]")

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
        object.__setattr__(self, "steps", float_pairs(self.steps))
        if self.kind not in ILLUMINATION_KINDS:
            raise FieldError("kind", f"must be one of {list(ILLUMINATION_KINDS)}")
        for name in ("lux", "mean", "amplitude"):
            if not getattr(self, name) >= 0:
                raise FieldError(name, "must be >= 0")
        if not self.period_s > 0:
            raise FieldError("period_s", "must be > 0")
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
        seed string, and is drawn once for all the starts in that second.
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
            rng, second = random.Random(f"{prefix}{math.floor(starts[0])}"), None
            for k, t in enumerate(starts):
                if (s := math.floor(t)) != second:
                    if second is not None:
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


@dataclass(slots=True)
class _Cursor:
    """A place in a LightTable that is not a node's, kept up to date by fill."""

    light_i: int


class LightTable:
    """The harvest power in force during one run, as a table of constant
    pieces that all of its nodes share.

    Piece i runs from the previous piece's end (0 for the first) to ends[i],
    the next change point (inf after the last), and power[curve][i] is each
    of the run's harvester curves at the lux in force at the piece's start.
    A node walks the table with its cursor NodeState.light_i (see
    fsm.accrue_energy), and may read ahead of it (see ahead).  The table
    fills LIGHT_CHUNK pieces at a time, and first drops those before every
    reader's cursor.  A fill builds its chunk as columns: the ends from the
    change points, the luxes of the pieces' starts in one
    IlluminationProfile.lux_column call, and each curve's power in one
    HarvesterCurve.power_column call, so no per-piece lux_at or power_mw
    call is made.
    """

    def __init__(self, profile: IlluminationProfile, duration_s: float,
                 curves: Iterable[HarvesterCurve]):
        self.profile = profile
        self.end_s = duration_s
        self.ends: list[float] = []
        self.power: dict[HarvesterCurve, list[float]] = {c: [] for c in curves}
        self.readers: list[Union[NodeState, _Cursor]] = []
        self._points = _change_points(profile, duration_s)
        self._next = next(self._points)  # start of the first piece not filled
        self.fill()

    def attach(self, state: NodeState, harvester: HarvesterCurve) -> None:
        """Start a node at the first piece, reading its harvester's column."""
        state.light_i, state.p_harv = 0, self.power[harvester]
        self.readers.append(state)

    def ahead(self, state: NodeState) -> Iterator[tuple[float, float]]:
        """(end, harvest power) of each piece from the node's cursor on, up to
        the piece in force at the end of the run, filling the table as the
        walk reaches its end.  While the walk is open its place is a
        reader's cursor, so a fill keeps the pieces it has yet to read."""
        walk = _Cursor(state.light_i)
        self.readers.append(walk)
        ends, power = self.ends, state.p_harv
        try:
            while True:
                if walk.light_i == len(ends):
                    self.fill()
                end = ends[walk.light_i]
                yield end, power[walk.light_i]
                if end >= self.end_s:
                    return
                walk.light_i += 1
        finally:
            self.readers.remove(walk)

    def fill(self) -> None:
        """Drop the pieces before every reader's cursor, then append up to
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


def gateway_sleep_s(cfg: NodeConfig, p_harv_mw: float) -> float:
    """Sleep the gateway assigns a LIoT node whose lux reading implies the
    harvest power p_harv_mw under the node's curve.

    The balance-point sleep, used verbatim; 0 when the harvest covers
    continuous operation, the node's back-off when it cannot cover sleep.
    """
    return fsm.sleep_or_back_off(cfg, solve_sleep_time(cfg.profile, p_harv_mw))


# Largest run a scenario may ask for: a leap year, and trace samples over
# all nodes (8 bytes of voltage each, so 80 MB at the limit; reading the
# (t, V) view also builds a tuple and a time float for every sample).
MAX_DURATION_S = 366 * 86400.0
MAX_TRACE_SAMPLES = 10**7
# Cycles a run may be estimated to close over all of its nodes (see
# shortest_cycle_s).  A cycle keeps one record (33 B of RecordColumns) and
# at most one handshake of up to 5 frames (17 B each in the FrameLog), so
# the limit's records and frames take 1.77e9 B; with the columns' growth
# slack (at most 1/8) and 80 MB of trace at its limit, under 2 GiB.
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
    burst (see fsm.advance).  That sleep is never shorter than the sleep
    solved at the curve's highest power, without margin, or than the
    back-off:
    - a local solve (fsm.schedule_next_cycle) adds the margin to the solved
      sleep, and a LIoT node's assigned sleep (gateway_sleep_s) is the
      solved sleep, both at the power of some lux;
    - the solved sleep falls as the power rises: it is finite only while
      the active energy exceeds sleep power times active time, and is 0
      from the power that covers the burst on; a curve is non-decreasing
      and clamps above its last point, so its last point's power gives the
      shortest solve (None there means infeasible at every lux);
    - an infeasible solve and a brown-out arm the back-off;
    - a wake that the energy gate of fsm.advance refuses starts no burst and
      closes no cycle: the node sleeps on to a later wake, which only
      lengthens the cycle.
    A burst lasts at least its first phase, even when it browns out, since
    fsm.advance checks for a brown-out only at a phase deadline: a BLE
    node's sensor read, or the airtime of a LIoT node's first uplink frame.
    Each cycle record but a RUN_ENDED one closes a whole cycle, so a run of
    d seconds closes at most d / shortest_cycle_s(cfg) + 1 records.
    """
    # The solved sleep at the curve's top, or the back-off where that is None.
    sleep = min(gateway_sleep_s(cfg, cfg.harvester.points[-1][1]), cfg.backoff_s)
    if cfg.kind is NodeKind.BLE:
        burst = cfg.profile.stage(StageName.SENSOR_READ).duration_s
    else:
        burst = handshake_frames(cfg.node_id, LIOT_SCRIPT, cfg.sensors)[0].airtime_s
    return sleep + burst


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


@dataclass
class NodeResult:
    record_columns: metrics.RecordColumns
    # Supercap voltage samples: volts[i] is at the i-th of
    # fsm.sample_times(sample_interval_s), except that the last one is at
    # last_sample_s, the end of the run when that falls between two times.
    sample_interval_s: float
    volts: array
    last_sample_s: float
    # The records' energy sums plus the unrecorded final cycle's.
    total_consumed_j: float = 0.0
    total_harvested_j: float = 0.0
    trailing_consumed_j: float = 0.0  # consumed in the unrecorded final cycle

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
    log: FrameLog

    @property
    def frames(self) -> FrameLog:
        """The frame log itself, an alias of log: its length is the frame
        count, and iterating it builds one FrameLogEntry at a time."""
        return self.log

    @property
    def records(self) -> list[metrics.CycleRecord]:
        """Every node's cycle records, node by node, built anew on each read."""
        return [r for nr in self.nodes.values() for r in nr.record_columns]

    @property
    def traces(self) -> dict[str, list[tuple[float, float]]]:
        """Each node's (t, V) samples, built anew on each read."""
        return {nid: nr.trace for nid, nr in self.nodes.items()}


class _Kernel:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self._heap: list[tuple[float, int, EventKind, object]] = []
        self._seq = count(1)  # insertion order, to break ties in time
        self.rng_channel = random.Random(
            f"{scenario.seed}|channel|{scenario.channel.seed}"
        )
        # Each node's (state, cfg, rng), so that an event looks its node up once.
        self.nodes: dict[str, tuple[NodeState, NodeConfig, random.Random]] = {}
        self.link_loss = {link: scenario.channel.loss_for(link) for link in LinkType}
        self.log = FrameLog()
        self._log_sent = self.log.sent_s.append
        self._log_frame = self.log.frames.append
        self._log_delivered = self.log.delivered.append
        self.gw_liot_busy: Optional[ExchangeSession] = None
        self.light = LightTable(scenario.illumination, scenario.duration_s,
                                [cfg.harvester for cfg in scenario.nodes])

    # -- plumbing ------------------------------------------------------------

    def _send(self, frame: Frame, now: float) -> None:
        """Log a frame; only a delivered one becomes an event (losses time out)."""
        ok = deliver(self.link_loss[frame.link], self.rng_channel)
        self._log_sent(now)
        self._log_frame(frame)
        self._log_delivered(ok)
        if ok:
            heapq.heappush(self._heap, (now + frame.airtime_s, next(self._seq),
                                        FRAME_DELIVERED, frame))

    # -- gateway -------------------------------------------------------------

    def _gateway_receive(self, frame: Frame, now: float) -> None:
        if not self.sc.gateway.present:
            return
        node = self.nodes.get(frame.src)
        if node is None:
            return
        state, cfg, _ = node
        session = state.session
        if session is None or session.outcome is not PENDING:
            return
        if frame.kind is NODE_ID_LUX:
            # Single optical transceiver: one LIoT session serviced at a time.
            # A session that has ended, delivered or failed, leaves it free.
            busy = self.gw_liot_busy
            if busy is not None and busy is not session and busy.outcome is PENDING:
                return  # the transceiver is occupied
            self.gw_liot_busy = session
        elif frame.kind is SENSOR_DATA:
            session.assigned_sleep_s = gateway_sleep_s(cfg, session.harvest_mw)
        out = exchange_step(session, frame)
        if out is not None:
            self._send(out, now)

    # -- main loop -----------------------------------------------------------

    def run(self) -> RunResult:
        sc, light, nodes = self.sc, self.light, self.nodes
        heap, push, pop, seq = self._heap, heapq.heappush, heapq.heappop, self._seq
        for cfg in sc.nodes:
            p_harv = light.power[cfg.harvester][0]
            first = fsm.schedule_next_cycle(cfg, p_harv)
            state = fsm.initial_state(cfg, first, sc.sample_interval_s)
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
                # A node's one timer: pushed after its last advance, at its deadline.
                state, cfg, rng = nodes[subject]
                fsm.accrue_energy(state, cfg, time, light)
                out = fsm.advance(state, cfg, time, rng=rng, light=light)
                if out is not None:
                    self._send(out, time)
                push(heap, (state.phase_deadline, next(seq), TIMER_FIRED, subject))
                continue

            if kind is RUN_ENDED:
                for state, cfg, _ in nodes.values():
                    fsm.end_run(state, cfg, time, light)
                break

            dst = subject.dst  # FRAME_DELIVERED
            if dst == GATEWAY_ID:
                self._gateway_receive(subject, time)
            else:
                node = nodes.get(dst)
                if node is not None:
                    state, cfg, _ = node
                    fsm.accrue_energy(state, cfg, time, light)
                    out = fsm.receive(state, cfg, subject, time)
                    if out is not None:
                        self._send(out, time)

        return self._result()

    def _result(self) -> RunResult:
        nodes = {
            node_id: NodeResult(
                record_columns=state.records,
                sample_interval_s=state.sample_interval_s,
                volts=state.volts,
                last_sample_s=state.last_sample_s,
                total_consumed_j=fold_sum(state.records.consumed_j)
                + state.cycle_consumed_j,
                total_harvested_j=fold_sum(state.records.harvested_j)
                + state.cycle_harvested_j,
                trailing_consumed_j=state.cycle_consumed_j,
            )
            for node_id, (state, _, _) in self.nodes.items()
        }
        node_summaries = tuple(
            metrics.summarize_node(
                node_id, cfg.kind.value, state.records.outcomes(),
                metrics.voltage_stats(nodes[node_id].sample_times(), state.volts))
            for node_id, (state, cfg, _) in self.nodes.items()
        )
        summary = metrics.RunSummary(
            duration_s=self.sc.duration_s,
            seed=self.sc.seed,
            config_hash=scenario_fingerprint(self.sc),
            nodes=node_summaries,
        )
        return RunResult(summary=summary, nodes=nodes, log=self.log)


def run(scenario: Scenario) -> RunResult:
    """Execute a scenario to completion; deterministic for a given seed."""
    return _Kernel(scenario).run()
