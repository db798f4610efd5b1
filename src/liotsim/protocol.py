"""Message-level models of the BLE and optical (IR up / VLC down) exchanges.

Each exchange is a serialized handshake: given the frame just delivered,
the step function returns the next frame to transmit (whichever side sends
it) and advances the session state.  Airtimes follow a linear per-link model
calibrated against the measured stage durations of the two node builds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Optional

GATEWAY_ID = "gw"


class LinkType(str, Enum):
    BLE_ADV = "ble_adv"
    BLE_CONN = "ble_conn"
    IR_UPLINK = "ir_uplink"
    VLC_DOWNLINK = "vlc_downlink"


class FrameKind(str, Enum):
    ADV_ESS = "adv_ess"
    CONN_REQ = "conn_req"
    ESS_ATTR_REQUEST = "ess_attr_request"
    ESS_ATTR_DATA = "ess_attr_data"
    CONFIG_OR_DISCONNECT = "config_or_disconnect"
    NODE_ID_LUX = "node_id_lux"
    SENSOR_REQUEST = "sensor_request"
    SENSOR_DATA = "sensor_data"
    SLEEP_SET = "sleep_set"
    ACK = "ack"


# Which link each frame kind is allowed on (mutually exclusive media).
LINK_FOR_KIND: dict[FrameKind, LinkType] = {
    FrameKind.ADV_ESS: LinkType.BLE_ADV,
    FrameKind.CONN_REQ: LinkType.BLE_ADV,
    FrameKind.ESS_ATTR_REQUEST: LinkType.BLE_CONN,
    FrameKind.ESS_ATTR_DATA: LinkType.BLE_CONN,
    FrameKind.CONFIG_OR_DISCONNECT: LinkType.BLE_CONN,
    FrameKind.NODE_ID_LUX: LinkType.IR_UPLINK,
    FrameKind.SENSOR_REQUEST: LinkType.VLC_DOWNLINK,
    FrameKind.SENSOR_DATA: LinkType.IR_UPLINK,
    FrameKind.SLEEP_SET: LinkType.VLC_DOWNLINK,
    FrameKind.ACK: LinkType.IR_UPLINK,
}

ADV_CHANNELS = (37, 38, 39)
# Radio channels a BLE session uses: the first advertising channel, then one
# data channel for the connection.
ADV_CHANNEL = ADV_CHANNELS[0]
CONN_CHANNEL = 5
SENSOR_CHANNELS = ("temperature", "humidity", "pressure", "gas")


@dataclass(frozen=True)
class AirtimeModel:
    """Per-link airtime constants: overhead + payload_bytes * per_byte."""

    overhead_s: dict[LinkType, float]
    per_byte_s: dict[LinkType, float]


# Calibrated so that the full 4-channel optical upload takes 3.58 s and the
# BLE attribute exchange fits its 1.3 s stage.
DEFAULT_AIRTIME = AirtimeModel(
    overhead_s={
        LinkType.BLE_ADV: 0.001,
        LinkType.BLE_CONN: 0.02,
        LinkType.IR_UPLINK: 0.02,
        LinkType.VLC_DOWNLINK: 0.01,
    },
    per_byte_s={
        LinkType.BLE_ADV: 0.0001,
        LinkType.BLE_CONN: 0.01,
        LinkType.IR_UPLINK: (3.58 - 0.02) / 64.0,
        LinkType.VLC_DOWNLINK: 0.005,
    },
)

# Default payload sizes (bytes).
ADV_PAYLOAD = 31
CONN_REQ_PAYLOAD = 22
ATTR_REQUEST_PAYLOAD = 4
ATTR_DATA_PAYLOAD = 117
CONFIG_PAYLOAD = 2
NODE_ID_LUX_PAYLOAD = 3
SENSOR_REQUEST_PAYLOAD = 1
BYTES_PER_OPTICAL_CHANNEL = 16
SLEEP_SET_PAYLOAD = 2
ACK_PAYLOAD = 0


def frame_airtime(kind: FrameKind, payload_bytes: int, link: LinkType) -> float:
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    if LINK_FOR_KIND[kind] is not link:
        raise ValueError(f"{kind.value} frames are not carried on {link.value}")
    return (DEFAULT_AIRTIME.overhead_s[link]
            + payload_bytes * DEFAULT_AIRTIME.per_byte_s[link])


@dataclass(frozen=True)
class Frame:
    src: str
    dst: str
    link: LinkType
    kind: FrameKind
    payload_bytes: int
    airtime_s: float
    channel: Optional[int] = None  # BLE radio channel

    def __post_init__(self) -> None:
        if self.airtime_s <= 0:
            raise ValueError("airtime must be > 0")
        if LINK_FOR_KIND[self.kind] is not self.link:
            raise ValueError(f"{self.kind.value} not allowed on {self.link.value}")
        if self.link is LinkType.BLE_ADV and self.channel not in ADV_CHANNELS:
            raise ValueError("BLE advertising frames must use channels 37-39")
        if self.link is LinkType.BLE_CONN and not (
            self.channel is not None and 0 <= self.channel <= 36
        ):
            raise ValueError("BLE connection frames must use channels 0-36")


class SessionOutcome(Enum):
    PENDING = "pending"
    DELIVERED = "delivered"
    FAILED = "failed"


class FailReason(Enum):
    TIMEOUT = "timeout"
    NO_GATEWAY = "no_gateway"
    PROTOCOL_VIOLATION = "protocol_violation"
    BROWN_OUT = "brown_out"
    RUN_ENDED = "run_ended"  # the run ended while the session was open


class BleStep(Enum):
    START = 0
    ADV_SENT = 1
    CONN_SENT = 2
    ATTR_REQUESTED = 3
    ATTR_SENT = 4
    DONE = 5


class LiotStep(Enum):
    START = 0
    ID_SENT = 1
    REQUEST_SENT = 2
    DATA_SENT = 3
    SLEEP_SENT = 4
    DONE = 5


# The members tested on every frame, bound once as module constants: up to
# Python 3.11 the Enum metaclass defines __getattr__, which makes each
# lookup of a member through its class (FrameKind.ACK) several times slower
# than reading a global.
ADV_ESS = FrameKind.ADV_ESS
CONN_REQ = FrameKind.CONN_REQ
ESS_ATTR_REQUEST = FrameKind.ESS_ATTR_REQUEST
ESS_ATTR_DATA = FrameKind.ESS_ATTR_DATA
CONFIG_OR_DISCONNECT = FrameKind.CONFIG_OR_DISCONNECT
NODE_ID_LUX = FrameKind.NODE_ID_LUX
SENSOR_REQUEST = FrameKind.SENSOR_REQUEST
SENSOR_DATA = FrameKind.SENSOR_DATA
SLEEP_SET = FrameKind.SLEEP_SET
ACK = FrameKind.ACK
PENDING = SessionOutcome.PENDING
DELIVERED = SessionOutcome.DELIVERED
FAILED = SessionOutcome.FAILED
BLE_START = BleStep.START
BLE_ADV_SENT = BleStep.ADV_SENT
BLE_CONN_SENT = BleStep.CONN_SENT
BLE_ATTR_REQUESTED = BleStep.ATTR_REQUESTED
BLE_ATTR_SENT = BleStep.ATTR_SENT
BLE_DONE = BleStep.DONE
LIOT_START = LiotStep.START
LIOT_ID_SENT = LiotStep.ID_SENT
LIOT_REQUEST_SENT = LiotStep.REQUEST_SENT
LIOT_DATA_SENT = LiotStep.DATA_SENT
LIOT_SLEEP_SENT = LiotStep.SLEEP_SENT
LIOT_DONE = LiotStep.DONE


@dataclass(slots=True)
class ExchangeSession:
    """State of one node-gateway handshake attempt."""

    node_id: str
    protocol: str  # "ble" | "liot"
    step: Enum
    outcome: SessionOutcome = SessionOutcome.PENDING
    fail_reason: Optional[FailReason] = None
    lux: float = 0.0
    requested_channels: tuple[str, ...] = SENSOR_CHANNELS
    assigned_sleep_s: Optional[float] = None  # set by the gateway on SensorData
    held: Optional[Frame] = None  # frame received outside its service phase


def make_ble_session(node_id: str, **kw) -> ExchangeSession:
    return ExchangeSession(node_id, "ble", BLE_START, **kw)


def make_liot_session(node_id: str, **kw) -> ExchangeSession:
    return ExchangeSession(node_id, "liot", LIOT_START, **kw)


def fail_session(session: ExchangeSession, reason: FailReason) -> None:
    if session.outcome is PENDING:
        session.outcome = FAILED
        session.fail_reason = reason


# Frames are frozen values, so each distinct frame is built once and shared.
# A run needs a few per node (more with several sensor subsets).
FRAME_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=FRAME_MEMO_SIZE)
def _frame(
    src: str, dst: str, kind: FrameKind, payload: int, channel: Optional[int] = None
) -> Frame:
    link = LINK_FOR_KIND[kind]
    return Frame(src, dst, link, kind, payload, frame_airtime(kind, payload, link),
                 channel)


def ble_exchange_step(
    session: ExchangeSession, incoming: Optional[Frame]
) -> Optional[Frame]:
    """Advance the BLE handshake; returns the next frame to transmit, if any.

    Sequence: AdvEss -> ConnReq -> EssAttrRequest -> EssAttrData ->
    ConfigOrDisconnect -> Delivered.  An out-of-sequence frame tears the
    session down as a protocol violation.
    """
    if session.protocol != "ble":
        raise ValueError("not a BLE session")
    if session.outcome is not PENDING:
        return None
    node, gw = session.node_id, GATEWAY_ID
    step = session.step
    kind = incoming.kind if incoming is not None else None

    if step is BLE_START and kind is None:
        session.step = BLE_ADV_SENT
        return _frame(node, gw, ADV_ESS, ADV_PAYLOAD, ADV_CHANNEL)
    if step is BLE_ADV_SENT and kind is ADV_ESS:
        session.step = BLE_CONN_SENT
        return _frame(gw, node, CONN_REQ, CONN_REQ_PAYLOAD, ADV_CHANNEL)
    if step is BLE_CONN_SENT and kind is CONN_REQ:
        session.step = BLE_ATTR_REQUESTED
        return _frame(gw, node, ESS_ATTR_REQUEST, ATTR_REQUEST_PAYLOAD, CONN_CHANNEL)
    if step is BLE_ATTR_REQUESTED and kind is ESS_ATTR_REQUEST:
        session.step = BLE_ATTR_SENT
        return _frame(node, gw, ESS_ATTR_DATA, ATTR_DATA_PAYLOAD, CONN_CHANNEL)
    if step is BLE_ATTR_SENT and kind is ESS_ATTR_DATA:
        session.step = BLE_DONE
        return _frame(gw, node, CONFIG_OR_DISCONNECT, CONFIG_PAYLOAD, CONN_CHANNEL)
    if step is BLE_DONE and kind is CONFIG_OR_DISCONNECT:
        # Connection closed by the gateway: the attributes were received.
        session.outcome = DELIVERED
        return None
    fail_session(session, FailReason.PROTOCOL_VIOLATION)
    return None


def liot_exchange_step(
    session: ExchangeSession, incoming: Optional[Frame]
) -> Optional[Frame]:
    """Advance the optical handshake; returns the next frame to transmit.

    Sequence: NodeIdLux(IR) -> SensorRequest(VLC) -> SensorData(IR) ->
    SleepSet(VLC) -> Ack(IR).  The gateway sets session.assigned_sleep_s
    before it answers SensorData.  The session counts as delivered once the
    node acknowledges the assigned sleep time.
    """
    if session.protocol != "liot":
        raise ValueError("not a LIoT session")
    if session.outcome is not PENDING:
        return None
    node, gw = session.node_id, GATEWAY_ID
    step = session.step
    kind = incoming.kind if incoming is not None else None

    if step is LIOT_START and kind is None:
        session.step = LIOT_ID_SENT
        return _frame(node, gw, NODE_ID_LUX, NODE_ID_LUX_PAYLOAD)
    if step is LIOT_ID_SENT and kind is NODE_ID_LUX:
        session.step = LIOT_REQUEST_SENT
        return _frame(gw, node, SENSOR_REQUEST, SENSOR_REQUEST_PAYLOAD)
    if step is LIOT_REQUEST_SENT and kind is SENSOR_REQUEST:
        session.step = LIOT_DATA_SENT
        payload = BYTES_PER_OPTICAL_CHANNEL * len(session.requested_channels)
        return _frame(node, gw, SENSOR_DATA, payload)
    if step is LIOT_DATA_SENT and kind is SENSOR_DATA:
        if session.assigned_sleep_s is None:
            raise ValueError("LIoT session has no gateway-assigned sleep")
        session.step = LIOT_SLEEP_SENT
        return _frame(gw, node, SLEEP_SET, SLEEP_SET_PAYLOAD)
    if step is LIOT_SLEEP_SENT and kind is SLEEP_SET:
        session.step = LIOT_DONE
        # Delivered once the acknowledgment goes out; a lost Ack only keeps
        # the gateway from closing early, the readings were already decoded.
        session.outcome = DELIVERED
        return _frame(node, gw, ACK, ACK_PAYLOAD)
    fail_session(session, FailReason.PROTOCOL_VIOLATION)
    return None


def exchange_step(
    session: ExchangeSession, incoming: Optional[Frame]
) -> Optional[Frame]:
    if session.protocol == "ble":
        return ble_exchange_step(session, incoming)
    return liot_exchange_step(session, incoming)
