"""Message-level models of the BLE and optical (IR up / VLC down) exchanges.

Each handshake is one script, its frames in order (BLE_SCRIPT, LIOT_SCRIPT).
A node builds the frames of its script once, with handshake_frames; given
the frame just delivered, exchange_step returns the next of those frames
(whichever side sends it) and advances the session.
Airtimes follow a linear per-link model calibrated against the measured
stage durations of the two node builds.
"""

from __future__ import annotations

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


# A frame's airtime is its link's overhead plus payload_bytes times the link's
# per-byte time.  Calibrated so that the full 4-channel optical upload takes
# 3.58 s and the BLE attribute exchange fits its 1.3 s stage.
AIRTIME_OVERHEAD_S: dict[LinkType, float] = {
    LinkType.BLE_ADV: 0.001,
    LinkType.BLE_CONN: 0.02,
    LinkType.IR_UPLINK: 0.02,
    LinkType.VLC_DOWNLINK: 0.01,
}
AIRTIME_PER_BYTE_S: dict[LinkType, float] = {
    LinkType.BLE_ADV: 0.0001,
    LinkType.BLE_CONN: 0.01,
    LinkType.IR_UPLINK: (3.58 - 0.02) / 64.0,
    LinkType.VLC_DOWNLINK: 0.005,
}

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
    return AIRTIME_OVERHEAD_S[link] + payload_bytes * AIRTIME_PER_BYTE_S[link]


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


# Each handshake is one script: its frames in order, one step per frame.  The
# session opens with the first frame, and the delivery of frame i produces
# frame i + 1.  A step is a plain tuple, which unpacks faster than a tuple
# subclass, of:
#   from_node  whether the node sends the frame, else the gateway does;
#   kind       the frame's kind;
#   payload    its bytes; None is BYTES_PER_OPTICAL_CHANNEL per sensor of the node;
#   channel    its BLE radio channel, None on the optical links;
#   delivers   whether the node's receipt of it delivers the session.
# A script ends with its delivering frame or the node's answer to it.
ScriptStep = tuple[bool, FrameKind, Optional[int], Optional[int], bool]

BLE_SCRIPT: tuple[ScriptStep, ...] = (
    (True, ADV_ESS, ADV_PAYLOAD, ADV_CHANNEL, False),
    (False, CONN_REQ, CONN_REQ_PAYLOAD, ADV_CHANNEL, False),
    (False, ESS_ATTR_REQUEST, ATTR_REQUEST_PAYLOAD, CONN_CHANNEL, False),
    (True, ESS_ATTR_DATA, ATTR_DATA_PAYLOAD, CONN_CHANNEL, False),
    # Connection closed by the gateway: the attributes were received.
    (False, CONFIG_OR_DISCONNECT, CONFIG_PAYLOAD, CONN_CHANNEL, True),
)
# The gateway sets session.assigned_sleep_s before it answers SensorData.
LIOT_SCRIPT: tuple[ScriptStep, ...] = (
    (True, NODE_ID_LUX, NODE_ID_LUX_PAYLOAD, None, False),
    (False, SENSOR_REQUEST, SENSOR_REQUEST_PAYLOAD, None, False),
    (True, SENSOR_DATA, None, None, False),
    # Delivered once the node has its sleep time; a lost Ack only keeps the
    # gateway from closing early, the readings were already decoded.
    (False, SLEEP_SET, SLEEP_SET_PAYLOAD, None, True),
    (True, ACK, ACK_PAYLOAD, None, False),
)


def handshake_frames(
    node_id: str, script: tuple[ScriptStep, ...], sensors: tuple[str, ...]
) -> tuple[Frame, ...]:
    """The frames of node_id's handshake, one per step of script, in order.

    A step without a payload is the upload of the node's sensors, 16 B each.
    A node builds these once per run and every session of it sends them.
    """
    frames = []
    for from_node, kind, payload, channel, _ in script:
        if payload is None:
            payload = BYTES_PER_OPTICAL_CHANNEL * len(sensors)
        link = LINK_FOR_KIND[kind]
        src, dst = (node_id, GATEWAY_ID) if from_node else (GATEWAY_ID, node_id)
        frames.append(Frame(src, dst, link, kind, payload,
                            frame_airtime(kind, payload, link), channel))
    return tuple(frames)


@dataclass(slots=True)
class ExchangeSession:
    """State of one node-gateway handshake attempt."""

    script: tuple[ScriptStep, ...]  # BLE_SCRIPT or LIOT_SCRIPT
    frames: tuple[Frame, ...]  # the node's handshake_frames of script
    step: int = 0  # frames of the script sent so far
    outcome: SessionOutcome = SessionOutcome.PENDING
    fail_reason: Optional[FailReason] = None
    harvest_mw: float = 0.0  # a LIoT node's lux reading, as its harvest power
    assigned_sleep_s: Optional[float] = None  # set by the gateway on SensorData
    held: Optional[Frame] = None  # frame received outside its service phase


def fail_session(session: ExchangeSession, reason: FailReason) -> None:
    if session.outcome is PENDING:
        session.outcome = FAILED
        session.fail_reason = reason


def exchange_step(
    session: ExchangeSession, incoming: Optional[Frame]
) -> Optional[Frame]:
    """Advance a session along its script; returns the next frame to send.

    incoming is the frame just delivered, None to open the session.  Any
    frame but the one the session sent last tears it down as a protocol
    violation.  Raises ValueError for a SleepSet the gateway has no assigned
    sleep for.
    """
    if session.outcome is not PENDING:
        return None
    script, i = session.script, session.step
    if i:
        _, awaited, _, _, delivers = script[i - 1]
        if incoming is None or incoming.kind is not awaited:
            fail_session(session, FailReason.PROTOCOL_VIOLATION)
            return None
        if delivers:
            session.outcome = DELIVERED
            if i == len(script):
                return None
    elif incoming is not None:
        fail_session(session, FailReason.PROTOCOL_VIOLATION)
        return None
    out = session.frames[i]
    if out.kind is SLEEP_SET and session.assigned_sleep_s is None:
        raise ValueError("LIoT session has no gateway-assigned sleep")
    session.step = i + 1
    return out
