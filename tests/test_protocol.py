import pytest

from liotsim.energy import LIOT_HARVESTER
from liotsim.protocol import (
    ACK_PAYLOAD,
    AIRTIME_OVERHEAD_S,
    AIRTIME_PER_BYTE_S,
    BLE_SCRIPT,
    BYTES_PER_OPTICAL_CHANNEL,
    GATEWAY_ID,
    LINK_FOR_KIND,
    LIOT_SCRIPT,
    SENSOR_CHANNELS,
    ExchangeSession,
    FailReason,
    Frame,
    FrameKind,
    LinkType,
    SessionOutcome,
    exchange_step,
    fail_session,
    frame_airtime,
    handshake_frames,
)

K = FrameKind
# Each handshake as documented: its frames in order, and the index of the
# frame whose delivery to the node delivers the session.
HANDSHAKES = {
    "ble": ([K.ADV_ESS, K.CONN_REQ, K.ESS_ATTR_REQUEST, K.ESS_ATTR_DATA,
             K.CONFIG_OR_DISCONNECT], 4),
    "liot": ([K.NODE_ID_LUX, K.SENSOR_REQUEST, K.SENSOR_DATA, K.SLEEP_SET,
              K.ACK], 3),
}


SCRIPTS = {"ble": BLE_SCRIPT, "liot": LIOT_SCRIPT}


def _session(name, node_id="n1", sensors=SENSOR_CHANNELS, **kw):
    script = SCRIPTS[name]
    return ExchangeSession(script, handshake_frames(node_id, script, sensors), **kw)


def _run_happy_path(session):
    frames = [exchange_step(session, None)]
    while session.outcome is SessionOutcome.PENDING:
        out = exchange_step(session, frames[-1])
        if out is None:
            break
        frames.append(out)
    return frames


def _stray(kind):
    """A well-formed frame of any kind, sent from the gateway to n1."""
    link = LINK_FOR_KIND[kind]
    channel = {LinkType.BLE_ADV: 37, LinkType.BLE_CONN: 5}.get(link)
    return Frame(GATEWAY_ID, "n1", link, kind, 1, 0.01, channel)


@pytest.mark.parametrize("name", HANDSHAKES)
def test_handshake_delivers_at_its_documented_frame(name):
    order, delivering = HANDSHAKES[name]
    session = _session(name, assigned_sleep_s=620.0)
    frame = exchange_step(session, None)
    sent = []
    while frame is not None:
        sent.append(frame.kind)
        # Pending until the node has received the delivering frame.
        assert session.outcome is (SessionOutcome.DELIVERED
                                   if len(sent) > delivering + 1
                                   else SessionOutcome.PENDING)
        frame = exchange_step(session, frame)
    assert sent == order
    assert session.outcome is SessionOutcome.DELIVERED


@pytest.mark.parametrize("name", HANDSHAKES)
def test_any_frame_but_the_awaited_one_is_a_violation(name):
    order, delivering = HANDSHAKES[name]
    # A session that has sent `sent` frames awaits the last of them (nothing
    # before it opens); it stays pending up to the delivering frame.
    for sent in range(delivering + 2):
        for kind in [*FrameKind, None]:
            if kind is (order[sent - 1] if sent else None):
                continue
            session = _session(name, assigned_sleep_s=620.0)
            awaited = None
            for _ in range(sent):
                awaited = exchange_step(session, awaited)
            stray = None if kind is None else _stray(kind)
            assert exchange_step(session, stray) is None, (sent, kind)
            assert session.outcome is SessionOutcome.FAILED, (sent, kind)
            assert session.fail_reason is FailReason.PROTOCOL_VIOLATION
            # Torn-down sessions no longer respond.
            assert exchange_step(session, awaited) is None
            assert session.fail_reason is FailReason.PROTOCOL_VIOLATION


def test_ble_happy_path_delivers():
    session = _session("ble")
    frames = _run_happy_path(session)
    assert session.outcome is SessionOutcome.DELIVERED
    assert [f.kind for f in frames] == HANDSHAKES["ble"][0]
    # Connection-phase traffic fits the measured 1.3 s exchange stage.
    conn_time = sum(
        f.airtime_s for f in frames if f.link is LinkType.BLE_CONN
    )
    assert conn_time == pytest.approx(1.3, abs=0.05)
    assert conn_time <= 1.3


def test_ble_no_gateway_failure_is_explicit():
    session = _session("ble")
    exchange_step(session, None)
    fail_session(session, FailReason.NO_GATEWAY)
    assert session.outcome is SessionOutcome.FAILED
    assert session.fail_reason is FailReason.NO_GATEWAY


def test_liot_happy_path_delivers_and_assigns_sleep():
    # The gateway assigns the sleep before it answers SensorData.
    session = _session("liot", "n2", harvest_mw=LIOT_HARVESTER.power_mw(700.0))
    frames = [exchange_step(session, None)]
    for _ in range(2):
        frames.append(exchange_step(session, frames[-1]))
    with pytest.raises(ValueError, match="no gateway-assigned sleep"):
        exchange_step(session, frames[-1])
    session.assigned_sleep_s = 620.0
    for _ in range(2):
        frames.append(exchange_step(session, frames[-1]))
    assert session.outcome is SessionOutcome.DELIVERED
    assert [f.kind for f in frames] == HANDSHAKES["liot"][0]
    assert session.assigned_sleep_s == 620.0
    data = frames[2]
    assert data.airtime_s == pytest.approx(3.58, rel=1e-12)


def test_liot_subset_request_scales_upload_airtime():
    bright = LIOT_HARVESTER.power_mw(700.0)
    full = _session("liot", "n", harvest_mw=bright, assigned_sleep_s=620.0)
    sub = _session(
        "liot", "n", harvest_mw=bright, assigned_sleep_s=620.0,
        sensors=("temperature",),
    )
    f_full = _run_happy_path(full)[2]
    f_sub = _run_happy_path(sub)[2]
    overhead = AIRTIME_OVERHEAD_S[LinkType.IR_UPLINK]
    per_byte = AIRTIME_PER_BYTE_S[LinkType.IR_UPLINK]
    assert f_sub.payload_bytes == BYTES_PER_OPTICAL_CHANNEL
    assert f_sub.airtime_s == pytest.approx(
        overhead + (f_full.airtime_s - overhead) / 4.0, rel=1e-12
    )
    assert f_sub.airtime_s == pytest.approx(
        overhead + f_sub.payload_bytes * per_byte, rel=1e-12
    )


def test_frame_airtime_model():
    # Full 4-channel optical upload is the calibration anchor.
    assert frame_airtime(
        FrameKind.SENSOR_DATA, 4 * BYTES_PER_OPTICAL_CHANNEL, LinkType.IR_UPLINK
    ) == pytest.approx(3.58, rel=1e-12)
    # Zero payload leaves only the link overhead.
    assert frame_airtime(FrameKind.ACK, 0, LinkType.IR_UPLINK) == pytest.approx(
        AIRTIME_OVERHEAD_S[LinkType.IR_UPLINK]
    )
    # Linearity in the payload term.
    a1 = frame_airtime(FrameKind.SENSOR_DATA, 64, LinkType.IR_UPLINK)
    a2 = frame_airtime(FrameKind.SENSOR_DATA, 32, LinkType.IR_UPLINK)
    overhead = AIRTIME_OVERHEAD_S[LinkType.IR_UPLINK]
    assert a2 - overhead == pytest.approx((a1 - overhead) / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        frame_airtime(FrameKind.SENSOR_DATA, -1, LinkType.IR_UPLINK)


def test_link_kind_safety():
    with pytest.raises(ValueError):
        frame_airtime(FrameKind.SLEEP_SET, 2, LinkType.IR_UPLINK)
    with pytest.raises(ValueError):
        Frame(src="n", dst=GATEWAY_ID, link=LinkType.BLE_CONN,
              kind=FrameKind.NODE_ID_LUX, payload_bytes=3, airtime_s=0.1,
              channel=5)
    with pytest.raises(ValueError):  # advertising restricted to 37-39
        Frame(src="n", dst=GATEWAY_ID, link=LinkType.BLE_ADV,
              kind=FrameKind.ADV_ESS, payload_bytes=31, airtime_s=0.004,
              channel=12)
    with pytest.raises(ValueError):  # connection channels restricted to 0-36
        Frame(src="n", dst=GATEWAY_ID, link=LinkType.BLE_CONN,
              kind=FrameKind.ESS_ATTR_DATA, payload_bytes=10, airtime_s=0.1,
              channel=39)


def test_session_outcome_deterministic_replay():
    runs = []
    for _ in range(2):
        session = _session("ble")
        frames = _run_happy_path(session)
        runs.append([(f.kind, f.src, f.dst, f.airtime_s) for f in frames])
    assert runs[0] == runs[1]


def test_every_session_of_a_node_returns_its_frames():
    # Frames carry only their kind and size, so every session of one node
    # sends the same frames, whatever lux it reports or sleep it is assigned.
    frames = handshake_frames("n2", LIOT_SCRIPT, SENSOR_CHANNELS)
    dim = ExchangeSession(LIOT_SCRIPT, frames, harvest_mw=LIOT_HARVESTER.power_mw(500.0),
                          assigned_sleep_s=1350.0)
    bright = ExchangeSession(LIOT_SCRIPT, frames,
                             harvest_mw=LIOT_HARVESTER.power_mw(700.0),
                             assigned_sleep_s=620.0)
    for session in (dim, bright):
        sent = _run_happy_path(session)
        assert len(sent) == 5
        assert all(a is b for a, b in zip(sent, frames))
    # Each frame is its step's, between the node and the gateway.
    for name, script in SCRIPTS.items():
        frames = handshake_frames("n1", script, SENSOR_CHANNELS)
        assert [f.kind for f in frames] == HANDSHAKES[name][0]
        assert all((f.src, f.dst) == (("n1", GATEWAY_ID) if from_node
                                      else (GATEWAY_ID, "n1"))
                   for f, (from_node, *_) in zip(frames, script))
