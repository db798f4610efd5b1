import pytest

from liotsim.protocol import (
    ACK_PAYLOAD,
    BYTES_PER_OPTICAL_CHANNEL,
    DEFAULT_AIRTIME,
    GATEWAY_ID,
    FailReason,
    Frame,
    FrameKind,
    LinkType,
    SessionOutcome,
    ble_exchange_step,
    fail_session,
    frame_airtime,
    liot_exchange_step,
    make_ble_session,
    make_liot_session,
)


def _run_happy_path(session, step):
    frames = [step(session, None)]
    while session.outcome is SessionOutcome.PENDING:
        out = step(session, frames[-1])
        if out is None:
            break
        frames.append(out)
    return frames


def test_ble_happy_path_delivers():
    session = make_ble_session("n1")
    frames = _run_happy_path(session, ble_exchange_step)
    assert session.outcome is SessionOutcome.DELIVERED
    assert [f.kind for f in frames] == [
        FrameKind.ADV_ESS,
        FrameKind.CONN_REQ,
        FrameKind.ESS_ATTR_REQUEST,
        FrameKind.ESS_ATTR_DATA,
        FrameKind.CONFIG_OR_DISCONNECT,
    ]
    # Connection-phase traffic fits the measured 1.3 s exchange stage.
    conn_time = sum(
        f.airtime_s for f in frames if f.link is LinkType.BLE_CONN
    )
    assert conn_time == pytest.approx(1.3, abs=0.05)
    assert conn_time <= 1.3


def test_ble_out_of_sequence_is_violation():
    session = make_ble_session("n1")
    ble_exchange_step(session, None)  # advertise
    rogue = Frame(
        src=GATEWAY_ID, dst="n1", link=LinkType.BLE_CONN,
        kind=FrameKind.CONFIG_OR_DISCONNECT, payload_bytes=2,
        airtime_s=0.04, channel=5,
    )
    assert ble_exchange_step(session, rogue) is None
    assert session.outcome is SessionOutcome.FAILED
    assert session.fail_reason is FailReason.PROTOCOL_VIOLATION
    # Torn-down sessions no longer respond.
    assert ble_exchange_step(session, rogue) is None


def test_ble_no_gateway_failure_is_explicit():
    session = make_ble_session("n1")
    ble_exchange_step(session, None)
    fail_session(session, FailReason.NO_GATEWAY)
    assert session.outcome is SessionOutcome.FAILED
    assert session.fail_reason is FailReason.NO_GATEWAY


def test_liot_happy_path_delivers_and_assigns_sleep():
    # The gateway assigns the sleep before it answers SensorData.
    session = make_liot_session("n2", lux=700.0)
    frames = [liot_exchange_step(session, None)]
    for _ in range(2):
        frames.append(liot_exchange_step(session, frames[-1]))
    with pytest.raises(ValueError, match="no gateway-assigned sleep"):
        liot_exchange_step(session, frames[-1])
    session.assigned_sleep_s = 620.0
    for _ in range(2):
        frames.append(liot_exchange_step(session, frames[-1]))
    assert session.outcome is SessionOutcome.DELIVERED
    assert [f.kind for f in frames] == [
        FrameKind.NODE_ID_LUX,
        FrameKind.SENSOR_REQUEST,
        FrameKind.SENSOR_DATA,
        FrameKind.SLEEP_SET,
        FrameKind.ACK,
    ]
    assert session.assigned_sleep_s == 620.0
    data = frames[2]
    assert data.airtime_s == pytest.approx(3.58, rel=1e-12)


def test_liot_subset_request_scales_upload_airtime():
    full = make_liot_session("n", lux=700.0, assigned_sleep_s=620.0)
    sub = make_liot_session(
        "n", lux=700.0, assigned_sleep_s=620.0,
        requested_channels=("temperature",),
    )
    f_full = _run_happy_path(full, liot_exchange_step)[2]
    f_sub = _run_happy_path(sub, liot_exchange_step)[2]
    overhead = DEFAULT_AIRTIME.overhead_s[LinkType.IR_UPLINK]
    per_byte = DEFAULT_AIRTIME.per_byte_s[LinkType.IR_UPLINK]
    assert f_sub.payload_bytes == BYTES_PER_OPTICAL_CHANNEL
    assert f_sub.airtime_s == pytest.approx(
        overhead + (f_full.airtime_s - overhead) / 4.0, rel=1e-12
    )
    assert f_sub.airtime_s == pytest.approx(
        overhead + f_sub.payload_bytes * per_byte, rel=1e-12
    )


def test_liot_out_of_sequence_is_violation():
    session = make_liot_session("n2", lux=700.0)
    liot_exchange_step(session, None)
    rogue = Frame(
        src=GATEWAY_ID, dst="n2", link=LinkType.VLC_DOWNLINK,
        kind=FrameKind.SLEEP_SET, payload_bytes=2, airtime_s=0.02,
    )
    liot_exchange_step(session, rogue)
    assert session.outcome is SessionOutcome.FAILED
    assert session.fail_reason is FailReason.PROTOCOL_VIOLATION


def test_frame_airtime_model():
    # Full 4-channel optical upload is the calibration anchor.
    assert frame_airtime(
        FrameKind.SENSOR_DATA, 4 * BYTES_PER_OPTICAL_CHANNEL, LinkType.IR_UPLINK
    ) == pytest.approx(3.58, rel=1e-12)
    # Zero payload leaves only the link overhead.
    assert frame_airtime(FrameKind.ACK, 0, LinkType.IR_UPLINK) == pytest.approx(
        DEFAULT_AIRTIME.overhead_s[LinkType.IR_UPLINK]
    )
    # Linearity in the payload term.
    a1 = frame_airtime(FrameKind.SENSOR_DATA, 64, LinkType.IR_UPLINK)
    a2 = frame_airtime(FrameKind.SENSOR_DATA, 32, LinkType.IR_UPLINK)
    overhead = DEFAULT_AIRTIME.overhead_s[LinkType.IR_UPLINK]
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
        session = make_ble_session("n1")
        frames = _run_happy_path(session, ble_exchange_step)
        runs.append([(f.kind, f.src, f.dst, f.airtime_s) for f in frames])
    assert runs[0] == runs[1]


def test_every_handshake_frame_is_memoised():
    # Frames carry only their kind and size, so two sessions of one node
    # share every frame, whatever lux they report or sleep they are assigned.
    dim = make_liot_session("n2", lux=500.0, assigned_sleep_s=1350.0)
    bright = make_liot_session("n2", lux=700.0, assigned_sleep_s=620.0)
    dim_frames = _run_happy_path(dim, liot_exchange_step)
    bright_frames = _run_happy_path(bright, liot_exchange_step)
    assert len(dim_frames) == len(bright_frames) == 5
    assert all(a is b for a, b in zip(dim_frames, bright_frames))
    ble = [_run_happy_path(make_ble_session("n1"), ble_exchange_step)
           for _ in range(2)]
    assert all(a is b for a, b in zip(*ble))
