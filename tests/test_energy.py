import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liotsim.energy import (
    BLE_HARVESTER,
    BLE_PROFILE,
    LIOT_PROFILE,
    EnergyProfile,
    HarvesterCurve,
    Stage,
    StageName,
    Supercap,
    active_totals,
    builtin_harvester,
    builtin_profile,
    implied_harvest_power,
    solve_sleep_time,
    stage_energy,
)
from cases import supercap_segment
from liotsim.fsm import NodeConfig, NodeKind, schedule_next_cycle, sleep_or_floor
from liotsim.kernel import gateway_sleep_s

V = 3.3

# Published per-stage (current mA, time s, energy J) measurements.
BLE_ROWS = [
    (7.550, 0.260, 0.0065),
    (0.400, 4.000, 0.0052),
    (0.800, 1.300, 0.0034),
]
BLE_SLEEP_ROWS = [(0.070, 12.842, 0.0029), (0.070, 20.520, 0.0047)]
LIOT_ROWS = [
    (12.69, 0.428, 0.0179),
    (17.73, 0.525, 0.0307),
    (14.58, 3.58, 0.1722),
    (9.81, 0.078, 0.0025),
]
LIOT_SLEEP_ROWS = [(0.087, 620.0, 0.1780), (0.087, 1350.0, 0.3876)]


@pytest.mark.parametrize("current,duration,expected", BLE_ROWS + LIOT_ROWS)
def test_stage_energy_matches_published_rows(current, duration, expected):
    stage = Stage(StageName.SENSOR_READ, current, duration)
    assert stage_energy(stage, V) == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize(
    "current,duration,expected", BLE_SLEEP_ROWS + LIOT_SLEEP_ROWS
)
def test_sleep_energy_matches_published_rows(current, duration, expected):
    # Sleep consumption uses the same I*V*t model as the active stages.
    assert current * 1e-3 * V * duration == pytest.approx(expected, abs=1e-4)


def test_stage_energy_exact_values():
    assert stage_energy(Stage(StageName.SENSOR_READ, 7.550, 0.260), 3.3) == (
        pytest.approx(0.0064779, rel=1e-12)
    )
    assert stage_energy(
        Stage(StageName.LIOT_DATA_UPLOAD, 14.58, 3.58), 3.3
    ) == pytest.approx(0.17224812, rel=1e-12)
    assert stage_energy(Stage(StageName.SLEEP, 1.0, 1.0), 1.0) == pytest.approx(
        0.001, rel=1e-12
    )


def test_stage_invariants_rejected():
    with pytest.raises(ValueError):
        Stage(StageName.SENSOR_READ, 1.0, 0.0)
    with pytest.raises(ValueError):
        Stage(StageName.SENSOR_READ, 0.0, 1.0)


def test_active_totals_ble():
    t, e = active_totals(BLE_PROFILE)
    assert t == pytest.approx(5.560, abs=1e-12)
    # Oracle: sum of the per-row I*V*t products.
    expected = sum(c * 1e-3 * V * d for c, d, _ in BLE_ROWS)
    assert e == pytest.approx(expected, rel=1e-12)
    assert e == pytest.approx(0.0151899, rel=1e-9)


def test_active_totals_liot():
    t, e = active_totals(LIOT_PROFILE)
    assert t == pytest.approx(4.611, abs=1e-12)
    expected = sum(c * 1e-3 * V * d for c, d, _ in LIOT_ROWS)
    assert e == pytest.approx(expected, rel=1e-12)
    assert e == pytest.approx(0.223413795, rel=1e-9)


def test_active_totals_single_stage():
    profile = EnergyProfile(
        voltage_v=1.0,
        active_stages=(Stage(StageName.SENSOR_READ, 1.0, 1.0),),
        sleep_current_ma=0.5,
    )
    assert active_totals(profile) == (1.0, pytest.approx(0.001))


def test_solver_reproduces_published_sleep_times():
    for profile, t_target in [
        (BLE_PROFILE, 12.842),
        (BLE_PROFILE, 20.520),
        (LIOT_PROFILE, 620.0),
        (LIOT_PROFILE, 1350.0),
    ]:
        p = implied_harvest_power(profile, t_target)
        assert solve_sleep_time(profile, p) == pytest.approx(t_target, abs=0.01)


def test_solver_boundaries():
    t_active, e_active = active_totals(BLE_PROFILE)
    p_break_even = e_active * 1e3 / t_active
    assert solve_sleep_time(BLE_PROFILE, p_break_even) == 0.0
    assert solve_sleep_time(BLE_PROFILE, BLE_PROFILE.sleep_power_mw) is None
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            solve_sleep_time(BLE_PROFILE, bad)


def test_solver_is_infeasible_at_sleep_power_even_when_that_covers_the_burst():
    # Sleep current one ulp below the one stage's: P_sleep*T_a rounds to at
    # least E_active, so sleep power would read as covering the burst.
    current = 11.092366396989023
    profile = EnergyProfile(
        voltage_v=2.4704941714275743,
        active_stages=(Stage(StageName.SENSOR_READ, current, 4.963164291404688),),
        sleep_current_ma=math.nextafter(current, 0),
    )
    p_sleep = profile.sleep_power_mw
    t_active, e_active = active_totals(profile)
    assert p_sleep * t_active >= e_active * 1e3
    assert solve_sleep_time(profile, p_sleep) is None
    assert solve_sleep_time(profile, math.nextafter(p_sleep, 0)) is None
    assert solve_sleep_time(profile, math.nextafter(p_sleep, math.inf)) == 0.0


def test_implied_power_values():
    # Oracles: (E_active + P_sleep*T_s) / (T_a + T_s) computed directly.
    t_a, e_a = active_totals(BLE_PROFILE)
    expected = (e_a * 1e3 + 0.070 * 3.3 * 12.842) / (t_a + 12.842)
    assert implied_harvest_power(BLE_PROFILE, 12.842) == pytest.approx(
        expected, rel=1e-12
    )
    t_a, e_a = active_totals(LIOT_PROFILE)
    expected = (e_a * 1e3 + 0.087 * 3.3 * 620.0) / (t_a + 620.0)
    assert implied_harvest_power(LIOT_PROFILE, 620.0) == pytest.approx(
        expected, rel=1e-12
    )


def test_implied_power_flat_consumption_gives_sleep_power():
    # A node whose active power equals its sleep power implies P_sleep always.
    profile = EnergyProfile(
        voltage_v=2.0,
        active_stages=(Stage(StageName.SENSOR_READ, 1.0, 3.0),),
        sleep_current_ma=0.999999,
    )
    for t_sleep in (0.1, 7.0, 5000.0):
        assert implied_harvest_power(profile, t_sleep) == pytest.approx(
            profile.sleep_power_mw, rel=1e-5
        )


@given(t_sleep=st.floats(min_value=1e-3, max_value=1e6))
def test_round_trip_solve_implied(t_sleep):
    for profile in (BLE_PROFILE, LIOT_PROFILE):
        p = implied_harvest_power(profile, t_sleep)
        assert solve_sleep_time(profile, p) == pytest.approx(t_sleep, rel=1e-9)


@given(data=st.data())
def test_solver_energy_conservation_and_monotonicity(data):
    profile = data.draw(st.sampled_from([BLE_PROFILE, LIOT_PROFILE]))
    t_active, e_active = active_totals(profile)
    p_sleep = profile.sleep_power_mw
    p_max = e_active * 1e3 / t_active
    p1 = data.draw(
        st.floats(min_value=p_sleep * 1.0001, max_value=p_max * 0.9999)
    )
    p2 = data.draw(
        st.floats(min_value=p_sleep * 1.0001, max_value=p_max * 0.9999)
    )
    s1 = solve_sleep_time(profile, p1)
    assert s1 > 0
    lhs = p1 * (t_active + s1)
    rhs = e_active * 1e3 + p_sleep * s1
    assert lhs == pytest.approx(rhs, rel=1e-9)
    if p1 < p2:
        assert s1 > solve_sleep_time(profile, p2)


@st.composite
def ble_profiles(draw) -> EnergyProfile:
    """A profile with a BLE node's stages, of generated currents, durations,
    voltage and sleep current."""
    currents, durations = st.floats(0.01, 50.0), st.floats(0.01, 10.0)
    stages = tuple(Stage(name, draw(currents), draw(durations)) for name in (
        StageName.SENSOR_READ, StageName.BLE_ADVERTISE, StageName.BLE_DATA_EXCHANGE))
    sleep_ma = draw(st.floats(1e-3, 0.999)) * min(s.current_ma for s in stages)
    return EnergyProfile(draw(st.floats(1.0, 5.0)), stages, sleep_ma)


@given(data=st.data())
def test_the_solve_is_the_sleep_and_its_callers_read_it_alike(data):
    profile = data.draw(ble_profiles())
    t_active, e_active = active_totals(profile)
    p_sleep, e_active_mj = profile.sleep_power_mw, e_active * 1e3
    # The two boundaries themselves, or any power up to twice the one that
    # covers the burst.
    p = data.draw(st.one_of(st.sampled_from([0.0, p_sleep, e_active_mj / t_active]),
                            st.floats(0.0, 2 * e_active_mj / t_active)))
    sleep = solve_sleep_time(profile, p)
    if p * t_active >= e_active_mj:
        assert sleep == 0.0
    elif p <= p_sleep:
        assert sleep is None
    else:
        assert sleep > 0
        assert p * (t_active + sleep) == pytest.approx(e_active_mj + p_sleep * sleep,
                                                       rel=1e-9)
    # 10 F holds 46.8 J between v_min and v_max, above any generated burst.
    cfg = NodeConfig("n", NodeKind.BLE, profile, BLE_HARVESTER, Supercap(10.0, 4.0),
                     margin=data.draw(st.sampled_from([0.0, 0.05])))
    local, assigned = schedule_next_cycle(cfg, p), gateway_sleep_s(cfg, p)
    if sleep is None:
        assert local is None and assigned == sleep_or_floor(cfg, None)
    elif sleep == 0.0:
        assert local == assigned == 0.0
    else:
        assert local == (t_active + sleep) * (1.0 + cfg.margin) - t_active
        assert assigned == sleep


def test_harvester_curve_interpolation_and_clamp():
    curve = HarvesterCurve(points=((500.0, 1.0), (700.0, 2.0)))
    assert curve.power_mw(500) == 1.0
    assert curve.power_mw(700) == 2.0
    assert curve.power_mw(600) == pytest.approx(1.5)
    assert curve.power_mw(100) == 1.0  # clamped below
    assert curve.power_mw(10000) == 2.0  # clamped above
    for bad in (-1, math.nan):
        with pytest.raises(ValueError):
            curve.power_mw(bad)
    with pytest.raises(ValueError):
        HarvesterCurve(points=((700.0, 1.0), (500.0, 2.0)))
    with pytest.raises(ValueError):
        HarvesterCurve(points=((500.0, 2.0), (700.0, 1.0)))


def test_supercap_step_discharge_matches_active_burst():
    # Net drain of one BLE active burst at the observed buffer voltage.
    cap = Supercap(capacitance_f=0.4, voltage_v=4.463, v_min=3.3, v_max=4.5)
    v, depleted = supercap_segment(cap, -1.738, 5.56)
    assert not depleted
    dv = v - cap.voltage_v
    assert dv == pytest.approx(-0.0054, abs=5e-4)


def test_supercap_step_zero_power_and_floor():
    cap = Supercap(capacitance_f=0.4, voltage_v=4.0)
    unchanged, depleted = supercap_segment(cap, 0.0, 100.0)
    assert unchanged == cap.voltage_v and not depleted
    floor = Supercap(capacitance_f=0.4, voltage_v=3.3, v_min=3.3)
    drained, depleted = supercap_segment(floor, -1.0, 1.0)
    assert depleted and drained == floor.v_min


def test_supercap_step_energy_balance_exact():
    cap = Supercap(capacitance_f=0.25, voltage_v=4.0, v_min=0.0, v_max=10.0)
    v, _ = supercap_segment(cap, 2.5, 8.0)
    delta_e = 0.5 * cap.capacitance_f * (v**2 - cap.voltage_v**2)
    assert delta_e == pytest.approx(2.5e-3 * 8.0, rel=1e-12)


def test_supercap_charging_efficiency_applies_only_inbound():
    cap = Supercap(capacitance_f=0.4, voltage_v=4.0, v_min=0.0, v_max=10.0)
    up, _ = supercap_segment(cap, 10.0, 10.0, efficiency=0.97)
    gained = 0.5 * 0.4 * (up**2 - 16.0)
    assert gained == pytest.approx(0.97 * 0.1, rel=1e-12)
    down, _ = supercap_segment(cap, -10.0, 10.0, efficiency=0.97)
    lost = 0.5 * 0.4 * (16.0 - down**2)
    assert lost == pytest.approx(0.1, rel=1e-12)


@settings(max_examples=50)
@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=-0.5, max_value=0.5),
            st.floats(min_value=0.01, max_value=10.0),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_supercap_closed_cycle_returns_to_start(steps):
    cap = Supercap(capacitance_f=1.0, voltage_v=4.0, v_min=0.1, v_max=20.0)
    cur = cap
    for p, dt in steps:
        v, _ = supercap_segment(cur, p, dt)
        cur = replace(cur, voltage_v=v)
    for p, dt in reversed(steps):
        v, _ = supercap_segment(cur, -p, dt)
        cur = replace(cur, voltage_v=v)
    assert cur.voltage_v == pytest.approx(cap.voltage_v, rel=1e-9)


def test_a_profile_rejects_a_stage_given_twice():
    read = BLE_PROFILE.active_stages[0]
    with pytest.raises(ValueError, match="stage 'sensor_read' is given twice"):
        replace(BLE_PROFILE, active_stages=(*BLE_PROFILE.active_stages, read))


def test_supercap_segment_lands_exactly_on_v_max():
    cap = Supercap(capacitance_f=0.4, voltage_v=4.49, v_min=3.3, v_max=4.5)
    # V^2 meets v_max^2 at t* = (4.5^2 - 4.49^2) * C / (2 * 1 mW) = 17.98 s.
    below, _ = supercap_segment(cap, 1.0, 17.9)
    assert below < cap.v_max
    assert supercap_segment(cap, 1.0, 60.0) == (cap.v_max, False)


def test_supercap_segment_flags_depletion_at_v_min():
    cap = Supercap(capacitance_f=0.4, voltage_v=3.31, v_min=3.3, v_max=4.5)
    # The crossing is at t* = (3.31^2 - 3.3^2) * C / (2 * 5 mW) = 2.636 s.
    v, depleted = supercap_segment(cap, -5.0, 2.6)
    assert v > cap.v_min and not depleted
    assert supercap_segment(cap, -5.0, 10.0) == (cap.v_min, True)


@pytest.mark.parametrize("p_net_mw", [0.8, -1.7])
def test_supercap_segment_equals_chained_steps(p_net_mw):
    cap = Supercap(capacitance_f=0.4, voltage_v=4.0, v_min=3.3, v_max=4.5)
    chained = cap
    for _ in range(1000):
        v, _ = supercap_segment(chained, p_net_mw, 0.1, efficiency=0.9)
        chained = replace(chained, voltage_v=v)
    v, depleted = supercap_segment(cap, p_net_mw, 100.0, efficiency=0.9)
    assert not depleted
    assert cap.v_min < v < cap.v_max
    assert abs(v - chained.voltage_v) <= 1e-9


def test_supercap_invariants():
    with pytest.raises(ValueError):
        Supercap(capacitance_f=0.4, voltage_v=3.0, v_min=3.3)


def test_builtin_lookup():
    assert builtin_profile("ble-table1") is BLE_PROFILE
    assert builtin_harvester("liot-table2").power_mw(700) == pytest.approx(
        implied_harvest_power(LIOT_PROFILE, 620.0)
    )
    with pytest.raises(KeyError):
        builtin_profile("nope")
    with pytest.raises(KeyError):
        builtin_harvester("nope")


def test_profile_invariants():
    with pytest.raises(ValueError):
        EnergyProfile(voltage_v=0.0, active_stages=BLE_PROFILE.active_stages,
                      sleep_current_ma=0.07)
    with pytest.raises(ValueError):
        EnergyProfile(voltage_v=3.3, active_stages=(), sleep_current_ma=0.07)
    with pytest.raises(ValueError):
        EnergyProfile(voltage_v=3.3, active_stages=BLE_PROFILE.active_stages,
                      sleep_current_ma=0.5)  # above the 0.4 mA advertising stage
