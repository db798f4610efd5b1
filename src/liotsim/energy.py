"""Producer-consumer energy model for batteryless light-harvesting nodes.

Per-stage energy accounting, the sleep-time solver that balances harvested
energy against consumption over one duty cycle, and an ideal-energy-balance
supercapacitor buffer.  All functions are pure and operate on value types.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional


class FieldError(ValueError):
    """A value type's field that breaks a rule of its own, e.g. a current <= 0."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def as_float(value):
    """value as the equal float when it is an int (not a bool), else itself."""
    return float(value) if type(value) is int else value


def store_floats(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass obj with as_float, so
    that equal values are stored, and hashed into a config_hash, alike."""
    for name in names:
        object.__setattr__(obj, name, as_float(getattr(obj, name)))


def float_pairs(pairs) -> tuple[tuple, ...]:
    """pairs as a tuple of tuples, each number passed through as_float."""
    return tuple(tuple(map(as_float, pair)) for pair in pairs)


class StageName(str, Enum):
    SENSOR_READ = "sensor_read"
    BLE_ADVERTISE = "ble_advertise"
    BLE_DATA_EXCHANGE = "ble_data_exchange"
    GW_REQUEST = "gw_request"
    LIOT_SENSOR_READ = "liot_sensor_read"
    LIOT_DATA_UPLOAD = "liot_data_upload"
    LIOT_SLEEP_SET = "liot_sleep_set"
    SLEEP = "sleep"


@dataclass(frozen=True)
class Stage:
    """One active-cycle stage: average current drawn for a fixed duration."""

    name: StageName
    current_ma: float
    duration_s: float

    def __post_init__(self) -> None:
        store_floats(self, "current_ma", "duration_s")
        if not self.current_ma > 0:
            raise FieldError("current_ma", "must be > 0")
        if not self.duration_s > 0:
            raise FieldError("duration_s", "must be > 0")


@dataclass(frozen=True)
class EnergyProfile:
    """Measured consumption profile of one node class at one supply voltage."""

    voltage_v: float
    active_stages: tuple[Stage, ...]
    sleep_current_ma: float

    def __post_init__(self) -> None:
        store_floats(self, "voltage_v", "sleep_current_ma")
        if not self.voltage_v > 0:
            raise FieldError("voltage_v", "must be > 0")
        if not self.sleep_current_ma > 0:
            raise FieldError("sleep_current_ma", "must be > 0")
        if not self.active_stages:
            raise ValueError("profile needs at least one active stage")
        if self.sleep_current_ma >= min(s.current_ma for s in self.active_stages):
            raise ValueError("sleep current must be below every active-stage current")
        # Summed once, for active_totals; not a field, so no config_hash sees it.
        stages = self.active_stages
        object.__setattr__(self, "_active_totals", (
            fold_sum(s.duration_s for s in stages),
            fold_sum(stage_energy(s, self.voltage_v) for s in stages),
        ))

    @property
    def sleep_power_mw(self) -> float:
        return self.sleep_current_ma * self.voltage_v

    def stage(self, name: StageName) -> Stage:
        for s in self.active_stages:
            if s.name == name:
                return s
        raise KeyError(name)


def stage_energy(stage: Stage, voltage_v: float) -> float:
    """Energy in joules consumed by one stage: I * V * t."""
    return stage.current_ma * 1e-3 * voltage_v * stage.duration_s


def fold_sum(values: Iterable[float]) -> float:
    """Sum of floats added left to right, the same on every Python version.

    sum() compensates float rounding from Python 3.12 on, so its totals,
    and every result derived from them, would move by an ulp between
    versions.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def active_totals(profile: EnergyProfile) -> tuple[float, float]:
    """(total active time in seconds, total active energy in joules)."""
    return profile._active_totals


def solve_sleep_time(profile: EnergyProfile, p_harv_mw: float) -> Optional[float]:
    """Minimal sleep time so harvested energy covers one full duty cycle.

    Balances p_harv*(T_a + T_s) against E_active + P_sleep*T_s and returns
    the T_s achieving equality; 0.0 when the harvest covers the burst
    (p_harv*T_a >= E_active), and None when no sleep can recover it
    (p_harv <= P_sleep).  A balance sleep is always > 0, since its
    numerator E_active - p_harv*T_a and its divisor p_harv - P_sleep are
    both positive, so 0.0 means continuous operation and nothing else.
    """
    if not p_harv_mw >= 0:
        raise ValueError("harvest power must be >= 0")
    t_active, e_active = active_totals(profile)
    e_active_mj = e_active * 1e3
    if p_harv_mw * t_active >= e_active_mj:
        return 0.0
    p_sleep = profile.sleep_power_mw
    if p_harv_mw <= p_sleep:
        return None
    return (e_active_mj - p_harv_mw * t_active) / (p_harv_mw - p_sleep)


def implied_harvest_power(profile: EnergyProfile, t_sleep_s: float) -> float:
    """Harvest power (mW) for which t_sleep_s is the exact balance point.

    Inverse of solve_sleep_time where it returns a sleep above 0.
    """
    if t_sleep_s <= 0:
        raise ValueError("sleep time must be > 0")
    t_active, e_active = active_totals(profile)
    return (e_active * 1e3 + profile.sleep_power_mw * t_sleep_s) / (t_active + t_sleep_s)


@dataclass(frozen=True)
class HarvesterCurve:
    """Harvested power vs illuminance, piecewise-linear, clamped at endpoints."""

    points: tuple[tuple[float, float], ...]  # (lux, milliwatts)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", float_pairs(self.points))
        if not self.points:
            raise FieldError("points", "curve needs at least one point")
        luxes = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(luxes, luxes[1:])):
            raise FieldError("points", "curve points must be strictly increasing in lux")
        powers = [p[1] for p in self.points]
        if any(p < 0 for p in powers):
            raise FieldError("points", "harvested power must be >= 0")
        if any(b < a for a, b in zip(powers, powers[1:])):
            raise FieldError("points", "harvested power must be non-decreasing in lux")

    def power_mw(self, lux: float) -> float:
        if not lux >= 0:
            raise ValueError("lux must be >= 0")
        return self.power_column((lux,))[0]

    def power_column(self, luxes: Iterable[float]) -> list[float]:
        """power_mw at each of luxes, which are >= 0, in one loop.

        A lux between the first and last points is interpolated on the
        segment whose start is the last point at or below it.
        """
        pts, xs = self.points, [x for x, _ in self.points]
        (x_lo, y_lo), (x_hi, y_hi) = pts[0], pts[-1]
        column = []
        append = column.append
        for lux in luxes:
            if lux <= x_lo:
                append(y_lo)
            elif lux >= x_hi:
                append(y_hi)
            else:
                i = bisect.bisect_right(xs, lux)
                (x0, y0), (x1, y1) = pts[i - 1], pts[i]
                append(y0 + (y1 - y0) * (lux - x0) / (x1 - x0))
        return column


@dataclass(frozen=True)
class Supercap:
    """Supercapacitor buffer state; stored energy is 0.5*C*V^2."""

    capacitance_f: float
    voltage_v: float
    v_min: float = 3.3
    v_max: float = 4.5

    def __post_init__(self) -> None:
        store_floats(self, "capacitance_f", "voltage_v", "v_min", "v_max")
        if not self.capacitance_f > 0:
            raise FieldError("capacitance_f", "must be > 0")
        if not self.voltage_v > 0:
            raise FieldError("voltage_v", "must be > 0")
        if not self.v_min >= 0:
            raise FieldError("v_min", "must be >= 0")
        if not self.v_max > 0:
            raise FieldError("v_max", "must be > 0")
        if not (self.v_min <= self.voltage_v <= self.v_max):
            raise ValueError("need v_min <= voltage <= v_max")


def supercap_segment(
    cap: Supercap, p_net_mw: float, dt_s: float, efficiency: float = 1.0
) -> tuple[float, bool]:
    """Voltage after holding a constant net power for dt_s from cap's state.

    Returns (voltage, depleted).  Under constant net power the stored energy
    0.5*C*V^2 changes linearly, so V^2 = V0^2 + 2*P*t/C; charging (positive
    p_net) is scaled by the round-trip efficiency factor, discharge is taken
    at face value.  V^2 reaches v_max^2 (or v_min^2) at the single time
    t* = (bound^2 - V0^2) * C / (2*P); from t* on the voltage is exactly the
    bound, and a segment that passes v_min raises the depleted flag.  The
    voltage is returned as a float so that sampling one segment at many
    times builds no states.
    """
    p_w = p_net_mw * 1e-3
    if p_w > 0:
        p_w *= efficiency
    v_sq = cap.voltage_v**2 + 2.0 * p_w * dt_s / cap.capacitance_f
    if v_sq < cap.v_min**2:
        return cap.v_min, True
    return min(math.sqrt(v_sq), cap.v_max), False


# --- Built-in presets -------------------------------------------------------
#
# Measured consumption profiles of the two node builds at 3.3 V supply, plus
# harvester curves back-derived from the published balance-point sleep times
# (the panel's output power itself is not published, so the two operating
# points at 500 and 700 lx are the only available calibration).

BLE_PROFILE = EnergyProfile(
    voltage_v=3.3,
    active_stages=(
        Stage(StageName.SENSOR_READ, 7.550, 0.260),
        Stage(StageName.BLE_ADVERTISE, 0.400, 4.000),
        Stage(StageName.BLE_DATA_EXCHANGE, 0.800, 1.300),
    ),
    sleep_current_ma=0.070,
)

LIOT_PROFILE = EnergyProfile(
    voltage_v=3.3,
    active_stages=(
        Stage(StageName.GW_REQUEST, 12.69, 0.428),
        Stage(StageName.LIOT_SENSOR_READ, 17.73, 0.525),
        Stage(StageName.LIOT_DATA_UPLOAD, 14.58, 3.58),
        Stage(StageName.LIOT_SLEEP_SET, 9.81, 0.078),
    ),
    sleep_current_ma=0.087,
)

# Balance-point sleep times at the two characterized illuminance levels.
BLE_SLEEP_700LX_S = 12.842
BLE_SLEEP_500LX_S = 20.520
LIOT_SLEEP_700LX_S = 620.0
LIOT_SLEEP_500LX_S = 1350.0

BLE_HARVESTER = HarvesterCurve(
    points=(
        (500.0, implied_harvest_power(BLE_PROFILE, BLE_SLEEP_500LX_S)),
        (700.0, implied_harvest_power(BLE_PROFILE, BLE_SLEEP_700LX_S)),
    )
)

LIOT_HARVESTER = HarvesterCurve(
    points=(
        (500.0, implied_harvest_power(LIOT_PROFILE, LIOT_SLEEP_500LX_S)),
        (700.0, implied_harvest_power(LIOT_PROFILE, LIOT_SLEEP_700LX_S)),
    )
)

_PROFILES = {
    "ble-table1": BLE_PROFILE,
    "liot-table2": LIOT_PROFILE,
}

_HARVESTERS = {
    "ble-table1": BLE_HARVESTER,
    "liot-table2": LIOT_HARVESTER,
}


def builtin_profile(name: str) -> EnergyProfile:
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; built-ins: {sorted(_PROFILES)}"
        ) from None


def builtin_harvester(name: str) -> HarvesterCurve:
    try:
        return _HARVESTERS[name]
    except KeyError:
        raise KeyError(
            f"unknown harvester {name!r}; built-ins: {sorted(_HARVESTERS)}"
        ) from None
