"""Malformed and oversized scenario documents shared by the scenario and CLI
tests, the runs that tests share, and the references that the tests check
the simulator against: the closed-form supercap voltage and the lux at a
time."""

import math
import random
from collections import Counter

import pytest

from liotsim.energy import Supercap
from liotsim.kernel import RunResult, Scenario, run
from liotsim.scenario import preset_dict

# kernel.run results by the repr of their scenario, which is exact.
_RUNS: dict[str, RunResult] = {}


def shared_run(scenario: Scenario) -> RunResult:
    """kernel.run(scenario, trace=True), run once a test session and shared
    by every test that only reads the result; it keeps its trace, so a test
    that reads the trace reruns nothing.  A test that changes a result,
    patches the program or checks that a run repeats runs its own."""
    key = repr(scenario)
    if key not in _RUNS:
        _RUNS[key] = run(scenario, trace=True)
    return _RUNS[key]


def supercap_segment(
    cap: Supercap, p_net_mw: float, dt_s: float, efficiency: float = 1.0
) -> tuple[float, bool]:
    """Voltage after holding a constant net power for dt_s from cap's state:
    the reference that fsm.accrue_energy's inline closed form is checked
    against.

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


def reference_step_lux(steps, t):
    """The lux of a step profile at t, by a linear scan of its steps."""
    lux = steps[0][1]
    for start, step_lux in steps:
        if start <= t:
            lux = step_lux
    return lux


def reference_lux(profile, t):
    """The lux at t, one time at a time: the reference that
    IlluminationProfile.lux_column is checked against.  A scan over the
    steps, and a fresh generator seeded for the second of t when jitter is
    on, drawn whatever the lux."""
    if profile.kind == "constant":
        v = profile.lux
    elif profile.kind == "step":
        v = reference_step_lux(profile.steps, t)
    else:
        v = profile.mean + profile.amplitude * math.sin(
            2.0 * math.pi * math.floor(t) / profile.period_s)
    if profile.jitter_pct > 0:
        rng = random.Random(f"{profile.jitter_seed}|lux|{math.floor(t)}")
        v *= 1.0 + rng.uniform(-profile.jitter_pct, profile.jitter_pct)
    return max(v, 0.0)


def _liot_profile(voltage_v=3.3, sleep_current_ma=0.087, current_ma=12.69,
                  duration_s=0.428, extra=()) -> dict:
    """An inline LIoT profile document; current_ma and duration_s are its
    first stage's, and the stages named in extra follow its own."""
    stages = [{"name": name, "current_ma": 10.0, "duration_s": 0.5}
              for name in ("liot_sensor_read", "liot_data_upload", "liot_sleep_set",
                           *extra)]
    first = {"name": "gw_request", "current_ma": current_ma, "duration_s": duration_s}
    return {"voltage_v": voltage_v, "sleep_current_ma": sleep_current_ma,
            "stages": [first, *stages]}


# (dotted key, bad value, expected error path) rows; each document must be
# rejected with a ScenarioError at exactly that path.
BAD_VALUES = (
    ("environment", {"seed": 7}, "environment"),
    ("duration_s", math.inf, "duration_s"),
    ("duration_s", math.nan, "duration_s"),
    ("sample_interval_s", math.nan, "sample_interval_s"),
    ("seed", "1", "seed"),
    ("version", True, "version"),
    ("illumination.lux", math.inf, "illumination.lux"),
    ("illumination.steps", [1], "illumination.steps"),
    ("nodes.0.supercap.capacitance_f", math.nan, "nodes[0].supercap.capacitance_f"),
    ("channel.per_link_loss", [1], "channel.per_link_loss"),
    ("channel.per_link_loss", {"ble_adv": "x"}, "channel.per_link_loss.ble_adv"),
    ("nodes.0.profile", {"voltage_v": 3.3, "sleep_current_ma": 0.05, "stages": 5},
     "nodes[0].profile.stages"),
    # Integer keys reject fractions instead of truncating them; ids are strings.
    ("seed", 1.5, "seed"),
    ("channel.seed", 1.5, "channel.seed"),
    ("illumination.jitter_seed", 0.5, "illumination.jitter_seed"),
    ("nodes.0.id", ["a"], "nodes[0].id"),
    # Finite but unrunnable sizes: over 366 days, or over 1e7 trace samples
    # (1e8 on the one-node 100-s documents the tables use).
    ("duration_s", 1e300, "duration_s"),
    ("sample_interval_s", 1e-300, "sample_interval_s"),
    ("sample_interval_s", 1e-6, "sample_interval_s"),
    # Out-of-range values are reported at their own key, not their section.
    ("channel.loss", 1.5, "channel.loss"),
    ("channel.per_link_loss", {"ble_adv": -0.1}, "channel.per_link_loss.ble_adv"),
    ("channel.per_link_loss", {"ble_conn": 1.5}, "channel.per_link_loss.ble_conn"),
    ("illumination.jitter_pct", 1.0, "illumination.jitter_pct"),
    ("illumination.kind", "foo", "illumination.kind"),
    ("nodes.0.adv_mode", "bar", "nodes[0].adv_mode"),
    ("illumination", {"kind": "step"}, "illumination.steps"),
    ("illumination", {"kind": "step", "steps": [[5, 700]]}, "illumination.steps"),
    ("illumination", {"kind": "step", "steps": [[0, 700], [0, 500]]},
     "illumination.steps"),
    ("illumination", {"kind": "sinusoid", "mean": 100, "amplitude": 200},
     "illumination.amplitude"),
    # A key the node's kind does not read is rejected, not ignored: adv_mode
    # is a BLE key (the base node is LIoT) and sensors a LIoT key.
    ("nodes.0.adv_mode", "fixed", "nodes[0].adv_mode"),
    ("nodes.0", {"id": "b1", "kind": "ble", "sensors": ["temperature"],
                 "supercap": {"capacitance_f": 0.4, "voltage_v": 4.4}},
     "nodes[0].sensors"),
    # A retired key is rejected as unknown, not ignored.
    ("nodes.0.backoff_s", 60, "nodes[0].backoff_s"),
    # Range rules live in the value types; each is reported at its own key.
    ("nodes.0.efficiency", 0, "nodes[0].efficiency"),
    ("nodes.0.margin", -1, "nodes[0].margin"),
    ("nodes.0.supercap.capacitance_f", 0, "nodes[0].supercap.capacitance_f"),
    ("nodes.0.supercap.v_min", -1, "nodes[0].supercap.v_min"),
    ("nodes.0.supercap.v_max", -1, "nodes[0].supercap.v_max"),
    ("nodes.0.supercap.voltage_v", 0, "nodes[0].supercap.voltage_v"),
    # A rule across fields is reported at the section.
    ("nodes.0.supercap.v_min", 4.3, "nodes[0].supercap"),
    ("illumination.lux", -1, "illumination.lux"),
    ("illumination.mean", -1, "illumination.mean"),
    ("illumination.amplitude", -1, "illumination.amplitude"),
    ("illumination.period_s", 0, "illumination.period_s"),
    ("illumination.jitter_pct", -0.1, "illumination.jitter_pct"),
    ("channel.loss", -0.1, "channel.loss"),
    ("duration_s", 0, "duration_s"),
    ("sample_interval_s", 0, "sample_interval_s"),
    ("nodes.0.profile", _liot_profile(voltage_v=0), "nodes[0].profile.voltage_v"),
    ("nodes.0.profile", _liot_profile(sleep_current_ma=0),
     "nodes[0].profile.sleep_current_ma"),
    ("nodes.0.profile", _liot_profile(current_ma=0),
     "nodes[0].profile.stages[0].current_ma"),
    ("nodes.0.profile", _liot_profile(duration_s=0),
     "nodes[0].profile.stages[0].duration_s"),
    # Charging cannot store more than it harvests.
    ("nodes.0.efficiency", 1.5, "nodes[0].efficiency"),
    # An illumination key that the profile's kind does not read is rejected.
    ("illumination", {"kind": "step", "steps": [[0, 700]], "lux": 100},
     "illumination.lux"),
    ("illumination", {"kind": "sinusoid", "mean": 600, "amplitude": 100,
                      "steps": [[0, 100]]}, "illumination.steps"),
    ("illumination", {"lux": 700, "mean": 5}, "illumination.mean"),
    ("illumination", {"kind": "constant", "amplitude": 0}, "illumination.amplitude"),
    ("illumination", {"kind": "step", "steps": [[0, 700]], "period_s": 3},
     "illumination.period_s"),
    # Negative light is rejected, not run as darkness.
    ("illumination", {"kind": "step", "steps": [[0, -5]]}, "illumination.steps"),
    # A supercap that cannot hold one burst between v_min and v_max: the
    # node would never be funded to start one.
    ("nodes.0.supercap.capacitance_f", 0.04, "nodes[0].supercap"),
    # A profile holds exactly its node's stages, each once: an extra stage
    # or a second copy would count in the solve and the gate, never drawn.
    ("nodes.0.profile", _liot_profile(extra=("sensor_read",)), "nodes[0].profile"),
    ("nodes.0.profile", _liot_profile(extra=("liot_sleep_set",)), "nodes[0].profile"),
    # The kernel routes every frame addressed to the gateway's id there.
    ("nodes.0.id", "gw", "nodes[0].id"),
    # Light is held per whole second, so a period under 1 s only aliases.
    ("illumination", {"kind": "sinusoid", "mean": 600, "amplitude": 100,
                      "period_s": 1.0e-320}, "illumination.period_s"),
    ("illumination", {"kind": "sinusoid", "mean": 600, "amplitude": 100,
                      "period_s": 0.5}, "illumination.period_s"),
    # A node uploads known channels, each once, at least one.
    ("nodes.0.sensors", ["temperature", "temperature"], "nodes[0].sensors"),
    ("nodes.0.sensors", [], "nodes[0].sensors"),
    # A scalar loss that every link overrides is still checked, at its key.
    ("channel", {"loss": 1.5, "per_link_loss": {
        "ble_adv": 0.0, "ble_conn": 0.0, "ir_uplink": 0.0, "vlc_downlink": 0.0}},
     "channel.loss"),
    ("channel.per_link_loss", {"ble_adv": None}, "channel.per_link_loss.ble_adv"),
    # A loss in the file is a number: a mapping ran lossless on every link.
    ("channel.loss", {"bl_adv": 0.5}, "channel.loss"),
    ("channel.per_link_loss", {"ble_adv": {"ble_adv": 0.5}}, "channel.per_link_loss.ble_adv"),
    # The node's channel rule rejects a sensor that is not a channel name.
    ("nodes.0.sensors", [7], "nodes[0].sensors"),
    ("nodes.0.sensors", [["temperature"]], "nodes[0].sensors"),
    # Schema versions start at 1: a version below it names no schema.
    ("version", 0, "version"),
    ("version", -5, "version"),
)


def bad_value_cases(*rows):
    """pytest params from (dotted key, bad value, expected error path) rows.

    The key is set with scenario.set_by_path.  Ids number the rows of each
    top-level section: gateway0-gateway.present, gateway1-..., seed0-seed.
    """
    seen: Counter = Counter()
    params = []
    for key, value, path in rows:
        section = key.split(".")[0]
        params.append(pytest.param(key, value, path, id=f"{section}{seen[section]}-{path}"))
        seen[section] += 1
    return params


def fleet_year(preset: str, n_nodes: int) -> dict:
    """n_nodes nodes of the preset for a leap year, sampled every 1e7 s:
    within the trace-sample limit, so only the cycle budget can reject it."""
    doc = preset_dict(preset)
    node = doc["nodes"][0]
    doc["nodes"] = [{**node, "id": f"{node['kind']}-{i}"} for i in range(n_nodes)]
    doc.update(duration_s=366 * 86400.0, sample_interval_s=1e7)
    return doc
