"""Scenario files: documented YAML schema, validation, and built-in presets.

The schema is versioned; unknown keys are rejected with their location so a
typo in a config never silently changes a run.  The four presets reproduce
the 8-hour evaluation scenarios of the two node builds at 700 and 500 lx.
"""

from __future__ import annotations

import math
from typing import Any

import yaml

from .energy import (
    EnergyProfile,
    HarvesterCurve,
    Stage,
    StageName,
    Supercap,
    builtin_harvester,
    builtin_profile,
)
from .fsm import ADV_MODES, NodeConfig, NodeKind
from .kernel import (
    ILLUMINATION_KINDS,
    ChannelModel,
    GatewayConfig,
    IlluminationProfile,
    Scenario,
    per_frame_loss_for_session_pdr,
)
from .protocol import BLE_SCRIPT, LinkType, SENSOR_CHANNELS

SCHEMA_VERSION = 1

PRESET_NAMES = ("ble-700lx", "ble-500lx", "liot-700lx", "liot-500lx")

# Largest run a scenario may ask for: a leap year, and trace samples over
# all nodes (8 bytes of voltage each, so 80 MB at the limit; reading the
# (t, V) view also builds a tuple and a time float for every sample).
MAX_DURATION_S = 366 * 86400.0
MAX_TRACE_SAMPLES = 10**7

# Table-III-observed session delivery rates the preset channels reproduce.
_PRESET_PDR = {"ble-700lx": 0.991, "ble-500lx": 0.912}
_PRESET_SCAP_V = {
    "ble-700lx": 4.463,
    "ble-500lx": 4.416,
    "liot-700lx": 4.235,
    "liot-500lx": 4.353,
}


class ScenarioError(ValueError):
    """Validation failure, carrying the config path of the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _at(path: str, key: Any) -> str:
    """Dotted path of key inside path; the document root is the empty path."""
    return f"{path}.{key}" if path else str(key)


def _check_keys(d: dict, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(d, dict):
        raise ScenarioError(path, f"expected a mapping, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ScenarioError(_at(path, sorted(unknown, key=str)[0]), "unknown key")
    missing = required - set(d)
    if missing:
        raise ScenarioError(path, f"missing required key {sorted(missing)[0]!r}")


def _finite(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(path, "expected a number")
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ScenarioError(path, "must be finite")
    return v


def _number(d: dict, key: str, path: str, default=None, minimum=None, positive=False,
            maximum=None):
    if key not in d:
        return default
    path = _at(path, key)
    v = _finite(d[key], path)
    if positive and v <= 0:
        raise ScenarioError(path, "must be > 0")
    if minimum is not None and v < minimum:
        raise ScenarioError(path, f"must be >= {minimum}")
    if maximum is not None and v > maximum:
        raise ScenarioError(path, f"must be <= {maximum}")
    return v


def _integer(d: dict, key: str, path: str, default: int) -> int:
    """An integer key; an integral float such as 2.0 counts, 1.5 does not."""
    if key not in d:
        return default
    path = _at(path, key)
    v = d[key]
    _finite(v, path)
    if isinstance(v, float) and not v.is_integer():
        raise ScenarioError(path, "must be an integer")
    return int(v)


def _pairs(spec: Any, path: str) -> tuple[tuple[float, float], ...]:
    """A list of [number, number] pairs, e.g. curve points or light steps."""
    if not isinstance(spec, (list, tuple)) or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in spec
    ):
        raise ScenarioError(path, "expected a list of [number, number] pairs")
    return tuple((_finite(a, path), _finite(b, path)) for a, b in spec)


def _parse_profile(spec: Any, path: str) -> EnergyProfile:
    if isinstance(spec, str):
        try:
            return builtin_profile(spec)
        except KeyError as exc:
            raise ScenarioError(path, str(exc)) from None
    _check_keys(
        spec,
        {"voltage_v", "sleep_current_ma", "stages"},
        {"voltage_v", "sleep_current_ma", "stages"},
        path,
    )
    if not isinstance(spec["stages"], list):
        raise ScenarioError(f"{path}.stages", "expected a list of stages")
    stages = []
    for i, st in enumerate(spec["stages"]):
        spath = f"{path}.stages[{i}]"
        _check_keys(st, {"name", "current_ma", "duration_s"},
                    {"name", "current_ma", "duration_s"}, spath)
        try:
            name = StageName(st["name"])
        except ValueError:
            raise ScenarioError(f"{spath}.name", f"unknown stage {st['name']!r}")
        stages.append(
            Stage(name, _number(st, "current_ma", spath, positive=True),
                  _number(st, "duration_s", spath, positive=True))
        )
    try:
        return EnergyProfile(
            voltage_v=_number(spec, "voltage_v", path, positive=True),
            active_stages=tuple(stages),
            sleep_current_ma=_number(spec, "sleep_current_ma", path, positive=True),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_harvester(spec: Any, path: str) -> HarvesterCurve:
    if isinstance(spec, str):
        try:
            return builtin_harvester(spec)
        except KeyError as exc:
            raise ScenarioError(path, str(exc)) from None
    _check_keys(spec, {"points"}, {"points"}, path)
    points_path = f"{path}.points"
    points = _pairs(spec["points"], points_path)
    try:
        return HarvesterCurve(points=points)
    except ValueError as exc:
        raise ScenarioError(points_path, str(exc)) from None


def _parse_supercap(spec: dict, path: str) -> Supercap:
    _check_keys(spec, {"capacitance_f", "voltage_v", "v_min", "v_max"},
                {"capacitance_f", "voltage_v"}, path)
    try:
        return Supercap(
            capacitance_f=_number(spec, "capacitance_f", path, positive=True),
            voltage_v=_number(spec, "voltage_v", path, positive=True),
            v_min=_number(spec, "v_min", path, default=3.3, minimum=0.0),
            v_max=_number(spec, "v_max", path, default=4.5, positive=True),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


# Node keys that only one kind of node reads.
_KIND_KEYS = {"sensors": NodeKind.LIOT, "adv_mode": NodeKind.BLE}


def _parse_node(spec: dict, path: str) -> NodeConfig:
    _check_keys(
        spec,
        {"id", "kind", "profile", "harvester", "supercap", "margin", "sensors",
         "adv_mode", "backoff_s", "efficiency"},
        {"id", "kind", "supercap"},
        path,
    )
    try:
        kind = NodeKind(spec["kind"])
    except ValueError:
        raise ScenarioError(f"{path}.kind", f"must be one of {[k.value for k in NodeKind]}")
    if not isinstance(spec["id"], str):
        raise ScenarioError(f"{path}.id", "expected a string")
    default_preset = "ble-table1" if kind is NodeKind.BLE else "liot-table2"
    for key, owner in _KIND_KEYS.items():
        if key in spec and kind is not owner:
            raise ScenarioError(f"{path}.{key}",
                                f"only {owner.value} nodes take this key")
    sensors = spec.get("sensors", list(SENSOR_CHANNELS))
    if not isinstance(sensors, list) or not all(isinstance(s, str) for s in sensors):
        raise ScenarioError(f"{path}.sensors", "expected a list of channel names")
    bad = [s for s in sensors if s not in SENSOR_CHANNELS]
    if bad:
        raise ScenarioError(f"{path}.sensors", f"unknown channel {bad[0]!r}")
    adv_mode = spec.get("adv_mode", "fixed")
    if adv_mode not in ADV_MODES:
        raise ScenarioError(f"{path}.adv_mode", f"must be one of {list(ADV_MODES)}")
    try:
        return NodeConfig(
            node_id=spec["id"],
            kind=kind,
            profile=_parse_profile(spec.get("profile", default_preset),
                                   f"{path}.profile"),
            harvester=_parse_harvester(spec.get("harvester", default_preset),
                                       f"{path}.harvester"),
            supercap=_parse_supercap(spec["supercap"], f"{path}.supercap"),
            margin=_number(spec, "margin", path,
                           default=0.05 if kind is NodeKind.BLE else 0.0,
                           minimum=0.0),
            sensors=tuple(sensors),
            adv_mode=adv_mode,
            backoff_s=_number(spec, "backoff_s", path, default=60.0, positive=True),
            efficiency=_number(spec, "efficiency", path, default=1.0, positive=True),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_illumination(spec: dict, path: str) -> IlluminationProfile:
    _check_keys(
        spec,
        {"kind", "lux", "steps", "mean", "amplitude", "period_s",
         "jitter_pct", "jitter_seed"},
        set(),
        path,
    )
    kind = spec.get("kind", "constant")
    if kind not in ILLUMINATION_KINDS:
        raise ScenarioError(f"{path}.kind", f"must be one of {list(ILLUMINATION_KINDS)}")
    jitter_pct = _number(spec, "jitter_pct", path, default=0.0, minimum=0.0)
    if jitter_pct >= 1.0:
        raise ScenarioError(f"{path}.jitter_pct", "must be < 1")
    try:
        return IlluminationProfile(
            kind=kind,
            lux=_number(spec, "lux", path, default=700.0, minimum=0.0),
            steps=_pairs(spec.get("steps", []), f"{path}.steps"),
            mean=_number(spec, "mean", path, default=0.0, minimum=0.0),
            amplitude=_number(spec, "amplitude", path, default=0.0, minimum=0.0),
            period_s=_number(spec, "period_s", path, default=86400.0, positive=True),
            jitter_pct=jitter_pct,
            jitter_seed=_integer(spec, "jitter_seed", path, default=0),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        # kind and jitter_pct are checked above, so what the profile can
        # still reject is a step profile's steps or a sinusoid's amplitude.
        key = {"step": "steps", "sinusoid": "amplitude"}.get(kind)
        raise ScenarioError(_at(path, key) if key else path, str(exc)) from None


def _parse_channel(spec: dict, path: str) -> ChannelModel:
    _check_keys(spec, {"loss", "per_link_loss", "seed"}, set(), path)
    loss: Any = _number(spec, "loss", path, default=0.0, minimum=0.0, maximum=1.0)
    if "per_link_loss" in spec:
        links, links_path = spec["per_link_loss"], f"{path}.per_link_loss"
        if not isinstance(links, dict):
            raise ScenarioError(links_path, "expected a mapping of link to loss")
        per_link = {}
        for key in links:
            try:
                link = LinkType(key)
            except ValueError:
                raise ScenarioError(_at(links_path, key), "unknown link") from None
            per_link[link] = _number(links, key, links_path, minimum=0.0, maximum=1.0)
        # A link the mapping does not list keeps the scalar loss.
        loss = {link: per_link.get(link, loss) for link in LinkType}
    try:
        return ChannelModel(loss=loss, seed=_integer(spec, "seed", path, default=0))
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_gateway(spec: dict, path: str) -> GatewayConfig:
    _check_keys(spec, {"present"}, set(), path)
    present = spec.get("present", True)
    if not isinstance(present, bool):
        raise ScenarioError(f"{path}.present", "expected a boolean")
    return GatewayConfig(present=present)


def scenario_from_dict(doc: dict) -> Scenario:
    _check_keys(
        doc,
        {"version", "duration_s", "seed", "sample_interval_s", "nodes",
         "illumination", "channel", "gateway"},
        {"version", "duration_s", "nodes"},
        "",
    )
    version = doc["version"]
    if isinstance(version, bool) or not isinstance(version, int):
        raise ScenarioError("version", "expected an integer")
    if version > SCHEMA_VERSION:
        raise ScenarioError("version", f"schema version {version} is newer than "
                                       f"supported version {SCHEMA_VERSION}")
    nodes_spec = doc["nodes"]
    if not isinstance(nodes_spec, list) or not nodes_spec:
        raise ScenarioError("nodes", "expected a non-empty list")
    nodes = tuple(
        _parse_node(n, f"nodes[{i}]") for i, n in enumerate(nodes_spec)
    )
    duration_s = _number(doc, "duration_s", "", positive=True)
    if duration_s > MAX_DURATION_S:
        raise ScenarioError("duration_s", f"must be at most {MAX_DURATION_S:.0f} s "
                                          "(366 days)")
    sample_interval_s = _number(doc, "sample_interval_s", "", default=1.0,
                                positive=True)
    samples = len(nodes) * duration_s / sample_interval_s
    if samples > MAX_TRACE_SAMPLES:
        raise ScenarioError(
            "sample_interval_s",
            f"{len(nodes)} node(s) x {duration_s:g} s / {sample_interval_s:g} s "
            f"is {samples:.3g} trace samples, above the limit of "
            f"{MAX_TRACE_SAMPLES:,}",
        )
    try:
        return Scenario(
            duration_s=duration_s,
            nodes=nodes,
            channel=_parse_channel(doc.get("channel", {}), "channel"),
            illumination=_parse_illumination(doc.get("illumination", {}),
                                             "illumination"),
            gateway=_parse_gateway(doc.get("gateway", {}), "gateway"),
            seed=_integer(doc, "seed", "", default=1),
            sample_interval_s=sample_interval_s,
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        # Scenario itself checks only what the parsers cannot: unique node ids.
        raise ScenarioError("nodes", str(exc)) from None


def load_scenario_file(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ScenarioError("", f"{path} does not contain a mapping")
    return scenario_from_dict(doc)


def preset_dict(name: str) -> dict:
    """Scenario document for one of the built-in 8-hour evaluation presets."""
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    is_ble = name.startswith("ble")
    lux = 700.0 if "700" in name else 500.0
    doc: dict = {
        "version": SCHEMA_VERSION,
        "duration_s": 28800.0,
        "seed": 1,
        "sample_interval_s": 1.0,
        "illumination": {"kind": "constant", "lux": lux},
        "channel": {"loss": 0.0, "seed": 0},
        "nodes": [
            {
                "id": f"{'ble' if is_ble else 'liot'}-1",
                "kind": "ble" if is_ble else "liot",
                "profile": "ble-table1" if is_ble else "liot-table2",
                "harvester": "ble-table1" if is_ble else "liot-table2",
                "supercap": {
                    "capacitance_f": 0.4,
                    "voltage_v": _PRESET_SCAP_V[name],
                    "v_min": 3.3,
                    "v_max": 4.5,
                },
                "margin": 0.05 if is_ble else 0.0,
            }
        ],
    }
    if is_ble:
        doc["nodes"][0]["adv_mode"] = "fixed"
    if name in _PRESET_PDR:
        doc["channel"]["loss"] = per_frame_loss_for_session_pdr(
            _PRESET_PDR[name], len(BLE_SCRIPT)
        )
    return doc


def load_preset(name: str) -> Scenario:
    return scenario_from_dict(preset_dict(name))


def resolve_scenario_dict(ref: str) -> dict:
    if ref in PRESET_NAMES:
        return preset_dict(ref)
    with open(ref, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ScenarioError("", f"{ref} does not contain a mapping")
    return doc


def set_by_path(doc: dict, dotted: str, value: Any) -> None:
    """Set a schema value by dotted path, e.g. 'illumination.lux' or 'nodes.0.margin'."""
    parts = dotted.split(".")
    target: Any = doc
    for i, part in enumerate(parts[:-1]):
        if isinstance(target, list):
            try:
                target = target[int(part)]
            except (ValueError, IndexError):
                raise ScenarioError(".".join(parts[: i + 1]), "no such list index")
        elif isinstance(target, dict):
            if part not in target:
                target[part] = {}
            target = target[part]
        else:
            raise ScenarioError(".".join(parts[: i + 1]), "path descends into a scalar")
    leaf = parts[-1]
    if isinstance(target, list):
        try:
            target[int(leaf)] = value
        except (ValueError, IndexError):
            raise ScenarioError(dotted, "no such list index")
    elif isinstance(target, dict):
        target[leaf] = value
    else:
        raise ScenarioError(dotted, "path descends into a scalar")
