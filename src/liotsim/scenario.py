"""Scenario files: documented YAML schema, validation, and built-in presets.

The schema is versioned; unknown keys are rejected with their location so a
typo in a config never silently changes a run.  The parser checks only the
document's shape, keys and names; each value type checks and
defaults its own fields (see _build).  The four presets reproduce
the 8-hour evaluation scenarios of the two node builds at 700 and 500 lx.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional

import yaml

from .energy import (
    EnergyProfile,
    FieldError,
    HarvesterCurve,
    Stage,
    StageName,
    Supercap,
    builtin_harvester,
    builtin_profile,
)
from .fsm import BLE, DEFAULT_MARGIN, LIOT, NodeConfig, NodeKind
from .kernel import (
    ChannelModel,
    GatewayConfig,
    IlluminationProfile,
    Scenario,
    per_frame_loss_for_session_pdr,
)
from .protocol import BLE_SCRIPT, LinkType

SCHEMA_VERSION = 1

PRESET_NAMES = ("ble-700lx", "ble-500lx", "liot-700lx", "liot-500lx")

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
    """A mapping with known keys only, each holding a value: null is never
    one, so that _build can read None as a key the document does not give."""
    if not isinstance(d, dict):
        raise ScenarioError(path, f"expected a mapping, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ScenarioError(_at(path, sorted(unknown, key=str)[0]), "unknown key")
    missing = required - set(d)
    if missing:
        raise ScenarioError(path, f"missing required key {sorted(missing)[0]!r}")
    nulls = [key for key in d if d[key] is None]
    if nulls:
        raise ScenarioError(_at(path, nulls[0]), "expected a value, got null")


def _check_kind_keys(d: dict, kind: str, owners: dict[str, str], path: str) -> None:
    """Reject a key that only another kind reads, e.g. steps in constant light."""
    for key, owner in owners.items():
        if key in d and kind != owner:
            raise ScenarioError(_at(path, key), f"only kind {owner} takes this key")


# A field whose key in the document has another name.
_DOCUMENT_KEY = {"node_id": "id"}


def _build(cls, path: str, **fields):
    """cls(**fields), leaving out the fields the document does not give (None)
    so that the type's defaults apply.  The type's own rules decide: a broken
    rule of one field is reported at the field's key in path, a rule across
    fields at path."""
    try:
        return cls(**{k: v for k, v in fields.items() if v is not None})
    except FieldError as exc:
        key = _DOCUMENT_KEY.get(exc.field, exc.field)
        raise ScenarioError(_at(path, key), exc.message) from None
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _member(enum: type[Enum], value: Any, path: str):
    """The member of enum named by value, e.g. a node kind or a link."""
    for member in enum:
        if member.value == value:
            return member
    raise ScenarioError(path, f"must be one of {[m.value for m in enum]}")


def _integer(d: dict, key: str) -> Any:
    """An integer key's value, an integral float such as 2.0 read as its int;
    the type rejects any other value that is not an int."""
    v = d.get(key)
    return int(v) if isinstance(v, float) and v.is_integer() else v


def _loss(d: dict, key: Any, path: str) -> Any:
    """d[key], a loss the channel's rule accepts, reported at its own key:
    the channel reports a per-link loss without its link, and never sees a
    scalar loss that the per-link losses override on every link."""
    if key not in d:
        return None
    # A mapping is a loss per link to the channel, never a loss in the file.
    if isinstance(d[key], dict):
        raise ScenarioError(_at(path, key), "expected a number")
    try:
        ChannelModel(loss=d[key])
    except FieldError as exc:
        raise ScenarioError(_at(path, key), exc.message) from None
    return d[key]


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
        stages.append(_build(
            Stage, spath, name=_member(StageName, st["name"], f"{spath}.name"),
            current_ma=st["current_ma"],
            duration_s=st["duration_s"],
        ))
    return _build(
        EnergyProfile, path,
        voltage_v=spec["voltage_v"],
        active_stages=tuple(stages),
        sleep_current_ma=spec["sleep_current_ma"],
    )


def _parse_harvester(spec: Any, path: str) -> HarvesterCurve:
    if isinstance(spec, str):
        try:
            return builtin_harvester(spec)
        except KeyError as exc:
            raise ScenarioError(path, str(exc)) from None
    _check_keys(spec, {"points"}, {"points"}, path)
    return _build(HarvesterCurve, path, points=spec["points"])


def _parse_supercap(spec: dict, path: str) -> Supercap:
    _check_keys(spec, {"capacitance_f", "voltage_v", "v_min", "v_max"},
                {"capacitance_f", "voltage_v"}, path)
    return _build(Supercap, path, **spec)


# Node keys that only one kind of node reads.
_NODE_KIND_KEYS = {"sensors": "liot", "adv_mode": "ble"}

# Illumination keys that only one kind of light reads.
_LIGHT_KIND_KEYS = {"lux": "constant", "steps": "step", "mean": "sinusoid",
                    "amplitude": "sinusoid", "period_s": "sinusoid"}


def _parse_node(spec: dict, path: str) -> NodeConfig:
    _check_keys(
        spec,
        {"id", "kind", "profile", "harvester", "supercap", "margin", "sensors",
         "adv_mode", "efficiency"},
        {"id", "kind", "supercap"},
        path,
    )
    kind = _member(NodeKind, spec["kind"], f"{path}.kind")
    default_preset = "ble-table1" if kind is NodeKind.BLE else "liot-table2"
    _check_kind_keys(spec, kind.value, _NODE_KIND_KEYS, path)
    sensors = spec.get("sensors")
    if sensors is not None:
        if not isinstance(sensors, list):
            raise ScenarioError(f"{path}.sensors", "expected a list of channel names")
        sensors = tuple(sensors)
    return _build(
        NodeConfig, path,
        node_id=spec["id"],
        kind=kind,
        profile=_parse_profile(spec.get("profile", default_preset), f"{path}.profile"),
        harvester=_parse_harvester(spec.get("harvester", default_preset),
                                   f"{path}.harvester"),
        supercap=_parse_supercap(spec["supercap"], f"{path}.supercap"),
        margin=spec.get("margin"),
        sensors=sensors,
        adv_mode=spec.get("adv_mode"),
        efficiency=spec.get("efficiency"),
    )


def _parse_illumination(spec: dict, path: str) -> IlluminationProfile:
    _check_keys(
        spec,
        {"kind", "lux", "steps", "mean", "amplitude", "period_s",
         "jitter_pct", "jitter_seed"},
        set(),
        path,
    )
    # Each key names its field.
    profile = _build(IlluminationProfile, path,
                     **{**spec, "jitter_seed": _integer(spec, "jitter_seed")})
    _check_kind_keys(spec, profile.kind, _LIGHT_KIND_KEYS, path)
    return profile


def _parse_channel(spec: dict, path: str) -> ChannelModel:
    _check_keys(spec, {"loss", "per_link_loss", "seed"}, set(), path)
    loss: Any = _loss(spec, "loss", path)
    if "per_link_loss" in spec:
        links, links_path = spec["per_link_loss"], f"{path}.per_link_loss"
        if not isinstance(links, dict):
            raise ScenarioError(links_path, "expected a mapping of link to loss")
        per_link = {
            _member(LinkType, key, _at(links_path, key)): _loss(links, key, links_path)
            for key in links
        }
        # A link the mapping does not list keeps the scalar loss.
        scalar = ChannelModel.loss if loss is None else loss
        loss = {link: per_link.get(link, scalar) for link in LinkType}
    return _build(ChannelModel, path, loss=loss, seed=_integer(spec, "seed"))


def _parse_gateway(spec: dict, path: str) -> GatewayConfig:
    _check_keys(spec, {"present"}, set(), path)
    return _build(GatewayConfig, path, present=spec.get("present"))


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
    if not isinstance(nodes_spec, list):
        raise ScenarioError("nodes", "expected a list")
    return _build(
        Scenario, "",
        duration_s=doc["duration_s"],
        nodes=tuple(_parse_node(n, f"nodes[{i}]") for i, n in enumerate(nodes_spec)),
        channel=_parse_channel(doc.get("channel", {}), "channel"),
        illumination=_parse_illumination(doc.get("illumination", {}), "illumination"),
        gateway=_parse_gateway(doc.get("gateway", {}), "gateway"),
        seed=_integer(doc, "seed"),
        sample_interval_s=doc.get("sample_interval_s"),
    )


def load_mapping(path: str) -> dict:
    """The YAML document of a scenario or profile file, which must be a mapping."""
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ScenarioError("", f"{path} does not contain a mapping")
    return doc


def load_profile_file(path: str) -> tuple[EnergyProfile, Optional[HarvesterCurve]]:
    """The profile of a profile file, and its harvester curve if it gives one.

    The file holds either a profile mapping, or a mapping of a profile and
    an optional harvester, each inline or a built-in name.
    """
    doc = load_mapping(path)
    if "profile" not in doc:
        return _parse_profile(doc, "profile"), None
    _check_keys(doc, {"profile", "harvester"}, {"profile"}, "")
    harvester = doc.get("harvester")
    return (_parse_profile(doc["profile"], "profile"),
            None if harvester is None else _parse_harvester(harvester, "harvester"))


def load_scenario_file(path: str) -> Scenario:
    return scenario_from_dict(load_mapping(path))


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
                "margin": DEFAULT_MARGIN[BLE if is_ble else LIOT],
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
    return load_mapping(ref)


def _list_index(items: list, part: str, path: str) -> int:
    """part as an index of items: ASCII decimal digits naming one of them.
    A sign, a space, an underscore or another script's digits, all of which
    int() takes, raise instead of naming some other item."""
    if not (part.isascii() and part.isdigit()) or int(part) >= len(items):
        raise ScenarioError(path, "no such list index")
    return int(part)


def set_by_path(doc: dict, dotted: str, value: Any) -> None:
    """Set a schema value by dotted path, e.g. 'illumination.lux' or 'nodes.0.margin'."""
    parts = dotted.split(".")
    target: Any = doc
    for i, part in enumerate(parts[:-1]):
        if isinstance(target, list):
            target = target[_list_index(target, part, ".".join(parts[: i + 1]))]
        elif isinstance(target, dict):
            if part not in target:
                target[part] = {}
            target = target[part]
        else:
            raise ScenarioError(".".join(parts[: i + 1]), "path descends into a scalar")
    leaf = parts[-1]
    if isinstance(target, list):
        target[_list_index(target, leaf, dotted)] = value
    elif isinstance(target, dict):
        target[leaf] = value
    else:
        raise ScenarioError(dotted, "path descends into a scalar")
