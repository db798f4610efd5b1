import dataclasses
import math
import os
import pickle
import re

import pytest
import yaml

from cases import BAD_VALUES, bad_value_cases, fleet_year
from liotsim.energy import (
    BLE_PROFILE,
    FieldError,
    HarvesterCurve,
    Stage,
    StageName,
    Supercap,
)
from liotsim.fsm import NodeConfig, NodeKind
from liotsim.kernel import (
    MAX_CYCLES,
    ChannelModel,
    GatewayConfig,
    IlluminationProfile,
    per_frame_loss_for_session_pdr,
    run,
)
from liotsim.protocol import BLE_SCRIPT, GATEWAY_ID, LIOT_SCRIPT, LinkType
from liotsim.scenario import (
    PRESET_NAMES,
    SCHEMA_VERSION,
    ScenarioError,
    load_preset,
    load_scenario_file,
    preset_dict,
    scenario_from_dict,
    set_by_path,
)

DOCS_EXAMPLE = os.path.join(
    os.path.dirname(__file__), os.pardir, "docs", "scenario-example.yaml"
)


def minimal_doc() -> dict:
    return {
        "version": SCHEMA_VERSION,
        "duration_s": 100.0,
        "nodes": [
            {
                "id": "n1",
                "kind": "liot",
                "supercap": {"capacitance_f": 0.4, "voltage_v": 4.2},
            }
        ],
    }


def test_minimal_document_fills_defaults():
    sc = scenario_from_dict(minimal_doc())
    assert sc.seed == 1
    assert sc.sample_interval_s == 1.0
    assert sc.illumination.lux == 700.0
    assert sc.channel.loss == 0.0
    assert sc.gateway.present
    node = sc.nodes[0]
    assert node.margin == 0.0
    assert node.profile.sleep_current_ma == pytest.approx(0.087)
    assert node.sensors == ("temperature", "humidity", "pressure", "gas")


@pytest.mark.parametrize("kind, margin", [("liot", 0.0), ("ble", 0.05)])
def test_a_node_built_in_python_takes_the_margin_of_a_scenario_file(kind, margin):
    doc = minimal_doc()
    doc["nodes"][0]["kind"] = kind
    parsed = scenario_from_dict(doc).nodes[0]
    built = NodeConfig(node_id=parsed.node_id, kind=NodeKind(kind),
                       profile=parsed.profile, harvester=parsed.harvester,
                       supercap=parsed.supercap)
    assert built.margin == parsed.margin == margin
    assert built == parsed


def test_profile_missing_a_phase_stage_is_a_scenario_error():
    doc = minimal_doc()
    doc["nodes"][0]["profile"] = {
        "voltage_v": 3.3,
        "sleep_current_ma": 0.087,
        "stages": [
            {"name": name, "current_ma": 12.0, "duration_s": 0.5}
            for name in ("gw_request", "liot_sensor_read", "liot_sleep_set")
        ],
    }
    with pytest.raises(ScenarioError, match="liot_data_upload") as exc:
        scenario_from_dict(doc)
    assert exc.value.path == "nodes[0].profile"


def test_unknown_key_error_carries_its_path():
    doc = minimal_doc()
    doc["nodes"][0]["supercap"]["capacitanceF"] = 0.4
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert exc.value.path == "nodes[0].supercap.capacitanceF"

    doc = minimal_doc()
    doc["illumination"] = {"luxx": 700}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert exc.value.path == "illumination.luxx"


def test_missing_required_key():
    doc = minimal_doc()
    del doc["nodes"][0]["supercap"]
    with pytest.raises(ScenarioError, match="supercap"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    del doc["version"]
    with pytest.raises(ScenarioError, match="version"):
        scenario_from_dict(doc)


def test_future_schema_version_rejected():
    doc = minimal_doc()
    doc["version"] = SCHEMA_VERSION + 1
    with pytest.raises(ScenarioError, match="newer than"):
        scenario_from_dict(doc)


def test_type_and_range_validation():
    doc = minimal_doc()
    doc["duration_s"] = "long"
    with pytest.raises(ScenarioError, match="number"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["duration_s"] = -5.0
    with pytest.raises(ScenarioError, match="> 0"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["nodes"][0]["kind"] = "zigbee"
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["nodes"][0]["sensors"] = ["temperature", "co2"]
    with pytest.raises(ScenarioError, match="co2"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["channel"] = {"loss": 1.5}
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["nodes"].append(dict(doc["nodes"][0]))
    with pytest.raises(ScenarioError, match="unique") as exc:
        scenario_from_dict(doc)
    assert exc.value.path == "nodes"


@pytest.mark.parametrize("key,value,path", bad_value_cases(
    ("gateway.present", "no", "gateway.present"),
    ("gateway.present", 0, "gateway.present"),
    # The gateway has a single optical transceiver; the key is gone.
    ("gateway.liot_concurrency", 2, "gateway.liot_concurrency"),
    ("gateway.liot_concurrency", True, "gateway.liot_concurrency"),
    ("gateway.liot_concurrency", 1.0, "gateway.liot_concurrency"),
    ("gateway.liot_concurrency", 1, "gateway.liot_concurrency"),
    *BAD_VALUES,
))
def test_gateway_values_are_never_coerced(key, value, path):
    doc = minimal_doc()
    set_by_path(doc, key, value)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert exc.value.path == path


def test_a_supercap_that_cannot_hold_one_burst_is_rejected():
    # liot-700lx's burst takes 0.2234 J; 0.04 F holds 0.1872 J between v_min
    # and v_max, and 0.05 F holds 0.234 J.
    doc = preset_dict("liot-700lx")
    set_by_path(doc, "nodes.0.supercap.capacitance_f", 0.04)
    with pytest.raises(ScenarioError, match="holds 0.1872 J between v_min and "
                       "v_max, less than the 0.2234 J of one active burst") as exc:
        scenario_from_dict(doc)
    assert exc.value.path == "nodes[0].supercap"
    set_by_path(doc, "nodes.0.supercap.capacitance_f", 0.05)
    assert scenario_from_dict(doc).nodes[0].supercap.capacitance_f == 0.05


def test_run_size_limits():
    for name in PRESET_NAMES:
        doc = preset_dict(name)
        doc["sample_interval_s"] = 0.001
        with pytest.raises(ScenarioError, match=r"is 2\.88e\+07 trace samples, "
                           "above the limit of 10,000,000") as exc:
            scenario_from_dict(doc)
        assert exc.value.path == "sample_interval_s"
        # A leap year is the longest run.
        doc["sample_interval_s"] = 3600.0
        doc["duration_s"] = 366 * 86400.0
        assert scenario_from_dict(doc).duration_s == 31_622_400.0
        doc["duration_s"] += 1.0
        with pytest.raises(ScenarioError, match="at most 31622400 s") as exc:
            scenario_from_dict(doc)
        assert exc.value.path == "duration_s"


def test_cycle_budget_bounds_records_and_frames():
    # A cycle keeps one 33-B record and at most one handshake of 17-B frames.
    longest_script = max(len(BLE_SCRIPT), len(LIOT_SCRIPT))
    # With growth slack and the trace at its limit, still under 2 GiB.
    assert MAX_CYCLES * (33 + 17 * longest_script) * 9 / 8 + 8e7 <= 2 * 2**30
    # A ble-700lx node's shortest cycle is its 12.842-s sleep solved at
    # 700 lx, its curve's top, plus its 0.26-s sensor read: 2.41e6 a year.
    # A liot-700lx node's is its 620-s sleep there plus its 0.428-s
    # gw_request stage: 5.10e4 a year.
    for preset, accepted, estimate in [("ble-700lx", 6, "1.69e+07"),
                                       ("liot-700lx", 294, "1.5e+07")]:
        assert len(scenario_from_dict(fleet_year(preset, accepted)).nodes) == accepted
        rejected = accepted + 1
        with pytest.raises(ScenarioError, match=re.escape(
                f"{rejected} node(s) x 3.16224e+07 s is an estimated {estimate} "
                "cycles, above the limit of 15,000,000")) as exc:
            scenario_from_dict(fleet_year(preset, rejected))
        assert exc.value.path == "duration_s"
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(fleet_year("ble-700lx", 1000))
    assert exc.value.path == "duration_s"


def test_a_scenario_built_in_python_obeys_the_run_size_limits():
    sc = load_preset("ble-700lx")
    fleet = scenario_from_dict(fleet_year("ble-700lx", 6))
    nodes = (*fleet.nodes, dataclasses.replace(fleet.nodes[0], node_id="ble-6"))
    for base, changes, field, message in [
        (sc, {"duration_s": 1e9}, "duration_s",
         "duration_s: must be at most 31622400 s (366 days)"),
        (sc, {"sample_interval_s": 0.001}, "sample_interval_s",
         "is 2.88e+07 trace samples, above the limit of 10,000,000"),
        (fleet, {"nodes": nodes}, "duration_s",
         "is an estimated 1.69e+07 cycles, above the limit of 15,000,000"),
    ]:
        with pytest.raises(FieldError, match=re.escape(message)) as exc:
            dataclasses.replace(base, **changes)
        assert exc.value.field == field


@pytest.mark.parametrize("key,read", [
    ("seed", lambda sc: sc.seed),
    ("channel.seed", lambda sc: sc.channel.seed),
    ("illumination.jitter_seed", lambda sc: sc.illumination.jitter_seed),
], ids=["seed", "channel.seed", "illumination.jitter_seed"])
def test_integer_keys_take_integral_values_only(key, read):
    doc = minimal_doc()
    set_by_path(doc, key, 2.5)
    with pytest.raises(ScenarioError, match="must be an integer"):
        scenario_from_dict(doc)
    set_by_path(doc, key, 2.0)
    value = read(scenario_from_dict(doc))
    assert value == 2 and type(value) is int
    # Integers are kept exactly, not routed through a float.
    set_by_path(doc, key, 2**60 + 1)
    assert read(scenario_from_dict(doc)) == 2**60 + 1


def test_gateway_accepts_booleans():
    doc = minimal_doc()
    doc["gateway"] = {"present": False}
    assert scenario_from_dict(doc).gateway.present is False


def test_inline_profile_and_harvester():
    doc = minimal_doc()
    doc["nodes"][0]["kind"] = "ble"
    doc["nodes"][0]["profile"] = {
        "voltage_v": 3.3,
        "sleep_current_ma": 0.05,
        "stages": [
            {"name": "sensor_read", "current_ma": 5.0, "duration_s": 0.2},
            {"name": "ble_advertise", "current_ma": 0.4, "duration_s": 2.0},
            {"name": "ble_data_exchange", "current_ma": 0.8, "duration_s": 1.0},
        ],
    }
    doc["nodes"][0]["harvester"] = {"points": [[0, 0.0], [1000, 2.0]]}
    sc = scenario_from_dict(doc)
    assert sc.nodes[0].profile.voltage_v == 3.3
    assert sc.nodes[0].harvester.power_mw(500.0) == pytest.approx(1.0)


def test_presets_cover_both_builds_and_lux_levels():
    for name in PRESET_NAMES:
        sc = load_preset(name)
        assert sc.duration_s == 28800.0
        assert sc.illumination.lux == (700.0 if "700" in name else 500.0)
    # BLE presets carry a lossy channel calibrated per session frame count.
    assert load_preset("ble-700lx").channel.loss == pytest.approx(
        per_frame_loss_for_session_pdr(0.991, len(BLE_SCRIPT))
    )
    assert load_preset("liot-700lx").channel.loss == 0.0
    with pytest.raises(KeyError):
        load_preset("nope")


def test_preset_dict_is_a_fresh_copy():
    a = preset_dict("ble-700lx")
    a["seed"] = 99
    assert preset_dict("ble-700lx")["seed"] == 1


def test_yaml_file_round_trip(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(minimal_doc()), encoding="utf-8")
    sc = load_scenario_file(str(path))
    assert sc.nodes[0].node_id == "n1"
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a\n- list\n", encoding="utf-8")
    with pytest.raises(ScenarioError, match="mapping"):
        load_scenario_file(str(bad))


def test_set_by_path():
    doc = minimal_doc()
    set_by_path(doc, "illumination.lux", 500.0)
    assert doc["illumination"]["lux"] == 500.0
    set_by_path(doc, "nodes.0.margin", 0.1)
    assert doc["nodes"][0]["margin"] == 0.1
    set_by_path(doc, "channel.loss", 0.05)
    assert scenario_from_dict(doc).channel.loss == 0.05
    with pytest.raises(ScenarioError):
        set_by_path(doc, "nodes.7.margin", 0.1)
    with pytest.raises(ScenarioError):
        set_by_path(doc, "duration_s.deeper", 1.0)


# int() reads each of these as 0, or -1 for the last item; as a list index
# none of them names an item.
@pytest.mark.parametrize("index", ["-1", " 0", "0 ", "0_0", "+0", "\u0660", ""])
def test_a_list_index_is_ascii_decimal_digits_only(index):
    doc = minimal_doc()
    for dotted in (f"nodes.{index}.margin", f"nodes.{index}"):
        with pytest.raises(ScenarioError, match="no such list index") as exc:
            set_by_path(doc, dotted, 0.1)
        assert exc.value.path == f"nodes.{index}"
    assert doc == minimal_doc()


def test_per_link_loss_overrides_the_scalar_for_listed_links_only():
    doc = preset_dict("ble-700lx")
    doc["duration_s"] = 600.0
    doc["channel"] = {"loss": 0.5, "per_link_loss": {"ble_adv": 0.0}}
    sc = scenario_from_dict(doc)
    assert [sc.channel.loss_for(link) for link in LinkType] == [0.0, 0.5, 0.5, 0.5]
    fates = {(f.link, f.delivered) for f in run(sc).frames}
    assert ("ble_conn", False) in fates
    assert ("ble_adv", False) not in fates


def test_docs_example_loads_and_runs():
    sc = dataclasses.replace(load_scenario_file(DOCS_EXAMPLE), duration_s=600.0)
    # A sweep sends each built scenario to its worker process as a pickle.
    assert pickle.loads(pickle.dumps(sc)) == sc
    result = run(sc)
    assert set(result.nodes) == {"ble-1", "liot-1"}
    assert result.summary.node("ble-1").packets_sent > 0


def _bad_fields():
    """(value, field, bad value) for every rule a value type checks on one of
    its fields; the value is replaced with that one field set to the bad value."""
    stage = Stage(StageName.SENSOR_READ, 7.55, 0.26)
    cap = Supercap(0.4, 4.2)
    sc = load_preset("ble-700lx")
    light = IlluminationProfile()
    step = IlluminationProfile(kind="step", steps=((0.0, 700.0),))
    sinusoid = IlluminationProfile(kind="sinusoid", mean=600.0, amplitude=100.0)
    rows = [
        (stage, "current_ma", 0.0), (stage, "duration_s", 0.0),
        (BLE_PROFILE, "voltage_v", 0.0), (BLE_PROFILE, "sleep_current_ma", 0.0),
        (HarvesterCurve(((0.0, 0.0),)), "points", ()),
        (HarvesterCurve(((0.0, 0.0),)), "points", ((1.0, 0.0), (0.0, 1.0))),
        (HarvesterCurve(((0.0, 0.0),)), "points", ((0.0, -1.0),)),
        (HarvesterCurve(((0.0, 0.0),)), "points", ((0.0, 1.0), (1.0, 0.5))),
        (cap, "capacitance_f", 0.0), (cap, "voltage_v", 0.0),
        (cap, "v_min", -1.0), (cap, "v_max", -1.0),
        (sc.nodes[0], "margin", -1.0), (sc.nodes[0], "adv_mode", "bar"),
        (sc.nodes[0], "supercap", Supercap(0.001, 4.2)), (sc.nodes[0], "efficiency", 0.0),
        (sc.nodes[0], "efficiency", 1.5),
        (light, "kind", "foo"), (light, "lux", -5.0),
        (light, "mean", -1.0), (light, "amplitude", -1.0), (light, "period_s", 0.0),
        (light, "jitter_pct", -0.1), (light, "jitter_pct", 1.0),
        (step, "steps", ()), (step, "steps", ((5.0, 700.0),)),
        (step, "steps", ((0.0, 700.0), (0.0, 500.0))),
        (sinusoid, "amplitude", 700.0),
        (ChannelModel(), "loss", 1.5), (ChannelModel(), "loss", {LinkType.BLE_ADV: -0.1}),
        (sc, "duration_s", 0.0), (sc, "sample_interval_s", 0.0),
        (sc, "nodes", ()), (sc, "nodes", sc.nodes * 2),
        (step, "steps", ((0.0, -5.0),)), (step, "steps", ((0.0, 700.0), (9.0, -1.0))),
        (ChannelModel(), "loss", True), (ChannelModel(), "loss", "0.1"),
        (ChannelModel(), "loss", None), (ChannelModel(), "loss", [0.1]),
        (ChannelModel(), "loss", {LinkType.BLE_ADV: True}),
        # Light is held per whole second: a shorter period only aliases, and
        # a subnormal one made lux_column call sin(inf).
        (sinusoid, "period_s", 1.0e-320), (sinusoid, "period_s", 0.5),
        # Rules a scenario file's parser once kept to itself.
        (sc.nodes[0], "node_id", GATEWAY_ID),
        (sc.nodes[0], "sensors", ("foo",)),
        (sc.nodes[0], "sensors", ("temperature", "temperature")),
        (sc.nodes[0], "sensors", ()),
        (GatewayConfig(), "present", "no"),
        (sc, "seed", 2.5), (sc, "seed", True),
        (ChannelModel(), "seed", 1.5), (light, "jitter_seed", True),
        # A node id is a string: 7 ran as node 7, and a list failed the
        # scenario's unique-id check with a bare TypeError.
        (sc.nodes[0], "node_id", 7), (sc.nodes[0], "node_id", ["a"]),
        # Every number is finite: infinite ones ran (a supercap stuck at
        # 4.000 V, a margin that sent no packet), a string raised a bare
        # TypeError and an int too large for a float an OverflowError.
        (cap, "capacitance_f", math.inf),
        (HarvesterCurve(((0.0, 0.0),)), "points", ((0, 0), (700, math.nan))),
        (step, "steps", ((0, 700), (math.inf, 500))),
        (light, "lux", math.inf), (stage, "duration_s", math.inf),
        (sc.nodes[0], "margin", math.inf), (sc, "sample_interval_s", math.inf),
        (light, "lux", "7"), (cap, "capacitance_f", 10**400),
        (ChannelModel(), "loss", 10**400),
        # A loss mapping names links only: a misspelt one ran lossless.
        (ChannelModel(), "loss", {"bl_adv": 0.5}),
        (sinusoid, "mean", math.inf), (sinusoid, "amplitude", math.nan),
        (sinusoid, "period_s", math.inf), (light, "jitter_pct", "x"),
        (BLE_PROFILE, "voltage_v", math.inf), (BLE_PROFILE, "sleep_current_ma", "x"),
        (cap, "v_min", math.nan), (cap, "v_max", math.inf),
        (sc.nodes[0], "efficiency", "x"), (stage, "duration_s", math.nan),
        (stage, "current_ma", "x"), (sc, "duration_s", math.nan),
    ]
    return [pytest.param(value, field, bad, id=f"{type(value).__name__}.{field}-{i}")
            for i, (value, field, bad) in enumerate(rows)]


@pytest.mark.parametrize("value,field,bad", _bad_fields())
def test_value_types_name_the_field_that_breaks_a_rule(value, field, bad):
    """A value built in Python obeys the rules a scenario file does."""
    with pytest.raises(FieldError) as exc:
        dataclasses.replace(value, **{field: bad})
    assert exc.value.field == field


@pytest.mark.parametrize("loss", [0, 1, 0.25])
def test_channel_loss_may_be_an_int_or_a_float(loss):
    channel = ChannelModel(loss=loss)
    assert all(channel.loss_for(link) == loss for link in LinkType)
