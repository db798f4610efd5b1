"""Properties of whole runs over generated small scenarios."""

from itertools import takewhile

from hypothesis import given, settings, strategies as st

from liotsim import fsm
from liotsim.kernel import run
from liotsim.scenario import preset_dict, scenario_from_dict

LUX = st.floats(0.0, 1000.0)


@st.composite
def small_scenarios(draw) -> dict:
    """A scenario document: 1-3 nodes, at most 1800 s, light in [0, 1000] lx."""
    duration = draw(st.one_of(st.integers(1, 1800).map(float),
                              st.floats(1.0, 1800.0)))
    if draw(st.booleans()):
        light = {"kind": "constant", "lux": draw(LUX)}
    else:
        starts = draw(st.lists(st.floats(1.0, duration), max_size=3, unique=True))
        light = {"kind": "step",
                 "steps": [[t, draw(LUX)] for t in [0.0, *sorted(starts)]]}
    if draw(st.booleans()):
        light.update(jitter_pct=0.1, jitter_seed=draw(st.integers(0, 99)))
    kinds = draw(st.lists(st.sampled_from(("ble", "liot")), min_size=1, max_size=3))
    nodes = []
    for i, kind in enumerate(kinds):
        node = preset_dict(f"{kind}-700lx")["nodes"][0]
        node["id"] = f"{kind}-{i}"
        node["supercap"]["voltage_v"] = draw(st.floats(3.3, 4.5))
        nodes.append(node)
    return {**preset_dict("ble-700lx"), "duration_s": duration,
            "illumination": light, "nodes": nodes}


@settings(max_examples=20, deadline=None)
@given(small_scenarios(), st.sampled_from((0.1, 0.37, 1.0, 60.0, 3600.0)))
def test_trace_follows_the_sampling_rule_and_nothing_else_moves(doc, interval_s):
    result = run(scenario_from_dict({**doc, "sample_interval_s": interval_s}))
    at_1s = run(scenario_from_dict({**doc, "sample_interval_s": 1.0}))
    end = doc["duration_s"]
    expected = list(takewhile(lambda t: t <= end, fsm.sample_times(interval_s)))
    if expected[-1] < end:
        expected.append(end)  # the run ends off the grid
    for node_id, nr in result.nodes.items():
        times = [t for t, _ in nr.trace]
        assert times == expected
        assert times[-1] == end
        ref = at_1s.nodes[node_id]
        assert nr.records == ref.records
        assert (nr.packets_sent, nr.packets_received) == (
            ref.packets_sent, ref.packets_received)
        assert nr.total_harvested_j == ref.total_harvested_j
        assert nr.packets_received <= nr.packets_sent
