"""Pinned end-to-end summaries for the built-in presets at the default seed.

Any behavior change in the solver, protocol, channel draws, or event
ordering shows up here first.  The goldens are written by the same writer
as `liotsim simulate --out`; regenerate them deliberately with:

    PYTHONPATH=src python3 -c "
    from liotsim.scenario import load_preset, PRESET_NAMES
    from liotsim.kernel import run
    from liotsim.metrics import export_summary
    for n in PRESET_NAMES:
        export_summary(run(load_preset(n)).summary, f'tests/golden/{n}.json')
    "
"""

import os

import pytest

from cases import shared_run
from liotsim.metrics import export_summary
from liotsim.scenario import PRESET_NAMES, load_preset

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_summary_matches_golden(name, tmp_path):
    actual = tmp_path / f"{name}.json"
    export_summary(shared_run(load_preset(name)).summary, str(actual))
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "rb") as fh:
        assert actual.read_bytes() == fh.read()
