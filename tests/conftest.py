from pathlib import Path

import pytest
from hypothesis import settings

from mapclean.simulate import load_scenario, render_sequence

# property tests draw the same fixed set of examples on every run
settings.register_profile("tier1", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("tier1")

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

_rendered = {}


def rendered(name):
    """Render a committed scenario once per session."""
    if name not in _rendered:
        sc = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        _rendered[name] = (sc, render_sequence(sc))
    return _rendered[name]


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIO_DIR
