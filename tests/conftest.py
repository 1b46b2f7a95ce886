"""Property tests run a fixed, bounded set of examples, so every run of the
suite checks the same cases and leaves no example database behind.  The
``run_world`` fixture hands back a scenario's finished World."""

import pytest
from hypothesis import settings

from tokenpool.actors import build_world
from tokenpool.scenario import Scenario, load_scenario

settings.register_profile(
    "tokenpool", derandomize=True, database=None, max_examples=200, deadline=None
)
settings.load_profile("tokenpool")


def _run_world(source):
    """The finished World of a scenario (or scenario file), built and run
    out as ``run_scenario`` builds and runs it.  A RunResult keeps only the
    run's report, so a test that reads the World itself runs it here."""
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    world = build_world(scenario)
    world.engine.run(scenario.horizon)
    return world


@pytest.fixture
def run_world():
    return _run_world
