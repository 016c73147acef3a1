import os
import time

import numpy as np
import pytest
from hypothesis import settings

import eventfdi as ef

# CI runs every property test on the same examples and without a per-example
# deadline, so a result does not depend on the draw or on the runner's speed.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def paper_payload():
    return ef.paper_scenario()


@pytest.fixture(scope="session")
def paper_config(paper_payload):
    return ef.config_from_dict(paper_payload)


@pytest.fixture(scope="session")
def paper_model(paper_config):
    return paper_config.model


@pytest.fixture(scope="session")
def steady(paper_model):
    return ef.riccati_fixed_point(paper_model)


@pytest.fixture(scope="session")
def nominal_big(paper_payload):
    """Nominal run with 2e5 post-burn-in steps; returns (result, wall seconds)."""
    config = ef.config_from_dict(dict(paper_payload, attack_mode="off"))
    t0 = time.time()
    result = ef.run_scenario(config)
    return result, time.time() - t0


@pytest.fixture(scope="session")
def attacked_big(paper_config):
    """Two-channel attacked run with 2e5 post-burn-in steps."""
    return ef.run_scenario(paper_config)


@pytest.fixture(scope="session")
def bias_run(paper_payload):
    """200 trajectories x 500 post-burn-in steps under the two-channel attack."""
    config = ef.config_from_dict(dict(paper_payload, steps=700, trajectories=200))
    return ef.run_scenario(config)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
