import itertools
import os

import numpy as np
import pytest
from hypothesis import settings

import eventfdi as ef

import _golden
from _oracles import admitted_systems

# CI runs every property test on the same examples and without a per-example
# deadline, so a result does not depend on the draw or on the runner's speed.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def paper_payload():
    return ef.paper_scenario()


@pytest.fixture(scope="session")
def slow_plant_payload():
    """A stable but slow, barely observed plant with the attack off."""
    model = {"A": [[0.99999]], "C": [[0.001]], "Q": [[0.01]], "R": [[1.0]], "Xi0": [[1.0]]}
    return ef.paper_scenario(
        model=model, sigma=None, solver_dof=1, steps=300, trajectories=2, burn_in=150,
        attack_start=75, attack_mode="off",
    )


@pytest.fixture(scope="session")
def unconverged_payload():
    """System 1978 of _oracles.admitted_systems with the attack off: a stable A
    (spectral radius 0.99969, n = 4, m = 1, R 8.8e-8) whose event-based covariance
    does not finish, its outer steps contracting at about 0.8."""
    matrices, beta = next(itertools.islice(admitted_systems(1979), 1978, None))
    return ef.paper_scenario(
        model={name: value.tolist() for name, value in matrices.items()}, beta=beta,
        sigma=11.34, solver_dof=1, steps=300, trajectories=2, burn_in=150, attack_start=75,
        attack_mode="off",
    )


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
def reproduction():
    """`eventfdi.cli.reproduce_paper()` at the paper's budget, run once per session; the
    golden test hashes `reproduce-paper`'s report of the same runs."""
    return _golden.paper_reproduction()[0]


@pytest.fixture(scope="session")
def nominal_big(reproduction):
    """Nominal run with 2e5 post-burn-in steps."""
    return reproduction.nominal


@pytest.fixture(scope="session")
def attacked_big(reproduction):
    """Two-channel attacked run with 2e5 post-burn-in steps."""
    return reproduction.attacked


@pytest.fixture(scope="session")
def bias_run(reproduction):
    """200 trajectories x 500 post-burn-in steps under the two-channel attack."""
    return reproduction.bias_run


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
