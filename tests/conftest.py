import numpy as np
import pytest
from hypothesis import settings

from trailer_mpc import VehicleParams
from trailer_mpc.paths import generate_figure_eight, generate_straight

# the same draws on every run, for CI (pytest --hypothesis-profile=ci); a
# failing draw prints the blob that replays it
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(scope="session")
def params():
    return VehicleParams()


@pytest.fixture(scope="session")
def straight_back():
    return generate_straight(120.0, -1.0, 0.2)


@pytest.fixture(scope="session")
def eight_back(params):
    return generate_figure_eight(20.0, -1.0, 0.2, params=params)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
