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


@pytest.fixture
def eight_builds(monkeypatch):
    """An empty figure-eight memo, and the step size of every beta2
    integration, one per figure-eight build, run from here on."""
    import trailer_mpc.paths as paths_mod

    calls = []
    beta2 = paths_mod._eight_beta2

    def counted(params, h, *args):
        calls.append(h)
        return beta2(params, h, *args)

    monkeypatch.setattr(paths_mod, "_eights", {})
    monkeypatch.setattr(paths_mod, "_eight_beta2", counted)
    return calls
