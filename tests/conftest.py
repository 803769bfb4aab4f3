import warnings

import numpy as np
import pytest
from hypothesis import settings

from bhk.grids import build_sphere_rule, build_tensor_grid
from bhk.shift import ShiftTruncationWarning, build_shift_plan
from bhk.transform import build_fb_plan

GAMMA = (0.5, 1.5)

# the same examples on every run (derandomize also turns off the example database)
settings.register_profile("bhk", derandomize=True, deadline=None)
settings.load_profile("bhk")


def gauss(p):
    return np.exp(-np.sum(p * p, axis=-1))


@pytest.fixture(scope="session")
def grid96():
    return build_tensor_grid(GAMMA, 8.0, 96)


@pytest.fixture(scope="session")
def fb_plan96(grid96):
    return build_fb_plan(grid96)


@pytest.fixture(scope="session")
def shift_plan():
    return build_shift_plan(GAMMA, 48)


@pytest.fixture(scope="session")
def sphere96():
    return build_sphere_rule(GAMMA, 96)


@pytest.fixture(autouse=True)
def _quiet_truncation_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShiftTruncationWarning)
        yield
