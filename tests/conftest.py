import random

import pytest
from hypothesis import settings

from skewlin import parse_matrix

# Tier-1 draws the same examples on every run and sets no per-example
# wall-clock deadline, which a loaded machine can miss with correct code.
# `pytest --hypothesis-profile=explore` draws fresh random examples instead.
settings.register_profile("default", deadline=None, derandomize=True)
settings.register_profile("explore", deadline=None, derandomize=False)
settings.load_profile("default")

# The 2x2 quaternion matrix built from the singular family with parameters
# b = 1+k, c = j, d = k; the reference example throughout the test suite.
EXAMPLE_TEXT = "[k, -i; -1+k, -i-j]"


@pytest.fixture
def rng():
    return random.Random(20240331)


@pytest.fixture
def example_matrix():
    return parse_matrix(EXAMPLE_TEXT)
