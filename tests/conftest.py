import numpy as np
import pytest
from hypothesis import settings

from u3kit.groups import GroupFunction, GroupSpec

# One setting for every property test: derandomized, with no example database.
settings.register_profile("u3kit", max_examples=60, deadline=None, derandomize=True, database=None)
settings.load_profile("u3kit")


def random_bounded(spec: GroupSpec, rng) -> GroupFunction:
    mags = rng.uniform(0, 1, spec.order)
    args = rng.uniform(0, 1, spec.order)
    return GroupFunction(spec, mags * np.exp(2j * np.pi * args))


def random_unimodular(spec: GroupSpec, rng) -> GroupFunction:
    args = rng.uniform(0, 1, spec.order)
    return GroupFunction(spec, np.exp(2j * np.pi * args))


def random_pm1(spec: GroupSpec, rng) -> GroupFunction:
    return GroupFunction(spec, rng.choice([-1.0, 1.0], spec.order) + 0j)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
