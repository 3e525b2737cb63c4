import dataclasses

import numpy as np
import pytest

from spinbundles.config_space import sample_sphere
from spinbundles.experiments import SuiteConfig, run_suite


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def points(rng):
    """2048 uniform sphere points shared across property tests."""
    return sample_sphere(2048, rng)


@pytest.fixture
def many_points():
    return sample_sphere(10_000, np.random.default_rng(555))


@pytest.fixture(scope="session")
def cached_suite():
    """run_suite for a config, computed once per session and keyed by every config field.

    Tests that share a config share its report; determinism tests call
    run_suite directly so that they compare two fresh runs.
    """
    reports = {}

    def run(**fields):
        config = SuiteConfig(**fields)
        key = dataclasses.astuple(config)
        if key not in reports:
            reports[key] = run_suite(config)
        return reports[key]

    return run
