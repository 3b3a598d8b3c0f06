"""Shared fixtures. Expensive objects are session-scoped and read-only."""

import sys

import numpy as np
import pytest

# anosovlab depends on numpy and PyYAML only: a code path that imports scipy fails here
sys.modules["scipy"] = None

from anosovlab.maps import fixture_catalog


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    """Give every test a stage cache of its own, so each test computes what it checks."""
    monkeypatch.setenv("ANOSOVLAB_CACHE", str(tmp_path_factory.mktemp("cache")))


@pytest.fixture(scope="session")
def linear_map():
    return fixture_catalog("linear_A0", 0.0)


@pytest.fixture(scope="session")
def shear05():
    return fixture_catalog("shear_A0", 0.05)


@pytest.fixture(scope="session")
def shear02():
    return fixture_catalog("shear_A0", 0.02)


@pytest.fixture(scope="session")
def conjugated05():
    return fixture_catalog("conjugated_A0", 0.05)


@pytest.fixture(scope="session")
def product05():
    return fixture_catalog("product_T3", 0.05)


@pytest.fixture(scope="session")
def cubic():
    return fixture_catalog("cubic_companion", 0.0)


@pytest.fixture(scope="session")
def conjugated_psi(conjugated05):
    """Transfer function for the stable log-norm cocycle; ~5s, reused widely."""
    from anosovlab.leafmetric import livschitz_solve, stable_log_norm_observable
    from anosovlab.orbits import enumerate_orbits

    phi = stable_log_norm_observable(conjugated05, 12)
    return livschitz_solve(conjugated05, phi, enumerate_orbits(conjugated05, 3), None, 1e-4, 0).negated()


@pytest.fixture()
def rng():
    return np.random.default_rng(7)
