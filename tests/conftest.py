"""Shared fixtures: the default experiment and its calibrated operating point.

Session-scoped because calibration runs the propagator a few dozen times; the
kernel cache makes every later lookup at the same energies free.
"""

from collections import OrderedDict

import pytest

import kerrswitch as ks


@pytest.fixture(scope="session")
def default_cfg():
    return ks.default_config()


@pytest.fixture(scope="session")
def calibrated_energy(default_cfg):
    return ks.calibrate_pi_energy(default_cfg)


@pytest.fixture
def cold_kernel_cache(monkeypatch):
    """An empty kernel cache for one test; the session's cache is back after it."""
    monkeypatch.setattr(ks.switch, "_kernel_cache", OrderedDict())
