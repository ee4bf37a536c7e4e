"""Shared fixtures: the default experiment and its calibrated operating point.

Session-scoped because calibration runs the propagator a few dozen times; the
config's model (`switch._model`) keeps its kernels, so every later lookup at
the same energies is free.
"""

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
    """No model, so no kernel, is cached when the test starts; later tests
    rebuild the models they need."""
    ks.switch._model.cache_clear()
