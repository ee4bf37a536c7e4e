"""Grids, pulses, energies, and the shared config types."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

import kerrswitch as ks
from kerrswitch.errors import GridTooSmall, NegativeEnergy, ValidationError

WL = 1030e-9


def grid(n=16384, window=40e-12):
    return ks.TimeGrid(n_samples=n, window=window)


class TestTimeGrid:
    def test_spacing(self):
        g = grid()
        assert g.dt == 40e-12 / 16384
        om = g.omega
        assert om[1] - om[0] == pytest.approx(2.0 * math.pi / g.window, rel=1e-15)

    def test_times_centered(self):
        g = grid(n=128, window=1e-12)
        t = g.times
        assert t[64] == 0.0
        assert t[0] == -0.5e-12
        assert np.allclose(np.diff(t), g.dt)

    @pytest.mark.parametrize("n", [32, 63, 100, 12345])
    def test_rejects_bad_sample_counts(self, n):
        with pytest.raises(ValidationError):
            ks.TimeGrid(n_samples=n, window=1e-12)

    def test_rejects_bad_window(self):
        with pytest.raises(ValidationError):
            ks.TimeGrid(n_samples=64, window=0.0)


class TestGaussianPulse:
    def test_zero_energy_is_all_zero(self):
        p = ks.make_gaussian_pulse(grid(), WL, 180e-15, 0.0)
        assert np.all(p.samples == 0.0)
        assert ks.energy(p) == 0.0

    def test_energy_roundtrip(self):
        p = ks.make_gaussian_pulse(grid(), WL, 180e-15, 8e-9)
        assert ks.energy(p) == pytest.approx(8e-9, rel=1e-12)

    def test_symmetric_about_zero_delay(self):
        p = ks.make_gaussian_pulse(grid(), WL, 180e-15, 8e-9)
        mag = np.abs(p.samples)
        assert np.allclose(mag[1:], mag[1:][::-1], rtol=0, atol=1e-14 * mag.max())

    def test_peak_power_matches_closed_form(self):
        fwhm, e = 1e-12, 1e-9
        p = ks.make_gaussian_pulse(grid(), WL, fwhm, e)
        brute = np.abs(p.samples).max() ** 2
        assert brute == pytest.approx(ks.gaussian_peak_power(fwhm, e), rel=1e-9)

    def test_delay_moves_peak(self):
        g = grid()
        p = ks.make_gaussian_pulse(g, WL, 500e-15, 1e-9, delay=3e-12)
        peak_t = g.times[np.argmax(np.abs(p.samples))]
        assert peak_t == pytest.approx(3e-12, abs=g.dt)
        assert ks.energy(p) == pytest.approx(1e-9, rel=1e-12)

    def test_pulse_must_fit_grid(self):
        with pytest.raises(GridTooSmall):
            ks.make_gaussian_pulse(grid(), WL, 10e-12, 1e-9)

    def test_negative_energy_rejected(self):
        with pytest.raises(NegativeEnergy):
            ks.make_gaussian_pulse(grid(), WL, 180e-15, -1e-9)

    def test_energy_additive_for_disjoint_pulses(self):
        g = grid()
        a = ks.make_gaussian_pulse(g, WL, 500e-15, 2e-9, delay=-8e-12)
        b = ks.make_gaussian_pulse(g, WL, 500e-15, 3e-9, delay=8e-12)
        both = ks.PulseEnvelope(grid=g, center_wavelength=WL, samples=a.samples + b.samples)
        assert ks.energy(both) == pytest.approx(ks.energy(a) + ks.energy(b), rel=1e-12)


class TestSuperGaussian:
    def test_flat_top(self):
        p = ks.make_supergaussian_pulse(grid(), WL, 8e-12, 1e-9, order=8)
        intensity = np.abs(p.samples) ** 2
        peak = intensity.max()
        central = intensity[np.abs(grid().times) < 1.5e-12]
        assert central.min() > 0.999999 * peak

    def test_energy(self):
        p = ks.make_supergaussian_pulse(grid(), WL, 8e-12, 2e-9, order=6)
        assert ks.energy(p) == pytest.approx(2e-9, rel=1e-12)


def test_parseval_random_envelopes():
    rng = np.random.default_rng(7)
    g = grid(n=4096, window=20e-12)
    for _ in range(5):
        samples = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        p = ks.PulseEnvelope(grid=g, center_wavelength=WL, samples=samples)
        e_time = ks.energy(p)
        spectrum = np.fft.fft(samples)
        e_freq = np.vdot(spectrum, spectrum).real * g.dt / g.n_samples
        assert e_freq == pytest.approx(e_time, rel=1e-10)


class TestFiberSpec:
    def fiber(self, alpha=0.0):
        return ks.FiberSpec(
            length=0.24, beta2_pump=24e-27, beta3_pump=0.0, beta2_signal=-25e-27,
            walkoff=8.333e-12, n2=2.6e-20, a_eff=4.3e-11, alpha=alpha,
        )

    def test_effective_length_lossless(self):
        assert self.fiber().effective_length() == 0.24

    def test_effective_length_continuous_at_zero_loss(self):
        f = self.fiber(alpha=1e-9)
        assert abs(f.effective_length() - 0.24) < 1e-6 * 0.24

    def test_effective_length_bounded_by_length(self):
        f = self.fiber(alpha=5.0)
        expected = (1.0 - math.exp(-5.0 * 0.24)) / 5.0
        assert f.effective_length() == pytest.approx(expected, rel=1e-12)
        assert f.effective_length() < 0.24

    def test_loss_bounded_at_100_nepers(self):
        assert self.fiber(alpha=400.0).effective_length() > 0.0  # 96 nepers
        for alpha in (420.0, 3050.0, math.inf, math.nan):  # 100.8 nepers and up
            with pytest.raises(ValidationError, match="100 nepers"):
                self.fiber(alpha=alpha)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ks.FiberSpec(length=0.0, beta2_pump=0, beta3_pump=0, beta2_signal=0,
                         walkoff=0, n2=0, a_eff=1e-11)
        with pytest.raises(ValidationError):
            ks.FiberSpec(length=0.1, beta2_pump=0, beta3_pump=0, beta2_signal=0,
                         walkoff=0, n2=-1e-20, a_eff=1e-11)


def test_polarization_geometry_bounds():
    ks.PolarizationGeometry(theta=0.0)
    ks.PolarizationGeometry(theta=math.pi / 2)
    with pytest.raises(ValidationError):
        ks.PolarizationGeometry(theta=-0.1)
    with pytest.raises(ValidationError):
        ks.PolarizationGeometry(theta=2.0)


def test_envelope_validation():
    g = grid(n=64, window=1e-12)
    with pytest.raises(ValidationError):
        ks.PulseEnvelope(grid=g, center_wavelength=WL, samples=np.zeros(32, dtype=complex))
    bad = np.zeros(64, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValidationError):
        ks.PulseEnvelope(grid=g, center_wavelength=WL, samples=bad)


@pytest.mark.parametrize("pulse_energy", [1e-9, 0.0])
def test_pulse_that_underflows_on_the_grid_is_rejected(pulse_energy):
    """A pulse centred 1 s off a 20 ps grid has a shape of zeros there: the
    builder raises its one ValidationError, with no divide-by-zero warning
    first (under ``filterwarnings = error`` the warning was raised instead)."""
    with pytest.raises(ValidationError, match="envelope samples must be finite"):
        ks.make_gaussian_pulse(ks.TimeGrid(1024, 20e-12), 1550e-9, 180e-15, pulse_energy, delay=1.0)


def test_config_is_immutable_and_hashable(default_cfg):
    with pytest.raises(AttributeError):
        default_cfg.rng_seed = 1
    assert hash(default_cfg) == hash(ks.default_config())


@pytest.mark.parametrize("section", ["pump", "signal"])
def test_config_pulses_must_fit_grid(section):
    """The fit rule of the pulse builders holds when the config is built."""
    cfg = ks.default_config()
    quarter = cfg.grid.window / 4.0
    below = dataclasses.replace(getattr(cfg, section), fwhm_duration=math.nextafter(quarter, 0.0))
    dataclasses.replace(cfg, **{section: below})
    at = dataclasses.replace(getattr(cfg, section), fwhm_duration=quarter)
    with pytest.raises(GridTooSmall, match=f"{section}.fwhm_duration"):
        dataclasses.replace(cfg, **{section: at})


def test_config_hash_is_the_field_tuple_hash():
    """Equal configs built apart hash alike, to the hash of their field
    tuple, and a pickled copy is equal and hashes the same."""
    a, b = ks.default_config(), ks.parse_config("{}")
    assert a is not b and a == b
    expected = hash(tuple(getattr(a, f.name) for f in dataclasses.fields(a)))
    assert hash(a) == hash(b) == expected
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == expected
