"""Time-of-flight spectrometer: linear mapping, mass conservation, jitter
convolution, and switch transparency."""

import math

import numpy as np
import pytest

import kerrswitch as ks
from kerrswitch.errors import DegenerateBins, ValidationError

D = 1033e-12 / 1e-9  # 1033 ps/nm in s/m
LAM0 = 1550e-9


def spec(jitter=0.0, dispersion=D):
    return ks.TofSpec(dispersion=dispersion, reference_wavelength=LAM0, jitter_fwhm=jitter)


class TestArrivalTime:
    def test_reference_wavelength_maps_to_zero(self):
        assert ks.arrival_time(spec(), LAM0) == 0.0

    def test_one_nanometer_offset(self):
        t = ks.arrival_time(spec(), LAM0 + 1e-9)
        assert t == pytest.approx(1033e-12, rel=1e-12)

    def test_linearity(self):
        t_half = ks.arrival_time(spec(), LAM0 + 0.5e-9)
        assert t_half == pytest.approx(516.5e-12, rel=1e-12)
        t_neg = ks.arrival_time(spec(), LAM0 - 2e-9)
        assert t_neg == pytest.approx(-2066e-12, rel=1e-12)

    def test_ordering_preserved_or_reversed(self):
        up = [ks.arrival_time(spec(), LAM0 + dl) for dl in (0.0, 1e-9, 2e-9)]
        assert up == sorted(up)
        down = [ks.arrival_time(spec(dispersion=-D), LAM0 + dl) for dl in (0.0, 1e-9, 2e-9)]
        assert down == sorted(down, reverse=True)


def gaussian_spectrum(center_offset_m, sigma_m, n=4001, half_span=6.0):
    lam = LAM0 + center_offset_m + np.linspace(-half_span, half_span, n) * sigma_m
    dens = np.exp(-0.5 * ((lam - LAM0 - center_offset_m) / sigma_m) ** 2)
    dens /= np.trapezoid(dens, lam)
    return lam, dens


class TestSpectrumToHistogram:
    def test_narrow_line_peaks_at_mapped_time(self):
        lam, dens = gaussian_spectrum(1e-9, 0.005e-9)
        centers, hist = ks.spectrum_to_histogram(spec(), lam, dens, bin_width=10e-12)
        peak_time = centers[np.argmax(hist)]
        assert abs(peak_time - 1033e-12) <= 10e-12

    def test_mass_conserved(self):
        lam, dens = gaussian_spectrum(0.0, 1e-9)
        centers, hist = ks.spectrum_to_histogram(spec(jitter=30e-12), lam, dens, bin_width=5e-12)
        area = hist.sum() * (centers[1] - centers[0])
        assert area == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_width_with_jitter_in_quadrature(self):
        sigma_lam = 1e-9
        jitter_fwhm = 100e-12
        lam, dens = gaussian_spectrum(0.0, sigma_lam)
        centers, hist = ks.spectrum_to_histogram(spec(jitter=jitter_fwhm), lam, dens, bin_width=5e-12)
        mean = np.sum(centers * hist) / hist.sum()
        sigma_t = math.sqrt(np.sum((centers - mean) ** 2 * hist) / hist.sum())
        sigma_j = jitter_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        expected = math.sqrt((D * sigma_lam) ** 2 + sigma_j**2)
        assert sigma_t == pytest.approx(expected, rel=1e-2)

    def test_negative_dispersion_reverses_histogram(self):
        lam, dens = gaussian_spectrum(1e-9, 0.3e-9)
        c_pos, h_pos = ks.spectrum_to_histogram(spec(), lam, dens, bin_width=5e-12)
        c_neg, h_neg = ks.spectrum_to_histogram(spec(dispersion=-D), lam, dens, bin_width=5e-12)
        assert c_pos[np.argmax(h_pos)] == pytest.approx(1033e-12, abs=6e-12)
        assert c_neg[np.argmax(h_neg)] == pytest.approx(-1033e-12, abs=6e-12)

    def test_jitter_kernel_longer_than_the_bin_range(self):
        # A 2000 ps jitter kernel spans more 2 ps bins than the 0.2 nm
        # spectrum and its padding; the range widens to fit it, centred.
        lam = np.linspace(LAM0 - 0.1e-9, LAM0 + 0.1e-9, 201)
        dens = np.exp(-0.5 * ((lam - LAM0) / 0.02e-9) ** 2)
        centers, hist = ks.spectrum_to_histogram(spec(jitter=2000e-12), lam, dens, bin_width=2e-12)
        assert hist.size == centers.size
        assert hist[: centers.size].sum() * 2e-12 == pytest.approx(1.0, abs=1e-9)
        assert abs(centers[np.argmax(hist)]) <= 2e-12

    def test_degenerate_bins_rejected(self):
        lam, dens = gaussian_spectrum(0.0, 0.2e-9)
        with pytest.raises(DegenerateBins):
            ks.spectrum_to_histogram(spec(), lam, dens, bin_width=5e-9)

    def test_input_validation(self):
        lam, dens = gaussian_spectrum(0.0, 0.2e-9)
        with pytest.raises(ValidationError):
            ks.spectrum_to_histogram(spec(), lam, dens, bin_width=0.0)
        with pytest.raises(ValidationError):
            ks.spectrum_to_histogram(spec(), lam[::-1], dens, bin_width=5e-12)


def test_histogram_csv_round_trip():
    lam, dens = gaussian_spectrum(0.0, 0.5e-9)
    centers, hist = ks.spectrum_to_histogram(spec(), lam, dens, bin_width=20e-12)
    text = ks.histogram_csv(centers, hist)
    lines = text.splitlines()
    assert lines[0] == "time_ps,density"
    assert len(lines) == centers.size + 1
    assert text.endswith("\n")
    t0, d0 = lines[1].split(",")
    assert float(t0) == pytest.approx(centers[0] / 1e-12, rel=1e-10)
    assert float(d0) == pytest.approx(hist[0] * 1e-12, rel=1e-10)


def test_switch_transparency(default_cfg):
    """Pump on versus pump off leaves the signal arrival-time histogram alone."""
    grid = default_cfg.grid
    fiber = default_cfg.fiber
    signal = ks.make_gaussian_pulse(
        grid, default_cfg.signal.center_wavelength, default_cfg.signal.fwhm_duration, 1e-18
    )
    histograms = {}
    for label, e in (("on", default_cfg.pump.energy), ("off", 0.0)):
        pump = ks.make_gaussian_pulse(
            grid, default_cfg.pump.center_wavelength, default_cfg.pump.fwhm_duration, e
        )
        res = ks.propagate(pump, signal, fiber, 0.0, default_cfg.solver.steps)
        wl_nm, dens = ks.clip_spectrum_support(*ks.pump_spectrum(res.signal_out))
        tof = ks.TofSpec(
            dispersion=default_cfg.tof.dispersion,
            reference_wavelength=default_cfg.tof.reference_wavelength,
            jitter_fwhm=default_cfg.tof.jitter_fwhm,
        )
        span = abs(tof.dispersion) * (wl_nm[-1] - wl_nm[0]) * 1e-9
        centers, hist = ks.spectrum_to_histogram(
            tof, wl_nm * 1e-9, dens * 1e9, bin_width=span / 1024.0
        )
        histograms[label] = (centers, hist)
    c_on, h_on = histograms["on"]
    c_off, h_off = histograms["off"]
    assert np.array_equal(c_on, c_off)
    tv = 0.5 * np.abs(h_on - h_off).sum() * (c_on[1] - c_on[0])
    assert tv < 1e-3
