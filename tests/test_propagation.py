"""Split-step propagator against closed-form oracles: free propagation,
Gaussian dispersion, pure SPM, walk-off advection, and energy conservation."""

import math

import numpy as np
import pytest

import kerrswitch as ks
from kerrswitch.errors import GridMismatch, ValidationError, ZeroEnergy

PUMP_WL = 1030e-9
SIG_WL = 1550e-9


def grid():
    return ks.TimeGrid(n_samples=16384, window=40e-12)


def fiber(**overrides):
    params = dict(
        length=0.24,
        beta2_pump=0.0,
        beta3_pump=0.0,
        beta2_signal=0.0,
        walkoff=0.0,
        n2=0.0,
        a_eff=4.3e-11,
        alpha=0.0,
    )
    params.update(overrides)
    return ks.FiberSpec(**params)


def pulses(pump_energy=1e-9, pump_fwhm=180e-15, sig_fwhm=600e-15):
    g = grid()
    pump = ks.make_gaussian_pulse(g, PUMP_WL, pump_fwhm, pump_energy)
    signal = ks.make_gaussian_pulse(g, SIG_WL, sig_fwhm, 1e-18)
    return pump, signal


def test_free_propagation_is_identity():
    pump, signal = pulses()
    res = ks.propagate(pump, signal, fiber(), delay=0.0, steps=64)
    scale = np.abs(pump.samples).max()
    assert np.abs(res.pump_out.samples - pump.samples).max() < 1e-12 * scale
    assert np.all(res.xpm_phase == 0.0)
    sig_scale = np.abs(signal.samples).max()
    assert np.abs(res.signal_out.samples - signal.samples).max() < 1e-12 * sig_scale


def test_dispersion_only_gaussian_broadening():
    fwhm_in = 200e-15
    t0 = fwhm_in / (2.0 * math.sqrt(math.log(2.0)))
    beta2 = 19e-27
    length = t0**2 / beta2  # one dispersion length
    pump, signal = pulses(pump_fwhm=fwhm_in)
    res = ks.propagate(pump, signal, fiber(length=length, beta2_pump=beta2), steps=64)
    measured = ks.full_width(grid().times, np.abs(res.pump_out.samples) ** 2, 0.5)
    expected = fwhm_in * math.sqrt(2.0)
    assert measured == pytest.approx(expected, rel=1e-3)


def test_dispersion_only_signal_broadening():
    fwhm_in = 300e-15
    t0 = fwhm_in / (2.0 * math.sqrt(math.log(2.0)))
    beta2 = -25e-27
    length = 2.0 * t0**2 / abs(beta2)
    pump, signal = pulses(sig_fwhm=fwhm_in)
    res = ks.propagate(pump, signal, fiber(length=length, beta2_signal=beta2), steps=64)
    measured = ks.full_width(grid().times, np.abs(res.signal_out.samples) ** 2, 0.5)
    expected = fwhm_in * math.sqrt(5.0)
    assert measured == pytest.approx(expected, rel=1e-3)


def test_spm_only_peak_phase_and_intensity():
    f = fiber(n2=2.6e-20)
    gamma = ks.nonlinear_coefficient(f.n2, PUMP_WL, f.a_eff)
    target_phase = 2.0
    p0 = target_phase / (gamma * f.length)
    e = p0 * 180e-15 * math.sqrt(math.pi / (4.0 * math.log(2.0)))
    pump, signal = pulses(pump_energy=e)
    res = ks.propagate(pump, signal, f, steps=128)

    intensity = np.abs(pump.samples) ** 2
    support = intensity > 1e-6 * intensity.max()
    phase = np.angle(res.pump_out.samples[support] * np.conj(pump.samples[support]))
    measured_peak = intensity.max() * gamma * f.length
    assert phase.max() == pytest.approx(measured_peak, rel=1e-3)

    intensity_in = np.abs(pump.samples) ** 2
    intensity_out = np.abs(res.pump_out.samples) ** 2
    assert np.abs(intensity_out - intensity_in).max() < 1e-9 * intensity_in.max()

    wl_in, dens_in = ks.pump_spectrum(pump)
    wl_out, dens_out = ks.pump_spectrum(res.pump_out)
    assert ks.full_width(wl_out, dens_out, 0.5) > ks.full_width(wl_in, dens_in, 0.5)


def test_energy_conservation_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(5):
        f = fiber(
            beta2_pump=float(rng.uniform(-50e-27, 50e-27)),
            beta2_signal=float(rng.uniform(-50e-27, 50e-27)),
            walkoff=float(rng.uniform(-10e-12, 10e-12)),
            n2=float(rng.uniform(0.0, 5e-20)),
        )
        e = float(rng.uniform(0.1e-9, 12e-9))
        pump, signal = pulses(pump_energy=e)
        res = ks.propagate(pump, signal, f, delay=float(rng.uniform(-2e-12, 2e-12)), steps=64)
        assert ks.energy(res.pump_out) == pytest.approx(e, rel=1e-9)
        assert ks.energy(res.signal_out) == pytest.approx(ks.energy(signal), rel=1e-9)
        assert np.all(np.isfinite(res.xpm_phase))


def test_loss_beer_lambert():
    alpha = 0.5 / 0.24
    pump, signal = pulses(pump_energy=4e-9)
    res = ks.propagate(pump, signal, fiber(alpha=alpha, n2=2.6e-20), steps=128)
    expected = 4e-9 * math.exp(-0.5)
    assert ks.energy(res.pump_out) == pytest.approx(expected, rel=1e-9)
    assert ks.energy(res.signal_out) == pytest.approx(ks.energy(signal) * math.exp(-0.5), rel=1e-9)


def test_walkoff_displaces_pump_by_delta_l():
    delta = 8.333e-12
    f = fiber(walkoff=delta)
    pump, signal = pulses()
    # Launch at delta*L/2 so the in-fiber trajectory starts exactly at the
    # input position; the output is then displaced by the full delta*L.
    shift = delta * f.length
    res = ks.propagate(pump, signal, f, delay=shift / 2.0, steps=64)

    sig_scale = np.abs(signal.samples).max()
    assert np.abs(res.signal_out.samples - signal.samples).max() < 1e-12 * sig_scale

    i_in = np.abs(pump.samples) ** 2
    i_out = np.abs(res.pump_out.samples) ** 2
    corr = np.correlate(i_out, i_in, mode="full")
    dt = grid().dt
    lag = (np.argmax(corr) - (i_in.size - 1)) * dt
    assert abs(lag - shift) <= dt


def test_xpm_phase_zero_without_pump():
    g = grid()
    pump = ks.make_gaussian_pulse(g, PUMP_WL, 180e-15, 0.0)
    signal = ks.make_gaussian_pulse(g, SIG_WL, 600e-15, 1e-18)
    res = ks.propagate(pump, signal, fiber(n2=2.6e-20, walkoff=8.3e-12), steps=64)
    assert np.all(res.xpm_phase == 0.0)


def test_flat_pump_limit_matches_closed_form():
    g = grid()
    f = fiber(n2=2.6e-20)
    pump = ks.make_supergaussian_pulse(g, PUMP_WL, 8e-12, 1e-9, order=8)
    signal = ks.make_gaussian_pulse(g, SIG_WL, 600e-15, 1e-18)
    res = ks.propagate(pump, signal, f, steps=64)
    peak_intensity = np.abs(pump.samples).max() ** 2 / f.a_eff
    expected = ks.nonlinear_phase(f.n2, f.effective_length(), peak_intensity, SIG_WL)
    assert res.xpm_phase.max() == pytest.approx(expected, rel=5e-3)


def test_flat_pump_limit_with_loss_uses_effective_length():
    g = grid()
    f = fiber(n2=2.6e-20, alpha=0.8 / 0.24)
    pump = ks.make_supergaussian_pulse(g, PUMP_WL, 8e-12, 1e-9, order=8)
    signal = ks.make_gaussian_pulse(g, SIG_WL, 600e-15, 1e-18)
    res = ks.propagate(pump, signal, f, steps=128)
    peak_intensity = np.abs(pump.samples).max() ** 2 / f.a_eff
    expected = ks.nonlinear_phase(f.n2, f.effective_length(), peak_intensity, SIG_WL)
    assert res.xpm_phase.max() == pytest.approx(expected, rel=5e-3)


def test_per_step_energy_monotone_under_loss():
    pump, signal = pulses(pump_energy=4e-9)
    res = ks.propagate(pump, signal, fiber(alpha=1.0), steps=32)
    assert res.per_step_energy.size == 33
    assert np.all(np.diff(res.per_step_energy) < 0.0)


def test_step_halving_residual_decreases(default_cfg):
    residuals = [
        ks.convergence_residual(default_cfg, 8e-9, 0.0, steps=s) for s in (16, 32, 64, 128)
    ]
    assert all(r1 > r2 for r1, r2 in zip(residuals, residuals[1:]))


def test_grid_mismatch_rejected():
    g1 = ks.TimeGrid(n_samples=4096, window=40e-12)
    g2 = ks.TimeGrid(n_samples=8192, window=40e-12)
    pump = ks.make_gaussian_pulse(g1, PUMP_WL, 180e-15, 1e-9)
    signal = ks.make_gaussian_pulse(g2, SIG_WL, 600e-15, 1e-18)
    with pytest.raises(GridMismatch):
        ks.propagate(pump, signal, fiber(), steps=64)


def test_too_few_steps_rejected():
    pump, signal = pulses()
    with pytest.raises(ValidationError):
        ks.propagate(pump, signal, fiber(), steps=4)


class TestPumpSpectrum:
    def test_time_bandwidth_limited_gaussian(self):
        fwhm_t = 180e-15
        pump = ks.make_gaussian_pulse(grid(), PUMP_WL, fwhm_t, 1e-9)
        wl_nm, dens = ks.pump_spectrum(pump)
        nu = ks.C_LIGHT / (wl_nm * 1e-9)
        order = np.argsort(nu)
        fwhm_nu = ks.full_width(nu[order], dens[order], 0.5)
        expected = 2.0 * math.log(2.0) / math.pi / fwhm_t
        assert fwhm_nu == pytest.approx(expected, rel=1e-2)

    def test_unit_area(self):
        pump = ks.make_gaussian_pulse(grid(), PUMP_WL, 180e-15, 1e-9)
        wl_nm, dens = ks.pump_spectrum(pump)
        assert np.trapezoid(dens, wl_nm) == pytest.approx(1.0, rel=1e-9)

    def test_zero_energy_raises(self):
        pump = ks.make_gaussian_pulse(grid(), PUMP_WL, 180e-15, 0.0)
        with pytest.raises(ZeroEnergy):
            ks.pump_spectrum(pump)

    def test_spm_ladder_fwhm_non_decreasing(self, default_cfg):
        fwhms = []
        for e_nj in (0.0, 2.0, 4.0, 8.0, 12.0):
            wl, dens = ks.pump_output_spectrum(default_cfg, e_nj * 1e-9)
            fwhms.append(ks.full_width(wl, dens, 0.5))
        assert all(a <= b + 1e-12 for a, b in zip(fwhms, fwhms[1:]))


class TestShiftedAccumulate:
    """The kernel's walk-off resample against np.interp on the sample index.

    Shifts are dyadic fractions, so index - shift is exact and both sides
    blend with the same weights; only the final roundings differ.
    """

    N = 64

    @pytest.mark.parametrize(
        "shift",
        [0.25, -2.75, 10.5, 0.0078125, 3.0, -7.0, 0.0, 62.5, -63.25, 63.0, -63.0,
         64.0, -64.0, 64.5, -64.5, 1000.25, -1000.0],
    )
    def test_equals_interp_zero_filled(self, shift):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.5, 2.0, self.N)  # nonzero up to both edges
        index = np.arange(self.N, dtype=float)
        expected = np.interp(index - shift, index, values, left=0.0, right=0.0)
        acc = np.zeros(self.N)
        ks.propagation._add_shifted(acc, values, shift, np.empty(self.N))
        assert np.abs(acc - expected).max() <= 1e-15 * np.abs(values).max()

    def test_accumulates(self):
        values = np.linspace(1.0, 2.0, self.N)
        acc = np.full(self.N, 5.0)
        ks.propagation._add_shifted(acc, values, 0.5, np.empty(self.N))
        index = np.arange(self.N, dtype=float)
        expected = 5.0 + np.interp(index - 0.5, index, values, left=0.0, right=0.0)
        assert np.abs(acc - expected).max() <= 1e-15 * 7.0


def reference_xpm_kernel(pump, f, steps, signal_wavelength):
    """Plain symmetric SSFM: two half-dispersion FFT pairs per slice and an
    np.interp walk-off resample, as compute_xpm_kernel was first written."""
    g = pump.grid
    t = g.times
    dz = f.length / steps
    gamma_pump = ks.nonlinear_coefficient(f.n2, pump.center_wavelength, f.a_eff)
    xpm_coef = ks.propagation.XPM_DIFFERENTIAL_FACTOR * ks.nonlinear_coefficient(
        f.n2, signal_wavelength, f.a_eff
    )
    w = g.omega
    half = np.exp(
        (0.5j * f.beta2_pump * w**2 - 1j * f.beta3_pump * w**3 / 6.0 - 0.5 * f.alpha) * 0.5 * dz
    )
    a = pump.samples.copy()
    phase = np.zeros(g.n_samples)
    step_energy = np.empty(steps + 1)
    step_energy[0] = np.vdot(a, a).real * g.dt
    for k in range(steps):
        a = np.fft.ifft(np.fft.fft(a) * half)
        intensity = np.abs(a) ** 2
        a *= np.exp(1j * gamma_pump * dz * intensity)
        shift = f.walkoff * ((k + 0.5) * dz - 0.5 * f.length)
        phase += np.interp(t - shift, t, intensity, left=0.0, right=0.0)
        a = np.fft.ifft(np.fft.fft(a) * half)
        step_energy[k + 1] = np.vdot(a, a).real * g.dt
    return phase * xpm_coef * dz, a, step_energy


@pytest.mark.parametrize("walkoff", [8.333e-12, -5.1e-12])
def test_kernel_matches_reference_ssfm(walkoff):
    g = ks.TimeGrid(n_samples=1024, window=20e-12)
    f = fiber(
        beta2_pump=24e-27,
        beta3_pump=2e-40,
        walkoff=walkoff,
        n2=2.6e-20,
        alpha=0.5 / 0.24,
    )
    pump = ks.make_gaussian_pulse(g, PUMP_WL, 180e-15, 8e-9)
    steps = 32
    kernel = ks.compute_xpm_kernel(pump, f, steps, SIG_WL)
    phase, final, step_energy = reference_xpm_kernel(pump, f, steps, SIG_WL)

    assert phase.max() > 1.0
    assert np.array_equal(kernel.offsets, g.times)
    assert np.abs(kernel.phase_vs_offset - phase).max() <= 1e-12 * np.abs(phase).max()
    assert np.abs(kernel.pump_final.samples - final).max() <= 1e-12 * np.abs(final).max()
    assert kernel.per_step_energy.shape == (steps + 1,)
    assert np.abs(kernel.per_step_energy - step_energy).max() <= 1e-12 * step_energy.max()


def test_kernels_share_one_read_only_time_axis():
    pump, _ = pulses()
    f = fiber(n2=2.6e-20)
    k1 = ks.compute_xpm_kernel(pump, f, 16, SIG_WL)
    k2 = ks.compute_xpm_kernel(pump, f, 32, SIG_WL)
    assert k1.offsets is k2.offsets
    assert not k1.offsets.flags.writeable
