"""Split-step propagator against closed-form oracles: free propagation,
Gaussian dispersion, pure SPM, walk-off advection, and energy conservation."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

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


@pytest.mark.parametrize("steps", [8, 64])
@pytest.mark.parametrize("angle", [1e-12, 1e-3, 1.0, math.pi, 3.5 * math.pi])
def test_spm_only_equals_closed_form(steps, angle):
    """With no dispersion, loss or walk-off the pump leaves as its launch
    field a times exp(i*gamma*L*|a|^2). `angle` is one slice's peak Kerr
    rotation gamma*L*max|a|^2/steps; past pi the half-angle tangent the
    rotation is built from passes its poles inside the pulse. The phase is
    checked where the intensity is at least 1e-6 of its peak, the intensity
    against the peak. The errors measured 1.1e-11 rad and 4.8e-14 at most
    (64 steps, 3.5*pi), the same as with a rotation from sin and cos: each
    slice's transform pair moves |a|^2, so the phase error grows with the
    steps and the angle."""
    pump, _ = pulses()
    intensity = np.abs(pump.samples) ** 2
    peak = intensity.max()
    base = fiber()
    f = fiber(n2=angle * steps * PUMP_WL * base.a_eff / (2.0 * math.pi * base.length * peak))
    out = ks.compute_xpm_kernel(pump, f, steps, SIG_WL).pump_final.samples
    gamma = ks.nonlinear_coefficient(f.n2, PUMP_WL, f.a_eff)
    expected = pump.samples * np.exp(1j * gamma * f.length * intensity)
    support = intensity >= 1e-6 * peak
    assert np.abs(np.angle(out[support] / expected[support])).max() <= 2e-11
    assert np.abs(np.abs(out) ** 2 - intensity).max() <= 1e-13 * peak


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


def test_step_halving_residual_decreases():
    residuals = [
        ks.convergence_residual(ks.parse_config(json.dumps({"solver": {"steps": s}})), 8e-9, 0.0)
        for s in (16, 32, 64, 128)
    ]
    assert all(r1 > r2 for r1, r2 in zip(residuals, residuals[1:]))


def test_grid_mismatch_rejected():
    g1 = ks.TimeGrid(n_samples=4096, window=40e-12)
    g2 = ks.TimeGrid(n_samples=8192, window=40e-12)
    pump = ks.make_gaussian_pulse(g1, PUMP_WL, 180e-15, 1e-9)
    signal = ks.make_gaussian_pulse(g2, SIG_WL, 600e-15, 1e-18)
    with pytest.raises(GridMismatch):
        ks.propagate(pump, signal, fiber(), steps=64)


def test_steps_is_required():
    pump, signal = pulses()
    with pytest.raises(TypeError):
        ks.propagate(pump, signal, fiber(), delay=0.0)


def test_too_few_steps_rejected():
    pump, signal = pulses()
    with pytest.raises(ValidationError):
        ks.propagate(pump, signal, fiber(), steps=4)


@pytest.mark.parametrize("delay", [math.inf, -math.inf, math.nan, 1e300])
def test_delay_without_a_finite_sample_offset_rejected(delay):
    """`pump_out`'s whole-sample roll needs a finite offset in samples; these
    delays, 1e300 s included (it overflows to inf over dt), raise
    ValidationError, not the OverflowError or ValueError of rounding it.
    Their sampled phase is still zero."""
    g = ks.TimeGrid(n_samples=1024, window=40e-12)
    pump = ks.make_gaussian_pulse(g, PUMP_WL, 180e-15, 1e-9)
    signal = ks.make_gaussian_pulse(g, SIG_WL, 600e-15, 1e-18)
    f = fiber(n2=2.6e-20, walkoff=1e-12)
    with pytest.raises(ValidationError):
        ks.propagate(pump, signal, f, delay, 16)
    kernel = ks.compute_xpm_kernel(pump, f, 16, SIG_WL)
    assert kernel.phase_vs_offset.max() > 0.0
    assert np.all(ks.propagation.sample_xpm_phase(kernel, g, delay) == 0.0)


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

    @pytest.mark.parametrize("n,window", [(1024, 1e-12), (4096, 20e-12), (16384, 40e-12)])
    @pytest.mark.parametrize("wavelength", [800e-9, PUMP_WL, SIG_WL])
    def test_axis_is_the_sorted_axis(self, n, window, wavelength):
        """The wavelengths of the positive absolute frequencies come out
        increasing, and sorting them is reversing them. The 1 ps grid's band
        reaches past zero frequency, so some of its samples are dropped."""
        g = ks.TimeGrid(n_samples=n, window=window)
        wl_nm, _ = ks.pump_spectrum(ks.make_gaussian_pulse(g, wavelength, window / 16, 1e-9))
        omega = 2.0 * math.pi * ks.C_LIGHT / wavelength + np.fft.fftshift(g.omega)
        raw = 2.0 * math.pi * ks.C_LIGHT / omega[omega > 0.0]
        assert np.all(np.diff(wl_nm) > 0.0)
        assert np.array_equal(np.argsort(raw), np.arange(raw.size)[::-1])
        assert np.array_equal(wl_nm, raw[np.argsort(raw)] * 1e9)

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

    @pytest.mark.parametrize("offset", [0, 5, 64, 130])
    @pytest.mark.parametrize("shift", [0.25, -2.75, 3.0, -7.0, 70.5, -70.5, 200.0])
    def test_offset_into_a_longer_accumulator(self, offset, shift):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.5, 2.0, self.N)
        out_index = np.arange(4 * self.N, dtype=float)
        expected = np.interp(
            out_index - offset - shift, np.arange(self.N, dtype=float), values, left=0.0, right=0.0
        )
        acc = np.zeros(4 * self.N)
        ks.propagation._add_shifted(acc, values, shift, np.empty(self.N), offset)
        assert np.abs(acc - expected).max() <= 1e-15 * np.abs(values).max()

    def test_accumulates(self):
        values = np.linspace(1.0, 2.0, self.N)
        acc = np.full(self.N, 5.0)
        ks.propagation._add_shifted(acc, values, 0.5, np.empty(self.N))
        index = np.arange(self.N, dtype=float)
        expected = 5.0 + np.interp(index - 0.5, index, values, left=0.0, right=0.0)
        assert np.abs(acc - expected).max() <= 1e-15 * 7.0

    @pytest.mark.parametrize("offset", [0, 64])
    @pytest.mark.parametrize("shift", [0.25, -2.75, 3.0, 70.5, -200.0])
    def test_rows_equal_one_call_per_row(self, offset, shift):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.5, 2.0, (3, self.N))
        start = rng.uniform(0.0, 1.0, (3, 4 * self.N))
        acc = start.copy()
        ks.propagation._add_shifted(acc, values, shift, np.empty(values.shape), offset)
        for row, base, got in zip(values, start, acc):
            expected = base.copy()
            ks.propagation._add_shifted(expected, row, shift, np.empty(self.N), offset)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("rows", [slice(1, 3), np.array([0, 2]), np.array([3])])
    @pytest.mark.parametrize("shift", [0.25, 3.0, -200.0])
    def test_rows_pick_rows_of_the_accumulator(self, rows, shift):
        """Picked rows, by slice or by index, get what a call on each alone
        gives; the other rows are untouched."""
        rng = np.random.default_rng(11)
        start = rng.uniform(0.0, 1.0, (4, 4 * self.N))
        picked = np.arange(4)[rows]
        values = rng.uniform(0.5, 2.0, (picked.size, self.N))
        acc = start.copy()
        ks.propagation._add_shifted(acc, values, shift, np.empty(values.shape), 64, rows)
        expected = start.copy()
        for r, row in zip(picked, values):
            ks.propagation._add_shifted(expected[r], row, shift, np.empty(self.N), 64)
        assert np.array_equal(acc, expected)

    @pytest.mark.parametrize("shift", [0.25, -2.75, 0.0078125, 70.5, 3.0, -7.0, -70.0])
    def test_bits_do_not_depend_on_the_scratch_layout(self, shift):
        """Stacked rows give the same bits with `work` as the first m float64
        columns of a complex buffer, whose rows are strided, as with a fresh
        contiguous buffer."""
        rng = np.random.default_rng(13)
        values = rng.uniform(0.5, 2.0, (3, self.N))
        start = rng.uniform(0.0, 1.0, (4, 4 * self.N))
        rows = np.array([0, 1, 3])
        strided = np.full(values.shape, np.nan + 1j, dtype=np.complex128)
        strided = strided.view(np.float64)[:, : self.N]
        assert not strided.flags.c_contiguous
        got, expected = start.copy(), start.copy()
        ks.propagation._add_shifted(got, values, shift, strided, 64, rows)
        ks.propagation._add_shifted(expected, values, shift, np.empty(values.shape), 64, rows)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("offset", [0, 5, 64, 130])
    @pytest.mark.parametrize(
        "edge",
        ["-inf", "inf", "nan", "low", "low+ulp", "low+1", "high", "high-ulp", "high-1"],
    )
    def test_reach_limits(self, offset, edge):
        """Shifts at the reach limits -m - offset and n - offset, one ulp and
        one sample inside each, and NaN and infinite shifts. Where nothing
        lands the accumulator is untouched; elsewhere np.interp's zero fill
        holds."""
        m, n = self.N, 4 * self.N
        low, high = float(-m - offset), float(n - offset)
        shift = {
            "-inf": -math.inf, "inf": math.inf, "nan": math.nan,
            "low": low, "low+ulp": math.nextafter(low, math.inf), "low+1": low + 1.0,
            "high": high, "high-ulp": math.nextafter(high, -math.inf), "high-1": high - 1.0,
        }[edge]
        rng = np.random.default_rng(12)
        values = rng.uniform(0.5, 2.0, m)
        start = rng.uniform(0.0, 1.0, n)
        expected = np.zeros(n)
        if math.isfinite(shift):
            expected = np.interp(
                np.arange(n) - offset - shift, np.arange(m, dtype=float), values,
                left=0.0, right=0.0,
            )
        lands = edge.endswith("1")  # one sample inside a limit lands one sample
        assert np.count_nonzero(expected) == lands
        acc = np.zeros(n) if lands else start.copy()
        ks.propagation._add_shifted(acc, values, shift, np.empty(m), offset)
        if lands:
            assert np.abs(acc - expected).max() <= 1e-15 * np.abs(values).max()
        else:
            assert np.array_equal(acc, start)


class TestDelayedPhase:
    """The delayed kernel phase, sampled by `_add_shifted` for
    `sample_xpm_phase` and for `switch._etas`' blocks, against np.interp on
    the span.

    The grid has dt = 1 s and the delays are dyadic fractions, so t - tau is
    exact and both sides blend with the same weights; only the final
    roundings differ.
    """

    GRID = ks.TimeGrid(n_samples=64, window=64.0)

    def kernel(self, lo, hi):
        """A kernel on grid samples lo..hi - 1, nonzero up to both span ends."""
        rng = np.random.default_rng(lo * 100 + hi)
        return ks.XpmKernel(
            first=lo,
            phase_vs_offset=rng.uniform(0.5, 2.0, hi - lo),
            pump_window=np.zeros(64, dtype=np.complex128),
            grid=self.GRID,
            pump_wavelength=PUMP_WL,
            per_step_energy=np.zeros(9),
        )

    SHIFTS = [0.0, 0.25, -2.75, 10.5, 0.0078125, 3.0, -7.0, 31.5, -31.75, 63.0, -63.0,
              64.0, -64.0, 64.5, -64.5, 1000.25, -1000.0, 1e9 + 0.5]

    @pytest.mark.parametrize("span", [(0, 64), (0, 20), (40, 64), (10, 30)])
    @pytest.mark.parametrize("delay", SHIFTS)
    def test_sample_equals_interp_zero_filled(self, span, delay):
        kernel = self.kernel(*span)
        t = self.GRID.times
        expected = np.interp(t - delay, kernel.offsets, kernel.phase_vs_offset, left=0.0, right=0.0)
        got = ks.propagation.sample_xpm_phase(kernel, self.GRID, delay)
        assert np.abs(got - expected).max() <= 1e-15 * 2.0
        assert np.array_equal(got == 0.0, expected == 0.0)
        if delay == 0.0:
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("span", [(0, 64), (10, 30), (0, 20), (40, 64)])
    def test_block_rows_equal_the_grid_samples(self, span):
        """A row of `_etas`' block, `_add_shifted` into `size` zeroed samples
        from grid index `first` at offset ``kernel.first - first``, is the
        whole-grid sample there at each delay, bit for bit. Two spans start
        at index 0 and two end at n - 1."""
        kernel = self.kernel(*span)
        values = kernel.phase_vs_offset
        first, size = 17, 25
        for tau in self.SHIFTS:
            row = np.zeros(size)
            ks.propagation._add_shifted(
                row, values, tau / self.GRID.dt, np.empty(values.size), kernel.first - first
            )
            whole = ks.propagation.sample_xpm_phase(kernel, self.GRID, tau)
            assert np.array_equal(row, whole[first : first + size])

    def test_other_grid_rejected(self):
        with pytest.raises(GridMismatch):
            ks.propagation.sample_xpm_phase(
                self.kernel(0, 64), ks.TimeGrid(n_samples=128, window=64.0), 0.0
            )


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


def test_kernel_reads_its_span_steps_and_window_off_its_arrays():
    """A kernel stores its span's first grid index; its offsets are the
    grid's times there, bit for bit, its step count is that of its step
    energies, and its window size is that of its output pump."""
    pump, _ = pulses()
    f = fiber(n2=2.6e-20)
    for steps in (16, 32):
        kernel = ks.compute_xpm_kernel(pump, f, steps, SIG_WL)
        size = kernel.phase_vs_offset.size
        assert 0 < kernel.first and kernel.first + size < pump.grid.n_samples
        assert kernel.offsets.tobytes() == pump.grid.times[kernel.first : kernel.first + size].tobytes()
        assert kernel.steps == steps
        assert kernel.window_samples == kernel.pump_window.size < pump.grid.n_samples


def _kernel_vs_reference(pump, f, steps):
    """Relative phase error of compute_xpm_kernel, placed on the grid,
    against the full-grid reference loop, and the kernel."""
    kernel = ks.compute_xpm_kernel(pump, f, steps, SIG_WL)
    phase, _, _ = reference_xpm_kernel(pump, f, steps, SIG_WL)
    assert phase.max() > 0.1
    on_grid = ks.propagation.sample_xpm_phase(kernel, pump.grid, 0.0)
    return np.abs(on_grid - phase).max() / np.abs(phase).max(), kernel


@pytest.mark.parametrize("delay", [15e-12, -15e-12])
def test_off_centre_pump_matches_reference(delay):
    """A pump far from the grid centre lies outside every centred sub-window,
    so the launch guard must send it to the full grid."""
    f = fiber(beta2_pump=24e-27, walkoff=8.333e-12, n2=2.6e-20, alpha=0.5 / 0.24)
    pump = ks.make_gaussian_pulse(grid(), PUMP_WL, 180e-15, 8e-9, delay=delay)
    err, kernel = _kernel_vs_reference(pump, f, 32)
    assert err <= 1e-12
    assert kernel.window_samples == grid().n_samples


@pytest.mark.parametrize("walkoff", [30e-12, -30e-12])
def test_walkoff_past_the_sub_window_is_kept(walkoff):
    """Walk-off carries the phase beyond the span the pump is propagated on;
    the phase lands on the full grid, so none of it is cut."""
    f = fiber(beta2_pump=24e-27, walkoff=walkoff, n2=2.6e-20)
    pump, _ = pulses(pump_energy=4e-9)
    err, kernel = _kernel_vs_reference(pump, f, 32)
    assert err <= 1e-12
    half_span = 0.5 * kernel.window_samples * grid().dt
    assert 0.5 * abs(walkoff) * f.length > half_span
    outside = np.abs(grid().times) > half_span
    on_grid = ks.propagation.sample_xpm_phase(kernel, grid(), 0.0)
    assert on_grid[outside].sum() > 0.1 * on_grid.sum()


def _reference_row(cfg, pump):
    """Default-config efficiency over the sweep delays from the full-grid
    reference loop."""
    signal = ks.make_gaussian_pulse(cfg.grid, cfg.signal.center_wavelength,
                                    cfg.signal.fwhm_duration, 1e-18)
    weights = np.abs(ks.propagation.propagate_signal_linear(signal, cfg.fiber).samples) ** 2
    t = cfg.grid.times
    phase, _, _ = reference_xpm_kernel(pump, cfg.fiber, cfg.solver.steps,
                                       cfg.signal.center_wavelength)
    return np.array([
        ks.efficiency_from_phase(
            weights, np.interp(t - tau, t, phase, left=0.0, right=0.0), cfg.geometry.theta
        )
        for tau in cfg.sweep.delays
    ])


@pytest.fixture(scope="module")
def default_rows():
    """Default-config efficiency rows from compute_xpm_kernel and from the
    full-grid reference loop at 4, 7.8 and 14 nJ."""
    cfg = ks.default_config()
    delays = np.asarray(cfg.sweep.delays)
    rows = {}
    for e in (4e-9, 7.8e-9, 14e-9):
        pump = ks.make_gaussian_pulse(cfg.grid, cfg.pump.center_wavelength,
                                      cfg.pump.fwhm_duration, e)
        kernel = ks.compute_xpm_kernel(pump, cfg.fiber, cfg.solver.steps,
                                       cfg.signal.center_wavelength)
        rows[e] = (ks.efficiency_vs_delay(cfg, e, delays), _reference_row(cfg, pump), kernel)
    return rows


@pytest.mark.parametrize("energy", [4e-9, 7.8e-9, 14e-9])
def test_default_rows_match_reference(default_rows, energy):
    got, reference, _ = default_rows[energy]
    assert reference.max() > 0.1
    assert np.abs(got - reference).max() <= 1e-12


@pytest.mark.parametrize("energy", [4e-9, 7.8e-9, 14e-9])
def test_default_kernels_use_a_sub_window(default_rows, energy):
    kernel = default_rows[energy][2]
    assert kernel.window_samples < ks.default_config().grid.n_samples
    assert kernel.pump_final.samples.shape == (ks.default_config().grid.n_samples,)


@pytest.fixture
def runs(monkeypatch):
    """The launch windows of each `_split_step` call, one list per call."""
    calls = []
    split_step = ks.propagation._split_step

    def counting(launch, *args):
        calls.append([a.size for a in launch])
        return split_step(launch, *args)

    monkeypatch.setattr(ks.propagation, "_split_step", counting)
    return calls


def _default_kernel(energy):
    cfg = ks.default_config()
    pump = ks.make_gaussian_pulse(cfg.grid, cfg.pump.center_wavelength,
                                  cfg.pump.fwhm_duration, energy)
    kernel = ks.compute_xpm_kernel(pump, cfg.fiber, cfg.solver.steps,
                                   cfg.signal.center_wavelength)
    return pump, kernel


def _growth_pass(energy):
    """The pass at which a default pump of `energy` first grows its window
    at the default steps, or infinity if it never does. A one-row batch makes
    one `_add_shifted` call per nonlinear step, so pass k has made k calls
    when its guard takes the row out of its window."""
    cfg = ks.default_config()
    added, grew = [], []
    add_shifted, take = ks.propagation._add_shifted, ks.propagation._Window.take

    def counting_add(*args):
        added.append(None)
        return add_shifted(*args)

    def recording_take(window, leave):
        grew.append(len(added))
        return take(window, leave)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ks.propagation, "_add_shifted", counting_add)
        mp.setattr(ks.propagation._Window, "take", recording_take)
        ks.compute_xpm_kernel(_batch_pumps([energy])[0], cfg.fiber, cfg.solver.steps,
                              cfg.signal.center_wavelength)
    return grew[0] if grew else math.inf


def _bisect(turns, lo, hi, tol=1e-13):
    """The energy between `lo` and `hi` where `turns(energy)` goes from
    false to true, to within `tol`."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if turns(mid) else (mid, hi)
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def late_growth_energy():
    """The middle of the band of default pump energies that, with growth
    held to the end guard's bound, launch on 768 samples, pass every slice
    midpoint and grow only after the last slice. The band is found, not
    pinned: it is about 0.015 nJ wide near 1.86 nJ, and a split-step change
    that moves a window's edge mass moves it."""
    steps = ks.default_config().solver.steps
    bound = ks.propagation.WINDOW_MASS_BOUND
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ks.propagation, "GROWTH_MASS_BOUND", bound)
        first = _bisect(lambda e: _growth_pass(e) <= steps, 1e-9, 3e-9)
        early = _bisect(lambda e: _growth_pass(e) < steps, 1e-9, 3e-9)
        energy = 0.5 * (first + early)
        window = ks.propagation._launch_window(np.abs(_batch_pumps([energy])[0].samples) ** 2)
        found = window.stop - window.start, _growth_pass(energy)
    assert found == (768, steps), (
        f"a {energy:.6g} J pump launches on {found[0]} samples and first grows at pass "
        f"{found[1]}; the late-growth pump must launch on 768 samples, pass every slice "
        f"midpoint and grow only at the end guard (pass {steps})"
    )
    return energy


@pytest.fixture
def late_growth(monkeypatch, late_growth_energy):
    """Hold growth off until the end guard's own bound. No default pump
    grows after the last slice, because growth starts at a mass far below
    the end guard's; with this bound the `late_growth_energy` pump stays
    under it at every slice midpoint on 768 samples and ends over it."""
    monkeypatch.setattr(ks.propagation, "GROWTH_MASS_BOUND", ks.propagation.WINDOW_MASS_BOUND)
    return _batch_pumps([late_growth_energy])[0]


def test_end_guard_grows_in_place(runs, late_growth):
    """A pump that passes the outer-1/16 guard at every slice midpoint but
    fails it after the last slice grows in place, in the same call."""
    pump = late_growth
    cfg = ks.default_config()
    kernel = ks.compute_xpm_kernel(pump, cfg.fiber, cfg.solver.steps,
                                   cfg.signal.center_wavelength)
    assert runs == [[768]]
    m = kernel.window_samples
    assert m == 1024
    got = ks.switch._etas(ks.switch._model(cfg), [kernel], cfg.sweep.delays)[0]
    reference = _reference_row(cfg, pump)
    assert reference.max() > 0.1
    assert np.abs(got - reference).max() <= 1e-12
    assert cfg.fiber.alpha == 0.0
    energy = kernel.per_step_energy
    assert np.abs(energy / energy[0] - 1.0).max() <= 1e-13
    lo = (cfg.grid.n_samples - m) // 2
    out = np.abs(kernel.pump_final.samples[lo : lo + m]) ** 2
    assert ks.propagation._edge_mass(out) <= ks.propagation.WINDOW_MASS_BOUND * out.sum()


def test_energy_conserved_across_growth(runs):
    """Without loss, a pump that grows mid-fiber keeps its energy through
    every slice, the slices where its window grew included."""
    assert ks.default_config().fiber.alpha == 0.0
    _, kernel = _default_kernel(14e-9)
    assert runs == [[768]]
    assert kernel.window_samples > 768
    energy = kernel.per_step_energy
    assert np.abs(energy / energy[0] - 1.0).max() <= 1e-13


class TestWindowSizes:
    """The sizes a pump's window steps through, the launch search over them,
    and the frequency axis each window is stepped on."""

    @pytest.mark.parametrize("n", [2**k for k in range(6, 23)])
    def test_ladder(self, n):
        sizes = ks.propagation._window_sizes(n)
        assert sizes[0] == 64 and sizes[-1] == n
        assert all(a < b <= 1.5 * a for a, b in zip(sizes, sizes[1:]))
        for m in sizes:
            assert m % 32 == 0
            odd = m // (m & -m)
            assert odd in (1, 3), m
        # Every power of two on the way is a rung, so no window is larger
        # than a doubling ladder's.
        assert {2**k for k in range(6, n.bit_length())} <= set(sizes)
        for i, m in enumerate(sizes):
            assert ks.propagation._window_sizes(n, m) == sizes[i:]

    @staticmethod
    def _brute_force_window(launch, bound):
        """The first centred size 2**a or 3 * 2**a from 64 up that passes
        the launch guards, else the whole grid."""
        n = launch.size
        for m in sorted({s for a in range(5, 23) for s in (2**a, 3 * 2**a) if 64 <= s < n}):
            lo = (n - m) // 2
            edge = m // 32
            outside = launch[:lo].sum() + launch[lo + m :].sum()
            rim = launch[lo : lo + edge].sum() + launch[lo + m - edge : lo + m].sum()
            if outside <= bound and rim <= bound:
                return m
        return n

    def test_launch_window_is_the_first_size_that_passes(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            st.integers(6, 14),
            st.floats(0.5, 400.0),
            st.floats(-0.3, 0.3),
            st.sampled_from(["gaussian", "sech2"]),
        )
        def check(log_n, width, centre, shape):
            n = 2**log_n
            x = (np.arange(n) - n // 2 - centre * n) / width
            if shape == "gaussian":
                launch = np.exp(-4.0 * math.log(2.0) * x**2)
            else:
                launch = np.cosh(2.0 * math.asinh(1.0) * np.minimum(np.abs(x), 300.0)) ** -2.0
            m = self._brute_force_window(launch, ks.propagation.WINDOW_MASS_BOUND * launch.sum())
            lo = (n - m) // 2
            assert ks.propagation._launch_window(launch) == slice(lo, lo + m)

        check()

    @pytest.mark.parametrize("n,window", [(16384, 40e-12), (4096, 13.7e-12), (256, 3.3e-12)])
    def test_power_of_two_windows_keep_the_sub_grid_factor(self, n, window):
        """On a power-of-two window the half-step factor is the one built
        from the sub-grid's own omega, bit for bit."""
        g = ks.TimeGrid(n_samples=n, window=window)
        f = fiber(beta2_pump=24e-27, beta3_pump=2e-40, alpha=0.5 / 0.24)
        dz = f.length / 64
        for m in [2**k for k in range(6, n.bit_length())]:
            sub = ks.TimeGrid(n_samples=m, window=window * m / n)
            want = ks.propagation._linear_factor(
                sub.omega, f.beta2_pump, f.beta3_pump, f.alpha, 0.5 * dz
            )
            got = ks.propagation._Window(g, m, f, dz).half
            assert np.array_equal(got, want), m


def _batch_pumps(energies, delay=0.0):
    cfg = ks.default_config()
    return [
        ks.make_gaussian_pulse(cfg.grid, cfg.pump.center_wavelength, cfg.pump.fwhm_duration,
                               e, delay=delay)
        for e in energies
    ]


def test_window_holds_three_arrays_per_sample():
    """A window group holds, per row and sample, its field, the contiguous
    intensity and the complex rotation: 40 bytes."""
    cfg = ks.default_config()
    m, rows = 768, 3
    window = ks.propagation._Window(cfg.grid, m, cfg.fiber, cfg.fiber.length / 256)
    window.join(np.arange(rows), np.ones((rows, m), dtype=np.complex128))
    per_row = [v for v in vars(window).values() if isinstance(v, np.ndarray) and v.shape == (rows, m)]
    assert sum(v.nbytes for v in per_row) == 40 * rows * m
    assert window.intensity.flags.c_contiguous


def test_split_step_keeps_no_launch_copy(monkeypatch):
    """Once the window groups are seeded, the split-step's launch list is
    empty: no launch field lives through the passes."""
    launches, lengths = [], []
    split_step, add_shifted = ks.propagation._split_step, ks.propagation._add_shifted

    def capturing(launch, *args):
        launches.append(launch)
        return split_step(launch, *args)

    def checking(*args):
        lengths.append(len(launches[-1]))
        return add_shifted(*args)

    monkeypatch.setattr(ks.propagation, "_split_step", capturing)
    monkeypatch.setattr(ks.propagation, "_add_shifted", checking)
    cfg = ks.default_config()
    ks.compute_xpm_kernels(_batch_pumps([1e-9, 8e-9]), cfg.fiber, 16, cfg.signal.center_wavelength)
    assert len(lengths) >= 16 and set(lengths) == {0}


def _default_phases(energies):
    """The default config's kernel phases of `energies` on the whole grid,
    one row per energy."""
    cfg = ks.default_config()
    kernels = ks.compute_xpm_kernels(_batch_pumps(energies), cfg.fiber, cfg.solver.steps,
                                     cfg.signal.center_wavelength)
    phases = np.zeros((len(kernels), cfg.grid.n_samples))
    for row, k in zip(phases, kernels):
        row[k.first : k.first + k.phase_vs_offset.size] = k.phase_vs_offset
    return phases


def test_kernels_agree_without_avx512_dispatch(tmp_path):
    """numpy picks its float64 tan, sin and cos loops at import by CPU
    feature, so kernels differ in the last bits from host to host. The
    default 8 and 14 nJ kernels computed in a fresh interpreter with numpy's
    AVX-512 targets turned off by NPY_DISABLE_CPU_FEATURES lie within 1e-13
    of peak phase of those computed here (2.2e-15 measured)."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    avx512 = [t for t in __cpu_dispatch__ if t.startswith("AVX512") or t == "X86_V4"]
    if not any(__cpu_features__.get(t) for t in avx512):
        pytest.skip("numpy dispatches no AVX-512 loop on this host")
    energies = [8e-9, 14e-9]
    code = (
        "import sys, numpy as np\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_propagation import _default_phases\n"
        "assert not any(__cpu_features__[t] for t in sys.argv[3:])\n"
        f"np.save(sys.argv[2], _default_phases({energies!r}))\n"
    )
    out = tmp_path / "phases.npy"
    src = str(Path(ks.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent), str(out), *avx512],
        env=dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=" ".join(avx512)),
        check=True,
    )
    here, there = _default_phases(energies), np.load(out)
    assert np.all(np.abs(there - here).max(axis=-1) <= 1e-13 * np.abs(here).max(axis=-1))


class TestKernelBatch:
    """compute_xpm_kernels rows against one-pump kernels, on the default grid
    and fiber at 64 steps: a 0.5 nJ pump that stays on 768 samples, an 8 nJ
    pump that launches on 768 and grows in place to 3072 mid-fiber, and two
    off-centre pumps that only the full grid holds."""

    STEPS = 64

    def _kernels(self, pumps):
        cfg = ks.default_config()
        return ks.compute_xpm_kernels(pumps, cfg.fiber, self.STEPS, cfg.signal.center_wavelength)

    def _kernel(self, pump):
        cfg = ks.default_config()
        return ks.compute_xpm_kernel(pump, cfg.fiber, self.STEPS, cfg.signal.center_wavelength)

    @staticmethod
    def assert_same(got, want):
        assert got.window_samples == want.window_samples
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.phase_vs_offset, want.phase_vs_offset)
        assert np.array_equal(got.pump_final.samples, want.pump_final.samples)
        assert np.array_equal(got.per_step_energy, want.per_step_energy)

    @pytest.fixture(scope="class")
    def pumps(self):
        return (
            _batch_pumps([0.5e-9, 8e-9])
            + _batch_pumps([8e-9], delay=15e-12)
            + _batch_pumps([6e-9], delay=-15e-12)
        )

    @pytest.fixture(scope="class")
    def batch(self, pumps):
        return self._kernels(pumps)

    def test_rows_land_on_three_window_sizes(self, pumps, batch):
        n = ks.default_config().grid.n_samples
        assert [k.window_samples for k in batch] == [768, 3072, n, n]
        # The 8 nJ pump passes the launch guards at 768 samples, so its
        # 3072-sample kernel comes from growing in place.
        first = ks.propagation._launch_window(np.abs(pumps[1].samples) ** 2)
        assert first == slice((n - 768) // 2, (n + 768) // 2)

    @pytest.mark.parametrize("row", range(4))
    def test_row_equals_its_one_pump_kernel(self, pumps, batch, row):
        self.assert_same(batch[row], self._kernel(pumps[row]))

    def test_row_ignores_the_other_rows(self, pumps, batch):
        others = _batch_pumps([12e-9, 3e-9]) + _batch_pumps([5e-9], delay=-15e-12)
        mixed = self._kernels([others[0], pumps[1], pumps[2], others[2]])
        self.assert_same(mixed[1], batch[1])
        self.assert_same(mixed[2], batch[2])
        # A lone pump at another wavelength runs with its own Kerr
        # coefficient: the 8 nJ field at 1060 nm ends unlike at 1030 nm.
        cfg = ks.default_config()
        other_colour = ks.make_gaussian_pulse(cfg.grid, 1060e-9, cfg.pump.fwhm_duration, 8e-9)
        assert np.array_equal(other_colour.samples, pumps[1].samples)
        lone = self._kernel(other_colour)
        assert lone.pump_final.center_wavelength == 1060e-9
        assert not np.array_equal(lone.pump_window, batch[1].pump_window)

    def test_row_grows_into_a_group_that_holds_rows(self, pumps):
        """The 8 nJ row grows into windows that the 12 nJ row, grown before
        it, still holds. It joins that group in the pass it grows in and makes
        that pass's linear step with it; both rows come out as alone."""
        mixed = [pumps[1]] + _batch_pumps([12e-9])
        joins = []
        join = ks.propagation._Window.join

        def recording_join(window, rows, a):
            if window.rows.size:
                joins.append((window.m, rows.tolist()))
            return join(window, rows, a)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ks.propagation._Window, "join", recording_join)
            batch = self._kernels(mixed)
        assert joins == [(1024, [0]), (1536, [0]), (2048, [0]), (3072, [0])]
        assert [k.window_samples for k in batch] == [3072, 4096]
        for got, pump in zip(batch, mixed):
            self.assert_same(got, self._kernel(pump))

    def test_rows_that_grow_around_one_that_does_not(self, pumps):
        """The 12 and 8 nJ rows leave the 768-sample group and share a
        larger one without the 0.5 nJ row between them."""
        mixed = _batch_pumps([12e-9]) + pumps[:2]
        batch = self._kernels(mixed)
        assert [k.window_samples for k in batch] == [4096, 768, 3072]
        for got, pump in zip(batch, mixed):
            self.assert_same(got, self._kernel(pump))

    def test_row_that_grows_after_the_last_slice(self, pumps, runs, late_growth):
        """The pump that grows only at the end guard goes on in the same
        split-step call as rows that do not grow, and each row still comes
        out as it would alone."""
        mixed = [pumps[0], late_growth, pumps[3]]
        batch = self._kernels(mixed)
        n = ks.default_config().grid.n_samples
        assert runs == [[768, 768, n]]
        assert [k.window_samples for k in batch] == [768, 1024, n]
        for got, pump in zip(batch, mixed):
            self.assert_same(got, self._kernel(pump))

    def test_empty_batch(self):
        assert self._kernels([]) == []
        assert self._kernels(p for p in []) == []

    def test_pumps_on_two_grids_rejected(self):
        """Pumps on another grid, or at another wavelength, are refused in a
        list and from a generator: one batch has one grid and one Kerr
        coefficient."""
        other = ks.make_gaussian_pulse(ks.TimeGrid(n_samples=1024, window=20e-12),
                                       PUMP_WL, 180e-15, 1e-9)
        with pytest.raises(GridMismatch):
            self._kernels(_batch_pumps([1e-9]) + [other])
        with pytest.raises(GridMismatch):
            self._kernels(p for p in _batch_pumps([1e-9]) + [other])
        cfg = ks.default_config()
        other_colour = ks.make_gaussian_pulse(cfg.grid, 1060e-9, cfg.pump.fwhm_duration, 1e-9)
        with pytest.raises(ValidationError, match="one centre wavelength"):
            self._kernels(_batch_pumps([1e-9]) + [other_colour])
        with pytest.raises(ValidationError, match="one centre wavelength"):
            self._kernels(p for p in _batch_pumps([1e-9]) + [other_colour])

    def test_generator_keeps_no_pump_alive(self, pumps, batch):
        """A generator's pumps give the list's kernels. The batch holds no
        pump but the last one it read, and its kernels hold none."""
        refs = []

        def one_at_a_time():
            for pump in pumps:
                assert all(ref() is None for ref in refs[:-1])
                copy = dataclasses.replace(pump)
                refs.append(weakref.ref(copy))
                yield copy
                del copy

        kernels = self._kernels(one_at_a_time())
        assert len(refs) == len(pumps)
        assert all(ref() is None for ref in refs)
        for got, want in zip(kernels, batch, strict=True):
            self.assert_same(got, want)


@pytest.fixture
def split_steps(monkeypatch):
    """What each `_split_step` call returned: the output fields, the
    full-grid phase rows and the step energies."""
    calls = []
    split_step = ks.propagation._split_step

    def recording(*args):
        calls.append(split_step(*args))
        return calls[-1]

    monkeypatch.setattr(ks.propagation, "_split_step", recording)
    return calls


def _sub_window_case():
    cfg = ks.default_config()
    return _batch_pumps([2e-9, 8e-9]), cfg.fiber, 64, False


def _walkoff_case():
    f = fiber(beta2_pump=24e-27, walkoff=30e-12, n2=2.6e-20)
    return [pulses(pump_energy=4e-9)[0]], f, 32, False


def _whole_grid_case():
    f = fiber(beta2_pump=24e-27, walkoff=8.333e-12, n2=2.6e-20, alpha=0.5 / 0.24)
    return [ks.make_gaussian_pulse(grid(), PUMP_WL, 180e-15, 8e-9, delay=15e-12)], f, 32, True


class TestKernelStorage:
    """Each kernel keeps its phase on its span and its output pump on its
    window, against the full-grid rows the split-step returned: pumps that
    stay on or grow from a sub-window, one whose walk-off carries the phase
    past its window, and an off-centre pump that takes the whole grid."""

    @pytest.fixture(params=[_sub_window_case, _walkoff_case, _whole_grid_case],
                    ids=["sub-window", "walk-off", "whole-grid"])
    def stored(self, request, split_steps):
        pumps, f, steps, whole = request.param()
        kernels = ks.compute_xpm_kernels(pumps, f, steps, SIG_WL)
        assert len(split_steps) == 1
        return pumps, kernels, split_steps[0], whole

    def test_span_holds_every_nonzero_sample(self, stored):
        pumps, kernels, (_, phase, _), whole = stored
        g = pumps[0].grid
        n = g.n_samples
        for r, kernel in enumerate(kernels):
            lo = kernel.first
            hi = lo + kernel.phase_vs_offset.size
            assert np.array_equal(kernel.offsets, g.times[lo:hi])
            if whole:
                assert (lo, hi) == (0, n)
            else:
                assert 0 < lo < hi < n
            assert not phase[r, :lo].any() and not phase[r, hi:].any()
            stored_phase = kernel.phase_vs_offset
            assert np.array_equal(stored_phase != 0.0, phase[r, lo:hi] != 0.0)
            # One zero guard at each end, none past a grid edge.
            assert lo == 0 or (stored_phase[0] == 0.0 and stored_phase[1] != 0.0)
            assert hi == n or (stored_phase[-1] == 0.0 and stored_phase[-2] != 0.0)

    def test_pump_final_is_the_zero_padded_window(self, stored):
        pumps, kernels, (fields, _, _), _ = stored
        g = pumps[0].grid
        n = g.n_samples
        for pump, kernel, field in zip(pumps, kernels, fields, strict=True):
            m = field.size
            assert kernel.window_samples == m
            assert np.array_equal(kernel.pump_window, field)
            want = np.zeros(n, dtype=np.complex128)
            want[(n - m) // 2 : (n - m) // 2 + m] = field
            final = kernel.pump_final
            assert np.array_equal(final.samples, want)
            assert final.grid == g
            assert final.center_wavelength == pump.center_wavelength
