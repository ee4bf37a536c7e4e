"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing one pass/fail line (run with `pytest -s` to see them).

Criteria:
 1. Closed-form efficiency exactness (1e-15).
 2. Split-step oracle suite: Gaussian dispersion 0.1%, SPM peak phase 0.1%,
    energy conservation 1e-9, step-doubling residual < 1e-4.
 3. Flat-pump equivalence of simulated and closed-form efficiency (1e-4).
 4. Calibrated operating point: eta(0) >= 0.99, E* within 20% of 8 nJ.
 5. Temporal profile: FW10dB = 2.3 +- 0.7 ps, >=0.98 span = 533 +- 250 fs,
    with walkoff * length = 2.0 ps.
 6. Fock splitting: N=1 point exact at eta=0.985, P_{N,0} width strictly
    narrowing for N=1..6, all distributions normalized to 1e-12.
 7. Monte Carlo consistency: empirical splits within 5 sigma of binomial at
    1e5+ heralds; coincidence estimator within 3 standard errors at <n>=0.24.
 8. Noise bookkeeping: snr(0.32, 1e-5) = 32000; 2.27 dB thinning preserves
    normalization to 1e-12.
 9. TOF spectrometer: 1 nm -> 1033 ps; switched/unswitched histograms within
    total-variation 1e-3.
10. Determinism: sweep and fock artifacts byte-identical across reruns.
"""

import json
import math
import time

import numpy as np
import pytest

import kerrswitch as ks

NJ = 1e-9
PS = 1e-12
FS = 1e-15


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_analytic_exactness():
    t0 = time.perf_counter()
    exact_max = abs(ks.analytic_efficiency(math.pi / 4.0, math.pi) - 1.0)
    rng = np.random.default_rng(2024)
    zero_max = max(
        abs(ks.analytic_efficiency(float(theta), 0.0))
        for theta in rng.uniform(0.0, math.pi / 2.0, size=100)
    )
    ok = exact_max <= 1e-15 and zero_max <= 1e-15
    report(
        1,
        ok,
        f"|eta(pi/4,pi)-1|={exact_max:.1e}, max|eta(theta,0)|={zero_max:.1e} "
        f"({time.perf_counter()-t0:.2f} s)",
    )


def test_criterion_2_ssfm_oracles(default_cfg):
    t0 = time.perf_counter()
    grid = default_cfg.grid

    # dispersion-only Gaussian broadening versus the closed form
    fwhm_in = 200e-15
    t_width = fwhm_in / (2.0 * math.sqrt(math.log(2.0)))
    beta2 = 19e-27
    fiber_d = ks.FiberSpec(
        length=t_width**2 / beta2, beta2_pump=beta2, beta3_pump=0.0,
        beta2_signal=0.0, walkoff=0.0, n2=0.0, a_eff=4.3e-11,
    )
    pump = ks.make_gaussian_pulse(grid, 1030e-9, fwhm_in, 1e-9)
    signal = ks.make_gaussian_pulse(grid, 1550e-9, 600e-15, 1e-18)
    res = ks.propagate(pump, signal, fiber_d, steps=64)
    fwhm_out = ks.full_width(grid.times, np.abs(res.pump_out.samples) ** 2, 0.5)
    disp_err = abs(fwhm_out / (fwhm_in * math.sqrt(2.0)) - 1.0)

    # SPM-only peak phase versus gamma * P0 * L
    fiber_n = ks.FiberSpec(
        length=0.24, beta2_pump=0.0, beta3_pump=0.0, beta2_signal=0.0,
        walkoff=0.0, n2=2.6e-20, a_eff=4.3e-11,
    )
    gamma = ks.nonlinear_coefficient(fiber_n.n2, 1030e-9, fiber_n.a_eff)
    p0 = 2.0 / (gamma * fiber_n.length)
    e_spm = p0 * 180e-15 * math.sqrt(math.pi / (4.0 * math.log(2.0)))
    pump2 = ks.make_gaussian_pulse(grid, 1030e-9, 180e-15, e_spm)
    res2 = ks.propagate(pump2, signal, fiber_n, steps=128)
    intensity = np.abs(pump2.samples) ** 2
    support = intensity > 1e-6 * intensity.max()
    phase_peak = np.angle(res2.pump_out.samples[support] * np.conj(pump2.samples[support])).max()
    spm_err = abs(phase_peak / (gamma * intensity.max() * fiber_n.length) - 1.0)

    # energy conservation at the default (lossless) fiber
    pump3 = ks.make_gaussian_pulse(grid, 1030e-9, 180e-15, 8e-9)
    res3 = ks.propagate(pump3, signal, default_cfg.fiber, delay=0.3e-12,
                        steps=default_cfg.solver.steps)
    pump_drift = abs(ks.energy(res3.pump_out) / 8e-9 - 1.0)
    sig_drift = abs(ks.energy(res3.signal_out) / ks.energy(signal) - 1.0)

    # step-doubling residual at the default operating point
    residual = ks.convergence_residual(default_cfg, 8e-9, 0.0)

    ok = disp_err < 1e-3 and spm_err < 1e-3 and pump_drift <= 1e-9 and sig_drift <= 1e-9 \
        and residual < 1e-4
    report(
        2,
        ok,
        f"dispersion {disp_err:.2e}, SPM {spm_err:.2e}, energy drift "
        f"({pump_drift:.1e}, {sig_drift:.1e}), step-doubling {residual:.1e} "
        f"({time.perf_counter()-t0:.1f} s)",
    )


def test_criterion_3_flat_pump_equivalence():
    t0 = time.perf_counter()
    grid = ks.TimeGrid(n_samples=16384, window=40e-12)
    fiber = ks.FiberSpec(
        length=0.24, beta2_pump=0.0, beta3_pump=0.0, beta2_signal=-25e-27,
        walkoff=0.0, n2=2.6e-20, a_eff=4.3e-11,
    )
    theta = math.pi / 4.0
    pump = ks.make_supergaussian_pulse(grid, 1030e-9, 8e-12, 0.6e-9, order=8)
    signal = ks.make_gaussian_pulse(grid, 1550e-9, 600e-15, 1e-18)
    res = ks.propagate(pump, signal, fiber, steps=64)
    numeric = ks.efficiency_from_phase(np.abs(res.signal_out.samples) ** 2, res.xpm_phase, theta)
    peak_intensity = np.abs(pump.samples).max() ** 2 / fiber.a_eff
    analytic = ks.analytic_efficiency(
        theta, ks.nonlinear_phase(fiber.n2, fiber.effective_length(), peak_intensity, 1550e-9)
    )
    err = abs(numeric - analytic)
    report(3, err <= 1e-4, f"|numeric - analytic| = {err:.2e} ({time.perf_counter()-t0:.1f} s)")


def test_criterion_4_calibrated_operating_point(default_cfg, calibrated_energy):
    t0 = time.perf_counter()
    eta0 = ks.numeric_efficiency(default_cfg, calibrated_energy, 0.0).eta
    offset = abs(calibrated_energy - 8e-9) / 8e-9
    ok = eta0 >= 0.99 and offset <= 0.20
    report(
        4,
        ok,
        f"eta(0) = {eta0:.4f}, E* = {calibrated_energy/NJ:.3f} nJ "
        f"({offset:.1%} from 8 nJ) ({time.perf_counter()-t0:.1f} s)",
    )


def test_criterion_5_temporal_profile(default_cfg, calibrated_energy):
    t0 = time.perf_counter()
    walkoff_window = default_cfg.fiber.walkoff * default_cfg.fiber.length
    delays = np.asarray(default_cfg.sweep.delays)
    curve = ks.efficiency_vs_delay(default_cfg, calibrated_energy, delays)
    fw10 = ks.temporal_resolution(delays, curve)
    span = ks.flat_top_span(delays, curve, 0.98)
    ok = (
        abs(walkoff_window - 2e-12) < 1e-15
        and abs(fw10 - 2.3e-12) <= 0.7e-12
        and abs(span - 533e-15) <= 250e-15
    )
    report(
        5,
        ok,
        f"FW10dB = {fw10/PS:.3f} ps, >=0.98 span = {span/FS:.0f} fs, "
        f"walkoff*L = {walkoff_window/PS:.3f} ps ({time.perf_counter()-t0:.1f} s)",
    )


def test_criterion_6_fock_splitting(default_cfg):
    t0 = time.perf_counter()
    point = ks.binomial_split(1, 0.985)
    exact_ok = point.probs[1] == 0.985

    delays = np.asarray(default_cfg.sweep.delays)
    etas = ks.efficiency_vs_delay(default_cfg, default_cfg.pump.energy, delays)
    norm_ok = True
    widths = []
    for n in range(1, 7):
        dists = [ks.binomial_split(n, float(e)) for e in etas]
        norm_ok &= all(abs(d.probs.sum() - 1.0) <= 1e-12 for d in dists)
        curve = np.array([d.probs[n] for d in dists])
        widths.append(ks.full_width(delays, curve, 0.5))
    narrowing = all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))
    ok = exact_ok and norm_ok and narrowing
    report(
        6,
        ok,
        f"P_(1,0)(eta=0.985) = {point.probs[1]}, widths(ps) = "
        f"{[round(w/PS, 3) for w in widths]}, normalized: {norm_ok} "
        f"({time.perf_counter()-t0:.1f} s)",
    )


def test_criterion_7_monte_carlo_consistency():
    t0 = time.perf_counter()
    doc = {
        "source": {"mean_photon_number": 3.86, "max_photon_cutoff": 60},
        "detectors": {"herald_efficiency": 1.0, "system_transmittance": 1.0,
                      "noise_per_pulse_switched": 0.0, "noise_per_pulse_unswitched": 0.0},
        "sweep": {"delays_ps": [0.0, 0.6, 1.2]},
    }
    cfg = ks.parse_config(json.dumps(doc))
    eta_curve = lambda tau: 0.9 * math.exp(-((tau / 1e-12) ** 2))
    mc = ks.monte_carlo_experiment(cfg, eta_curve, pulses=1_200_000, seed=424242, n_max=3)
    worst_z = 0.0
    min_heralds = None
    for n in (1, 2, 3):
        for j, tau in enumerate(mc.delays):
            exact = ks.binomial_split(n, eta_curve(float(tau))).probs
            events = mc.split_events[n][j]
            total = int(events.sum())
            min_heralds = total if min_heralds is None else min(min_heralds, total)
            for k in range(n + 1):
                sigma = math.sqrt(max(exact[k] * (1.0 - exact[k]) * total, 1e-30))
                z = (abs(events[k] - total * exact[k]) - 3.0) / sigma  # 3-count cushion
                worst_z = max(worst_z, z)
    five_sigma_ok = worst_z <= 5.0 and min_heralds >= 100_000

    doc_low = {
        "source": {"mean_photon_number": 0.24, "max_photon_cutoff": 60},
        "detectors": {"herald_efficiency": 0.5, "system_transmittance": 0.32,
                      "noise_per_pulse_switched": 1e-5, "noise_per_pulse_unswitched": 1e-5},
        "sweep": {"delays_ps": [0.0]},
    }
    cfg_low = ks.parse_config(json.dumps(doc_low))
    mc_low = ks.monte_carlo_experiment(cfg_low, lambda t: 0.9, pulses=1_000_000, seed=7, n_max=1)
    est = ks.eta_exp(mc_low.records[0])
    est_ok = abs(est.value - 0.9) <= 3.0 * est.stderr

    report(
        7,
        five_sigma_ok and est_ok,
        f"worst z = {worst_z:.2f} (heralds >= {min_heralds}), "
        f"eta_exp = {est.value:.4f} +- {est.stderr:.4f} vs 0.9 "
        f"({time.perf_counter()-t0:.1f} s)",
    )


def test_criterion_8_noise_bookkeeping():
    t0 = time.perf_counter()
    ratio = ks.snr(0.32, 1e-5)
    snr_ok = ratio == 0.32 / 1e-5 and abs(ratio - 32000.0) < 1e-6

    t_insertion = 10.0 ** (-2.27 / 10.0)
    dist = ks.thermal_joint_source(0.24, cutoff=40)
    thinned = ks.apply_loss(dist, 1.0, t_insertion)
    norm_err = abs(thinned.probs.sum() - 1.0)
    ok = snr_ok and norm_err <= 1e-12
    report(
        8,
        ok,
        f"snr = {ratio!r}, thinning norm error = {norm_err:.1e} "
        f"({time.perf_counter()-t0:.2f} s)",
    )


def test_criterion_9_tof_spectrometer(default_cfg):
    t0 = time.perf_counter()
    tof = ks.TofSpec(
        dispersion=default_cfg.tof.dispersion,
        reference_wavelength=default_cfg.tof.reference_wavelength,
        jitter_fwhm=default_cfg.tof.jitter_fwhm,
    )
    t_map = ks.arrival_time(tof, default_cfg.tof.reference_wavelength + 1e-9)
    map_ok = abs(t_map - 1033e-12) <= 1e-18

    signal = ks.make_gaussian_pulse(
        default_cfg.grid, default_cfg.signal.center_wavelength,
        default_cfg.signal.fwhm_duration, 1e-18,
    )
    hists = []
    for e in (default_cfg.pump.energy, 0.0):
        pump = ks.make_gaussian_pulse(
            default_cfg.grid, default_cfg.pump.center_wavelength,
            default_cfg.pump.fwhm_duration, e,
        )
        res = ks.propagate(pump, signal, default_cfg.fiber, 0.0, default_cfg.solver.steps)
        wl_nm, dens = ks.clip_spectrum_support(*ks.pump_spectrum(res.signal_out))
        span = abs(tof.dispersion) * (wl_nm[-1] - wl_nm[0]) * 1e-9
        hists.append(ks.spectrum_to_histogram(tof, wl_nm * 1e-9, dens * 1e9, span / 1024.0))
    (c1, h1), (c2, h2) = hists
    tv = 0.5 * np.abs(h1 - h2).sum() * (c1[1] - c1[0])
    ok = map_ok and tv < 1e-3
    report(
        9,
        ok,
        f"1 nm -> {t_map/PS:.1f} ps, switched/unswitched TV = {tv:.2e} "
        f"({time.perf_counter()-t0:.1f} s)",
    )


def test_criterion_10_determinism(default_cfg, tmp_path):
    t0 = time.perf_counter()
    sweep_bytes = []
    for i in range(2):
        out = tmp_path / f"sweep{i}"
        ks.cmd_sweep(default_cfg, out)
        sweep_bytes.append(
            ((out / "surface.csv").read_bytes(), (out / "slices.csv").read_bytes())
        )
    sweep_ok = sweep_bytes[0] == sweep_bytes[1]

    fock_bytes = []
    for i in range(2):
        out = tmp_path / f"fock{i}"
        ks.cmd_fock(default_cfg, out, n_max=6)
        fock_bytes.append((out / "fock_probs.csv").read_bytes())
    fock_ok = fock_bytes[0] == fock_bytes[1]

    ok = sweep_ok and fock_ok
    report(
        10,
        ok,
        f"sweep identical on rerun: {sweep_ok}, fock identical on rerun: {fock_ok} "
        f"({time.perf_counter()-t0:.1f} s)",
    )
