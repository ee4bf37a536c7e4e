"""Per-layer probes: time single kerrswitch layers outside any CLI command.

    python3 perfbench/probes.py contention CONFIG_JSON|-
    python3 perfbench/probes.py layers CONFIG_JSON|- SEED

Prints one JSON object on its last line. `contention` computes one pump kernel
alone, then one in each of `nproc` processes at once; it is the short probe
that stamps every result, so a box whose processes thrash can be told from a
code regression. `layers` times the layers that no single workload covers
with the same semantics: a serial sweep_surface from a cold cache, one full
propagate, the step-doubling residual at the largest sweep energy, the Monte
Carlo at one and at `nproc` workers, the exact binomial split, and the TOF
histogram.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import kerrswitch as ks  # noqa: E402
from kerrswitch.propagation import propagate_signal_linear, sample_xpm_phase  # noqa: E402
from kerrswitch.tof import TofSpec, spectrum_to_histogram  # noqa: E402


def load_config(path: str):
    return ks.parse_config("" if path == "-" else Path(path).read_text())


def _pump(config):
    return ks.make_gaussian_pulse(
        config.grid, config.pump.center_wavelength, config.pump.fwhm_duration, config.pump.energy
    )


def _signal(config):
    return ks.make_gaussian_pulse(
        config.grid, config.signal.center_wavelength, config.signal.fwhm_duration, 1.0e-18
    )


def timed_kernel(config) -> tuple[float, int]:
    """(milliseconds, minor page faults) of one compute_xpm_kernel call at
    the operating energy and the configured steps."""
    pump = _pump(config)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    ks.compute_xpm_kernel(pump, config.fiber, config.solver.steps, config.signal.center_wavelength)
    elapsed = time.perf_counter() - start
    return 1e3 * elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def _contended(config_path, barrier, results):
    config = load_config(config_path)
    barrier.wait()
    results.put(timed_kernel(config))


def contention(config_path: str) -> dict:
    config = load_config(config_path)
    alone_ms, alone_flt = timed_kernel(config)
    n = os.cpu_count() or 1
    ctx = multiprocessing.get_context("spawn")
    barrier, results = ctx.Barrier(n), ctx.Queue()
    procs = [ctx.Process(target=_contended, args=(config_path, barrier, results)) for _ in range(n)]
    for p in procs:
        p.start()
    paired = [results.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=60)
    return {
        "kernel_ms": alone_ms,
        "kernel_minflt": alone_flt,
        "kernel_ms_contended": statistics.median(ms for ms, _ in paired),
        "kernel_minflt_contended": [flt for _, flt in paired],
        "processes": n,
    }


def kernel_model(n: int, steps: int) -> tuple[float, float]:
    """Computed (not measured) flops and bytes of one compute_xpm_kernel.

    Per z-step: four complex FFTs of N points at 5 N log2 N flops, each
    reading and writing N complex values; two spectral multiplies; |a|^2;
    the SPM phase factor and multiply; the np.interp walk-off resample
    (binary search plus lerp); the phase accumulation; and the energy vdot.
    One flop per real arithmetic operation, one per transcendental.
    """
    log_n = math.log2(n)
    flops = steps * n * (21 * log_n + 34)
    bytes_moved = steps * n * 408
    return flops, bytes_moved


def _median_ms(fn, repeats=5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def layers(config_path: str, seed: int) -> dict:
    config = load_config(config_path)
    n = os.cpu_count() or 1
    out = {}

    # First, while the kernel cache is cold: the plain serial sweep.
    start = time.perf_counter()
    ks.sweep_surface(config, workers=1)
    out["switch.sweep_surface_w1_s"] = time.perf_counter() - start

    pump, signal = _pump(config), _signal(config)
    out["propagation.propagate_ms"] = _median_ms(
        lambda: ks.propagate(pump, signal, config.fiber, 0.0, config.solver.steps), repeats=1
    )
    kernel = ks.compute_xpm_kernel(
        pump, config.fiber, config.solver.steps, config.signal.center_wavelength
    )
    out["propagation.sample_xpm_phase_us"] = 1e3 * _median_ms(
        lambda: sample_xpm_phase(kernel, config.grid, 1.0e-12), repeats=101
    )
    flops, bytes_moved = kernel_model(config.grid.n_samples, config.solver.steps)
    out["propagation.kernel_flops_computed"] = flops
    out["propagation.kernel_bytes_computed"] = bytes_moved
    out["switch.residual_emax"] = ks.convergence_residual(config, max(config.sweep.energies))

    delays = np.asarray(config.sweep.delays, dtype=float)
    etas = ks.efficiency_vs_delay(config, config.pump.energy, delays)
    pulses = config.monte_carlo.pulses_per_delay
    for label, workers in (("w1", 1), ("wN", n)):
        start = time.perf_counter()
        ks.monte_carlo_experiment(
            config, lambda tau: float(np.interp(tau, delays, etas)),
            pulses=pulses, seed=seed, n_max=6, workers=workers,
        )
        out[f"photons.mc_{label}_s"] = time.perf_counter() - start
    out["photons.mc_pulses_per_s"] = delays.size * pulses / out["photons.mc_wN_s"]
    out["photons.exact_split_ms"] = _median_ms(
        lambda: [[ks.binomial_split(m, float(e)) for e in etas] for m in range(1, 7)]
    )

    tof = TofSpec(
        dispersion=config.tof.dispersion,
        reference_wavelength=config.tof.reference_wavelength,
        jitter_fwhm=config.tof.jitter_fwhm,
    )
    wl_nm, density = ks.clip_spectrum_support(
        *ks.pump_spectrum(propagate_signal_linear(signal, config.fiber))
    )
    span = abs(tof.dispersion) * (wl_nm[-1] - wl_nm[0]) * 1e-9
    out["tof.histogram_ms"] = _median_ms(
        lambda: spectrum_to_histogram(tof, wl_nm * 1e-9, density * 1e9, bin_width=span / 1024.0)
    )
    return out


if __name__ == "__main__":
    part, config_arg, *rest = sys.argv[1:]
    if part == "contention":
        result = contention(config_arg)
    else:
        result = layers(config_arg, int(rest[0]))
    print(json.dumps(result))
