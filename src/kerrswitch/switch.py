"""Switching efficiencies: the closed-form path, the simulation-driven path,
pump-energy calibration, delay sweeps, and temporal-resolution metrics."""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import ExperimentConfig, PulseEnvelope, make_gaussian_pulse
from .errors import EmptySpan, NoBracket, NoCrossing, NonConvergence, ValidationError
# `compute_xpm_kernel` and `sample_xpm_phase` are not called here (kernels
# come from `compute_xpm_kernels`, efficiencies from `_etas`); perfbench's
# tracer wraps them under this module's name, so the bindings stay.
from .propagation import (
    WINDOW_MASS_BOUND,
    XpmKernel,
    compute_xpm_kernel,
    compute_xpm_kernels,
    propagate_signal_linear,
    pump_spectrum,
    sample_xpm_phase,
)


def analytic_efficiency(theta: float, delta_phi: float) -> float:
    """Closed-form switching efficiency sin^2(2*theta) * sin^2(delta_phi/2)."""
    return math.sin(2.0 * theta) ** 2 * math.sin(0.5 * delta_phi) ** 2


def nonlinear_phase(n2: float, l_eff: float, intensity: float, lambda_signal: float) -> float:
    """Differential Kerr phase 8*pi*n2*l_eff*intensity / (3*lambda_signal)."""
    return 8.0 * math.pi * n2 * l_eff * intensity / (3.0 * lambda_signal)


@dataclass(frozen=True)
class SwitchResult:
    """Efficiency at one (pump energy, delay) point."""

    eta: float
    delay: float
    pump_energy: float


@dataclass(frozen=True)
class SweepSurface:
    """Efficiency over an (energy, delay) grid; eta_grid[i, j] = eta(E_i, tau_j)."""

    energies: np.ndarray = field(repr=False)
    delays: np.ndarray = field(repr=False)
    eta_grid: np.ndarray = field(repr=False)


def _make_pump(config: ExperimentConfig, pump_energy: float) -> PulseEnvelope:
    return make_gaussian_pulse(
        config.grid,
        config.pump.center_wavelength,
        config.pump.fwhm_duration,
        pump_energy,
    )


def _make_signal(config: ExperimentConfig) -> PulseEnvelope:
    return make_gaussian_pulse(
        config.grid,
        config.signal.center_wavelength,
        config.signal.fwhm_duration,
        1.0e-18,  # weak probe; only the normalized shape enters the efficiency
    )


# Pump kernels by (config, pump energy, steps), least recently used first.
_KERNEL_CACHE_SIZE = 64
_kernel_cache: OrderedDict[tuple[ExperimentConfig, float, int], XpmKernel] = OrderedDict()


def _kernels(
    config: ExperimentConfig, energies: Iterable[float], steps: int | None = None
) -> Iterator[XpmKernel | None]:
    """The kernel at `steps` pump slices (default ``config.solver.steps``) of
    each of `energies` in order, None at zero energy.

    The energies are taken in blocks of `_KERNEL_CACHE_SIZE`. The kernels a
    block lacks in the cache are computed as one `compute_xpm_kernels` batch,
    then cached. The cache keeps the `_KERNEL_CACHE_SIZE` most recently used
    kernels, so a ladder of any length holds at most one block of them.
    """
    steps = config.solver.steps if steps is None else steps
    energies = [float(e) for e in energies]
    for start in range(0, len(energies), _KERNEL_CACHE_SIZE):
        block = energies[start : start + _KERNEL_CACHE_SIZE]
        keys = [(config, e, steps) for e in block if e != 0.0]
        missing = [key for key in dict.fromkeys(keys) if key not in _kernel_cache]
        if missing:
            pumps = [_make_pump(config, e) for _, e, _ in missing]
            computed = compute_xpm_kernels(
                pumps, config.fiber, steps, config.signal.center_wavelength
            )
            _kernel_cache.update(zip(missing, computed))
        for key in keys:
            _kernel_cache.move_to_end(key)
        kernels = iter([_kernel_cache[key] for key in keys])
        while len(_kernel_cache) > _KERNEL_CACHE_SIZE:
            _kernel_cache.popitem(last=False)
        for e in block:
            yield None if e == 0.0 else next(kernels)


@lru_cache(maxsize=16)
def _signal_support(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """(times, weights) of the propagated signal's intensity on its support.

    The support is the contiguous run of grid samples left after trimming
    each end by at most half of ``WINDOW_MASS_BOUND`` of the total weight, so
    an efficiency summed over it differs from the full-grid sum only by the
    weight it leaves out. Both arrays are read-only and shared by every call
    with `config`.
    """
    out = propagate_signal_linear(_make_signal(config), config.fiber)
    weights = np.abs(out.samples) ** 2
    total = weights.sum()
    cut = 0.5 * WINDOW_MASS_BOUND * total
    lo = int(np.searchsorted(np.cumsum(weights), cut, side="right"))
    hi = weights.size - int(np.searchsorted(np.cumsum(weights[::-1]), cut, side="right"))
    left_out = weights[:lo].sum() + weights[hi:].sum()
    assert left_out <= WINDOW_MASS_BOUND * total, "signal support drops too much weight"
    times, weights = config.grid.times[lo:hi], weights[lo:hi]
    times.flags.writeable = weights.flags.writeable = False
    return times, weights


def efficiency_from_phase(
    signal_weights: np.ndarray, xpm_phase: np.ndarray, theta: float
) -> float | np.ndarray:
    """Wavepacket-weighted switching efficiency for a phase profile, or for
    each row of a ``(..., support)`` stack of them.

    Each temporal slice of the signal undergoes its own polarization rotation;
    the port split is the intensity-weighted average of the pointwise
    closed-form efficiency. The weighted sum runs along the last axis, so a
    row of a stack gets the same bits as that row alone, at any length; it is
    no dot product, which OpenBLAS would run on threads that spin while they
    wait and burn cores. One profile gives a float.
    """
    total = signal_weights.sum()
    rotated = (signal_weights * np.sin(0.5 * xpm_phase) ** 2).sum(axis=-1) / total
    eta = math.sin(2.0 * theta) ** 2 * rotated
    return float(eta) if np.ndim(eta) == 0 else eta


# Most (delay, support) values `_etas` samples in one block: 8 MB per
# temporary, however long the signal's support or the delay axis.
_ETA_BLOCK = 2**20


def _etas(
    config: ExperimentConfig,
    kernels: Iterable[XpmKernel | None],
    delays: np.ndarray | list[float],
) -> np.ndarray:
    """Efficiency of each pump kernel in `kernels` (None: no pump, so 0) at
    each of `delays`, as a (kernels, delays) array; every simulated
    efficiency is computed here.

    Each kernel's phase is sampled on the signal's support for a block of
    delays at once, one ``(delays, support)`` array of at most `_ETA_BLOCK`
    values, and `efficiency_from_phase` sums each of its rows. An entry is
    the same bits whatever delays share its block, so a row equals the
    one-delay calls.
    """
    times, weights = _signal_support(config)
    delays = np.asarray(delays, dtype=float)
    block = max(1, _ETA_BLOCK // times.size)
    theta = config.geometry.theta
    rows = []
    for kernel in kernels:
        row = np.zeros(delays.size)
        if kernel is not None:
            for start in range(0, delays.size, block):
                taus = delays[start : start + block, None]
                phase = np.interp(
                    times - taus, kernel.offsets, kernel.phase_vs_offset, left=0.0, right=0.0
                )
                row[start : start + block] = efficiency_from_phase(weights, phase, theta)
        rows.append(row)
    return np.array(rows).reshape(len(rows), delays.size)


def numeric_efficiency(
    config: ExperimentConfig,
    pump_energy: float,
    delay: float,
    steps: int | None = None,
) -> SwitchResult:
    """Simulation-driven switching efficiency at one (energy, delay) point,
    with `steps` pump slices (default `config.solver.steps`).

    The efficiency comes from `_etas`, the evaluator every efficiency goes
    through, as a block of one delay; it is summed over the signal's support
    only (the weight left out is at most ``WINDOW_MASS_BOUND`` of the
    total).
    """
    (kernel,) = _kernels(config, [pump_energy], steps)
    eta = float(_etas(config, [kernel], [delay])[0, 0])
    return SwitchResult(eta=eta, delay=delay, pump_energy=pump_energy)


def efficiency_vs_delay(
    config: ExperimentConfig,
    pump_energy: float,
    delays: np.ndarray,
) -> np.ndarray:
    """Efficiency along a delay axis at fixed pump energy (one propagation of
    `config.solver.steps` slices).

    The row comes from `_etas`, the evaluator `numeric_efficiency` uses, so
    an entry equals the direct call at that delay.
    """
    return _etas(config, _kernels(config, [pump_energy]), delays)[0]


def sweep_surface(config: ExperimentConfig, workers: int = 1) -> SweepSurface:
    """Efficiency over the configured (energy, delay) grid.

    The kernels of the energy axis are propagated as one batch per block of
    `_KERNEL_CACHE_SIZE`, then every row is evaluated by `_etas`, the
    evaluator `efficiency_vs_delay` uses, in axis order, on the calling
    thread. Every kernel lands in the shared kernel cache, where calibration
    and the slices find it. `workers` is accepted for callers that pass it
    (perfbench's probes do) and changes nothing.
    """
    energies = np.asarray(config.sweep.energies, dtype=float)
    delays = np.asarray(config.sweep.delays, dtype=float)
    eta_grid = _etas(config, _kernels(config, energies), delays)
    return SweepSurface(energies=energies, delays=delays, eta_grid=eta_grid)


def calibrate_pi_energy(config: ExperimentConfig) -> float:
    """Pump energy maximizing the zero-delay efficiency.

    Scans each distinct sweep energy once (17 evenly spaced energies over
    their range when fewer are distinct), then refines the bracket around
    the best scanned energy by `_bracketed_argmax`, whose rounds each
    propagate their new kernels as one batch. The result is an evaluated
    energy, so its kernel is in the kernel cache. Deterministic for a fixed
    config.

    Raises:
        NoBracket: if the efficiency never exceeds 0.5 on the scanned range.
    """
    energies = np.asarray(config.sweep.energies, dtype=float)
    lo, hi = float(energies.min()), float(energies.max())
    if hi <= lo:
        raise NoBracket("sweep energy range is degenerate")
    # A repeated energy would collapse the seed bracket onto one side.
    distinct = sorted(set(energies.tolist()))
    if len(distinct) >= 17:
        coarse = distinct
    else:
        coarse = np.linspace(lo, hi, 17).tolist()

    def zero_delay_etas(es: list[float]) -> list[float]:
        return _etas(config, _kernels(config, es), [0.0])[:, 0].tolist()

    etas = zero_delay_etas(coarse)
    best = int(np.argmax(etas))
    if etas[best] <= 0.5:
        raise NoBracket(
            f"efficiency peaks at {etas[best]:.3g} <= 0.5 on [{lo:g}, {hi:g}] J"
        )
    seed = range(max(best - 1, 0), min(best + 2, len(coarse)))
    return _bracketed_argmax(
        zero_delay_etas,
        {coarse[i]: etas[i] for i in seed},
        xatol=1e-3 * max(coarse[best], hi * 1e-3),
    )


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_ROUNDS = 100


def _bracketed_argmax(
    objective: Callable[[list[float]], list[float]],
    seen: dict[float, float],
    xatol: float,
) -> float:
    """Maximize a unimodal function on [min(seen), max(seen)], given its
    values `seen` there, by rounds of batched evaluations.

    The bracket is the best point and its nearest evaluated neighbours (the
    best point itself on a side where it is the range end). Each round takes
    the vertex c of the parabola through the bracket, or the golden-section
    point of the bracket's larger side when that parabola is flat, c falls
    outside the bracket or the last round did not halve the bracket; then
    evaluates the new points of {c - xatol, c, c + xatol} that lie in the
    range as one `objective` call. The search stops when both neighbours lie
    within `xatol` of the best point, or after `_MAX_ROUNDS` rounds, and
    returns the best point, an evaluated abscissa. On a plateau of exactly
    tied values the search fills the gaps beside it down to `xatol`, so it
    may run to `_MAX_ROUNDS` there.
    """
    seen = dict(seen)
    left, right = min(seen), max(seen)
    width = math.inf
    for _ in range(_MAX_ROUNDS):
        lo, best, hi = _bracket(seen)
        # Computed as c -+ xatol were, so a round's own points pass exactly.
        if lo >= best - xatol and hi <= best + xatol:
            break
        c = _parabola_vertex(seen, lo, best, hi)
        # Parabolic steps alone can shrink one side only, round after round.
        if c is None or not lo < c < hi or hi - lo > 0.5 * width:
            if best - lo >= hi - best:
                c = best - _GOLDEN * (best - lo)
            else:
                c = best + _GOLDEN * (hi - best)
        width = hi - lo
        new = [x for x in (c - xatol, c, c + xatol) if left <= x <= right and x not in seen]
        seen.update(zip(new, objective(new)))
    return _bracket(seen)[1]


def _bracket(seen: dict[float, float]) -> tuple[float, float, float]:
    """(left neighbour, best point, right neighbour) among the evaluated
    points; a missing neighbour is the best point itself. Of tied best
    points, the one next to the widest gap is taken, so that the search goes
    on while any gap beside a tied best point is wider than its tolerance."""
    xs = sorted(seen)
    top = max(seen.values())
    brackets = [
        (xs[max(i - 1, 0)], xs[i], xs[min(i + 1, len(xs) - 1)])
        for i in range(len(xs))
        if seen[xs[i]] == top
    ]
    return max(brackets, key=lambda t: max(t[1] - t[0], t[2] - t[1]))


def _parabola_vertex(seen: dict[float, float], lo: float, best: float, hi: float) -> float | None:
    """Abscissa of the vertex of the parabola through the bracket, None
    if that parabola does not open downward."""
    d_lo, d_hi = best - lo, best - hi
    g_lo, g_hi = seen[best] - seen[lo], seen[best] - seen[hi]
    den = d_lo * g_hi - d_hi * g_lo
    if not den > 0.0:
        return None
    return best - 0.5 * (d_lo * d_lo * g_hi - d_hi * d_hi * g_lo) / den


def pump_output_spectrum(
    config: ExperimentConfig, pump_energy: float
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized pump spectrum after the fiber at the given launch energy.

    A zero launch energy returns the transform-limited input spectrum: the
    normalized spectral shape is the zero-power limit of the propagated one.
    """
    return pump_output_spectra(config, [pump_energy])[0]


def pump_output_spectra(
    config: ExperimentConfig, pump_energies: Iterable[float]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """`pump_output_spectrum` at each energy, in order, with the kernels of
    the whole ladder propagated as one batch."""
    return [
        pump_spectrum(_make_pump(config, 1e-12) if k is None else k.pump_final)
        for k in _kernels(config, pump_energies)
    ]


def convergence_residual(
    config: ExperimentConfig, pump_energy: float, delay: float = 0.0
) -> float:
    """Step-doubling efficiency residual |eta(steps) - eta(2*steps)| at
    steps = `config.solver.steps`."""
    eta1 = numeric_efficiency(config, pump_energy, delay).eta
    eta2 = numeric_efficiency(config, pump_energy, delay, 2 * config.solver.steps).eta
    return abs(eta1 - eta2)


def check_convergence(
    config: ExperimentConfig, pump_energy: float, delay: float = 0.0, tol: float = 1e-3
) -> float:
    """Raise NonConvergence if the step-doubling residual exceeds `tol`."""
    residual = convergence_residual(config, pump_energy, delay)
    if residual > tol:
        raise NonConvergence(
            f"step-doubling residual {residual:.3g} exceeds {tol:g} "
            f"at E={pump_energy:g} J, delay={delay:g} s"
        )
    return residual


def _interp_crossing(x0, y0, x1, y1, level):
    if y1 == y0:
        return x0
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def full_width(x: np.ndarray, y: np.ndarray, fraction: float) -> float:
    """Width between the outermost crossings of max(y) * fraction.

    Interpolates linearly in y (not in dB) between samples.

    Raises:
        ValidationError: if `x` has fewer than 16 samples or does not
            strictly increase.
        NoCrossing: if the curve never drops below the level on one side.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 16:
        raise ValidationError("need at least 16 samples to measure a width")
    if not np.all(np.diff(x) > 0.0):
        raise ValidationError("x must be strictly increasing")
    if not (0.0 < fraction < 1.0):
        raise ValidationError("fraction must lie in (0, 1)")
    peak = int(np.argmax(y))
    if y[peak] <= 0.0:
        raise ValidationError("curve maximum must be positive")
    level = y[peak] * fraction

    # Segments [i, i+1] on which the curve crosses the level.
    crossings = np.flatnonzero((y[:-1] < level) != (y[1:] < level))
    left_cross = crossings[crossings < peak]
    right_cross = crossings[crossings >= peak]
    if left_cross.size == 0 or right_cross.size == 0:
        raise NoCrossing(f"curve never drops below {level:.3g} on one side of the peak")
    li = int(left_cross.min())
    ri = int(right_cross.max())
    left = _interp_crossing(x[li], y[li], x[li + 1], y[li + 1], level)
    right = _interp_crossing(x[ri], y[ri], x[ri + 1], y[ri + 1], level)
    return float(right - left)


def temporal_resolution(
    delays: np.ndarray, etas: np.ndarray, threshold_db: float = 10.0
) -> float:
    """Full width of a delay response at `threshold_db` below its maximum."""
    return full_width(delays, etas, 10.0 ** (-threshold_db / 10.0))


def flat_top_span(delays: np.ndarray, etas: np.ndarray, level: float) -> float:
    """Width of the contiguous region around the maximum where eta >= level.

    Raises:
        ValidationError: if `delays` has fewer than 16 samples or does not
            strictly increase.
        EmptySpan: if the maximum itself lies below `level`.
    """
    delays = np.asarray(delays, dtype=float)
    etas = np.asarray(etas, dtype=float)
    if delays.size < 16:
        raise ValidationError("need at least 16 samples to measure a span")
    if not np.all(np.diff(delays) > 0.0):
        raise ValidationError("delays must be strictly increasing")
    peak = int(np.argmax(etas))
    if etas[peak] < level:
        raise EmptySpan(f"maximum {etas[peak]:.4g} lies below the requested level {level:g}")

    li = peak
    while li > 0 and etas[li - 1] >= level:
        li -= 1
    ri = peak
    while ri < etas.size - 1 and etas[ri + 1] >= level:
        ri += 1
    left = delays[li]
    if li > 0:
        left = _interp_crossing(delays[li - 1], etas[li - 1], delays[li], etas[li], level)
    right = delays[ri]
    if ri < etas.size - 1:
        right = _interp_crossing(delays[ri], etas[ri], delays[ri + 1], etas[ri + 1], level)
    return float(right - left)
