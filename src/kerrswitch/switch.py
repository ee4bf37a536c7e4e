"""Switching efficiencies: the closed-form path, the simulation-driven path,
pump-energy calibration, delay sweeps, and temporal-resolution metrics."""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .core import ExperimentConfig, PulseEnvelope, _pulse_samples, _pulse_shape, make_gaussian_pulse
from .errors import (
    EmptySpan,
    NoBracket,
    NoCrossing,
    NonConvergence,
    ValidationError,
)
# `compute_xpm_kernel`, `sample_xpm_phase` and `propagate_signal_linear`
# are not called here (kernels come from `_kernel_batch`, phases from
# `_add_shifted`, the signal's support from `_signal_linear`); perfbench's
# tracer wraps them under this module's name, so the bindings stay.
from .propagation import (
    WINDOW_MASS_BOUND,
    XpmKernel,
    _add_shifted,
    _edge_mass,
    _kernel_batch,
    _launch_window,
    _signal_linear,
    _window_sizes,
    compute_xpm_kernel,
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


# The signal's energy: a weak probe, of which only the normalized shape
# enters the efficiency.
_SIGNAL_ENERGY = 1.0e-18


def _make_signal(config: ExperimentConfig) -> PulseEnvelope:
    return make_gaussian_pulse(
        config.grid,
        config.signal.center_wavelength,
        config.signal.fwhm_duration,
        _SIGNAL_ENERGY,
    )


# Most pump kernels a `_Model` keeps.
_KERNEL_CACHE_SIZE = 64


class _Model:
    """Everything this module derives from one config: the pump's launch
    shape and fields, the signal's support and the pump kernels. The shape,
    the support and each kernel are computed when first asked for and kept
    here, each placed on ``config.grid`` by its size alone (a centred
    window) or by its first grid index; `_model` finds a config's model."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        # Pump kernels by (pump energy, steps), least recently used first.
        self.kernel_cache: OrderedDict[tuple[float, int], XpmKernel] = OrderedDict()

    @cached_property
    def pump_shape(self) -> tuple[np.ndarray, float]:
        """(shape, raw): the pump's intensity shape (see `core._pulse_shape`)
        on the `_launch_window` of the whole-grid shape, and the discrete
        energy `raw` of the whole-grid shape. `shape` is read-only and
        shared by every call with the model.
        """
        intensity, raw = _pulse_shape(self.config.grid, self.config.pump.fwhm_duration, 0.0, 1)
        shape = intensity[_launch_window(intensity)].copy()
        shape.flags.writeable = False
        return shape, raw

    def launch_fields(self, energies: list[float]) -> list[np.ndarray]:
        """The launch field of the pump at each of `energies` (each > 0) on its
        `pump_shape` window: the window of `_make_pump`'s pulse, bit for bit,
        without building the pulse on the whole grid (`core._pulse_samples`,
        which raises for a negative energy or a field that is not finite).
        """
        shape, raw = self.pump_shape
        return [_pulse_samples(shape, raw, e) for e in energies]

    def kernels(
        self, energies: Iterable[float], steps: int | None = None
    ) -> Iterator[XpmKernel | None]:
        """The kernel at `steps` pump slices (default ``config.solver.steps``) of
        each of `energies` in order, None at zero energy.

        The energies are taken in blocks of `_KERNEL_CACHE_SIZE`. The kernels a
        block lacks in `kernel_cache` are computed as one `_kernel_batch`, from
        launch fields built on the pump's launch window alone (`launch_fields`),
        then cached. The cache keeps the `_KERNEL_CACHE_SIZE` most recently used
        kernels, so a ladder of any length holds at most one block of them.
        """
        config, cache = self.config, self.kernel_cache
        steps = config.solver.steps if steps is None else steps
        energies = [float(e) for e in energies]
        for start in range(0, len(energies), _KERNEL_CACHE_SIZE):
            block = energies[start : start + _KERNEL_CACHE_SIZE]
            keys = [(e, steps) for e in block if e != 0.0]
            missing = [key for key in dict.fromkeys(keys) if key not in cache]
            if missing:
                computed = _kernel_batch(
                    self.launch_fields([e for e, _ in missing]),
                    config.grid,
                    config.pump.center_wavelength,
                    config.fiber,
                    steps,
                    config.signal.center_wavelength,
                )
                cache.update(zip(missing, computed))
            for key in keys:
                cache.move_to_end(key)
            kernels = iter([cache[key] for key in keys])
            while len(cache) > _KERNEL_CACHE_SIZE:
                cache.popitem(last=False)
            for e in block:
                yield None if e == 0.0 else next(kernels)

    @cached_property
    def signal_support(self) -> tuple[int, np.ndarray]:
        """(first, weights): the propagated signal's intensity on its support,
        whose first sample is grid index `first`.

        The signal exists only on its window, as the pump does (`pump_shape`):
        its shape is computed on the whole grid, its `_launch_window` found,
        and `_make_signal`'s samples built on that window alone
        (`core._pulse_samples`). They propagate linearly there
        (`_signal_linear`). Where the output's outer 1/16 holds more than
        ``WINDOW_MASS_BOUND`` of its weight, the signal is built and
        propagated again on the next of `_window_sizes`, up to the whole
        grid, which is not guarded: the pump's end guard.

        The support is the contiguous run of that window's samples left after
        trimming each end by at most half of ``WINDOW_MASS_BOUND`` of the total
        weight, so an efficiency summed over it differs from the window's sum
        only by the weight it leaves out. `weights` is a read-only copy, shared
        by every call with the model.
        """
        config = self.config
        n, dt = config.grid.n_samples, config.grid.dt
        shape, raw = _pulse_shape(config.grid, config.signal.fwhm_duration, 0.0, 1)
        launch = _launch_window(shape)
        for m in _window_sizes(n, launch.stop - launch.start):
            start = (n - m) // 2
            samples = _pulse_samples(shape[start : start + m], raw, _SIGNAL_ENERGY)
            weights = np.abs(_signal_linear(samples, dt, config.fiber)) ** 2
            total = weights.sum()
            if m == n or _edge_mass(weights) <= WINDOW_MASS_BOUND * total:
                break
        cut = 0.5 * WINDOW_MASS_BOUND * total
        lo = int(np.searchsorted(np.cumsum(weights), cut, side="right"))
        hi = weights.size - int(np.searchsorted(np.cumsum(weights[::-1]), cut, side="right"))
        left_out = weights[:lo].sum() + weights[hi:].sum()
        assert left_out <= WINDOW_MASS_BOUND * total, "signal support drops too much weight"
        weights = weights[lo:hi].copy()
        weights.flags.writeable = False
        return start + lo, weights


@lru_cache(maxsize=2)
def _model(config: ExperimentConfig) -> _Model:
    """The one `_Model` of `config` (of any equal config), for the two most
    recently used configs: a process holds at most 2 x `_KERNEL_CACHE_SIZE`
    kernels. A command runs one config, so its stages share one model."""
    return _Model(config)


def _rotated(signal_weights: np.ndarray, xpm_phase: np.ndarray) -> float | np.ndarray:
    """Weighted sum of sin^2(phase/2) along the last axis, computed in
    `xpm_phase`, which it overwrites."""
    xpm_phase *= 0.5
    np.sin(xpm_phase, out=xpm_phase)
    xpm_phase *= xpm_phase
    xpm_phase *= signal_weights
    return xpm_phase.sum(axis=-1)


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
    wait and burn cores. One profile gives a float. The sum is `_etas`' own,
    run on a copy of `xpm_phase`.
    """
    rotated = _rotated(signal_weights, np.array(xpm_phase, dtype=float)) / signal_weights.sum()
    eta = math.sin(2.0 * theta) ** 2 * rotated
    return float(eta) if np.ndim(eta) == 0 else eta


# Most (delay, support) values `_etas` evaluates in one block: 512 kB per
# block, however long the signal's support or the delay axis.
_ETA_BLOCK = 2**16


def _etas(
    model: _Model,
    kernels: Iterable[XpmKernel | None],
    delays: np.ndarray | list[float],
) -> np.ndarray:
    """Efficiency of each pump kernel in `kernels` (None: no pump, so 0) at
    each of `delays`, as a (kernels, delays) array; every simulated
    efficiency is computed here.

    Each kernel's phase is sampled on the signal's support a block of
    delays at a time, into one reused ``(delays, support)`` buffer of at
    most `_ETA_BLOCK` values (one row, at least): the block is zeroed and
    `_add_shifted` adds the span to each row, shifted by its delay over
    ``dt``, as `sample_xpm_phase` does on the whole grid. `_rotated` then
    sums each row in place, as `efficiency_from_phase` does. An entry is
    the same bits whatever delays share its block, so a row equals the
    one-delay calls.
    """
    first, weights = model.signal_support
    delays = np.asarray(delays, dtype=float)
    block = max(1, _ETA_BLOCK // weights.size)
    scale = math.sin(2.0 * model.config.geometry.theta) ** 2
    total = weights.sum()
    phase = np.empty((min(block, delays.size), weights.size))
    rows = []
    for kernel in kernels:
        row = np.zeros(delays.size)
        if kernel is not None:
            span, dt = kernel.phase_vs_offset, kernel.grid.dt
            work = np.empty(span.size)
            for start in range(0, delays.size, block):
                taus = delays[start : start + block].tolist()
                out = phase[: len(taus)]
                out.fill(0.0)
                for i, tau in enumerate(taus):
                    _add_shifted(out[i], span, tau / dt, work, kernel.first - first)
                row[start : start + block] = scale * (_rotated(weights, out) / total)
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
    model = _model(config)
    (kernel,) = model.kernels([pump_energy], steps)
    eta = float(_etas(model, [kernel], [delay])[0, 0])
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
    model = _model(config)
    return _etas(model, model.kernels([pump_energy]), delays)[0]


def sweep_surface(config: ExperimentConfig, workers: int = 1) -> SweepSurface:
    """Efficiency over the configured (energy, delay) grid.

    The kernels of the energy axis are propagated as one batch per block of
    `_KERNEL_CACHE_SIZE`, then every row is evaluated by `_etas`, the
    evaluator `efficiency_vs_delay` uses, in axis order, on the calling
    thread. Every kernel lands in the config's `_model`, where calibration
    and the slices find it. `workers` is accepted for callers that pass it
    (perfbench's probes do) and changes nothing.
    """
    energies = np.asarray(config.sweep.energies, dtype=float)
    delays = np.asarray(config.sweep.delays, dtype=float)
    model = _model(config)
    eta_grid = _etas(model, model.kernels(energies), delays)
    return SweepSurface(energies=energies, delays=delays, eta_grid=eta_grid)


def calibrate_pi_energy(config: ExperimentConfig) -> float:
    """Pump energy maximizing the zero-delay efficiency.

    Scans each distinct sweep energy once (17 evenly spaced energies over
    their range when fewer are distinct), then refines the bracket around
    the best scanned energy by `_bracketed_argmax`, whose rounds each
    propagate their new kernels as one batch. The result is an evaluated
    energy, so its kernel is in the config's `_model`. Deterministic for a fixed
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

    model = _model(config)

    def zero_delay_etas(es: list[float]) -> list[float]:
        return _etas(model, model.kernels(es), [0.0])[:, 0].tolist()

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
    outside the bracket or the last round was parabolic and did not halve
    the bracket; then evaluates the new points of {c - xatol, c, c + xatol}
    that lie in the range as one `objective` call. The search stops when
    both neighbours lie within `xatol` of the best point, or after
    `_MAX_ROUNDS` rounds, and returns the best point, an evaluated
    abscissa. On a plateau of exactly tied values the search fills the gaps
    beside it down to `xatol`, so it may run to `_MAX_ROUNDS` there.
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
        golden = c is None or not lo < c < hi or hi - lo > 0.5 * width
        if golden:
            if best - lo >= hi - best:
                c = best - _GOLDEN * (best - lo)
            else:
                c = best + _GOLDEN * (hi - best)
        # A golden step need not halve the bracket, so the round after it
        # may take the parabola again.
        width = math.inf if golden else hi - lo
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
    return next(pump_output_spectra(config, [pump_energy]))


def pump_output_spectra(
    config: ExperimentConfig, pump_energies: Iterable[float]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`pump_output_spectrum` at each energy, in order, with the kernels of
    the whole ladder propagated as one batch. Each spectrum is computed when
    it is read, so a caller that drops each one holds one at a time."""
    for k in _model(config).kernels(pump_energies):
        yield pump_spectrum(_make_pump(config, 1e-12) if k is None else k.pump_final)


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


def _peak(x: np.ndarray, y: np.ndarray, measure: str, axis: str) -> int:
    """Index of the maximum of `y` on the width axis `x`; `measure` and
    `axis` name the width and the axis in the error messages.

    Raises:
        ValidationError: if `x` has fewer than 16 samples or does not
            strictly increase, or `y` holds a value that is not finite.
    """
    if x.size < 16:
        raise ValidationError(f"need at least 16 samples to measure a {measure}")
    if not np.all(np.diff(x) > 0.0):
        raise ValidationError(f"{axis} must be strictly increasing")
    if not np.all(np.isfinite(y)):
        raise ValidationError(f"the curve must be finite to measure a {measure}")
    return int(np.argmax(y))


def _crossings(y: np.ndarray, peak: int, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Segments [i, i+1] on which `y` crosses `level`, ascending, split into
    those before `peak` and those from `peak` on. A segment crosses when one
    end lies below the level and the other does not."""
    below = y < level
    segments = np.flatnonzero(below[:-1] != below[1:])
    split = int(np.searchsorted(segments, peak))
    return segments[:split], segments[split:]


def _crossing(x: np.ndarray, y: np.ndarray, i: int, level: float) -> float:
    """Where the crossing segment [i, i+1] meets `level`, interpolating
    linearly. Its ends lie on either side of the level, so they differ."""
    return x[i] + (level - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i])


def full_width(x: np.ndarray, y: np.ndarray, fraction: float) -> float:
    """Width between the outermost crossings of max(y) * fraction.

    Interpolates linearly in y (not in dB) between samples.

    Raises:
        ValidationError: if `x` has fewer than 16 samples or does not
            strictly increase, or `y` is not finite.
        NoCrossing: if the curve never drops below the level on one side.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    peak = _peak(x, y, "width", "x")
    if not (0.0 < fraction < 1.0):
        raise ValidationError("fraction must lie in (0, 1)")
    if y[peak] <= 0.0:
        raise ValidationError("curve maximum must be positive")
    level = y[peak] * fraction
    before, after = _crossings(y, peak, level)
    if before.size == 0 or after.size == 0:
        raise NoCrossing(f"curve never drops below {level:.3g} on one side of the peak")
    return float(_crossing(x, y, after[-1], level) - _crossing(x, y, before[0], level))


def temporal_resolution(
    delays: np.ndarray, etas: np.ndarray, threshold_db: float = 10.0
) -> float:
    """Full width of a delay response at `threshold_db` below its maximum."""
    return full_width(delays, etas, 10.0 ** (-threshold_db / 10.0))


def flat_top_span(delays: np.ndarray, etas: np.ndarray, level: float) -> float:
    """Width of the contiguous region around the maximum where eta >= level.

    Raises:
        ValidationError: if `delays` has fewer than 16 samples or does not
            strictly increase, or `etas` is not finite.
        EmptySpan: if the maximum itself lies below `level`.
    """
    delays = np.asarray(delays, dtype=float)
    etas = np.asarray(etas, dtype=float)
    peak = _peak(delays, etas, "span", "delays")
    if etas[peak] < level:
        raise EmptySpan(f"maximum {etas[peak]:.4g} lies below the requested level {level:g}")
    before, after = _crossings(etas, peak, level)
    left = _crossing(delays, etas, before[-1], level) if before.size else delays[0]
    right = _crossing(delays, etas, after[0], level) if after.size else delays[-1]
    return float(right - left)
