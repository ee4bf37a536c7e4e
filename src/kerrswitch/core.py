"""Physical units, time grids, pulse envelopes, and the shared experiment configuration.

All quantities are SI internally: seconds, meters, joules, watts, radians.
Every type here is an immutable value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooSmall, NegativeEnergy, ValidationError

C_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class TimeGrid:
    """Uniform, zero-centered time grid with the matching FFT frequency grid.

    Attributes:
        n_samples: number of samples; a power of two from 64 to 2**22.
        window: total span of the grid in seconds.
    """

    n_samples: int
    window: float

    def __post_init__(self):
        n = self.n_samples
        # Kernels step on windows; the arrays that span the grid are each pulse
        # (64 MiB at 2**22 samples) and the split-step's (rows, n) phase
        # accumulator, 32 MiB per row.
        if not (64 <= n <= 2**22) or (n & (n - 1)) != 0:
            raise ValidationError("grid.n_samples must be a power of two in 64..2**22")
        if not (self.window > 0.0):
            raise ValidationError("grid.window must be positive")

    @property
    def dt(self) -> float:
        """Sample spacing in seconds."""
        return self.window / self.n_samples

    @property
    def times(self) -> np.ndarray:
        """Sample times t_k = (k - n/2) * dt, centered on zero."""
        return (np.arange(self.n_samples) - self.n_samples // 2) * self.dt

    @property
    def omega(self) -> np.ndarray:
        """Angular frequency offsets in FFT ordering; spacing 2*pi/window."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_samples, d=self.dt)


@dataclass(frozen=True)
class PulseEnvelope:
    """Complex field envelope sampled on a time grid, in units of sqrt(W).

    Treat instances as immutable: do not write into ``samples``.
    """

    grid: TimeGrid
    center_wavelength: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.grid.n_samples,):
            raise ValidationError("envelope sample count must equal grid.n_samples")
        if not (self.center_wavelength > 0.0):
            raise ValidationError("center_wavelength must be positive")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ValidationError("envelope samples must be finite")


def energy(pulse: PulseEnvelope) -> float:
    """Total pulse energy, sum(|a_k|^2) * dt, in joules."""
    return float((np.abs(pulse.samples) ** 2).sum(axis=-1) * pulse.grid.dt)


def gaussian_peak_power(fwhm: float, pulse_energy: float) -> float:
    """Peak power of a Gaussian pulse given its intensity FWHM and energy."""
    return pulse_energy / (fwhm * math.sqrt(math.pi / (4.0 * math.log(2.0))))


def _check_fits(fwhm: float, window: float, name: str = "fwhm") -> None:
    if fwhm >= window / 4.0:
        raise GridTooSmall(
            f"{name} {fwhm:g} s does not fit window {window:g} s (need fwhm < window/4)"
        )


def _pulse_shape(grid, fwhm, delay, order):
    """(intensity, raw): the intensity shape exp(-ln2*(2x)^(2*order)),
    x = (t - delay)/fwhm, on `grid`, and its discrete energy sum * dt; see
    `_pulse_samples`."""
    x = (grid.times - delay) / fwhm
    intensity = np.exp(-math.log(2.0) * (2.0 * x) ** (2 * order))
    return intensity, np.sum(intensity) * grid.dt


def _pulse_samples(shape, raw, pulse_energy):
    """sqrt(shape * (pulse_energy / raw)) as complex samples: the pulse of
    energy `pulse_energy` on the samples `shape` holds (all, or a window) of
    the whole-grid `_pulse_shape` (intensity, raw).

    Raises:
        NegativeEnergy: if pulse_energy < 0.
        ValidationError: if a sample is not finite.
    """
    if pulse_energy < 0.0:
        raise NegativeEnergy("pulse energy must be non-negative")
    samples = np.sqrt(shape * (pulse_energy / raw)).astype(np.complex128)
    if not np.all(np.isfinite(samples.view(np.float64))):
        raise ValidationError("envelope samples must be finite")
    return samples


def _shaped_pulse(grid, center_wavelength, fwhm, pulse_energy, delay, order):
    if not (fwhm > 0.0):
        raise ValidationError("fwhm must be positive")
    _check_fits(fwhm, grid.window)
    samples = _pulse_samples(*_pulse_shape(grid, fwhm, delay, order), pulse_energy)
    return PulseEnvelope(grid=grid, center_wavelength=center_wavelength, samples=samples)


def make_gaussian_pulse(
    grid: TimeGrid,
    center_wavelength: float,
    fwhm: float,
    pulse_energy: float,
    delay: float = 0.0,
) -> PulseEnvelope:
    """Transform-limited Gaussian envelope centered at `delay`.

    `fwhm` is the intensity full width at half maximum. The discrete energy
    sum(|a_k|^2)*dt equals `pulse_energy` to machine precision; for a pulse
    well inside the window the peak power matches
    ``gaussian_peak_power(fwhm, pulse_energy)``.

    Raises:
        GridTooSmall: if fwhm >= window/4.
        NegativeEnergy: if pulse_energy < 0.
    """
    return _shaped_pulse(grid, center_wavelength, fwhm, pulse_energy, delay, order=1)


def make_supergaussian_pulse(
    grid: TimeGrid,
    center_wavelength: float,
    fwhm: float,
    pulse_energy: float,
    delay: float = 0.0,
    order: int = 8,
) -> PulseEnvelope:
    """Flat-topped super-Gaussian envelope, intensity exp(-ln2*(2t/fwhm)^(2*order))."""
    if order < 1:
        raise ValidationError("super-Gaussian order must be >= 1")
    return _shaped_pulse(grid, center_wavelength, fwhm, pulse_energy, delay, order=order)


@dataclass(frozen=True)
class FiberSpec:
    """Fiber parameters for the pump/signal pair.

    walkoff is the group-slowness difference between signal and pump frames
    (s/m); the pump drifts by walkoff * length across the fiber, as seen on
    the signal's time axis.
    """

    length: float
    beta2_pump: float
    beta3_pump: float
    beta2_signal: float
    walkoff: float
    n2: float
    a_eff: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (self.length > 0.0):
            raise ValidationError("fiber.length must be positive")
        if not (self.a_eff > 0.0):
            raise ValidationError("fiber.a_eff must be positive")
        if self.n2 < 0.0:
            raise ValidationError("fiber.n2 must be non-negative")
        if self.alpha < 0.0:
            raise ValidationError("fiber.alpha must be non-negative")
        # A real fiber loses a few nepers at most over a switch's length, and
        # past ~730 nepers the attenuated signal underflows to zero on the
        # default grid, which leaves no signal to switch. 100 nepers (434 dB)
        # sits far from both.
        if not (self.alpha * self.length <= 100.0):
            raise ValidationError("fiber.alpha * fiber.length must be at most 100 nepers (434 dB)")

    def effective_length(self) -> float:
        """Loss-weighted interaction length (1 - exp(-alpha*L)) / alpha."""
        if self.alpha == 0.0:
            return self.length
        return -math.expm1(-self.alpha * self.length) / self.alpha


@dataclass(frozen=True)
class PolarizationGeometry:
    """Angle between signal and pump polarizations, radians in [0, pi/2]."""

    theta: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi / 2.0):
            raise ValidationError("geometry.theta must lie in [0, pi/2]")


@dataclass(frozen=True)
class PumpConfig:
    center_wavelength: float
    fwhm_duration: float
    energy: float

    def __post_init__(self):
        if not (self.center_wavelength > 0.0):
            raise ValidationError("pump.center_wavelength must be positive")
        if not (self.fwhm_duration > 0.0):
            raise ValidationError("pump.fwhm_duration must be positive")
        if not (self.energy > 0.0):
            raise ValidationError("pump.energy must be positive")


@dataclass(frozen=True)
class SignalConfig:
    center_wavelength: float
    fwhm_duration: float

    def __post_init__(self):
        if not (self.center_wavelength > 0.0):
            raise ValidationError("signal.center_wavelength must be positive")
        if not (self.fwhm_duration > 0.0):
            raise ValidationError("signal.fwhm_duration must be positive")


@dataclass(frozen=True)
class SourceConfig:
    mean_photon_number: float
    max_photon_cutoff: int

    def __post_init__(self):
        if self.mean_photon_number < 0.0:
            raise ValidationError("source.mean_photon_number must be non-negative")
        # The source and loss tables hold (cutoff+1)**2 doubles each.
        if not (1 <= self.max_photon_cutoff <= 1000):
            raise ValidationError("source.max_photon_cutoff must lie in 1..1000")


@dataclass(frozen=True)
class DetectorConfig:
    herald_efficiency: float
    system_transmittance: float
    noise_per_pulse_switched: float
    noise_per_pulse_unswitched: float
    noise_window_multiplier: float

    def __post_init__(self):
        for name in ("herald_efficiency", "system_transmittance"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"detectors.{name} must lie in [0, 1]")
        for name in ("noise_per_pulse_switched", "noise_per_pulse_unswitched"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"detectors.{name} must be non-negative")
        if self.noise_window_multiplier < 0.0:
            raise ValidationError("detectors.noise_window_multiplier must be non-negative")


@dataclass(frozen=True)
class SweepConfig:
    energies: tuple[float, ...]
    delays: tuple[float, ...]

    def __post_init__(self):
        if len(self.energies) == 0 or len(self.delays) == 0:
            raise ValidationError("sweep axes must be non-empty")
        if any(e < 0.0 for e in self.energies):
            raise ValidationError("sweep.energies must be non-negative")


@dataclass(frozen=True)
class TofConfig:
    """Time-of-flight spectrometer: group delay `dispersion` (s per m of
    wavelength) about `reference_wavelength`, plus Gaussian detector jitter."""

    dispersion: float
    reference_wavelength: float
    jitter_fwhm: float

    def __post_init__(self):
        if self.dispersion == 0.0:
            raise ValidationError("tof.dispersion must be non-zero")
        if not (self.reference_wavelength > 0.0):
            raise ValidationError("tof.reference_wavelength must be positive")
        if self.jitter_fwhm < 0.0:
            raise ValidationError("tof.jitter_fwhm must be non-negative")


@dataclass(frozen=True)
class SolverConfig:
    steps: int

    def __post_init__(self):
        # At 2**20 slices the default sweep's 28-pump batch takes ~25 min
        # (1.4 ms a slice on 2 vCPUs); the residual's kernel doubles the count.
        if not (8 <= self.steps <= 2**20):
            raise ValidationError("solver.steps must lie in 8..2**20")


@dataclass(frozen=True)
class MonteCarloConfig:
    pulses_per_delay: int

    def __post_init__(self):
        # The multinomial draw counts pulses in int64.
        if not (1 <= self.pulses_per_delay < 2**63):
            raise ValidationError("monte_carlo.pulses_per_delay must lie in 1..2**63-1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated switching experiment.

    Hashable and immutable, so derived results (pump phase kernels, signal
    propagation) can be cached against it.
    """

    pump: PumpConfig
    signal: SignalConfig
    fiber: FiberSpec
    geometry: PolarizationGeometry
    grid: TimeGrid
    source: SourceConfig
    detectors: DetectorConfig
    sweep: SweepConfig
    tof: TofConfig
    solver: SolverConfig
    monte_carlo: MonteCarloConfig
    rng_seed: int

    def __post_init__(self):
        if not (0 <= self.rng_seed < 2**64):
            raise ValidationError("rng_seed must be an unsigned 64-bit integer")
        # Every command builds both pulses on this grid, so check that they fit.
        _check_fits(self.pump.fwhm_duration, self.grid.window, "pump.fwhm_duration")
        _check_fits(self.signal.fwhm_duration, self.grid.window, "signal.fwhm_duration")
