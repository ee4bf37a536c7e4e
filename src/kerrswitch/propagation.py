"""Split-step Fourier propagation of the strong pump and the XPM phase it
imprints on a co-propagating weak signal.

The pump evolves under group-velocity dispersion, self-phase modulation and
loss in its own co-moving frame. The signal is a weak scalar envelope: it
receives its own dispersion and loss, while the pump-induced birefringence is
tracked as a separate differential phase profile on the signal's time axis.
The two frames are connected by the group-slowness walk-off: at distance z the
pump is offset by ``delay + walkoff*(z - L/2)`` on the signal's clock, so a
zero delay means the walk-through is centered on the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft

from .core import C_LIGHT, FiberSpec, PulseEnvelope, TimeGrid, energy
from .errors import GridMismatch, ValidationError, ZeroEnergy

# Ratio of parallel-minus-orthogonal XPM to plain XPM in an isotropic Kerr
# medium; yields the 8*pi/3 differential-phase coefficient for the switch.
XPM_DIFFERENTIAL_FACTOR = 4.0 / 3.0

# Largest fraction of the pump energy a propagation sub-window may leave
# outside itself at launch, or hold in its outer 1/16 at launch and at the end.
WINDOW_MASS_BOUND = 1e-15
_MIN_WINDOW = 64  # the smallest TimeGrid


def nonlinear_coefficient(n2: float, wavelength: float, a_eff: float) -> float:
    """Kerr coefficient gamma = 2*pi*n2 / (wavelength * a_eff), 1/(W*m)."""
    return 2.0 * math.pi * n2 / (wavelength * a_eff)


@dataclass(frozen=True)
class XpmKernel:
    """Accumulated differential-phase response of one pump propagation.

    ``phase_vs_offset[j]`` is the differential phase picked up at signal-frame
    time ``offsets[j] + delay`` for a pump launched with delay ``delay``; the
    profile for any delay is this curve shifted rigidly, because the walk-off
    advection enters only through the difference of the two time axes.
    ``offsets`` is the grid's time axis, one read-only array shared by every
    kernel on that grid. ``window_samples`` is the size of the centred
    sub-window the pump was propagated on (``n_samples`` when it took the
    whole grid); ``pump_final`` is zero outside it.
    """

    offsets: np.ndarray = field(repr=False)
    phase_vs_offset: np.ndarray = field(repr=False)
    pump_final: PulseEnvelope = field(repr=False)
    per_step_energy: np.ndarray = field(repr=False)
    steps: int
    window_samples: int


@dataclass(frozen=True)
class PropagationResult:
    """Outputs of one coupled pump/signal pass through the fiber."""

    pump_out: PulseEnvelope
    signal_out: PulseEnvelope
    xpm_phase: np.ndarray = field(repr=False)
    steps_taken: int
    per_step_energy: np.ndarray = field(repr=False)


def _linear_factor(omega: np.ndarray, beta2: float, beta3: float, alpha: float, dz: float):
    # d/dt maps to +i*omega under numpy's FFT sign convention.
    exponent = (0.5j * beta2 * omega**2 - 1j * beta3 * omega**3 / 6.0 - 0.5 * alpha) * dz
    return np.exp(exponent)


@lru_cache(maxsize=8)
def _grid_axis(grid: TimeGrid) -> np.ndarray:
    """``grid.times`` as one read-only array shared by every kernel on `grid`."""
    times = grid.times
    times.flags.writeable = False
    return times


def _add_shifted(
    acc: np.ndarray, values: np.ndarray, shift: float, work: np.ndarray, offset: int = 0
) -> None:
    """Add `values`, placed at index `offset` of `acc` and delayed by `shift`
    samples, to `acc`, zero-filled.

    Equals ``acc += np.interp(k - offset - shift, j, values, left=0, right=0)``
    on the sample indices k of `acc` and j of `values`: one integer offset plus
    a two-tap linear blend. Output samples whose source index falls outside
    `values` get nothing, and so do shifts past the ends of `acc`, so a shift
    never wraps around. `work` is scratch of at least ``values.size``.
    """
    m, n = values.size, acc.size
    whole = math.floor(shift)
    frac = shift - whole
    whole += offset
    if frac == 0.0:
        lo, hi = max(whole, 0), min(whole + m, n)
        if lo < hi:
            acc[lo:hi] += values[lo - whole : hi - whole]
        return
    # Sample j lies between source taps j - whole - 1 (weight frac) and
    # j - whole (weight 1 - frac); both must be inside `values`.
    lo, hi = max(whole + 1, 0), min(whole + m, n)
    if lo >= hi:
        return
    near = values[lo - whole : hi - whole]
    blend = work[: hi - lo]
    np.subtract(values[lo - whole - 1 : hi - whole - 1], near, out=blend)
    blend *= frac
    blend += near
    acc[lo:hi] += blend


def _norm2(x: np.ndarray) -> float:
    """sum(|x|^2) of a complex array.

    einsum, not np.vdot: OpenBLAS runs a dot product this long on threads
    that spin while they wait, which contend with the sweep's row threads.
    """
    flat = x.view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


def _edge_mass(intensity: np.ndarray) -> float:
    """Energy in the outer 1/16 of a window: its first and last 1/32."""
    edge = intensity.size // 32
    return float(intensity[:edge].sum() + intensity[-edge:].sum())


def _split_step(
    a: np.ndarray,
    grid: TimeGrid,
    fiber: FiberSpec,
    steps: int,
    gamma_pump: float,
    phase: np.ndarray,
    offset: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the time-domain pump `a` (sampled on `grid`, overwritten) over
    `steps` slices, adding each slice's walked-off intensity into `phase` from
    index `offset`. Returns the output pump and the energy at launch and after
    each slice."""
    n = grid.n_samples
    dz = fiber.length / steps
    half = _linear_factor(grid.omega, fiber.beta2_pump, fiber.beta3_pump, fiber.alpha, 0.5 * dz)
    full = half * half
    # |half|^2 is this uniform factor: only loss changes the energy.
    half_loss = math.exp(-0.5 * fiber.alpha * dz)

    # Work buffers, reused by every slice; the FFTs run in place on `a`.
    intensity = np.empty(n)
    work = np.empty(n)
    rotation = np.empty(n, dtype=np.complex128)
    step_energy = np.empty(steps + 1)

    step_energy[0] = _norm2(a) * grid.dt
    a = scipy.fft.fft(a, overwrite_x=True)
    a *= half
    for k in range(steps):
        a = scipy.fft.ifft(a, overwrite_x=True)
        np.abs(a, out=intensity)
        intensity *= intensity
        np.multiply(intensity, gamma_pump * dz, out=work)
        np.cos(work, out=rotation.real)
        np.sin(work, out=rotation.imag)
        a *= rotation
        # Pump offset at the slice midpoint, in the signal frame, for delay 0.
        shift = fiber.walkoff * ((k + 0.5) * dz - 0.5 * fiber.length)
        _add_shifted(phase, intensity, shift / grid.dt, work, offset)
        a = scipy.fft.fft(a, overwrite_x=True)
        # Energy at the end of this slice (Parseval, then the closing half
        # step's loss); that half step merges with the next slice's opening one.
        step_energy[k + 1] = _norm2(a) * half_loss * grid.dt / n
        a *= full if k + 1 < steps else half
    return scipy.fft.ifft(a, overwrite_x=True), step_energy


def compute_xpm_kernel(
    pump: PulseEnvelope,
    fiber: FiberSpec,
    steps: int,
    signal_wavelength: float,
) -> XpmKernel:
    """Propagate the pump alone and integrate the swept differential phase.

    Uses the symmetric split-step scheme (half dispersion / nonlinear / half
    dispersion) on `steps` uniform z-slices. The half-dispersion steps that
    meet between two slices are applied back to back in the frequency domain,
    so each slice costs one FFT pair. The phase kernel is sampled at the slice
    midpoints with the walk-off shift applied outside the periodic FFT box
    (zero beyond the grid), so large delays cannot wrap around.
    ``per_step_energy`` holds the pump energy at launch and after each of
    the `steps` slices.

    The pump is propagated on the smallest power-of-two sub-window, centred
    in the grid and at its ``dt``, that passes two guards: at launch at most
    ``WINDOW_MASS_BOUND`` of the pump energy lies outside the sub-window, and
    its outer 1/16 holds at most that fraction of the energy both at launch
    and after the last slice. The search starts at 64 samples and doubles;
    once it reaches the full grid it propagates that, unguarded, exactly as
    a kernel without the search would. The walked-off phase is accumulated
    straight into the full-grid ``phase_vs_offset``, so walk-off past the
    sub-window is kept, and ``pump_final`` is zero-padded back to the grid.
    """
    if steps < 8:
        raise ValidationError("steps must be >= 8")
    grid = pump.grid
    n = grid.n_samples
    gamma_pump = nonlinear_coefficient(fiber.n2, pump.center_wavelength, fiber.a_eff)
    xpm_coef = XPM_DIFFERENTIAL_FACTOR * nonlinear_coefficient(
        fiber.n2, signal_wavelength, fiber.a_eff
    )
    launch = np.abs(pump.samples) ** 2
    bound = WINDOW_MASS_BOUND * launch.sum()
    m = _MIN_WINDOW
    while m < n:
        lo = (n - m) // 2
        inside = launch[lo : lo + m]
        if launch[:lo].sum() + launch[lo + m :].sum() <= bound and _edge_mass(inside) <= bound:
            # m / n is a power of two, so the sub-grid's dt equals grid.dt exactly.
            sub = TimeGrid(n_samples=m, window=grid.window * m / n)
            phase = np.zeros(n)
            a, step_energy = _split_step(
                pump.samples[lo : lo + m].copy(), sub, fiber, steps, gamma_pump, phase, lo
            )
            out = np.abs(a) ** 2
            if _edge_mass(out) <= WINDOW_MASS_BOUND * out.sum():
                samples = np.zeros(n, dtype=np.complex128)
                samples[lo : lo + m] = a
                break
        m *= 2
    else:
        phase = np.zeros(n)
        samples, step_energy = _split_step(
            pump.samples.copy(), grid, fiber, steps, gamma_pump, phase, 0
        )
    phase *= xpm_coef * (fiber.length / steps)

    pump_final = PulseEnvelope(
        grid=grid, center_wavelength=pump.center_wavelength, samples=samples
    )
    return XpmKernel(
        offsets=_grid_axis(grid),
        phase_vs_offset=phase,
        pump_final=pump_final,
        per_step_energy=step_energy,
        steps=steps,
        window_samples=m,
    )


def sample_xpm_phase(kernel: XpmKernel, grid: TimeGrid, delay: float) -> np.ndarray:
    """Differential phase profile on `grid` for a pump delayed by `delay`."""
    return np.interp(
        grid.times - delay, kernel.offsets, kernel.phase_vs_offset, left=0.0, right=0.0
    )


def propagate_signal_linear(signal: PulseEnvelope, fiber: FiberSpec) -> PulseEnvelope:
    """Apply the signal's dispersion and loss over the full fiber length."""
    factor = _linear_factor(
        signal.grid.omega, fiber.beta2_signal, 0.0, fiber.alpha, fiber.length
    )
    out = np.fft.ifft(np.fft.fft(signal.samples) * factor)
    return PulseEnvelope(
        grid=signal.grid, center_wavelength=signal.center_wavelength, samples=out
    )


def propagate(
    pump: PulseEnvelope,
    signal: PulseEnvelope,
    fiber: FiberSpec,
    delay: float = 0.0,
    steps: int | None = None,
) -> PropagationResult:
    """Co-propagate pump and signal and accumulate the differential XPM phase.

    The pump picks up SPM, dispersion and loss; the signal picks up its own
    dispersion and loss. ``xpm_phase`` is the differential nonlinear phase
    profile on the signal's time axis; in the flat-pump limit its peak equals
    8*pi*n2*L_eff*I_p / (3*lambda_signal).

    ``pump_out`` is returned on the signal's time axis: the envelope is rolled
    by the nearest whole number of samples to ``delay + walkoff*L/2`` (the net
    offset of a pump launched at `delay`), periodically, so its energy is
    preserved exactly.

    `steps` is required; it has no default so that ``solver.steps`` stays
    the one source of the step count (it keeps its place after `delay`, so
    it can still be passed by position).

    Raises:
        GridMismatch: if pump and signal are sampled on different grids.
    """
    if steps is None:
        raise TypeError("propagate() missing required argument: 'steps'")
    if pump.grid != signal.grid:
        raise GridMismatch("pump and signal must share one time grid")
    kernel = compute_xpm_kernel(pump, fiber, steps, signal.center_wavelength)
    xpm_phase = sample_xpm_phase(kernel, signal.grid, delay)
    signal_out = propagate_signal_linear(signal, fiber)

    net_shift = delay + 0.5 * fiber.walkoff * fiber.length
    roll = int(round(net_shift / pump.grid.dt))
    pump_out = PulseEnvelope(
        grid=pump.grid,
        center_wavelength=pump.center_wavelength,
        samples=np.roll(kernel.pump_final.samples, roll),
    )
    return PropagationResult(
        pump_out=pump_out,
        signal_out=signal_out,
        xpm_phase=xpm_phase,
        steps_taken=steps,
        per_step_energy=kernel.per_step_energy,
    )


def pump_spectrum(pulse: PulseEnvelope) -> tuple[np.ndarray, np.ndarray]:
    """Normalized spectral density versus absolute wavelength in nm.

    Returns (wavelength_nm, density) sorted by increasing wavelength, with the
    density carrying the angular-frequency-to-wavelength Jacobian and unit
    area over the wavelength axis.

    Raises:
        ZeroEnergy: if the envelope carries no energy.
    """
    if energy(pulse) <= 0.0:
        raise ZeroEnergy("cannot compute the spectrum of a zero-energy envelope")
    grid = pulse.grid
    omega0 = 2.0 * math.pi * C_LIGHT / pulse.center_wavelength
    omega_abs = omega0 + np.fft.fftshift(grid.omega)
    density_omega = np.abs(np.fft.fftshift(np.fft.fft(pulse.samples))) ** 2

    keep = omega_abs > 0.0
    omega_abs = omega_abs[keep]
    density_omega = density_omega[keep]
    wavelength = 2.0 * math.pi * C_LIGHT / omega_abs
    # d(omega)/d(lambda) = -2*pi*c / lambda^2; magnitude for a density.
    density_wl = density_omega * 2.0 * math.pi * C_LIGHT / wavelength**2

    order = np.argsort(wavelength)
    wavelength = wavelength[order]
    density_wl = density_wl[order]
    density_wl /= np.trapezoid(density_wl, wavelength)
    return wavelength * 1e9, density_wl * 1e-9


def clip_spectrum_support(
    wavelengths: np.ndarray, density: np.ndarray, floor: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous slice of a spectrum where density reaches floor * peak.

    The raw spectral grid spans the full FFT band, most of it numerically
    zero; downstream binning (CSV dumps, time-of-flight histograms) wants the
    occupied range.
    """
    density = np.asarray(density, dtype=float)
    keep = np.flatnonzero(density >= floor * density.max())
    lo, hi = int(keep.min()), int(keep.max()) + 1
    return np.asarray(wavelengths, dtype=float)[lo:hi], density[lo:hi]
