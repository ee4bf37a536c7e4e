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
from collections.abc import Sequence
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
    samples, to `acc`, zero-filled, along the last axis.

    Equals ``acc += np.interp(k - offset - shift, j, values, left=0, right=0)``
    on the sample indices k of `acc` and j of `values`: one integer offset plus
    a two-tap linear blend. Output samples whose source index falls outside
    `values` get nothing, and so do shifts past the ends of `acc`, so a shift
    never wraps around. Stacked rows (``values`` of shape ``(b, m)`` into
    ``acc`` of shape ``(b, n)``) are blended and summed each on its own, with
    the same result as one call per row. `work` is scratch at least the shape
    of `values`.
    """
    m, n = values.shape[-1], acc.shape[-1]
    whole = math.floor(shift)
    frac = shift - whole
    whole += offset
    if frac == 0.0:
        lo, hi = max(whole, 0), min(whole + m, n)
        if lo < hi:
            acc[..., lo:hi] += values[..., lo - whole : hi - whole]
        return
    # Sample j lies between source taps j - whole - 1 (weight frac) and
    # j - whole (weight 1 - frac); both must be inside `values`.
    lo, hi = max(whole + 1, 0), min(whole + m, n)
    if lo >= hi:
        return
    near = values[..., lo - whole : hi - whole]
    blend = work[..., : hi - lo]
    np.subtract(values[..., lo - whole - 1 : hi - whole - 1], near, out=blend)
    blend *= frac
    blend += near
    acc[..., lo:hi] += blend


# Longest row, in float64 values, that one stacked einsum sums exactly as it
# sums the row alone. Past numpy's 8192-element iterator buffer a multi-row
# einsum splits each row into chunks, which changes its rounding.
_EINSUM_ROW = 8192


def _norm2(x: np.ndarray) -> np.ndarray:
    """sum(|x|^2) of each row of a complex ``(b, m)`` array.

    einsum, not np.vdot: OpenBLAS runs a dot product this long on threads
    that spin while they wait, burning cores that do no other work. Rows too
    long for one stacked einsum to sum as it sums a lone row (see
    ``_EINSUM_ROW``) are summed one at a time; at that length the FFTs, not
    the extra calls, set the cost.
    """
    flat = x.view(np.float64)
    if flat.shape[-1] <= _EINSUM_ROW:
        return np.einsum("bi,bi->b", flat, flat)
    return np.array([np.einsum("i,i->", row, row) for row in flat])


def _edge_mass(intensity: np.ndarray) -> float:
    """Energy in the outer 1/16 of a window: its first and last 1/32."""
    edge = intensity.size // 32
    return float(intensity[:edge].sum() + intensity[-edge:].sum())


def _launch_window(launch: np.ndarray, m: int, bound: float) -> int:
    """Smallest centred power-of-two window of at least `m` samples that
    passes the launch guards for a pump of intensity `launch`: at most `bound`
    of its energy outside, and at most `bound` in the window's outer 1/16.
    The whole grid, unguarded, when no smaller window passes."""
    n = launch.size
    while m < n:
        lo = (n - m) // 2
        inside = launch[lo : lo + m]
        if launch[:lo].sum() + launch[lo + m :].sum() <= bound and _edge_mass(inside) <= bound:
            return m
        m *= 2
    return n


def _split_step(
    a: np.ndarray,
    grid: TimeGrid,
    fiber: FiberSpec,
    steps: int,
    gamma_pump: np.ndarray,
    phase: np.ndarray,
    offset: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the ``(b, m)`` time-domain pumps `a` (each row sampled on
    `grid`, overwritten) over `steps` slices, one slice loop for all rows.
    Row r has Kerr coefficient ``gamma_pump[r, 0]`` and adds each slice's
    walked-off intensity into ``phase[r]`` from index `offset`. Rows never mix:
    each comes out bit for bit as it would in a batch of one. Returns the
    output pumps and each row's energy at launch and after each slice."""
    n = grid.n_samples
    dz = fiber.length / steps
    half = _linear_factor(grid.omega, fiber.beta2_pump, fiber.beta3_pump, fiber.alpha, 0.5 * dz)
    full = half * half
    # |half|^2 is this uniform factor: only loss changes the energy.
    half_loss = math.exp(-0.5 * fiber.alpha * dz)
    gamma_dz = gamma_pump * dz

    # Work buffers, reused by every slice; the FFTs run in place on `a`.
    intensity = np.empty(a.shape)
    work = np.empty(a.shape)
    rotation = np.empty(a.shape, dtype=np.complex128)
    # sum(|a|^2) of each row, at launch (time domain) and after each slice
    # (frequency domain).
    norms = np.empty((steps + 1, a.shape[0]))

    norms[0] = _norm2(a)
    a = scipy.fft.fft(a, overwrite_x=True)
    a *= half
    for k in range(steps):
        a = scipy.fft.ifft(a, overwrite_x=True)
        np.abs(a, out=intensity)
        intensity *= intensity
        np.multiply(intensity, gamma_dz, out=work)
        np.cos(work, out=rotation.real)
        np.sin(work, out=rotation.imag)
        a *= rotation
        # Pump offset at the slice midpoint, in the signal frame, for delay 0.
        shift = fiber.walkoff * ((k + 0.5) * dz - 0.5 * fiber.length)
        _add_shifted(phase, intensity, shift / grid.dt, work, offset)
        a = scipy.fft.fft(a, overwrite_x=True)
        norms[k + 1] = _norm2(a)
        a *= full if k + 1 < steps else half
    step_energy = np.empty((a.shape[0], steps + 1))
    step_energy[:, 0] = norms[0] * grid.dt
    # Energy at the end of each slice (Parseval, then the closing half step's
    # loss); that half step merges with the next slice's opening one.
    step_energy[:, 1:] = (norms[1:] * half_loss * grid.dt / n).T
    return scipy.fft.ifft(a, overwrite_x=True), step_energy


def compute_xpm_kernels(
    pumps: Sequence[PulseEnvelope],
    fiber: FiberSpec,
    steps: int,
    signal_wavelength: float,
) -> list[XpmKernel]:
    """Propagate each pump alone and integrate its swept differential phase;
    one kernel per pump, in order.

    Uses the symmetric split-step scheme (half dispersion / nonlinear / half
    dispersion) on `steps` uniform z-slices. The half-dispersion steps that
    meet between two slices are applied back to back in the frequency domain,
    so each slice costs one FFT pair. The phase kernel is sampled at the slice
    midpoints with the walk-off shift applied outside the periodic FFT box
    (zero beyond the grid), so large delays cannot wrap around.
    ``per_step_energy`` holds the pump energy at launch and after each of
    the `steps` slices.

    Each pump is propagated on the smallest power-of-two sub-window, centred
    in the grid and at its ``dt``, that passes two guards: at launch at most
    ``WINDOW_MASS_BOUND`` of the pump energy lies outside the sub-window, and
    its outer 1/16 holds at most that fraction of the energy both at launch
    and after the last slice. The search starts at 64 samples and doubles;
    once it reaches the full grid it propagates that, unguarded, exactly as
    a kernel without the search would. The walked-off phase is accumulated
    straight into the full-grid ``phase_vs_offset``, so walk-off past the
    sub-window is kept, and ``pump_final`` is zero-padded back to the grid.

    Pumps whose next try has the same window size run through one split-step
    loop together, smallest size first; those that fail the end-of-fiber
    guard join the next doubling's batch. A pump's kernel is bit for bit the
    same whatever else is in the batch.

    Raises:
        GridMismatch: if the pumps are sampled on different grids.
    """
    if steps < 8:
        raise ValidationError("steps must be >= 8")
    if not pumps:
        return []
    grid = pumps[0].grid
    if any(p.grid != grid for p in pumps):
        raise GridMismatch("pumps must share one time grid")
    n = grid.n_samples
    dz = fiber.length / steps
    xpm_coef = XPM_DIFFERENTIAL_FACTOR * nonlinear_coefficient(
        fiber.n2, signal_wavelength, fiber.a_eff
    )
    launch = [np.abs(p.samples) ** 2 for p in pumps]
    bound = [WINDOW_MASS_BOUND * x.sum() for x in launch]
    # Window size -> indices of the pumps whose next try runs at that size.
    tries: dict[int, list[int]] = {}
    for i in range(len(pumps)):
        tries.setdefault(_launch_window(launch[i], _MIN_WINDOW, bound[i]), []).append(i)
    kernels: list[XpmKernel | None] = [None] * len(pumps)
    while tries:
        m = min(tries)
        rows = tries.pop(m)
        lo = (n - m) // 2
        # m / n is a power of two, so the sub-grid's dt equals grid.dt exactly.
        sub = grid if m == n else TimeGrid(n_samples=m, window=grid.window * m / n)
        gamma = np.array(
            [[nonlinear_coefficient(fiber.n2, pumps[i].center_wavelength, fiber.a_eff)]
             for i in rows]
        )
        phase = np.zeros((len(rows), n))
        a, step_energy = _split_step(
            np.stack([pumps[i].samples[lo : lo + m] for i in rows]),
            sub, fiber, steps, gamma, phase, lo,
        )
        for r, i in enumerate(rows):
            out = np.abs(a[r]) ** 2
            if m < n and not _edge_mass(out) <= WINDOW_MASS_BOUND * out.sum():
                tries.setdefault(_launch_window(launch[i], 2 * m, bound[i]), []).append(i)
                continue
            samples = np.zeros(n, dtype=np.complex128)
            samples[lo : lo + m] = a[r]
            kernels[i] = XpmKernel(
                offsets=_grid_axis(grid),
                phase_vs_offset=phase[r] * (xpm_coef * dz),
                pump_final=PulseEnvelope(
                    grid=grid, center_wavelength=pumps[i].center_wavelength, samples=samples
                ),
                per_step_energy=step_energy[r],
                steps=steps,
                window_samples=m,
            )
    return kernels


def compute_xpm_kernel(
    pump: PulseEnvelope,
    fiber: FiberSpec,
    steps: int,
    signal_wavelength: float,
) -> XpmKernel:
    """The kernel of one pump: `compute_xpm_kernels` on a batch of one."""
    return compute_xpm_kernels([pump], fiber, steps, signal_wavelength)[0]


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
