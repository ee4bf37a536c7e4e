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

from .core import C_LIGHT, FiberSpec, PulseEnvelope, TimeGrid, energy
from .errors import GridMismatch, ValidationError, ZeroEnergy

# Ratio of parallel-minus-orthogonal XPM to plain XPM in an isotropic Kerr
# medium; yields the 8*pi/3 differential-phase coefficient for the switch.
XPM_DIFFERENTIAL_FACTOR = 4.0 / 3.0

# Largest fraction of the pump energy a propagation sub-window may leave
# outside itself at launch, or hold in its outer 1/16 at launch and at the end.
WINDOW_MASS_BOUND = 1e-15
# Largest fraction of the pump energy a sub-window smaller than the grid may
# hold in its outer 1/16 at a slice midpoint; past it the window doubles in
# place. Zero-padding cuts the field at the window's edge, where its amplitude
# goes as the square root of this mass, and the cut spreads into the pulse.
# Growing at WINDOW_MASS_BOUND moved the default 14 nJ kernel by 5e-11 of its
# peak phase against the whole-grid propagation; growing here moves it 3e-13.
GROWTH_MASS_BOUND = 1e-22
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
    sub-window the pump ended on (``n_samples`` when it took the whole
    grid); the window may have grown mid-fiber from a smaller one, and
    ``pump_final`` is zero outside it.
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
    acc: np.ndarray,
    values: np.ndarray,
    shift: float,
    work: np.ndarray,
    offset: int = 0,
    rows: slice | np.ndarray = ...,
) -> None:
    """Add `values`, placed at index `offset` of `acc` and delayed by `shift`
    samples, to `acc`, zero-filled, along the last axis.

    Equals ``acc += np.interp(k - offset - shift, j, values, left=0, right=0)``
    on the sample indices k of `acc` and j of `values`: one integer offset plus
    a two-tap linear blend. Output samples whose source index falls outside
    `values` get nothing, and so do shifts past the ends of `acc`, so a shift
    never wraps around. Stacked rows (``values`` of shape ``(b, m)`` into
    ``acc`` of shape ``(b, n)``) are blended and summed each on its own, with
    the same result as one call per row; `rows` picks the rows of `acc` they
    go to (a slice, or an index array without repeats). `work` is scratch at
    least the shape of `values`.
    """
    m, n = values.shape[-1], acc.shape[-1]
    whole = math.floor(shift)
    frac = shift - whole
    whole += offset
    if frac == 0.0:
        lo, hi = max(whole, 0), min(whole + m, n)
        if lo < hi:
            acc[rows, lo:hi] += values[..., lo - whole : hi - whole]
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
    acc[rows, lo:hi] += blend


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


def _edge_mass(intensity: np.ndarray) -> np.ndarray:
    """Energy in the outer 1/16 of a window (the last axis): its first and
    last 1/32, one value per row."""
    edge = intensity.shape[-1] // 32
    return intensity[..., :edge].sum(axis=-1) + intensity[..., -edge:].sum(axis=-1)


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


class _Window:
    """The rows of one `_split_step` call that currently run on the same
    centred window of `m` samples: their indices, fields, Kerr coefficients
    and work buffers."""

    def __init__(self, grid: TimeGrid, m: int, fiber: FiberSpec, dz: float):
        n = grid.n_samples
        self.m = m
        self.lo = (n - m) // 2
        # m / n is a power of two, so the sub-grid's dt equals grid.dt exactly.
        sub = grid if m == n else TimeGrid(n_samples=m, window=grid.window * m / n)
        self.half = _linear_factor(
            sub.omega, fiber.beta2_pump, fiber.beta3_pump, fiber.alpha, 0.5 * dz
        )
        self.full = self.half * self.half
        self._set(np.empty(0, dtype=np.intp), np.empty((0, m), dtype=np.complex128),
                  np.empty((0, 1)))

    def _set(self, rows: np.ndarray, a: np.ndarray, gamma_dz: np.ndarray) -> None:
        self.rows, self.a, self.gamma_dz = rows, a, gamma_dz
        self.intensity = np.empty(a.shape)
        self.work = np.empty(a.shape)
        self.rotation = np.empty(a.shape, dtype=np.complex128)

    def join(self, rows: np.ndarray, a: np.ndarray, gamma_dz: np.ndarray) -> None:
        """Add rows whose fields `a` are in the same domain as this window's
        own."""
        self._set(np.concatenate([self.rows, rows]), np.concatenate([self.a, a]),
                  np.concatenate([self.gamma_dz, gamma_dz]))

    def take(self, leave: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove the rows flagged in `leave` and return their indices,
        fields and Kerr coefficients; the rows that stay keep this slice's
        intensity."""
        taken = self.rows[leave], self.a[leave], self.gamma_dz[leave]
        stay = ~leave
        intensity = self.intensity[stay]
        self._set(self.rows[stay], self.a[stay], self.gamma_dz[stay])
        self.intensity = intensity
        return taken


def _split_step(
    launch: Sequence[np.ndarray],
    windows: Sequence[int],
    grid: TimeGrid,
    fiber: FiberSpec,
    steps: int,
    gamma_pump: np.ndarray,
) -> tuple[list[int], list[np.ndarray], np.ndarray, np.ndarray]:
    """Propagate the time-domain pumps `launch` (each sampled on `grid`)
    over `steps` slices, all rows in lockstep. Row r starts on the centred
    window of ``windows[r]`` samples and has Kerr coefficient
    ``gamma_pump[r, 0]``.

    The rows that share a window size run through each slice together,
    smallest size first. At each slice midpoint, a row on a window smaller
    than the grid whose outer 1/16 holds more than ``GROWTH_MASS_BOUND`` of
    its energy grows in place. The linear step that led to this midpoint is
    undone on the old window, which gives back the field after the previous
    slice's nonlinear step (the launch field at the first slice), where the
    window still passed. That field is zero-padded, centred, to twice the
    window (or to the whole grid, which is not guarded), and the linear step
    is redone there. The row then goes on in the larger window's group, and
    may grow again. Rows never mix: each comes out bit for bit as it would
    in a batch of one.

    The transforms are numpy.fft, which is pocketfft: the kernels are the
    same bits as with the pocketfft they used before. Each writes into its
    input (``out=``), so a slice allocates no field.

    Returns each row's final window size and its output field on that
    window, a ``(b, n_samples)`` array whose row r sums row r's walked-off
    intensity over the slices, and each row's energy at launch and after
    each slice.
    """
    n = grid.n_samples
    dz = fiber.length / steps
    # |half|^2 is this uniform factor: only loss changes the energy.
    half_loss = math.exp(-0.5 * fiber.alpha * dz)
    windows = np.asarray(windows)
    # sum(|a|^2) of each row at launch (time domain), and after each slice
    # (frequency domain) divided by the row's window size then.
    norms = np.empty((steps + 1, windows.size))
    phase = np.zeros((windows.size, n))
    # Every size a row can reach, smallest first.
    sizes = [int(windows.min())]
    while sizes[-1] < n:
        sizes.append(2 * sizes[-1])
    groups: dict[int, _Window] = {}

    def group(m: int) -> _Window:
        if m not in groups:
            groups[m] = _Window(grid, m, fiber, dz)
        return groups[m]

    def grow(g: _Window, leave: np.ndarray, k: int) -> None:
        into = group(min(2 * g.m, n))
        rows, a, gamma_dz = g.take(leave)
        np.fft.fft(a, out=a)
        a /= g.full if k else g.half
        padded = np.zeros((rows.size, into.m), dtype=np.complex128)
        start = g.lo - into.lo
        padded[:, start : start + g.m] = np.fft.ifft(a, out=a)
        a = np.fft.fft(padded, out=padded)
        if k:
            norms[k, rows] = _norm2(a) / into.m
        a *= into.full if k else into.half
        into.join(rows, np.fft.ifft(a, out=a), gamma_dz)

    for m in sorted(set(windows.tolist())):
        rows = np.flatnonzero(windows == m)
        g = group(m)
        a = np.stack([launch[r][g.lo : g.lo + g.m] for r in rows])
        norms[0, rows] = _norm2(a)
        np.fft.fft(a, out=a)
        a *= g.half
        g.join(rows, a, gamma_pump[rows] * dz)

    for k in range(steps):
        # Pump offset at the slice midpoint, in the signal frame, for delay 0.
        shift = fiber.walkoff * ((k + 0.5) * dz - 0.5 * fiber.length) / grid.dt
        for g in groups.values():
            if g.rows.size:
                np.fft.ifft(g.a, out=g.a)
        for m in sizes:
            g = groups.get(m)
            if g is None or not g.rows.size:
                continue
            np.abs(g.a, out=g.intensity)
            g.intensity *= g.intensity
            if m < n:
                total = g.intensity.sum(axis=-1)
                leave = ~(_edge_mass(g.intensity) <= GROWTH_MASS_BOUND * total)
                if leave.any():
                    grow(g, leave, k)
                    if not g.rows.size:
                        continue
            np.multiply(g.intensity, g.gamma_dz, out=g.work)
            np.cos(g.work, out=g.rotation.real)
            np.sin(g.work, out=g.rotation.imag)
            g.a *= g.rotation
            _add_shifted(phase, g.intensity, shift, g.work, g.lo, g.rows)
            np.fft.fft(g.a, out=g.a)
            # Dividing by the power of two m rounds nothing.
            norms[k + 1, g.rows] = _norm2(g.a) / m
            g.a *= g.full if k + 1 < steps else g.half

    out_windows = [0] * windows.size
    fields = [None] * windows.size
    for g in groups.values():
        a = np.fft.ifft(g.a, out=g.a) if g.rows.size else g.a
        for j, r in enumerate(g.rows):
            out_windows[r], fields[r] = g.m, a[j]
    step_energy = np.empty((windows.size, steps + 1))
    step_energy[:, 0] = norms[0] * grid.dt
    # Energy at the end of each slice (Parseval, then the closing half step's
    # loss); that half step merges with the next slice's opening one.
    step_energy[:, 1:] = (norms[1:] * half_loss * grid.dt).T
    return out_windows, fields, phase, step_energy


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

    Each pump starts on the smallest power-of-two sub-window, centred in the
    grid and at its ``dt``, that passes two launch guards: at most
    ``WINDOW_MASS_BOUND`` of the pump energy lies outside it, and its outer
    1/16 holds at most that fraction of the energy. The search starts at 64
    samples and doubles; once it reaches the full grid it propagates that,
    unguarded, exactly as a kernel without the search would. At every slice
    midpoint the outer 1/16 may hold at most ``GROWTH_MASS_BOUND`` of the
    energy; a pump with more grows in place to twice its window and goes on
    from that slice (see `_split_step`), so ``window_samples`` is the window
    it ends on. A pump whose output still holds more than
    ``WINDOW_MASS_BOUND`` in its outer 1/16 after the last slice runs again
    from launch, on the next larger window that passes the launch guards.
    The walked-off phase is accumulated straight into the full-grid
    ``phase_vs_offset``, so walk-off past the sub-window is kept, and
    ``pump_final`` is zero-padded back to the grid.

    All pumps run through one split-step loop, grouped by their current
    window size; a pump's kernel is bit for bit the same whatever else is in
    the batch.

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
    gamma = np.array(
        [[nonlinear_coefficient(fiber.n2, p.center_wavelength, fiber.a_eff)] for p in pumps]
    )
    launch = [np.abs(p.samples) ** 2 for p in pumps]
    bound = [WINDOW_MASS_BOUND * x.sum() for x in launch]
    # Pump index -> the launch window of its next run from launch.
    tries = {i: _launch_window(launch[i], _MIN_WINDOW, bound[i]) for i in range(len(pumps))}
    kernels: list[XpmKernel | None] = [None] * len(pumps)
    while tries:
        rows = list(tries)
        windows, fields, phase, step_energy = _split_step(
            [pumps[i].samples for i in rows], list(tries.values()),
            grid, fiber, steps, gamma[rows],
        )
        tries.clear()
        for r, i in enumerate(rows):
            m, a = windows[r], fields[r]
            out = np.abs(a) ** 2
            if m < n and not _edge_mass(out) <= WINDOW_MASS_BOUND * out.sum():
                tries[i] = _launch_window(launch[i], 2 * m, bound[i])
                continue
            lo = (n - m) // 2
            samples = np.zeros(n, dtype=np.complex128)
            samples[lo : lo + m] = a
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
