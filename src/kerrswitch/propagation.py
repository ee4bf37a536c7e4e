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
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .core import C_LIGHT, FiberSpec, PulseEnvelope, TimeGrid, energy
from .errors import GridMismatch, ValidationError, ZeroEnergy

# Ratio of parallel-minus-orthogonal XPM to plain XPM in an isotropic Kerr
# medium; yields the 8*pi/3 differential-phase coefficient for the switch.
XPM_DIFFERENTIAL_FACTOR = 4.0 / 3.0

# Largest fraction of the pump energy a propagation sub-window may leave
# outside itself at launch, or hold in its outer 1/16 at launch and at the end;
# past it at the end the window grows in place, as at a slice midpoint.
WINDOW_MASS_BOUND = 1e-15
# Largest fraction of the pump energy a sub-window smaller than the grid may
# hold in its outer 1/16 at a slice midpoint; past it the window grows in
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
    advection enters only through the difference of the two time axes. The
    curve is stored on its span: the grid samples where it is nonzero, plus
    one zero on each side (none past a grid end). It is zero off the span,
    so `_add_shifted` samples it at any delay, on any run of grid samples,
    to the same bits as on the whole grid. ``first`` is the grid index of
    the span's first sample.

    ``pump_window`` holds the output pump on the centred sub-window it
    ended on, one of `_window_sizes` (``n_samples`` when it took the whole
    grid); the window may have grown from a smaller one mid-fiber or after
    the last slice. ``pump_final`` zero-pads it back onto ``grid`` when
    read. ``per_step_energy`` holds the pump energy at launch and after
    each slice.
    """

    first: int
    phase_vs_offset: np.ndarray = field(repr=False)
    pump_window: np.ndarray = field(repr=False)
    grid: TimeGrid = field(repr=False)
    pump_wavelength: float
    per_step_energy: np.ndarray = field(repr=False)

    @property
    def offsets(self) -> np.ndarray:
        """The grid's sample times on the span."""
        return self.grid.times[self.first : self.first + self.phase_vs_offset.size]

    @property
    def steps(self) -> int:
        """The number of slices the pump was propagated over."""
        return self.per_step_energy.size - 1

    @property
    def window_samples(self) -> int:
        """The size of the window the pump ended on."""
        return self.pump_window.size

    @property
    def pump_final(self) -> PulseEnvelope:
        """The output pump on the whole grid, zero outside its window."""
        n, m = self.grid.n_samples, self.window_samples
        lo = (n - m) // 2
        samples = np.zeros(n, dtype=np.complex128)
        samples[lo : lo + m] = self.pump_window
        return PulseEnvelope(grid=self.grid, center_wavelength=self.pump_wavelength,
                             samples=samples)


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


def _add_shifted(
    acc: np.ndarray,
    values: np.ndarray,
    shift: float,
    work: np.ndarray,
    offset: int = 0,
    rows: slice | np.ndarray = ...,
) -> None:
    """Add `values`, placed at index `offset` of `acc` and delayed by `shift`
    samples, to `acc`, zero-filled, along the last axis. The one
    fractional-sample shift of the package: the split-step's walk-off, and
    the delayed kernel phase of `sample_xpm_phase` and `switch._etas`.

    Equals ``acc += np.interp(k - offset - shift, j, values, left=0, right=0)``
    on the sample indices k of `acc` and j of `values`: one integer offset plus
    a two-tap linear blend. An output sample gets nothing unless its near
    tap lies on `values`, and its far tap too where it is weighted, which is
    np.interp's zero fill, so a shift never wraps around. A shift outside
    ``(-m - offset, n - offset)`` for `values` of m samples and `acc` of n
    adds nothing and returns first; so do NaN and infinite shifts. Stacked
    rows (``values`` of shape ``(b, m)`` into ``acc`` of shape ``(b, n)``)
    are blended and summed each on its own, with the same result as one
    call per row; `rows` picks the rows of `acc` they go to (a slice, or an
    index array without repeats). `work` is scratch at least the shape of
    `values`, of any strides; the result does not depend on them.
    """
    m, n = values.shape[-1], acc.shape[-1]
    if not -m - offset < shift < n - offset:
        return
    whole = math.floor(shift)
    frac = shift - whole
    whole += offset
    if frac == 0.0:
        # In reach, a whole shift lands at least one sample.
        lo, hi = max(whole, 0), min(whole + m, n)
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


def _edge_mass(intensity: np.ndarray) -> np.ndarray:
    """Energy in the outer 1/16 of a window (the last axis): its first and
    last 1/32, one value per row."""
    edge = intensity.shape[-1] // 32
    return intensity[..., :edge].sum(axis=-1) + intensity[..., -edge:].sum(axis=-1)


def _window_sizes(n: int, m: int = _MIN_WINDOW) -> list[int]:
    """The window sizes a pump on a grid of `n` samples steps through, from
    `m` up to `n`: 3m/2 after a power of two and 4m/3 after 3 * 2**k, capped
    at `n`. From 64 that is 64, 96, 128, 192, 256, ..., each a multiple of
    32, so a window's outer 1/16 and its centring in the grid are exact.
    pocketfft transforms 3 * 2**k samples about as fast per sample as 2**k."""
    sizes = [m]
    while m < n:
        m = min(m + (m // 2 if m & (m - 1) == 0 else m // 3), n)
        sizes.append(m)
    return sizes


def _launch_window(intensity: np.ndarray) -> slice:
    """The window of the grid a pump of whole-grid intensity `intensity`
    launches on, as a slice of the grid. It is the smallest of
    `_window_sizes`, centred in the grid (``lo = (n - m) // 2``), that
    passes two launch guards: at most ``WINDOW_MASS_BOUND`` of the pump's
    energy lies outside it, and its outer 1/16 holds at most that fraction.
    The search starts at 64 samples and steps through 96, 128, 192, ...;
    when no smaller window passes, the pump launches on the whole grid,
    unguarded.

    The window depends on the intensity's scale only through rounding. A
    pulse's |samples|^2 lie within an ulp or two of its shape times
    E / raw (see `core._pulse_samples`), so the shape's window and the
    pulse's could part only for a pump whose energy outside a window, or
    in its outer 1/16, lies within an ulp of the bound."""
    n = intensity.size
    bound = WINDOW_MASS_BOUND * intensity.sum()
    for m in _window_sizes(n)[:-1]:
        lo = (n - m) // 2
        window = slice(lo, lo + m)
        outside = intensity[:lo].sum() + intensity[lo + m :].sum()
        if outside <= bound and _edge_mass(intensity[window]) <= bound:
            return window
    return slice(0, n)


class _Window:
    """The rows of one `_split_step` call that currently run on the same
    centred window of `m` samples: their indices and fields, and two work
    buffers, 40 bytes per sample with the field. `intensity` holds |a|^2,
    contiguous, and then the Kerr step's half-angle tangent in place.
    `rotation` holds the Kerr step's exp(i*angle); before the step the first
    m float64 columns of each of its rows are `_add_shifted`'s scratch."""

    def __init__(self, grid: TimeGrid, m: int, fiber: FiberSpec, dz: float):
        n = grid.n_samples
        self.m = m
        self.lo = (n - m) // 2
        # The window's frequency axis at the grid's dt (TimeGrid takes only
        # powers of two).
        omega = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.dt)
        self.half = _linear_factor(
            omega, fiber.beta2_pump, fiber.beta3_pump, fiber.alpha, 0.5 * dz
        )
        self.full = self.half * self.half
        self._set(np.empty(0, dtype=np.intp), np.empty((0, m), dtype=np.complex128))

    def _set(self, rows: np.ndarray, a: np.ndarray) -> None:
        self.rows, self.a = rows, a
        self.intensity = np.empty(a.shape)
        self.rotation = np.empty(a.shape, dtype=np.complex128)

    def join(self, rows: np.ndarray, a: np.ndarray) -> None:
        """Add rows with their time-domain fields `a`."""
        self._set(np.concatenate([self.rows, rows]), np.concatenate([self.a, a]))

    def take(self, leave: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Remove the rows flagged in `leave` and return their indices and
        fields; the rows that stay keep this slice's intensity."""
        taken = self.rows[leave], self.a[leave]
        stay = ~leave
        intensity = self.intensity[stay]
        self._set(self.rows[stay], self.a[stay])
        self.intensity = intensity
        return taken


def _split_step(
    launch: list[np.ndarray],
    grid: TimeGrid,
    fiber: FiberSpec,
    steps: int,
    gamma: float,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Propagate the time-domain pumps `launch` over `steps` slices, all
    rows in lockstep with the Kerr coefficient `gamma`. ``launch[r]`` is
    row r's launch field on the centred window of `grid` it starts on, a
    window of ``launch[r].size`` samples. The fields are copied into their
    window groups and `launch` is emptied, so no launch copy lives through
    the passes.

    One loop makes passes k = 0..steps. In each pass the rows that share a
    window size run together, one group at a time, smallest size first.
    A group makes the linear step where slices k - 1 and k meet: a half step
    at either end of the fiber, the two halves joined as one full step in
    between. It then guards the window and, except after the last slice,
    makes slice k's nonlinear step. A row on a window smaller than the grid
    whose outer 1/16 holds more than ``GROWTH_MASS_BOUND`` of its energy at
    a slice midpoint, or more than ``WINDOW_MASS_BOUND`` at the output,
    grows in place. The pass's linear step is undone on the old window,
    which gives back the field before it (the launch field at the first
    pass), where the window still passed. That field is zero-padded,
    centred, to the next of `_window_sizes` (the whole grid, which is not
    guarded, at the top), and the row joins that size's group, whose turn
    in the pass is still to come: it makes the pass's linear step there
    with the group, and may grow again. Each row makes each pass once, and
    rows never mix: each comes out bit for bit as it would in a batch of
    one.

    The transforms are numpy.fft, which is pocketfft. Each writes into its
    input (``out=``), so a slice allocates no field. A slice first adds its
    walked-off intensity to the phase, with the first m float64 columns of
    each `rotation` row as `_add_shifted`'s scratch. The Kerr step then
    runs in place in the contiguous `intensity`: t = tan(angle/2) for the
    angle gamma*dz*|a|^2, ``rotation.imag`` = t, `intensity` = 2/(1 + t^2),
    and exp(i*angle) = (2/(1 + t^2) - 1) + i*t*2/(1 + t^2), which holds
    through the tangent's poles (t of a float stays below 1e17). numpy
    2.4's float64 tan is vectorized only on contiguous input, and on hosts
    without AVX-512 not at all; its sin and cos are not vectorized, so one
    tangent on contiguous rows costs less than sin and cos on `rotation`'s
    strided halves. A window sample holds three arrays: the field,
    `intensity` and `rotation`.

    Returns each row's output field on the window it ended on (of the
    field's size), a ``(b, n_samples)`` array whose row r sums row r's walked-off
    intensity over the slices, and each row's energy at launch and after
    each slice. The energies are sums of the time-domain |a|^2 the loop
    already has: the launch field, each slice midpoint's intensity (the
    nonlinear step keeps the energy, so a midpoint holds the energy after
    the slice before it times one half step's loss) and the output's. Each
    is summed along the last axis, which sums a row the same whatever rows
    are stacked with it.
    """
    n = grid.n_samples
    dz = fiber.length / steps
    gamma_dz = gamma * dz
    # |half|^2 is this uniform factor: only loss changes the energy.
    half_loss = math.exp(-0.5 * fiber.alpha * dz)
    windows = np.array([a.size for a in launch])
    # sum(|a|^2) of each row at launch, at the midpoints of slices 1 to
    # steps - 1, and at the end.
    sums = np.empty((windows.size, steps + 1))
    phase = np.zeros((windows.size, n))
    # Every size a row can reach, smallest first.
    sizes = _window_sizes(n, int(windows.min()))
    groups: dict[int, _Window] = {}

    def group(m: int) -> _Window:
        if m not in groups:
            groups[m] = _Window(grid, m, fiber, dz)
        return groups[m]

    def linear(g: _Window, k: int) -> np.ndarray:
        return g.half if k in (0, steps) else g.full

    def grow(g: _Window, leave: np.ndarray, k: int) -> None:
        into = group(sizes[sizes.index(g.m) + 1])
        rows, a = g.take(leave)
        np.fft.fft(a, out=a)
        a /= linear(g, k)
        padded = np.zeros((rows.size, into.m), dtype=np.complex128)
        start = g.lo - into.lo
        padded[:, start : start + g.m] = np.fft.ifft(a, out=a)
        into.join(rows, padded)

    for m in sorted(set(windows.tolist())):
        rows = np.flatnonzero(windows == m)
        a = np.stack([launch[r] for r in rows])
        sums[rows, 0] = (np.abs(a) ** 2).sum(axis=-1)
        group(m).join(rows, a)
    launch.clear()

    for k in range(steps + 1):
        bound = GROWTH_MASS_BOUND if k < steps else WINDOW_MASS_BOUND
        # Pump offset at the slice midpoint, in the signal frame, for delay 0.
        shift = fiber.walkoff * ((k + 0.5) * dz - 0.5 * fiber.length) / grid.dt
        for m in sizes:
            g = groups.get(m)
            if g is None or not g.rows.size:
                continue
            np.fft.fft(g.a, out=g.a)
            g.a *= linear(g, k)
            np.fft.ifft(g.a, out=g.a)
            np.abs(g.a, out=g.intensity)
            g.intensity *= g.intensity
            total = g.intensity.sum(axis=-1)
            if m < n:
                leave = ~(_edge_mass(g.intensity) <= bound * total)
                if leave.any():
                    # The rows that grow make this pass on their new window.
                    grow(g, leave, k)
                    if not g.rows.size:
                        continue
                    total = total[~leave]
            if k:
                sums[g.rows, k] = total
            if k == steps:
                continue
            scratch = g.rotation.view(np.float64)[:, :m]
            _add_shifted(phase, g.intensity, shift, scratch, g.lo, g.rows)
            t = g.intensity
            np.multiply(t, 0.5 * gamma_dz, out=t)
            np.tan(t, out=t)
            g.rotation.imag = t
            t *= t
            t += 1.0
            np.divide(2.0, t, out=t)
            g.rotation.imag *= t
            np.subtract(t, 1.0, out=g.rotation.real)
            g.a *= g.rotation

    fields = [None] * windows.size
    for g in groups.values():
        for j, r in enumerate(g.rows):
            fields[r] = g.a[j]
    sums[:, 1:steps] /= half_loss
    return fields, phase, sums * grid.dt


def compute_xpm_kernels(
    pumps: Iterable[PulseEnvelope],
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
    the `steps` slices, summed from the time-domain intensities the
    split-step already computes (see `_split_step`).

    Each pump starts on its `_launch_window`, at the grid's ``dt``; a pump
    launched on the whole grid propagates exactly as a kernel without the
    search would. At every slice midpoint the outer 1/16 may hold at most
    ``GROWTH_MASS_BOUND`` of the energy, and after the last slice at most
    ``WINDOW_MASS_BOUND``; a pump with more grows in place to the next size
    and goes on from there (see `_split_step`), so ``window_samples`` is the
    window it ends on.
    The walked-off phase is accumulated on the whole grid, so walk-off past
    the sub-window is kept, and each kernel stores it on its span (see
    `XpmKernel`); the output pump is stored on its final window.

    `pumps` is read once, one pump at a time: each is kept only as a copy of
    its launch window, so a batch read from a generator holds no pump past
    the one it is reading. The copies go to `_kernel_batch`, whose
    split-step drops them once its window groups hold the fields: all pumps
    run through one split-step call with one Kerr coefficient, grouped by
    their current window size, and a pump's kernel is bit for bit the same
    whatever else is in the batch.

    Raises:
        GridMismatch: if the pumps are sampled on different grids.
        ValidationError: if the pumps have different centre wavelengths,
            or `steps` is below 8.
    """
    grid = wavelength = None
    launch = []
    for p in pumps:
        if grid is None:
            grid, wavelength = p.grid, p.center_wavelength
        elif p.grid != grid:
            raise GridMismatch("pumps must share one time grid")
        elif p.center_wavelength != wavelength:
            raise ValidationError("pumps must share one centre wavelength")
        launch.append(p.samples[_launch_window(np.abs(p.samples) ** 2)].copy())
    return _kernel_batch(launch, grid, wavelength, fiber, steps, signal_wavelength)


def _kernel_batch(
    launch: list[np.ndarray],
    grid: TimeGrid,
    wavelength: float,
    fiber: FiberSpec,
    steps: int,
    signal_wavelength: float,
) -> list[XpmKernel]:
    """The kernels of the pumps at `wavelength` whose launch fields are
    ``launch[r]``, each on the centred window of `grid` that
    `_launch_window` gives the pump, of ``launch[r].size`` samples; one
    kernel per field, in order, as `compute_xpm_kernels` describes.
    `launch` is emptied once the split-step's window groups are seeded.

    Raises:
        ValidationError: if `steps` is below 8.
    """
    if steps < 8:
        raise ValidationError("steps must be >= 8")
    if not launch:
        return []
    n = grid.n_samples
    dz = fiber.length / steps
    xpm_coef = XPM_DIFFERENTIAL_FACTOR * nonlinear_coefficient(
        fiber.n2, signal_wavelength, fiber.a_eff
    )
    gamma = nonlinear_coefficient(fiber.n2, wavelength, fiber.a_eff)
    fields, phase, step_energy = _split_step(launch, grid, fiber, steps, gamma)
    kernels = []
    for r, a in enumerate(fields):
        nonzero = np.flatnonzero(phase[r])
        if not nonzero.size:  # no pump energy or no Kerr effect
            nonzero = np.array([n // 2])
        lo, hi = max(int(nonzero[0]) - 1, 0), min(int(nonzero[-1]) + 2, n)
        kernels.append(XpmKernel(
            first=lo,
            phase_vs_offset=phase[r, lo:hi] * (xpm_coef * dz),
            pump_window=a.copy(),
            grid=grid,
            pump_wavelength=wavelength,
            per_step_energy=step_energy[r],
        ))
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
    """Differential phase profile on `grid` for a pump delayed by `delay`:
    the span shifted by ``delay / dt`` samples onto the zeroed grid by
    `_add_shifted`. At a delay of 0 it is the span, copied onto the grid
    exactly.

    Raises:
        GridMismatch: if `grid` is not the kernel's grid.
    """
    if grid != kernel.grid:
        raise GridMismatch("the phase is sampled on the kernel's own grid")
    span = kernel.phase_vs_offset
    out = np.zeros(grid.n_samples)
    _add_shifted(out, span, float(delay) / grid.dt, np.empty(span.size), kernel.first)
    return out


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
        ValidationError: if that net offset in samples is not finite (a NaN
            or infinite `delay`, or one too large for a float offset).
    """
    if steps is None:
        raise TypeError("propagate() missing required argument: 'steps'")
    if pump.grid != signal.grid:
        raise GridMismatch("pump and signal must share one time grid")
    shift = (float(delay) + 0.5 * fiber.walkoff * fiber.length) / pump.grid.dt
    if not math.isfinite(shift):
        raise ValidationError(f"delay {delay!r} s gives no finite sample offset for pump_out")
    kernel = compute_xpm_kernel(pump, fiber, steps, signal.center_wavelength)
    xpm_phase = sample_xpm_phase(kernel, signal.grid, delay)
    signal_out = propagate_signal_linear(signal, fiber)

    roll = int(round(shift))
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

    # omega_abs increases strictly, so the wavelengths decrease strictly.
    wavelength = wavelength[::-1]
    density_wl = density_wl[::-1]
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
