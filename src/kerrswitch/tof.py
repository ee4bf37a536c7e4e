"""Time-of-flight spectrometer: a dispersion-compensating module maps
wavelength linearly to arrival time, followed by detector jitter."""

from __future__ import annotations

import math

import numpy as np

from .core import TofConfig
from .errors import DegenerateBins, ValidationError

_FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


# The spectrometer parameters are the config's own type; `TofSpec` is its
# historical name.
TofSpec = TofConfig


def arrival_time(spec: TofConfig, wavelength: float) -> float:
    """Arrival time t = D * (wavelength - reference), first order only."""
    return spec.dispersion * (wavelength - spec.reference_wavelength)


def spectrum_to_histogram(
    spec: TofConfig,
    wavelengths: np.ndarray,
    density: np.ndarray,
    bin_width: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Map a spectral density onto an arrival-time histogram.

    The density is rebinned by evaluating its cumulative mass at the time-bin
    edges (conserving total mass exactly, with the 1/|D| Jacobian implicit),
    convolved with the Gaussian jitter kernel, and renormalized to unit area.
    Returns (bin centers, density per second). Wavelength ordering is
    preserved in arrival times for D > 0 and exactly reversed for D < 0.

    Raises:
        DegenerateBins: if fewer than 4 bins span the support.
    """
    if bin_width <= 0.0:
        raise ValidationError("bin_width must be positive")
    wavelengths = np.asarray(wavelengths, dtype=float)
    density = np.asarray(density, dtype=float)
    if wavelengths.size < 2 or wavelengths.size != density.size:
        raise ValidationError("need matching wavelength/density arrays of length >= 2")
    if np.any(np.diff(wavelengths) <= 0.0):
        raise ValidationError("wavelengths must be strictly increasing")

    span = abs(spec.dispersion) * (wavelengths[-1] - wavelengths[0])
    if span / bin_width < 4:
        raise DegenerateBins(
            f"support spans {span / bin_width:.2f} bins of {bin_width:g} s; need >= 4"
        )

    # Cumulative mass on the wavelength axis; monotone in time for either
    # dispersion sign, so per-bin mass is |diff of the CDF at the bin edges|.
    cdf = np.concatenate(
        ([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(wavelengths)))
    )
    t_ends = spec.dispersion * (wavelengths[[0, -1]] - spec.reference_wavelength)
    sigma = spec.jitter_fwhm / _FWHM_SIGMA
    pad = 4.0 * sigma + bin_width
    t_lo = min(t_ends) - pad
    t_hi = max(t_ends) + pad
    n_bins = int(math.ceil((t_hi - t_lo) / bin_width))
    half = int(math.ceil(5.0 * sigma / bin_width))
    if 2 * half + 1 > n_bins:
        # np.convolve(mode="same") returns the longer operand's length, so
        # widen the range on both sides until the jitter kernel fits in it.
        extra = (2 * half + 2 - n_bins) // 2
        t_lo -= extra * bin_width
        n_bins += 2 * extra
    edges = t_lo + bin_width * np.arange(n_bins + 1)
    lam_at_edges = spec.reference_wavelength + edges / spec.dispersion
    cdf_at_edges = np.interp(lam_at_edges, wavelengths, cdf, left=0.0, right=cdf[-1])
    bin_mass = np.abs(np.diff(cdf_at_edges))

    if sigma > 0.0:
        k = np.arange(-half, half + 1) * bin_width
        kernel = np.exp(-0.5 * (k / sigma) ** 2)
        kernel /= kernel.sum()
        bin_mass = np.convolve(bin_mass, kernel, mode="same")

    centers = 0.5 * (edges[:-1] + edges[1:])
    hist = bin_mass / (bin_mass.sum() * bin_width)
    return centers, hist


def histogram_csv(times: np.ndarray, density: np.ndarray) -> str:
    """Serialize an arrival-time histogram to CSV (columns time_ps, density)."""
    times = np.asarray(times, dtype=float)
    density = np.asarray(density, dtype=float)
    if times.size != density.size:
        raise ValidationError("times and density must have matching lengths")
    lines = ["time_ps,density"]
    lines.extend(
        f"{t / 1e-12:.12g},{d * 1e-12:.12g}" for t, d in zip(times, density)
    )
    return "\n".join(lines) + "\n"
