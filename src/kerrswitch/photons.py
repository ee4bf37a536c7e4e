"""Photon-number statistics of the heralded source, loss, port splitting,
noise, and Monte Carlo emulation of the counting experiment."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ExperimentConfig
from .errors import CutoffTooSmall, NoCoincidences, ValidationError, ZeroNoise

_NOISE_TAIL = 1e-13  # largest Poisson tail mass the noise grid may drop


@dataclass(frozen=True)
class JointPhotonDistribution:
    """Joint idler/signal photon-number probabilities P(n_i, n_s)."""

    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2:
            raise ValidationError("joint distribution must be a 2-D matrix")
        if np.any(p < 0.0):
            raise ValidationError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValidationError("joint distribution must sum to 1 within 1e-12")

    @property
    def cutoff(self) -> int:
        return self.probs.shape[0] - 1

    def mean_idler(self) -> float:
        n = np.arange(self.probs.shape[0])
        return float(n @ self.probs.sum(axis=1))

    def mean_signal(self) -> float:
        n = np.arange(self.probs.shape[1])
        return float(self.probs.sum(axis=0) @ n)


@dataclass(frozen=True)
class SplitDistribution:
    """Port-split probabilities for a heralded N-photon state.

    probs[k] = P(n_S = k, n_U = N - k) for k = 0..N.
    """

    herald: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.shape != (self.herald + 1,):
            raise ValidationError("split distribution must have herald+1 entries")
        if np.any(p < 0.0):
            raise ValidationError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValidationError("split distribution must sum to 1 within 1e-12")

    def mean_switched(self) -> float:
        return float(np.arange(self.herald + 1) @ self.probs)


@dataclass(frozen=True)
class CountRecord:
    """Raw coincidence bookkeeping for one delay point."""

    n_si: int
    n_ui: int
    pulses: int
    noise_s: int
    noise_u: int

    def __post_init__(self):
        for name in ("n_si", "n_ui", "pulses", "noise_s", "noise_u"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")


@dataclass(frozen=True)
class EtaEstimate:
    value: float
    stderr: float
    coincidences: int


def thermal_joint_source(mean_n: float, cutoff: int) -> JointPhotonDistribution:
    """Perfectly correlated two-mode squeezed-vacuum photon statistics.

    P(n, n) = mean_n^n / (1 + mean_n)^(n+1), zero off the diagonal,
    renormalized over the cutoff. Emits CutoffTooSmall if the truncated mass
    reaches 1e-6; picking a safe cutoff is the caller's job.
    """
    if mean_n < 0.0:
        raise ValidationError("mean_n must be non-negative")
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    n = np.arange(cutoff + 1)
    if mean_n == 0.0:
        diag = np.zeros(cutoff + 1)
        diag[0] = 1.0
    else:
        ratio = mean_n / (1.0 + mean_n)
        diag = ratio**n / (1.0 + mean_n)
    truncated = 1.0 - diag.sum()
    if truncated >= 1e-6:
        warnings.warn(
            f"cutoff {cutoff} truncates {truncated:.3g} of the photon-number mass",
            CutoffTooSmall,
            stacklevel=2,
        )
    probs = np.zeros((cutoff + 1, cutoff + 1))
    np.fill_diagonal(probs, diag / diag.sum())
    return JointPhotonDistribution(probs=probs)


def _thinning_matrix(size: int, transmittance: float) -> np.ndarray:
    """T[n, k] = P(k of n photons survive a Bernoulli(t) channel)."""
    t = transmittance
    out = np.zeros((size, size))
    out[0, 0] = 1.0
    for n in range(1, size):
        # Pascal-style recurrence keeps the rows exactly normalized.
        out[n, 0] = out[n - 1, 0] * (1.0 - t)
        out[n, 1:] = out[n - 1, 1:] * (1.0 - t) + out[n - 1, :-1] * t
    return out


def apply_loss(
    dist: JointPhotonDistribution, t_idler: float, t_signal: float
) -> JointPhotonDistribution:
    """Independent Bernoulli thinning of the idler and signal arms."""
    for name, t in (("t_idler", t_idler), ("t_signal", t_signal)):
        if not (0.0 <= t <= 1.0):
            raise ValidationError(f"{name} must lie in [0, 1]")
    size = dist.probs.shape[0]
    ti = _thinning_matrix(size, t_idler)
    ts = _thinning_matrix(size, t_signal)
    probs = ti.T @ dist.probs @ ts
    return JointPhotonDistribution(probs=probs / probs.sum())


def binomial_splits(n_photons: int, etas) -> np.ndarray:
    """Variable-beamsplitter output probabilities for an N-photon input at
    each efficiency in `etas`, as a (len(etas), N + 1) array.

    Row e is C(N, k) * eta_e^k * (1 - eta_e)^(N - k) over k = 0..N, divided
    by its sum.
    """
    if n_photons < 0:
        raise ValidationError("photon number must be non-negative")
    eta = np.asarray(etas, dtype=float).reshape(-1, 1)
    if not np.all((eta >= 0.0) & (eta <= 1.0)):
        raise ValidationError("eta must lie in [0, 1]")
    k = np.arange(n_photons + 1)
    coeff = np.array([math.comb(n_photons, int(i)) for i in k], dtype=float)
    probs = coeff * eta**k * (1.0 - eta) ** (n_photons - k)
    return probs / probs.sum(axis=1, keepdims=True)


def binomial_split(n_photons: int, eta: float) -> SplitDistribution:
    """Variable-beamsplitter output probabilities for an N-photon input.

    probs[k] = C(N, k) * eta^k * (1 - eta)^(N - k).
    """
    return SplitDistribution(herald=n_photons, probs=binomial_splits(n_photons, [eta])[0])


def split_vs_delay(config: ExperimentConfig, n_photons: int) -> list[SplitDistribution]:
    """Exact split distributions along the configured delay axis.

    The switching efficiency is simulated once per delay at the configured
    pump energy and shared across all photon numbers up to `n_photons`.
    """
    from .switch import efficiency_vs_delay

    if n_photons < 1:
        raise ValidationError("n_photons must be >= 1")
    delays = np.asarray(config.sweep.delays, dtype=float)
    etas = efficiency_vs_delay(config, config.pump.energy, delays)
    return [SplitDistribution(herald=n_photons, probs=p) for p in binomial_splits(n_photons, etas)]


def eta_exp(counts: CountRecord) -> EtaEstimate:
    """Coincidence-ratio estimate of the switching efficiency.

    value = N_Si / (N_Si + N_Ui), with the binomial standard error
    sqrt(eta*(1-eta)/(N_Si+N_Ui)).
    """
    total = counts.n_si + counts.n_ui
    if total == 0:
        raise NoCoincidences("no coincidences recorded in either port")
    value = counts.n_si / total
    stderr = math.sqrt(value * (1.0 - value) / total)
    return EtaEstimate(value=value, stderr=stderr, coincidences=total)


def snr(heralded_prob: float, noise_per_pulse: float) -> float:
    """Signal-to-noise ratio: heralded detection probability per noise count."""
    if not (0.0 <= heralded_prob <= 1.0):
        raise ValidationError("heralded_prob must lie in [0, 1]")
    if noise_per_pulse < 0.0:
        raise ValidationError("noise_per_pulse must be non-negative")
    if noise_per_pulse == 0.0:
        raise ZeroNoise("noise-limited SNR undefined for zero noise per pulse")
    return heralded_prob / noise_per_pulse


@dataclass(frozen=True)
class MonteCarloResult:
    """Counting-experiment emulation over the configured delay axis.

    split_events[N] is an integer matrix [n_delays, N+1]; entry [d, k] counts
    pulses at delay d heralded by N idler photons in which exactly k of N
    detected signal photons exited the switched port. `empirical_split(N)`
    normalizes its rows into a table laid out as `binomial_splits` lays out
    the exact one.
    """

    delays: np.ndarray = field(repr=False)
    records: tuple[CountRecord, ...]
    split_events: dict[int, np.ndarray] = field(repr=False)

    def empirical_split(self, n_photons: int):
        """(probabilities, standard errors, totals) of the N-herald split at
        every delay.

        probabilities[d, k] = events[d, k] / totals[d], with the binomial
        standard error sqrt(p * (1 - p) / totals[d]); both are (delays, N + 1)
        and totals is (delays,). A delay with no N-herald pulses has total 0
        and zero probabilities and errors.
        """
        events = self.split_events[n_photons]
        totals = events.sum(axis=1)
        p = np.divide(events, totals[:, None], out=np.zeros(events.shape), where=totals[:, None] > 0)
        stderr = np.sqrt(p * (1.0 - p) / np.maximum(totals, 1)[:, None])
        return p, stderr, totals


def _poisson_pmf(mean: float, counts: np.ndarray) -> np.ndarray:
    """Poisson probabilities of the non-negative integers `counts`."""
    if mean == 0.0:
        return (counts == 0).astype(float)
    log_factorial = np.array([math.lgamma(c + 1.0) for c in counts])
    return np.exp(counts * math.log(mean) - mean - log_factorial)


def _noise_totals(mean: float) -> np.ndarray:
    """Poisson pmf of the total noise count over 0..T, where T is the smallest
    count whose upper tail P(count > T) is at most _NOISE_TAIL."""
    far = int(math.ceil(mean + 40.0 * math.sqrt(mean))) + 40
    pmf = _poisson_pmf(mean, np.arange(far + 1))
    at_least = np.cumsum(pmf[::-1])[::-1]  # at_least[t] = P(count >= t)
    top = int(np.argmax(at_least[1:] <= _NOISE_TAIL))
    assert at_least[top + 1] <= _NOISE_TAIL, "noise grid drops more than its tail bound"
    return pmf[: top + 1]


def _outcome_cells(config: ExperimentConfig, n_max: int, etas):
    """Outcome cells of one pulse and their probabilities at each efficiency.

    Returns (n, a, b, k, probs). Counted cell i has n[i] heralds, a[i]
    switched and b[i] unswitched noise counts, and n[i] signal detections of
    which k[i] in the switched port: n[i] - a[i] - b[i] photons reached the
    switch and k[i] - a[i] of them were switched. In each row probs[e] the
    counted cells are followed by one "other" cell per total noise count
    t = 0..T, which holds every remaining outcome with t noise counts.
    """
    det = config.detectors
    mean_s = det.noise_per_pulse_switched * det.noise_window_multiplier
    mean_u = det.noise_per_pulse_unswitched * det.noise_window_multiplier

    # P(h heralds, s photons at the switch) for h, s <= n_max; numbers past
    # the source cutoff have probability 0.
    source = thermal_joint_source(config.source.mean_photon_number, config.source.max_photon_cutoff)
    lossy = apply_loss(source, det.herald_efficiency, det.system_transmittance).probs
    joint = np.zeros((n_max + 1, n_max + 1))
    m = min(n_max, lossy.shape[0] - 1)
    joint[: m + 1, : m + 1] = lossy[: m + 1, : m + 1]

    totals = _noise_totals(mean_s + mean_u)
    top = totals.size - 1
    n, a, b, k = np.array(
        [
            (h, ns, nu, ks)
            for h in range(1, n_max + 1)
            for ns in range(min(h, top) + 1)
            for nu in range(min(h - ns, top - ns) + 1)
            for ks in range(ns, h - nu + 1)
        ]
    ).T
    # Routing sums to 1 over k, so the counted mass with t noise counts is
    # P(t) * sum over n of P(n heralds, n - t photons).
    counted = np.zeros(top + 1)
    for t in range(min(top, n_max) + 1):
        counted[t] = sum(joint[h, h - t] for h in range(max(t, 1), n_max + 1))
    routing = np.zeros((len(etas), n_max + 1, n_max + 1))
    for s in range(n_max + 1):
        routing[:, s, : s + 1] = binomial_splits(s, etas)
    weight = joint[n, n - a - b] * _poisson_pmf(mean_s, a) * _poisson_pmf(mean_u, b)
    other = np.broadcast_to(totals * (1.0 - counted), (len(etas), top + 1))
    probs = np.hstack((weight * routing[:, n - a - b, k - a], other)) / totals.sum()
    return n, a, b, k, probs


def monte_carlo_experiment(
    config: ExperimentConfig,
    eta_of_delay,
    pulses: int,
    seed: int,
    n_max: int = 6,
    workers: int = 1,
) -> MonteCarloResult:
    """Emulate the photon-counting experiment along the configured delays.

    The pulse model: a pair number from the thermal source (truncated at
    `source.max_photon_cutoff`), each arm thinned by its transmittance, every
    surviving signal photon routed to the switched port with probability
    eta(delay), and Poisson noise counts added per detection window. Only
    counts are kept, so each delay is one multinomial draw of `pulses` over
    the exact outcome probabilities of one pulse (`_outcome_cells`), and the
    cost does not grow with `pulses`. The noise counts are part of each cell,
    so the noise totals stay correlated with the coincidences; the noise of
    uncounted pulses splits between the ports binomially. Each delay draws
    from its own Philox stream keyed by (seed, delay index). `workers` is
    accepted for callers that pass it and changes nothing.
    """
    if pulses < 1:
        raise ValidationError("pulses must be >= 1")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    delays = np.asarray(config.sweep.delays, dtype=float)
    etas = [float(eta_of_delay(float(tau))) for tau in delays]
    n, a, b, k, probs = _outcome_cells(config, n_max, etas)
    # Noise counts are summed and binomially split in int64; a delay's total
    # is at most pulses times the noise grid's top count.
    top = probs.shape[1] - n.size - 1
    if pulses * top >= 2**63:
        raise ValidationError(
            f"{pulses} pulses x {top} noise counts per pulse overflow int64 noise totals"
        )
    det = config.detectors
    mean_noise = det.noise_per_pulse_switched + det.noise_per_pulse_unswitched
    share = det.noise_per_pulse_switched / mean_noise if mean_noise > 0.0 else 0.0

    events = np.zeros((delays.size, n_max + 1, n_max + 1), dtype=np.int64)
    records = []
    for d, p in enumerate(probs):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(d,))))
        draw = rng.multinomial(pulses, p)
        hits, rest = draw[: n.size], draw[n.size :]
        np.add.at(events[d], (n, k), hits)
        other_noise = int(rest @ np.arange(rest.size))
        other_s = int(rng.binomial(other_noise, share))
        records.append(
            CountRecord(
                n_si=int(events[d, 1, 1]),
                n_ui=int(events[d, 1, 0]),
                pulses=pulses,
                noise_s=int(hits @ a) + other_s,
                noise_u=int(hits @ b) + other_noise - other_s,
            )
        )
    split_events = {h: events[:, h, : h + 1].copy() for h in range(1, n_max + 1)}
    return MonteCarloResult(delays=delays, records=tuple(records), split_events=split_events)
