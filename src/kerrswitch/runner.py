"""Sweep orchestration and result serialization: the commands behind the CLI.

Every command writes its artifacts into an output directory plus a
manifest.json describing the run. CSV files use '.' decimals, a mandatory
header row (quoted RFC-style by csv.writer), and a newline-terminated final
row; numbers are formatted with %.12g so reruns are byte-identical. A table
is written in blocks of rows, each row through one format string built from
the table's first row; its labels are program constants, or numbers already
formatted with %.12g, that need no quoting. JSON files hold the text of
``json.dumps(payload, separators=(",", ":"), sort_keys=True)`` plus a
newline, written one key, or one item of a value given as an iterator, at a
time, so a long list of records is never held whole.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .config_io import emit_config, text_hash
from .core import ExperimentConfig, make_gaussian_pulse
from .errors import EmptySpan, NoBracket, NoCrossing, ValidationError
# `binomial_split`, `make_gaussian_pulse`, `propagate` and
# `pump_output_spectrum` are no longer called here; perfbench's tracer wraps
# them under this module's name, so the bindings stay.
from .photons import binomial_split, binomial_splits, monte_carlo_experiment
from .propagation import (
    clip_spectrum_support,
    propagate,
    propagate_signal_linear,
    pump_spectrum,
)
from .switch import (
    _make_signal,
    calibrate_pi_energy,
    check_convergence,
    efficiency_vs_delay,
    full_width,
    flat_top_span,
    numeric_efficiency,
    pump_output_spectra,
    pump_output_spectrum,
    sweep_surface,
    temporal_resolution,
)
from .tof import spectrum_to_histogram

_PS = 1e-12
_FS = 1e-15
_NJ = 1e-9
_CSV_BLOCK = 512  # rows formatted per write
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    path: str
    rows: int
    bytes: int


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    tool_version: str
    started_at: str
    finished_at: str
    outputs: tuple[ManifestEntry, ...]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def _json_chunks(payload: dict):
    """Yield the text of ``json.dumps(payload, separators=(",", ":"),
    sort_keys=True) + "\\n"`` one key at a time, and a value given as an
    iterator as a JSON array one item at a time."""
    yield "{"
    for i, (key, value) in enumerate(sorted(payload.items())):
        sep = "," if i else ""
        if isinstance(value, Iterator):
            yield sep + _encode({key: []})[1:-2]  # '"key":['
            for j, item in enumerate(value):
                yield ("," if j else "") + _encode(item)
            yield "]"
        else:
            yield sep + _encode({key: value})[1:-1]
    yield "}\n"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


class _Run:
    """Collects output files for one command and finalizes the manifest.
    The config document is emitted once, as `config_text`, for config.json,
    the config hash and fock_probs.json's delays."""

    def __init__(self, config: ExperimentConfig, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_text = emit_config(config)
        self.started = _now()
        self.entries: list[ManifestEntry] = []

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        """Write `header` and `rows` as CSV, _CSV_BLOCK rows per write.

        The first row fixes the row format: a label (str) column is written
        as is, any other column with %.12g, the text of `_fmt`. A row of
        another width, or a label where a number belongs, raises TypeError.
        """
        path = self.out_dir / name
        count = 0
        with open(path, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerow(header)
            rows = iter(rows)
            while block := list(islice(rows, _CSV_BLOCK)):
                if not count:
                    fmt = ",".join("%s" if isinstance(v, str) else "%.12g" for v in block[0]) + "\n"
                handle.write("".join([fmt % tuple(row) for row in block]))
                count += len(block)
        self._record(name, path, count)
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        """Write the dict `payload` as one line of compact JSON with sorted
        keys: the bytes of ``json.dumps(payload, separators=(",", ":"),
        sort_keys=True) + "\\n"``.

        The dict is written key by key with json's C encoder. A value given
        as an iterator is written as a JSON array, one item at a time, so
        neither its items nor their text exist whole; any other value, a
        list included, is encoded whole. All or nothing: a value json.dumps
        rejects raises what json.dumps raises (TypeError for an `np.int64`,
        say), and then no file is left at the path and no manifest entry is
        added. The text goes to a sibling ``.part`` file that replaces the
        path once it is complete.
        """
        path = self.out_dir / name
        part = path.with_name(name + ".part")
        try:
            with open(part, "w") as handle:
                handle.writelines(_json_chunks(payload))
        except BaseException:
            part.unlink(missing_ok=True)
            raise
        part.replace(path)
        self._record(name, path, 1)
        return path

    def _record(self, name: str, path: Path, rows: int):
        size = path.stat().st_size
        if size == 0:
            raise OSError(f"output {path} is empty")
        self.entries.append(ManifestEntry(name=name, path=str(path), rows=rows, bytes=size))

    def finish(self) -> RunManifest:
        manifest = RunManifest(
            config_hash=text_hash(self.config_text),
            tool_version=__version__,
            started_at=self.started,
            finished_at=_now(),
            outputs=tuple(self.entries),
        )
        text = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
        (self.out_dir / "manifest.json").write_text(text)
        (self.out_dir / "config.json").write_text(self.config_text)
        return manifest


def cmd_sweep(config: ExperimentConfig, out_dir) -> RunManifest:
    """Efficiency surface over the configured grid, plus slices and metrics.

    Writes surface.csv (rows are delays, columns are pump energies),
    slices.csv (the zero-delay energy slice and the calibrated-energy delay
    slice, labelled ``delay_at_pump_energy`` when it is taken at
    ``pump.energy``), metrics.json, and manifest.json. Everything runs on
    the calling thread; the surface rows, the convergence check,
    calibration and the slices share the config's one model
    (`switch._model`) and its kernels.
    The surface's kernels are propagated as one batch first, so the check's
    kernel at ``solver.steps`` comes from it when the operating energy is on
    the sweep axis.

    metrics.json's `eta_max` is the delay slice's maximum. A metric that
    cannot be measured is null, and `note` gives the error that stopped it:
    NoBracket from calibration (the delay slice is then taken at
    ``pump.energy``), or a width's ValidationError, NoCrossing or EmptySpan.

    Raises:
        NonConvergence: if the step-doubling residual at the operating point
            exceeds 1e-3; then no artifact is written.
    """
    run = _Run(config, out_dir)
    surface = sweep_surface(config)
    check_convergence(config, config.pump.energy, 0.0)

    energies = surface.energies
    delays = surface.delays
    header = ["delay_ps\\energy_nJ"] + [_fmt(e / _NJ) for e in energies]
    run.write_csv(
        "surface.csv",
        header,
        ([delays[j] / _PS, *surface.eta_grid[:, j].tolist()] for j in range(delays.size)),
    )

    metrics: dict = {
        "fw10db_ps": None,
        "flat98_span_fs": None,
        "calibrated_energy_nj": None,
        "note": "",
    }
    e_star, label = config.pump.energy, "delay_at_pump_energy"
    try:
        e_star = calibrate_pi_energy(config)
        metrics["calibrated_energy_nj"] = e_star / _NJ
        label = "delay_at_calibrated_energy"
    except NoBracket as exc:
        metrics["note"] = f"calibration failed: {exc}"

    # Energy slice at zero delay; reuse the surface column when it exists.
    zero_idx = np.flatnonzero(delays == 0.0)
    if zero_idx.size:
        energy_slice = surface.eta_grid[:, zero_idx[0]]
    else:
        energy_slice = np.array(
            [numeric_efficiency(config, float(e), 0.0).eta for e in energies]
        )
    delay_slice = efficiency_vs_delay(config, e_star, delays)

    rows = [
        ["energy_at_zero_delay", 0.0, e / _NJ, eta]
        for e, eta in zip(energies, energy_slice)
    ] + [
        [label, d / _PS, e_star / _NJ, eta]
        for d, eta in zip(delays, delay_slice)
    ]
    run.write_csv("slices.csv", ["slice", "delay_ps", "energy_nJ", "eta"], rows)

    metrics["eta_max"] = float(delay_slice.max())
    try:
        metrics["fw10db_ps"] = temporal_resolution(delays, delay_slice) / _PS
    except (NoCrossing, ValidationError) as exc:
        metrics["note"] += f" fw10db unavailable: {exc}"
    try:
        metrics["flat98_span_fs"] = flat_top_span(delays, delay_slice, 0.98) / _FS
    except (EmptySpan, ValidationError) as exc:
        metrics["note"] += f" flat98 unavailable: {exc}"
    metrics["note"] = metrics["note"].strip()
    run.write_json("metrics.json", metrics)
    return run.finish()


def cmd_fock(config: ExperimentConfig, out_dir, n_max: int = 6) -> RunManifest:
    """Exact and Monte Carlo port-split curves for heralded N-photon states.

    Each N gives two (delays, N + 1) probability tables, the exact binomial
    split at each delay's η and the Monte Carlo empirical split, each with
    its standard errors (0 for the exact curve, binomial for the Monte
    Carlo one). One list of these curves is written as fock_probs.csv (one
    row per delay and outcome) and fock_probs.json (one record per outcome),
    with manifest.json. The JSON records are made and written one at a
    time (`_Run.write_json`), so at ``n_max`` 6 its 54 records, 13,068
    floats, are never held or encoded whole. Its ``delays_ps`` are the
    numbers config.json writes.
    """
    if not (1 <= n_max <= 10):
        raise ValidationError("n_max must lie in 1..10")
    run = _Run(config, out_dir)
    delays = np.asarray(config.sweep.delays, dtype=float)
    etas = efficiency_vs_delay(config, config.pump.energy, delays)
    # Looked up by delay, not interpolated: the axis need not be ascending.
    eta_at = dict(zip(delays.tolist(), etas.tolist()))

    mc = monte_carlo_experiment(
        config,
        eta_at.__getitem__,
        pulses=config.monte_carlo.pulses_per_delay,
        seed=config.rng_seed,
        n_max=n_max,
    )

    curves = []
    for n in range(1, n_max + 1):
        exact = binomial_splits(n, etas)
        probs, stderr, _totals = mc.empirical_split(n)
        curves += [("exact", n, exact, np.zeros_like(exact)), ("monte_carlo", n, probs, stderr)]
    # The delay and (N, n_S, n_U) columns repeat, so each is formatted once
    # and a row carries them as one label; only its two numbers are formatted.
    taus = [_fmt(tau) for tau in (delays / _PS).tolist()]

    def rows():
        for kind, n, p, err in curves:
            for k in range(n + 1):
                counts = ",".join(map(_fmt, (n, k, n - k)))
                for tau, pk, ek in zip(taus, p[:, k].tolist(), err[:, k].tolist()):
                    yield (f"{tau},{counts}", pk, ek, kind)

    run.write_csv(
        "fock_probs.csv",
        ["delay_ps", "N", "n_S", "n_U", "probability", "stderr", "kind"],
        rows(),
    )
    # A generator: the writer takes one record at a time.
    records = (
        {
            "kind": kind,
            "N": n,
            "n_S": k,
            "n_U": n - k,
            "probability": p[:, k].tolist(),
            "stderr": err[:, k].tolist(),
        }
        for kind, n, p, err in curves
        for k in range(n + 1)
    )
    run.write_json(
        "fock_probs.json",
        {"delays_ps": json.loads(run.config_text)["sweep"]["delays_ps"], "curves": records},
    )
    return run.finish()


def cmd_spectrum(config: ExperimentConfig, out_dir) -> RunManifest:
    """Pump output spectra over the energy ladder and signal TOF histograms.

    Writes pump_spectra.csv, spectrum_metrics.csv (spectral FWHM per rung),
    signal_tof.csv (switched versus unswitched arrival-time histograms), and
    manifest.json.
    """
    run = _Run(config, out_dir)
    energies = np.asarray(config.sweep.energies, dtype=float)

    metric_rows = []

    def spectra_rows():
        # Streamed: each rung's full-band spectrum is dropped once its FWHM
        # is taken and its clipped rows are written.
        for e, (wl, density) in zip(energies, pump_output_spectra(config, energies)):
            metric_rows.append([e / _NJ, full_width(wl, density, 0.5)])
            energy = _fmt(e / _NJ)
            clipped_wl, clipped_density = clip_spectrum_support(wl, density)
            for w, d in zip(clipped_wl.tolist(), clipped_density.tolist()):
                yield (energy, w, d)

    run.write_csv("pump_spectra.csv", ["energy_nJ", "wavelength_nm", "density_per_nm"], spectra_rows())
    run.write_csv("spectrum_metrics.csv", ["energy_nJ", "fwhm_nm"], metric_rows)

    # Switched versus unswitched port. XPM imprints phase between the
    # polarization components, not amplitude on the scalar envelope, and the
    # signal's own propagation never sees the pump, so both ports carry the
    # same histogram: the signal after the fiber's dispersion and loss.
    signal_out = propagate_signal_linear(_make_signal(config), config.fiber)
    wl_nm, density = clip_spectrum_support(*pump_spectrum(signal_out))
    span = abs(config.tof.dispersion) * (wl_nm[-1] - wl_nm[0]) * 1e-9
    centers, hist = spectrum_to_histogram(
        config.tof, wl_nm * 1e-9, density * 1e9, bin_width=span / 1024.0
    )
    tof_rows = [
        [port, centers[i] / _PS, hist[i] * _PS]
        for port in ("switched", "unswitched")
        for i in range(centers.size)
    ]
    run.write_csv("signal_tof.csv", ["port", "time_ps", "density_per_ps"], tof_rows)
    return run.finish()


def cmd_calibrate(config: ExperimentConfig, out_dir) -> RunManifest:
    """Find the pump energy that maximizes the zero-delay efficiency."""
    run = _Run(config, out_dir)
    e_star = calibrate_pi_energy(config)
    eta = numeric_efficiency(config, e_star, 0.0).eta
    run.write_json(
        "calibration.json",
        {
            "calibrated_energy_nj": e_star / _NJ,
            "eta_at_calibrated_energy": eta,
            "delay_ps": 0.0,
        },
    )
    return run.finish()
