"""Output checks for one CLI run, against references recorded from the seed
commit (see record_reference.py). A failed check is reported as a message,
never raised, so the run is counted as failed and the benchmark goes on.

The tolerances admit the 1e-13-level drift a reordered split-step engine may
introduce, and Monte Carlo resampling, but not a wrong result.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

SURFACE_ABS = 1e-9  # efficiency units, on values in [0, 1]
EXACT_ABS = 1e-9  # probability units
FWHM_REL = 1e-6
TOF_AREA_ABS = 1e-6
MC_SIGMAS = 5.0
MC_CUSHION = 3.0  # counts, as in acceptance criterion 7
# Scalar sweep metrics: absolute tolerance in the metric's own unit. The
# calibration's bounded search stops within 1e-3 of the operating energy
# (about 0.008 nJ), so E* may move by that much under a new engine.
SWEEP_METRIC_ABS = {
    "calibrated_energy_nj": 0.02,
    "eta_max": 1e-4,
    "fw10db_ps": 0.02,
    "flat98_span_fs": 5.0,
}


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _manifest(out: Path) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text())
    problems = []
    for entry in manifest["outputs"]:
        if entry["bytes"] <= 0 or not (out / entry["name"]).is_file():
            problems.append(f"manifest entry {entry['name']} is missing or empty")
    return problems


def check_sweep(out: Path, ref: Path) -> list[str]:
    problems = []
    got, want = read_rows(out / "surface.csv"), read_rows(ref / "surface.csv")
    if got[0] != want[0] or len(got) != len(want):
        return ["surface.csv header or row count differs from the reference"]
    worst = max(
        abs(float(g) - float(w))
        for grow, wrow in zip(got[1:], want[1:])
        for g, w in zip(grow, wrow)
    )
    if worst > SURFACE_ABS:
        problems.append(f"surface.csv differs from the reference by {worst:.3g}")
    metrics = json.loads((out / "metrics.json").read_text())
    reference = json.loads((ref / "sweep.json").read_text())
    for key, tol in SWEEP_METRIC_ABS.items():
        value = metrics.get(key)
        if value is None or abs(value - reference["metrics"][key]) > tol:
            problems.append(f"{key} = {value}, reference {reference['metrics'][key]} +- {tol}")
    for key, floor in reference.get("floors", {}).items():
        if metrics.get(key) is None or metrics[key] < floor:
            problems.append(f"{key} = {metrics.get(key)} is below {floor}")
    return problems


def _mc_total(probs: list[float], errs: list[float]):
    """Events behind one Monte Carlo group, recovered from p and its binomial
    standard error sqrt(p(1-p)/total); None when every p is 0 or 1."""
    for p, e in zip(probs, errs):
        if 0.0 < p < 1.0 and e > 0.0:
            return round(p * (1.0 - p) / (e * e))
    return None


def check_fock(out: Path, ref: Path) -> list[str]:
    problems = []
    rows = read_rows(out / "fock_probs.csv")[1:]
    exact = [r for r in rows if r[6] == "exact"]
    mc = [r for r in rows if r[6] == "monte_carlo"]
    want = read_rows(ref / "fock_exact.csv")[1:]
    if len(exact) != len(want) or len(mc) != len(want):
        return [f"fock_probs.csv has {len(exact)} exact / {len(mc)} MC rows, reference {len(want)}"]
    worst = max(
        abs(float(g[4]) - float(w[4])) if g[:4] == w[:4] else math.inf
        for g, w in zip(exact, want)
    )
    if worst > EXACT_ABS:
        problems.append(f"exact rows differ from the reference by {worst:.3g}")

    groups: dict = {}
    for g, e in zip(mc, exact):
        groups.setdefault((g[0], g[1]), []).append((float(g[4]), float(g[5]), float(e[4])))
    worst_z = 0.0
    for (delay, n), group in groups.items():
        probs = [p for p, _, _ in group]
        total = _mc_total(probs, [e for _, e, _ in group])
        if total is None:
            # A one-photon group whose exact split is far from 0 and 1 must
            # show both outcomes; elsewhere all events may land in one port.
            if n == "1" and 0.1 <= group[0][2] <= 0.9:
                problems.append(f"no mixed one-photon Monte Carlo events at delay {delay} ps")
            elif sum(probs) not in (0.0, 1.0):
                problems.append(f"MC group N={n} delay={delay} is not normalised")
            continue
        for p, _, p_exact in group:
            sigma = math.sqrt(max(p_exact * (1.0 - p_exact) * total, 1e-30))
            z = (abs(p * total - p_exact * total) - MC_CUSHION) / sigma
            worst_z = max(worst_z, z)
    if worst_z > MC_SIGMAS:
        problems.append(f"Monte Carlo rows lie {worst_z:.2f} sigma from the exact binomial")
    return problems


def check_spectrum(out: Path, ref: Path) -> list[str]:
    problems = []
    reference = json.loads((ref / "spectrum.json").read_text())
    metrics = read_rows(out / "spectrum_metrics.csv")[1:]
    fwhm = [float(r[1]) for r in metrics]
    if len(fwhm) != len(reference["fwhm_nm"]) or any(
        abs(g - w) > FWHM_REL * abs(w) for g, w in zip(fwhm, reference["fwhm_nm"])
    ):
        problems.append("spectral FWHM per rung differs from the reference")
    rungs: dict = {}
    for r in read_rows(out / "pump_spectra.csv")[1:]:
        rungs[r[0]] = rungs.get(r[0], 0) + 1
    if list(rungs.values()) != reference["rows_per_rung"]:
        problems.append("pump_spectra.csv rows per rung differ from the reference")
    ports: dict = {}
    for r in read_rows(out / "signal_tof.csv")[1:]:
        ports.setdefault(r[0], []).append((float(r[1]), float(r[2])))
    if {p: len(v) for p, v in ports.items()} != reference["tof_rows"]:
        problems.append("signal_tof.csv rows per port differ from the reference")
    for port, points in ports.items():
        width = (points[-1][0] - points[0][0]) / (len(points) - 1)
        area = sum(d for _, d in points) * width
        if abs(area - 1.0) > TOF_AREA_ABS:
            problems.append(f"TOF histogram '{port}' has area {area:.9f}, not 1")
    return problems


def config_args(name: str) -> list[str]:
    """CLI arguments selecting the named config: the defaults, or configs/<name>.json."""
    return [] if name == "default" else ["--config", str(HERE / "configs" / f"{name}.json")]


CHECKS = {"sweep": check_sweep, "fock": check_fock, "spectrum": check_spectrum}


def check(workload: str, out: Path, config_name: str) -> list[str]:
    """Problems found in the artifacts of one `workload` run written to `out`."""
    try:
        return _manifest(out) + CHECKS[workload](out, REFERENCE / config_name)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{workload} outputs unreadable: {exc!r}"]
