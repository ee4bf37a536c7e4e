"""Record the reference values that checks.py compares every run against.

    python3 perfbench/record_reference.py [default|tiny ...]

Runs `kerrswitch sweep`, `fock` and `spectrum` from the `src/` tree next to
this benchmark, once per named config, and writes perfbench/reference/<name>/.
Run it only at a commit whose outputs are known good; the committed files
were recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE, config_args, read_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Paper-level guarantees of the stock switch, checked on top of the recorded
# values (README: >= 99.7 % efficiency at zero delay).
FLOORS = {"default": {"eta_max": 0.997}}


def _run(command: str, name: str, out: Path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "kerrswitch.cli", command, "--out", str(out), *config_args(name)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )


def record(name: str):
    ref = REFERENCE / name
    ref.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        tmp = Path(tmp)
        _run("sweep", name, tmp / "sweep")
        (ref / "surface.csv").write_bytes((tmp / "sweep" / "surface.csv").read_bytes())
        metrics = json.loads((tmp / "sweep" / "metrics.json").read_text())
        sweep = {"metrics": metrics, "floors": FLOORS.get(name, {})}
        (ref / "sweep.json").write_text(json.dumps(sweep, indent=2, sort_keys=True) + "\n")

        _run("fock", name, tmp / "fock")
        rows = read_rows(tmp / "fock" / "fock_probs.csv")
        with open(ref / "fock_exact.csv", "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(rows[0][:5])
            writer.writerows(r[:5] for r in rows[1:] if r[6] == "exact")

        _run("spectrum", name, tmp / "spectrum")
        rungs: dict = {}
        for r in read_rows(tmp / "spectrum" / "pump_spectra.csv")[1:]:
            rungs[r[0]] = rungs.get(r[0], 0) + 1
        ports: dict = {}
        for r in read_rows(tmp / "spectrum" / "signal_tof.csv")[1:]:
            ports[r[0]] = ports.get(r[0], 0) + 1
        spectrum = {
            "fwhm_nm": [float(r[1]) for r in read_rows(tmp / "spectrum" / "spectrum_metrics.csv")[1:]],
            "rows_per_rung": list(rungs.values()),
            "tof_rows": ports,
        }
        (ref / "spectrum.json").write_text(json.dumps(spectrum, indent=2) + "\n")


if __name__ == "__main__":
    for config_name in sys.argv[1:] or ["default", "tiny"]:
        record(config_name)
