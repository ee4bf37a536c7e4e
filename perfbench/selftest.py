"""Self-test of the benchmark harness on a tiny config; takes about a minute.

    python3 perfbench/selftest.py

Runs every workload once untraced and twice traced with perfbench/configs/
tiny.json (N = 1024, 16 steps, 4 energies x 16 delays, 2000 pulses), then
checks that
  - every run is correct and prints exactly the metric names BENCHMARK.json
    lists for its mode, each with BENCHMARK.json's unit;
  - the kernel counters repeat exactly across the two traced runs (the page
    fault count is reported, since it may differ by a few faults);
  - in a directory holding only BENCHMARK.json and the benchmark, the
    benchmark exits non-zero without printing a result.
It lives outside `tests/`, so Tier-1 does not run it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "fock", "spectrum")
EXACT_COUNTERS = ("propagation.kernel_calls", "switch.redundant_kernels", "switch.calibrate_kernels")


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--config", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(*args) -> dict:
    proc = bench(*args)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        runs = {
            "untraced": result("--workload", workload, "--seed", "1", "--trace", "0"),
            "traced": result("--workload", workload, "--seed", "1", "--trace", "1"),
            "traced again": result("--workload", workload, "--seed", "2", "--trace", "1"),
        }
        for label, res in runs.items():
            trace = 0 if label == "untraced" else 1
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload} {label}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} {label}: {res['failed']} of {res['attempted']} failed")
            units = {name: m["unit"] for name, m in res["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{workload} {label}: metrics or units differ from BENCHMARK.json")
        first, second = runs["traced"]["metrics"], runs["traced again"]["metrics"]
        for name in EXACT_COUNTERS:
            if first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload}: {name} read {first[name]['value']} then {second[name]['value']}")
        faults = (first["propagation.kernel_minflt"]["value"], second["propagation.kernel_minflt"]["value"])
        print(f"{workload}: kernel_calls {first['propagation.kernel_calls']['value']}, "
              f"redundant {first['switch.redundant_kernels']['value']}, "
              f"kernel_minflt {faults[0]} then {faults[1]}"
              f" ({'repeats' if faults[0] == faults[1] else 'does not repeat exactly'})")

    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fock", "--seed", "1", "--trace", "0", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without sources the benchmark did not fail cleanly")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
