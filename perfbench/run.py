"""kerrswitch benchmark: CLI workloads timed end to end, and a traced run
that yields per-layer metrics.

    python3 perfbench/run.py --workload sweep|fock|spectrum|all --seed N
                             --seconds S --trace 0|1 [--config default|tiny]

Run it from anywhere inside a source checkout; it imports kerrswitch from the
checkout's `src/` and writes only under `.perfbench-out/` there.

Untraced run (--trace 0), closed loop with one client: the workload's CLI
command runs in a fresh interpreter, as a user's run does with cold kernel
caches, again and again until S seconds have passed (at least
MIN_INVOCATIONS times). Before that, `validate-config` runs SETUP_SAMPLES
times. These timed processes run with one BLAS thread each (ONE_BLAS_THREAD),
so that nproc pool workers run nproc threads, not nproc squared. Every
invocation's outputs are checked against perfbench/reference/. Reported, as
medians over the run:

  wall_s       after config parse to process exit: compute plus writing
  setup_s      process spawn through `import kerrswitch` and parse_config
  cpu_s        user+system CPU after the parse, pool children included
  peak_rss_mb  largest max-RSS of the process or any child

Traced run (--trace 1): one traced invocation of the workload, a traced
`sweep` when the workload is not sweep itself (its spans give the
switch-layer metrics), and the probes in probes.py, all in the caller's
environment, so that BLAS threads oversubscribe the cores as they do for a
user. See DESIGN.md.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. `--workload all` runs the three workloads untraced and
prints a table that also gives failed_frac per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from checks import check, config_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = {
    "sweep": ["sweep"],
    "fock": ["fock", "--n-max", "6"],
    "spectrum": ["spectrum"],
}
# Fewest timed invocations per untraced run. A default fock takes about 3 s
# with its pool of nproc workers; on a shared 2-core box the median of 6
# runs moved with the neighbours' load by a quarter from run to run. Two
# sweeps of about 28 s each fill a run of 30 s and fit the time budget.
MIN_INVOCATIONS = {"sweep": 2, "fock": 10, "spectrum": 1}
# numpy's np.vdot in the pump kernel calls OpenBLAS, whose threads spin while
# they wait. With the default of one such thread per core in each of nproc
# pool workers, a kernel ran up to 5x slower and the median wall time of
# default sweeps spread by 31 % from run to run. The timed runs therefore run
# one BLAS thread per process; the traced run keeps the default and shows the
# oversubscription in propagation.kernel_ms_contended.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "config_io.parse_config_ms": "ms",
    "propagation.kernel_ms": "ms",
    "propagation.kernel_ms_contended": "ms",
    "propagation.kernel_minflt": "count",
    "propagation.kernel_calls": "count",
    "propagation.kernel_flops_computed": "flop",
    "propagation.kernel_bytes_computed": "B",
    "propagation.propagate_ms": "ms",
    "propagation.sample_xpm_phase_us": "us",
    "switch.redundant_kernels": "count",
    "switch.sweep_surface_w1_s": "s",
    "switch.sweep_surface_wN_s": "s",
    "switch.sweep_parallel_eff": "ratio",
    "switch.calibrate_s": "s",
    "switch.calibrate_kernels": "count",
    "switch.check_convergence_s": "s",
    "switch.efficiency_vs_delay_ms": "ms",
    "switch.residual_op": "eta",
    "switch.residual_emax": "eta",
    "photons.mc_w1_s": "s",
    "photons.mc_wN_s": "s",
    "photons.mc_pulses_per_s": "1/s",
    "photons.exact_split_ms": "ms",
    "tof.histogram_ms": "ms",
    "runner.self_s": "s",
    "runner.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _kill_group(pid: int):
    """Kill a timed-out child with everything it started (pool workers)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Invocation:
    """One CLI process: its timings, and the problems found in its outputs."""

    problems: list[str]
    setup_s: float = math.nan
    import_s: float = math.nan
    wall_s: float = math.nan
    cpu_s: float = math.nan
    peak_rss_mb: float = math.nan
    bytes_written: int = 0


class Run:
    """The invocations of one benchmark run, all under one work directory."""

    def __init__(self, name: str, seed: int, config: str, env: dict | None = None):
        self.dir = OUT / name
        self.env = env
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.seed = seed
        self.config = config
        self.start = time.monotonic()
        self.invocations: list[Invocation] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def invoke(self, command: str, trace: Path | None = None) -> Invocation:
        """Run `kerrswitch <command>` through launch.py and check its outputs."""
        tag = f"{len(self.invocations):03d}-{command}"
        out = self.dir / tag
        mark = self.dir / f"{tag}.mark.json"
        cli = WORKLOADS.get(command, [command])
        args = [*cli, "--seed", str(self.seed), "--out", str(out), *config_args(self.config)]
        argv = [sys.executable, str(HERE / "launch.py"), str(mark), str(trace or "-"), command, "--", *args]
        with open(self.dir / f"{tag}.stdout", "w") as stdout, open(self.dir / f"{tag}.stderr", "w") as stderr:
            started = time.monotonic()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT, env=self.env,
                                    start_new_session=True)
            timer = threading.Timer(max(self.remaining(), 1.0), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(problems=[])
        self.invocations.append(inv)
        if proc.returncode != 0:
            inv.problems.append(f"{command} exited with {proc.returncode}; see {self.dir / tag}.stderr")
            return inv
        marks = json.loads(mark.read_text())
        if "parsed_at" not in marks:
            inv.problems.append(f"{command} never called kerrswitch.cli.parse_config")
            return inv
        if not Path(marks["module"]).resolve().is_relative_to(ROOT / "src"):
            inv.problems.append(f"imported kerrswitch from {marks['module']}, not this checkout")
        inv.setup_s = marks["parsed_at"] - started
        inv.import_s = marks["imported_at"] - started
        inv.wall_s = ended - marks["parsed_at"]
        inv.cpu_s = usage.ru_utime + usage.ru_stime - marks["cpu_at_parse"]
        inv.peak_rss_mb = usage.ru_maxrss / 1024.0
        if command in WORKLOADS:
            inv.problems += check(command, out, self.config)
            if (out / "manifest.json").is_file():
                manifest = json.loads((out / "manifest.json").read_text())
                inv.bytes_written = sum(e["bytes"] for e in manifest["outputs"])
            shutil.rmtree(out, ignore_errors=True)
        return inv

    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.problems)

    def problems(self) -> list[str]:
        return [p for inv in self.invocations for p in inv.problems]


def run_untraced(workload: str, seed: int, seconds: float, config: str) -> tuple[Run, dict]:
    run = Run(f"{workload}-untraced", seed, config, env={**os.environ, **ONE_BLAS_THREAD})
    setups = [run.invoke("validate-config") for _ in range(SETUP_SAMPLES)]
    loop_start = time.monotonic()
    timed = []
    while len(timed) < MIN_INVOCATIONS[workload] or time.monotonic() - loop_start < seconds:
        last = timed[-1].wall_s + timed[-1].setup_s if timed else 0.0
        if timed and not math.isnan(last) and last > run.remaining():
            break
        timed.append(run.invoke(workload))
    samples = {
        "wall_s": [inv.wall_s for inv in timed],
        "setup_s": [inv.setup_s for inv in setups + timed],
        "cpu_s": [inv.cpu_s for inv in timed],
        "peak_rss_mb": [inv.peak_rss_mb for inv in timed],
    }
    metrics = {}
    for name, values in samples.items():
        measured = [v for v in values if not math.isnan(v)]
        if not measured:
            raise RuntimeError(f"no successful {workload} invocation; see {run.dir}")
        metrics[name] = {"value": statistics.median(measured), "unit": END_TO_END_UNITS[name],
                         "samples": measured}
    return run, metrics


def _probe(run: Run, *args) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probes.py"), *args], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(run.remaining(), 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise RuntimeError(f"probe {args[0]} ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def _config_file(config: str) -> str:
    args = config_args(config)
    return args[1] if args else "-"


def _sweep_layers(trace: list[dict]) -> dict:
    """Switch-layer metrics from the spans of one traced `kerrswitch sweep`."""
    cmd = spans.named(trace, "runner.cmd_sweep")[0]
    direct = {s["name"]: s for s in spans.children(trace, cmd)}
    calibrate = direct["switch.calibrate_pi_energy"]
    convergence = direct["switch.check_convergence"]
    return {
        "switch.sweep_surface_wN_s": spans.duration(direct["switch.sweep_surface"]),
        "switch.calibrate_s": spans.duration(calibrate),
        "switch.calibrate_kernels": sum(
            1 for s in spans.descendants(trace, calibrate) if s["name"] == spans.KERNEL
        ),
        "switch.check_convergence_s": spans.duration(convergence),
        "switch.efficiency_vs_delay_ms": 1e3 * spans.duration(direct["switch.efficiency_vs_delay"]),
        "switch.residual_op": convergence["result"],
    }


def run_traced(workload: str, seed: int, config: str) -> tuple[Run, dict, dict | None]:
    run = Run(f"{workload}-traced", seed, config)
    trace_path = run.dir / f"{workload}.spans.json"
    traced = run.invoke(workload, trace=trace_path)
    trace = spans.load(trace_path)
    if workload == "sweep":
        sweep_trace = trace
    else:
        sweep_path = run.dir / "sweep.spans.json"
        run.invoke("sweep", trace=sweep_path)
        sweep_trace = spans.load(sweep_path)
    if run.failed():
        return run, {}, None

    config_file = _config_file(config)
    contention = _probe(run, "contention", config_file)
    layers = _probe(run, "layers", config_file, str(seed))
    calls, redundant = spans.kernel_counts(trace)
    cmd = spans.named(trace, f"runner.cmd_{workload}")[0]
    values = {
        "cli.import_s": traced.import_s,
        "config_io.parse_config_ms": 1e3 * spans.duration(spans.named(trace, "config_io.parse_config")[0]),
        "propagation.kernel_ms": contention["kernel_ms"],
        "propagation.kernel_ms_contended": contention["kernel_ms_contended"],
        "propagation.kernel_minflt": contention["kernel_minflt"],
        "propagation.kernel_calls": calls,
        "switch.redundant_kernels": redundant,
        **_sweep_layers(sweep_trace),
        **layers,
        "runner.self_s": spans.self_time(trace, cmd),
        "runner.bytes_written": traced.bytes_written,
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": len(trace) * spans.span_cost(),
    }
    values["switch.sweep_parallel_eff"] = values["switch.sweep_surface_w1_s"] / (
        (os.cpu_count() or 1) * values["switch.sweep_surface_wN_s"]
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    return run, metrics, contention


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_stamp(contention: dict) -> dict:
    """Where and on what a result was measured."""
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or None
    caches = {}
    try:
        getconf = subprocess.run(["getconf", "-a"], capture_output=True, text=True).stdout
    except OSError:
        getconf = ""
    for line in getconf.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip().isdigit():
            caches[key.lower()] = int(value)
    return {
        "git_sha": sha,
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "contention": {
            **contention,
            "slowdown": contention["kernel_ms_contended"] / contention["kernel_ms"],
        },
    }


def _print_metrics(metrics: dict):
    for name, m in metrics.items():
        count = f"  (median of {len(m['samples'])})" if "samples" in m else ""
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}{count}")


def _result(run: Run, metrics: dict) -> dict:
    attempted = len(run.invocations)
    failed = run.failed()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", default="default", choices=("default", "tiny"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kerrswitch" / "cli.py").is_file():
        print(f"no kerrswitch sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        table = {}
        for workload in WORKLOADS:
            run, metrics = run_untraced(workload, args.seed, args.seconds, args.config)
            result = _result(run, metrics)
            print(f"{workload}: {result['attempted']} runs, failed_frac "
                  f"{result['failed'] / result['attempted']:.3g}")
            _print_metrics(metrics)
            for problem in run.problems():
                print(f"  FAILED: {problem}")
            table[workload] = result
        print("machine: " + json.dumps(machine_stamp(_probe(run, "contention", _config_file(args.config)))))
        print(json.dumps(table))
        return 0

    if args.trace:
        run, metrics, contention = run_traced(args.workload, args.seed, args.config)
    else:
        run, metrics = run_untraced(args.workload, args.seed, args.seconds, args.config)
        contention = None
    for problem in run.problems():
        print(f"FAILED: {problem}")
    if not metrics:
        print("no metrics: an invocation failed before the probes", file=sys.stderr)
        return 1
    if contention is None:
        contention = _probe(run, "contention", _config_file(args.config))
    stamp = machine_stamp(contention)
    result = _result(run, metrics)
    print(f"{args.workload} trace={args.trace} seed={args.seed}: "
          f"{result['attempted']} invocations, {result['failed']} failed")
    _print_metrics(metrics)
    print("machine: " + json.dumps(stamp))
    samples = {k: m["samples"] for k, m in metrics.items() if "samples" in m}
    record = {**result, "samples": samples, "machine": stamp}
    (run.dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
