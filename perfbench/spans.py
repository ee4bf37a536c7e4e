"""In-memory call spans around kerrswitch's public names, and their analysis.

A `Tracer` replaces module attributes (the bindings a caller looks up at call
time) with timing wrappers; the program's source is never edited. Each call
records a span: name, start, end, parent span, process id and a few details.
Spans stay in memory and are written out once, when the process ends. Pool
workers forked by `multiprocessing` inherit the wrappers and the open parent
span, start an empty span list, and write their own file on exit, so calls
made in children are counted too.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import resource
import time
from pathlib import Path

# (module, attribute) bindings wrapped during a traced run. These are the
# public names that kerrswitch.cli, kerrswitch.runner and kerrswitch.switch
# call, plus the binding of compute_xpm_kernel that propagate() uses.
WRAPPED = {
    "kerrswitch.cli": ["parse_config", "cmd_sweep", "cmd_fock", "cmd_spectrum", "cmd_calibrate"],
    "kerrswitch.runner": [
        "calibrate_pi_energy", "check_convergence", "efficiency_vs_delay", "full_width",
        "flat_top_span", "numeric_efficiency", "pump_output_spectrum", "sweep_surface",
        "temporal_resolution", "binomial_split", "monte_carlo_experiment",
        "clip_spectrum_support", "propagate", "pump_spectrum", "spectrum_to_histogram",
        "make_gaussian_pulse",
    ],
    "kerrswitch.switch": [
        "compute_xpm_kernel", "propagate_signal_linear", "pump_spectrum", "sample_xpm_phase",
        "numeric_efficiency", "efficiency_vs_delay", "convergence_residual",
    ],
    "kerrswitch.propagation": ["compute_xpm_kernel", "sample_xpm_phase", "propagate_signal_linear"],
}

KERNEL = "propagation.compute_xpm_kernel"


def _layer(module_name: str, attr: str, fn) -> str:
    """Span name `<defining module>.<function>`, whatever binding was called."""
    home = getattr(fn, "__module__", module_name).rsplit(".", 1)[-1]
    return f"{home}.{attr}"


def _kernel_detail(args, kwargs) -> dict:
    pump = args[0] if args else kwargs["pump"]
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    samples = pump.samples
    energy = float((samples.real**2 + samples.imag**2).sum() * pump.grid.dt)
    return {"energy": energy, "steps": int(steps)}


class Tracer:
    """Collects spans for one process and writes them to `<path>[.<pid>]`."""

    def __init__(self, path, workload: str):
        self.path = Path(path)
        self.workload = workload
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.count = 0
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self):
        # Runs in a multiprocessing child after its finalizer registry is
        # cleared, so the finalizer registered here writes the child's spans
        # when the worker returns from its run loop.
        self.pid = os.getpid()
        self.spans = []
        self.count = 0
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def install(self):
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                setattr(module, attr, self._wrap(_layer(module_name, attr, fn), fn))

    def _wrap(self, name: str, fn):
        is_kernel = name == KERNEL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            span_id = f"{self.pid}:{self.count}"
            parent = self.stack[-1] if self.stack else None
            detail = _kernel_detail(args, kwargs) if is_kernel else {}
            self.stack.append(span_id)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if is_kernel else 0
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self.stack.pop()
            if is_kernel:
                detail["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            if isinstance(result, float):
                detail["result"] = result
            self.spans.append({
                "id": span_id, "parent": parent, "name": name, "pid": self.pid,
                "workload": self.workload, "start": start, "end": end, **detail,
            })
            return result

        return traced

    def dump(self):
        path = self.path if self.pid == self.root_pid else Path(f"{self.path}.{self.pid}")
        path.write_text(json.dumps(self.spans))


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    def noop():
        return None

    traced = Tracer(os.devnull, "span_cost")._wrap("spans.noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    mid = time.perf_counter()
    for _ in range(calls):
        noop()
    return ((mid - start) - (time.perf_counter() - mid)) / calls


def load(path) -> list[dict]:
    """Spans written by the traced process at `path` and by its children."""
    path = Path(path)
    spans = []
    for part in sorted(path.parent.glob(path.name + "*")):
        spans.extend(json.loads(part.read_text()))
    return spans


def named(spans, name):
    return [s for s in spans if s["name"] == name]


def duration(span) -> float:
    return span["end"] - span["start"]


def children(spans, span) -> list[dict]:
    return [s for s in spans if s["parent"] == span["id"]]


def descendants(spans, span) -> list[dict]:
    by_parent: dict = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    out, todo = [], [span["id"]]
    while todo:
        for s in by_parent.get(todo.pop(), []):
            out.append(s)
            todo.append(s["id"])
    return out


def self_time(spans, span) -> float:
    """Span duration minus the part of it covered by its direct child spans
    in the same process."""
    intervals = sorted(
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children(spans, span)
        if c["pid"] == span["pid"]
    )
    covered, reach = 0.0, span["start"]
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return duration(span) - covered


def kernel_counts(spans) -> tuple[int, int]:
    """(kernel calls, redundant calls): calls minus distinct (energy, steps)."""
    kernels = named(spans, KERNEL)
    distinct = {(k["energy"], k["steps"]) for k in kernels}
    return len(kernels), len(kernels) - len(distinct)
