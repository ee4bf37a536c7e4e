"""The names the perfbench harness reaches into must exist.

perfbench/spans.py wraps kerrswitch bindings by (module, attribute) and
perfbench/probes.py imports and calls kerrswitch names directly; a
simplification that drops one of them would break the traced benchmark
without failing any other test.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import kerrswitch as ks

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module,attr",
    [(m, a) for m, attrs in _load("spans").WRAPPED.items() for a in attrs],
)
def test_wrapped_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_probe_imports_resolve():
    tree = ast.parse((PERFBENCH / "probes.py").read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kerrswitch")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_probe_calls_resolve():
    tree = ast.parse((PERFBENCH / "probes.py").read_text())
    used = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "ks"
    }
    assert used
    for name in used:
        assert hasattr(ks, name), f"kerrswitch.{name}"


def test_monte_carlo_accepts_workers():
    assert "workers" in inspect.signature(ks.monte_carlo_experiment).parameters


def test_sweep_surface_accepts_workers():
    assert "workers" in inspect.signature(ks.sweep_surface).parameters


def test_traced_sweep_has_the_switch_layers(monkeypatch, tmp_path):
    """perfbench reads the switch-layer metrics of `sweep` from the spans of
    `sweep_surface`, `calibrate_pi_energy`, `check_convergence` (its float
    result) and `efficiency_vs_delay` called directly by `cmd_sweep`; its
    `_sweep_layers` raises KeyError when one of them is missing."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # run.py imports spans and checks by their bare names; set then delete
    # each entry, so that monkeypatch drops whatever the test imports.
    for name in ("spans", "checks", "perfbench_run"):
        monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.delitem(sys.modules, name)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = run
    spec.loader.exec_module(run)
    tracer = run.spans.Tracer(tmp_path / "sweep.spans.json", "sweep")
    for module_name, attrs in run.spans.WRAPPED.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            # Registered with monkeypatch, so the wrappers come off afterwards.
            monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer.install()
    cfg = ks.parse_config((PERFBENCH / "configs" / "tiny.json").read_text())
    importlib.import_module("kerrswitch.cli").cmd_sweep(cfg, tmp_path / "out")

    cmd = run.spans.named(tracer.spans, "runner.cmd_sweep")[0]
    direct = {s["name"] for s in run.spans.children(tracer.spans, cmd)}
    assert {
        "switch.sweep_surface", "switch.calibrate_pi_energy",
        "switch.check_convergence", "switch.efficiency_vs_delay",
    } <= direct
    layers = run._sweep_layers(tracer.spans)
    assert type(layers["switch.residual_op"]) is float


@pytest.mark.parametrize("workload", ["sweep", "fock", "spectrum"])
def test_default_outputs_pass_the_benchmark_check(workload, default_cfg, tmp_path):
    """The benchmark's own output check passes on a default run of each of
    its workloads, so a numerics change it would count as a failed run
    fails here first."""
    command = {"sweep": ks.cmd_sweep, "fock": ks.cmd_fock, "spectrum": ks.cmd_spectrum}[workload]
    command(default_cfg, tmp_path)
    assert _load("checks").check(workload, tmp_path, "default") == []
