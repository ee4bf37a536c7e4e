"""Command runners and the CLI surface: artifacts, manifests, exit codes, and
byte determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from itertools import count
from pathlib import Path

import numpy as np
import pytest

import kerrswitch as ks
from kerrswitch.cli import main
from kerrswitch.errors import CutoffTooSmall

SMALL_DOC = {
    "grid": {"n_samples": 4096, "window_ps": 40.0},
    "solver": {"steps": 64},
    "sweep": {
        "energies_nj": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
        "delays_ps": [round(-4.0 + 0.25 * i, 10) for i in range(33)],
    },
    "monte_carlo": {"pulses_per_delay": 5000},
    "source": {"mean_photon_number": 3.86, "max_photon_cutoff": 60},
    "detectors": {"herald_efficiency": 1.0, "system_transmittance": 1.0},
}


@pytest.fixture(scope="module")
def small_cfg():
    return ks.parse_config(json.dumps(SMALL_DOC))


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestCmdSweep:
    def test_artifacts_and_manifest(self, small_cfg, tmp_path):
        manifest = ks.cmd_sweep(small_cfg, tmp_path)
        names = {e.name for e in manifest.outputs}
        assert names == {"surface.csv", "slices.csv", "metrics.json"}
        for entry in manifest.outputs:
            assert os.path.getsize(entry.path) == entry.bytes > 0
        assert manifest.config_hash == ks.config_hash(small_cfg)
        assert (tmp_path / "manifest.json").exists()

        rows = read_csv(tmp_path / "surface.csv")
        assert rows[0][0] == "delay_ps\\energy_nJ"
        assert len(rows[0]) == 1 + len(small_cfg.sweep.energies)
        assert len(rows) == 1 + len(small_cfg.sweep.delays)
        # final row newline-terminated
        raw = (tmp_path / "surface.csv").read_bytes()
        assert raw.endswith(b"\n")

    def test_surface_values_match_direct_evaluation(self, small_cfg, tmp_path):
        ks.cmd_sweep(small_cfg, tmp_path)
        rows = read_csv(tmp_path / "surface.csv")
        surface = ks.sweep_surface(small_cfg)
        got = float(rows[17][3])  # delay index 16, energy index 2
        assert got == pytest.approx(surface.eta_grid[2, 16], rel=1e-12)

    def test_metrics_present(self, small_cfg, tmp_path):
        ks.cmd_sweep(small_cfg, tmp_path)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["eta_max"] > 0.9
        assert metrics["calibrated_energy_nj"] == pytest.approx(8.0, rel=0.25)
        assert metrics["fw10db_ps"] > 1.0
        assert metrics["flat98_span_fs"] is not None

    def test_single_cell_marks_insufficient_samples(self, tmp_path):
        doc = dict(SMALL_DOC)
        doc["sweep"] = {"energies_nj": [8.0], "delays_ps": [0.0]}
        cfg = ks.parse_config(json.dumps(doc))
        ks.cmd_sweep(cfg, tmp_path)
        rows = read_csv(tmp_path / "surface.csv")
        assert len(rows) == 2 and len(rows[1]) == 2
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["calibrated_energy_nj"] is None
        assert metrics["fw10db_ps"] is None and metrics["flat98_span_fs"] is None
        assert metrics["eta_max"] == ks.numeric_efficiency(cfg, cfg.pump.energy, 0.0).eta
        assert metrics["note"] == (
            "calibration failed: sweep energy range is degenerate"
            " fw10db unavailable: need at least 16 samples to measure a width"
            " flat98 unavailable: need at least 16 samples to measure a span"
        )

    def test_short_delay_axis_still_calibrates(self, tmp_path):
        """Five delays are too few for a width but not for calibration: the
        sweep reports `cmd_calibrate`'s energy and takes its delay slice
        there."""
        doc = {**SMALL_DOC, "sweep": {**SMALL_DOC["sweep"], "delays_ps": [-1.0, -0.5, 0.0, 0.5, 1.0]}}
        cfg = ks.parse_config(json.dumps(doc))
        ks.cmd_sweep(cfg, tmp_path / "sweep")
        ks.cmd_calibrate(cfg, tmp_path / "calibrate")
        metrics = json.loads((tmp_path / "sweep" / "metrics.json").read_text())
        calibration = json.loads((tmp_path / "calibrate" / "calibration.json").read_text())
        energy = calibration["calibrated_energy_nj"]
        assert metrics["calibrated_energy_nj"] == energy
        slices = read_csv(tmp_path / "sweep" / "slices.csv")
        delay_slice = [row for row in slices if row[0] == "delay_at_calibrated_energy"]
        assert [row[1] for row in delay_slice] == ["-1", "-0.5", "0", "0.5", "1"]
        assert {row[2] for row in delay_slice} == {format(energy, ".12g")}
        assert delay_slice[2][3] == format(calibration["eta_at_calibrated_energy"], ".12g")
        assert metrics["note"] == (
            "fw10db unavailable: need at least 16 samples to measure a width"
            " flat98 unavailable: need at least 16 samples to measure a span"
        )

    def test_rerun_is_byte_identical(self, small_cfg, tmp_path):
        ks.cmd_sweep(small_cfg, tmp_path / "a")
        ks.cmd_sweep(small_cfg, tmp_path / "b")
        for name in ("surface.csv", "slices.csv", "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cmd_sweep_computes_each_kernel_once(monkeypatch, tmp_path, cold_kernel_cache):
    """Sweep rows, calibration, slices and the convergence check share one
    kernel cache: no (energy, steps) pump kernel is computed twice, in the
    same batch or in two, and the surface's kernels come as one batch. A
    pump is told by its launch field's bytes, which its energy sets."""
    doc = dict(SMALL_DOC, sweep={
        "energies_nj": [float(e) for e in range(17)],
        "delays_ps": [round(-4.0 + 0.5 * i, 10) for i in range(17)],
    })
    cfg = ks.parse_config(json.dumps(doc))
    batches = []
    compute = ks.switch._kernel_batch

    def counting(launch, grid, wavelength, fiber, steps, signal_wavelength):
        batches.append([(a.tobytes(), steps) for a in launch])
        return compute(launch, grid, wavelength, fiber, steps, signal_wavelength)

    monkeypatch.setattr(ks.switch, "_kernel_batch", counting)
    ks.cmd_sweep(cfg, tmp_path)
    keys = [key for batch in batches for key in batch]
    assert len(batches[0]) == 16
    assert len(keys) == len(set(keys))


def test_cold_default_cmd_sweep_starts_each_kernel_once(
    default_cfg, monkeypatch, tmp_path, cold_kernel_cache
):
    """Every pump kernel of a cold default sweep runs from launch once: one
    split-step call per batch of kernels, one row per kernel. The batches
    are the 28-pump ladder, the convergence check's 512-step kernel and the
    calibration's one refinement round of 3. The config is hashed once per
    model lookup (5 times: the surface, the check's two kernels, the
    calibration and the slice), not once per kernel, delay or cell, so its
    hash needs no cache."""
    kernels, rows, hashes = [], [], []
    compute = ks.switch._kernel_batch
    split_step = ks.propagation._split_step
    config_hash = ks.ExperimentConfig.__hash__

    def counting_kernels(launch, *args):
        kernels.append(len(launch))
        return compute(launch, *args)

    def counting_split_step(launch, *args):
        rows.append(len(launch))
        return split_step(launch, *args)

    def counting_hash(config):
        hashes.append(None)
        return config_hash(config)

    monkeypatch.setattr(ks.switch, "_kernel_batch", counting_kernels)
    monkeypatch.setattr(ks.propagation, "_split_step", counting_split_step)
    monkeypatch.setattr(ks.ExperimentConfig, "__hash__", counting_hash)
    ks.cmd_sweep(default_cfg, tmp_path)
    assert rows == kernels
    assert kernels == [28, 1, 3]
    assert 0 < len(hashes) <= 10


def test_cmd_sweep_default_config_metrics(default_cfg, calibrated_energy, tmp_path):
    """The stock configuration reproduces the headline operating figures."""
    ks.cmd_sweep(default_cfg, tmp_path)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["eta_max"] >= 0.99
    assert abs(metrics["fw10db_ps"] - 2.3) <= 0.7
    assert abs(metrics["flat98_span_fs"] - 533.0) <= 250.0
    assert metrics["calibrated_energy_nj"] == pytest.approx(calibrated_energy / 1e-9, rel=1e-6)


class TestCmdFock:
    def test_artifacts(self, small_cfg, tmp_path):
        manifest = ks.cmd_fock(small_cfg, tmp_path, n_max=2)
        assert {e.name for e in manifest.outputs} == {"fock_probs.csv", "fock_probs.json"}
        rows = read_csv(tmp_path / "fock_probs.csv")
        assert rows[0] == ["delay_ps", "N", "n_S", "n_U", "probability", "stderr", "kind"]
        kinds = {r[6] for r in rows[1:]}
        assert kinds == {"exact", "monte_carlo"}

    def test_exact_curves_sum_to_one(self, small_cfg, tmp_path):
        ks.cmd_fock(small_cfg, tmp_path, n_max=1)
        rows = [r for r in read_csv(tmp_path / "fock_probs.csv")[1:] if r[6] == "exact"]
        by_delay = {}
        for r in rows:
            by_delay.setdefault(r[0], 0.0)
            by_delay[r[0]] += float(r[4])
        assert all(abs(total - 1.0) <= 1e-12 for total in by_delay.values())

    def test_fwhm_narrows_with_n(self, small_cfg, tmp_path):
        ks.cmd_fock(small_cfg, tmp_path, n_max=4)
        data = json.loads((tmp_path / "fock_probs.json").read_text())
        delays = np.array(data["delays_ps"])
        widths = []
        for n in range(1, 5):
            curve = next(
                np.array(c["probability"])
                for c in data["curves"]
                if c["kind"] == "exact" and c["N"] == n and c["n_S"] == n
            )
            widths.append(ks.full_width(delays, curve, 0.5))
        assert all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))

    def test_bad_n_max(self, small_cfg, tmp_path):
        with pytest.raises(ks.errors.ValidationError):
            ks.cmd_fock(small_cfg, tmp_path, n_max=11)

    def test_rerun_byte_identical(self, small_cfg, tmp_path):
        ks.cmd_fock(small_cfg, tmp_path / "a", n_max=2)
        ks.cmd_fock(small_cfg, tmp_path / "b", n_max=2)
        assert (tmp_path / "a" / "fock_probs.csv").read_bytes() == (
            tmp_path / "b" / "fock_probs.csv"
        ).read_bytes()


class TestCmdSpectrum:
    def test_artifacts_and_monotone_fwhm(self, small_cfg, tmp_path):
        manifest = ks.cmd_spectrum(small_cfg, tmp_path)
        assert {e.name for e in manifest.outputs} == {
            "pump_spectra.csv",
            "spectrum_metrics.csv",
            "signal_tof.csv",
        }
        rows = read_csv(tmp_path / "spectrum_metrics.csv")[1:]
        fwhms = [float(r[1]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(fwhms, fwhms[1:]))

    def test_zero_energy_row_is_transform_limited(self, small_cfg, tmp_path):
        ks.cmd_spectrum(small_cfg, tmp_path)
        rows = read_csv(tmp_path / "spectrum_metrics.csv")[1:]
        zero_fwhm = float(rows[0][1])
        pump = ks.make_gaussian_pulse(
            small_cfg.grid,
            small_cfg.pump.center_wavelength,
            small_cfg.pump.fwhm_duration,
            1e-9,
        )
        wl, dens = ks.pump_spectrum(pump)
        assert zero_fwhm == pytest.approx(ks.full_width(wl, dens, 0.5), rel=1e-9)

    def test_tof_ports_agree(self, small_cfg, tmp_path):
        ks.cmd_spectrum(small_cfg, tmp_path)
        rows = read_csv(tmp_path / "signal_tof.csv")[1:]
        switched = np.array([float(r[2]) for r in rows if r[0] == "switched"])
        unswitched = np.array([float(r[2]) for r in rows if r[0] == "unswitched"])
        times = np.array([float(r[1]) for r in rows if r[0] == "switched"])
        tv = 0.5 * np.abs(switched - unswitched).sum() * (times[1] - times[0])
        assert tv < 1e-3

    @staticmethod
    def _traced_peaks(cfg, out, monkeypatch):
        """tracemalloc peaks of a cold cmd_spectrum: up to the end of its
        kernel batch, and after it."""
        ks.switch._model.cache_clear()
        peaks = []
        compute = ks.switch._kernel_batch

        def marking(*args):
            kernels = compute(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return kernels

        monkeypatch.setattr(ks.switch, "_kernel_batch", marking)
        tracemalloc.start()
        try:
            ks.cmd_spectrum(cfg, out)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return peaks

    def test_cold_default_run_holds_one_spectrum_at_a_time(
        self, default_cfg, monkeypatch, tmp_path
    ):
        """After its kernel batch, a cold default run holds one rung's
        full-band spectrum at a time: its traced peak there is at least 5 MB
        below that of the same run holding all 29 spectra, and below the
        batch's own peak. Both runs write the same bytes."""
        batch, streamed = self._traced_peaks(default_cfg, tmp_path / "a", monkeypatch)
        spectra = ks.runner.pump_output_spectra
        monkeypatch.setattr(ks.runner, "pump_output_spectra", lambda *args: list(spectra(*args)))
        _, held = self._traced_peaks(default_cfg, tmp_path / "b", monkeypatch)
        assert streamed <= held - 5e6
        assert streamed < batch
        for name in ("pump_spectra.csv", "spectrum_metrics.csv", "signal_tof.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCmdCalibrate:
    def test_writes_calibration(self, small_cfg, tmp_path):
        ks.cmd_calibrate(small_cfg, tmp_path)
        data = json.loads((tmp_path / "calibration.json").read_text())
        assert data["calibrated_energy_nj"] == pytest.approx(8.0, rel=0.25)
        assert data["eta_at_calibrated_energy"] > 0.9


class TestCliMain:
    def write_config(self, tmp_path, doc=SMALL_DOC):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_validate_config_ok(self, tmp_path, capsys):
        code = main(["validate-config", "--config", self.write_config(tmp_path)])
        assert code == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_config_defaults(self, capsys):
        assert main(["validate-config"]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pump": {"energy_nj": -2.0}}))
        code = main(["validate-config", "--config", str(path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff" + json.dumps({"pump": {"energy_nj": 8.0}}).encode())
        code = main(["validate-config", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "UTF-8" in err

    def test_deeply_nested_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code = main(["validate-config", "--config", str(path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-config", "fock"])
    @pytest.mark.parametrize(
        "section,key",
        [
            ("grid", "n_samples"),
            ("source", "max_photon_cutoff"),
            ("solver", "steps"),
            ("monte_carlo", "pulses_per_delay"),
        ],
    )
    def test_huge_integer_is_a_config_error(self, tmp_path, capsys, command, section, key):
        cfg_path = self.write_config(tmp_path, {section: {key: 2**64}})
        code = main([command, "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {section}.{key}" in capsys.readouterr().err

    def test_int64_noise_overflow_is_a_config_error(self, tmp_path, capsys):
        doc = {
            "monte_carlo": {"pulses_per_delay": 10**18},
            "detectors": {"noise_window_multiplier": 1e6},
        }
        code = main(["fock", "--config", self.write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-config", "fock"])
    def test_int64_noise_overflow_is_refused_at_parse(self, tmp_path, capsys, monkeypatch, command):
        """`validate-config` once said "config OK" for this config, while
        `fock` propagated the pump kernel, then exited 2 and left an empty
        output directory. Both now exit 2 before any kernel or directory."""
        def no_kernels(*args):
            raise AssertionError("a kernel was computed")

        monkeypatch.setattr(ks.propagation, "_split_step", no_kernels)
        doc = {
            "monte_carlo": {"pulses_per_delay": 4611686018427387904},
            "detectors": {"noise_per_pulse_switched": 0.01, "noise_per_pulse_unswitched": 0.01},
        }
        code = main([command, "--config", self.write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "5 noise counts per pulse overflow int64 noise totals" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate-config", "fock"])
    def test_noise_mean_past_the_grid_bound_is_refused_at_parse(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """A mean of 1e8 noise counts per window once passed
        `validate-config`, and `fock` would have spent minutes and gigabytes
        on its noise grid. Both now exit 2 before any kernel, noise grid or
        directory."""
        def refuse(*args):
            raise AssertionError("a kernel or noise grid was computed")

        monkeypatch.setattr(ks.propagation, "_split_step", refuse)
        monkeypatch.setattr(ks.photons, "_noise_totals", refuse)
        doc = {"detectors": {"noise_window_multiplier": 5e12}}
        code = main([command, "--config", self.write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "1e+08 mean noise counts per window exceed 10000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep", "fock", "spectrum", "calibrate"])
    @pytest.mark.parametrize("alpha_per_m", [3050.0, 1e4])
    def test_signal_underflowing_loss_is_a_config_error(self, tmp_path, capsys, command, alpha_per_m):
        """At 3050 per metre (732 nepers) the default grid's signal support is
        empty, and each command once died with exit code 1."""
        cfg_path = self.write_config(tmp_path, {"fiber": {"alpha_per_m": alpha_per_m}})
        code = main([command, "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: fiber.alpha" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate-config", "sweep", "fock", "spectrum", "calibrate"])
    @pytest.mark.parametrize("section", ["pump", "signal"])
    def test_pulse_wider_than_the_grid_is_a_config_error(self, tmp_path, capsys, command, section):
        """A 20 ps pulse does not fit the default 40 ps window. The config is
        rejected when it is built, so `validate-config` says what every
        command says, and no command writes anything."""
        cfg_path = self.write_config(tmp_path, {section: {"fwhm_fs": 20000.0}})
        code = main([command, "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {section}.fwhm_duration" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_needs_strict_flag(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"pump": {"fwmh_fs": 200.0}}))
        with pytest.warns(UserWarning):
            assert main(["validate-config", "--config", str(path)]) == 0
        assert main(["validate-config", "--config", str(path), "--strict"]) == 2

    def test_descending_delays_fock_matches_exact_rows(self, tmp_path, capsys):
        """Each Monte Carlo row draws at the efficiency of its own delay when
        the delay axis descends."""
        doc = {"sweep": {"delays_ps": [0.6, 0.0, -0.6]}}
        out = tmp_path / "out"
        code = main(["fock", "--config", self.write_config(tmp_path, doc),
                     "--out", str(out), "--n-max", "1"])
        assert code == 0
        curves = json.loads((out / "fock_probs.json").read_text())["curves"]
        exact = {c["n_S"]: c["probability"] for c in curves if c["kind"] == "exact"}
        sampled = [c for c in curves if c["kind"] == "monte_carlo"]
        assert len(sampled) == 2
        for curve in sampled:
            for p, err, q in zip(curve["probability"], curve["stderr"], exact[curve["n_S"]]):
                assert err > 0.0
                assert abs(p - q) <= 5.0 * err

    def test_descending_delays_sweep_writes_no_negative_width(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMALL_DOC))
        doc["sweep"]["delays_ps"] = doc["sweep"]["delays_ps"][::-1]
        out = tmp_path / "out"
        code = main(["sweep", "--config", self.write_config(tmp_path, doc), "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["fw10db_ps"] is None
        assert metrics["flat98_span_fs"] is None
        assert "fw10db unavailable" in metrics["note"]
        assert "flat98 unavailable" in metrics["note"]

    def test_sweep_command_end_to_end(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg_path, "--out", str(out)])
        assert code == 0
        assert (out / "surface.csv").exists()
        assert "manifest" in capsys.readouterr().out

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        doc = dict(SMALL_DOC)
        doc["solver"] = {"steps": 8}
        doc["grid"] = {"n_samples": 16384, "window_ps": 40.0}
        cfg_path = self.write_config(tmp_path, doc)
        code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "nc")])
        assert code == 3
        assert "simulation error" in capsys.readouterr().err

    def test_non_convergence_writes_no_artifact(self, tmp_path, capsys):
        """The convergence check runs after the surface, but still before
        anything is written: 16 steps at 8 nJ on a 1024-sample grid fail it."""
        doc = dict(SMALL_DOC, grid={"n_samples": 1024, "window_ps": 40.0},
                   solver={"steps": 16}, pump={"energy_nj": 8.0})
        out = tmp_path / "nc"
        code = main(["sweep", "--config", self.write_config(tmp_path, doc), "--out", str(out)])
        assert code == 3
        assert "step-doubling residual" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    @pytest.mark.xfail(strict=True, reason="only sweep runs the step-doubling check")
    def test_fock_non_convergence_exit_code(self, tmp_path, capsys):
        """A 1 km fiber fails sweep's step-doubling check at the operating
        point (residual 0.083 at 8 nJ, exit 3); fock draws its Monte Carlo
        from the same unconverged kernel, so it should fail it too."""
        doc = {"fiber": {"length_m": 1000.0}}
        out = tmp_path / "nc"
        code = main(["fock", "--config", self.write_config(tmp_path, doc), "--out", str(out)])
        assert code == 3
        assert "step-doubling residual" in capsys.readouterr().err

    def test_huge_delays_exit_cleanly_without_warnings(self, tmp_path, capsys, default_cfg):
        """Delays of ±1e307 ps overflow the shift in samples to infinity.
        `sweep` and `fock` exit 0 with nothing on stderr, and every entry at
        those delays is exactly 0 (the exact photon splits too); so is η at
        NaN, ±inf and ±1e300 s."""
        doc = {"sweep": {"delays_ps": [1e307, -1e307, 0.0]}}
        cfg_path = self.write_config(tmp_path, doc)
        for command in ("sweep", "fock"):
            assert main([command, "--config", cfg_path, "--out", str(tmp_path / command)]) == 0
            assert capsys.readouterr().err == ""
        surface = read_csv(tmp_path / "sweep" / "surface.csv")
        assert [row[0] for row in surface[1:]] == ["1e+307", "-1e+307", "0"]
        for row in surface[1:3]:
            assert {float(cell) for cell in row[1:]} == {0.0}
        assert max(float(cell) for cell in surface[3][1:]) > 0.99
        curves = json.loads((tmp_path / "fock" / "fock_probs.json").read_text())["curves"]
        # The Monte Carlo adds detector noise; the exact split is η's alone.
        switched = [c["probability"] for c in curves if c["kind"] == "exact" and c["n_S"] > 0]
        assert switched and all(p[:2] == [0.0, 0.0] for p in switched)
        assert max(p[2] for p in switched) > 0.5
        delays = np.array([math.nan, math.inf, -math.inf, 1e300, -1e300])
        row = ks.efficiency_vs_delay(default_cfg, default_cfg.pump.energy, delays)
        assert row.tolist() == [0.0] * delays.size

    def test_io_error_exit_code(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["calibrate", "--config", cfg_path, "--out", str(blocker)])
        assert code == 4

    def test_seed_flag_changes_monte_carlo(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        base = ["fock", "--config", cfg_path, "--n-max", "1"]
        assert main(base + ["--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
        assert main(base + ["--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
        assert main(base + ["--out", str(tmp_path / "s1b"), "--seed", "1"]) == 0
        a = (tmp_path / "s1" / "fock_probs.csv").read_bytes()
        b = (tmp_path / "s2" / "fock_probs.csv").read_bytes()
        c = (tmp_path / "s1b" / "fock_probs.csv").read_bytes()
        assert a != b
        assert a == c

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KERRSWITCH_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        cfg_path = self.write_config(tmp_path)
        assert main(["calibrate", "--config", cfg_path]) == 0
        assert (tmp_path / "envout" / "calibration.json").exists()


def test_calibrate_and_sweep_load_no_scipy(tmp_path):
    """Every command runs on numpy alone: in a fresh interpreter, no scipy
    module is loaded after importing the CLI and validating a config, nor
    after a calibrate and a sweep. Nor does any command need numpy.ma: after
    a calibrate, a sweep, a fock and a spectrum, no module numpy.ma or
    numpy.ma.* is loaded (numpy.matrixlib is another package).

    The config hash is CPython's own SHA-256, so until `fock` runs neither
    `_hashlib` nor `ssl` is loaded: OpenSSL's libcrypto is never mapped.
    `fock` comes last, as its Monte Carlo imports numpy.random, which
    imports secrets, hmac and so `_hashlib`; that import is numpy's."""
    doc = {
        "grid": {"n_samples": 1024, "window_ps": 40.0},
        "solver": {"steps": 16},
        "pump": {"energy_nj": 4.0},
        "sweep": {"energies_nj": [0.0, 4.0, 8.0, 12.0], "delays_ps": [-1.0, 0.0, 1.0]},
    }
    cfg_path = tmp_path / "small.json"
    cfg_path.write_text(json.dumps(doc))
    code = (
        "import sys; from kerrswitch.cli import main; cfg, out = sys.argv[1:]; "
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert main(['validate-config']) == 0; print(scipy()); "
        "assert main(['calibrate', '--config', cfg, '--out', out + '/cal']) == 0; "
        "assert main(['sweep', '--config', cfg, '--out', out + '/sweep']) == 0; "
        "assert main(['spectrum', '--config', cfg, '--out', out + '/spectrum']) == 0; "
        "print(sorted(m for m in ('_hashlib', 'ssl') if m in sys.modules)); "
        "assert main(['fock', '--config', cfg, '--out', out + '/fock']) == 0; "
        "print(scipy()); "
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    src = str(Path(ks.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(cfg_path), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    lines = out.stdout.splitlines()
    assert [line for line in lines if line.startswith("[")] == ["[]", "[]", "[]", "[]"]
    for name in ("cal/calibration.json", "sweep/surface.csv", "fock/fock_probs.csv", "spectrum/signal_tof.csv"):
        assert (tmp_path / name).exists()


def test_fock_with_a_truncating_cutoff(tmp_path, capsys):
    """The property test's first find: a cutoff of 1 under a mean photon
    number of 1 drops a quarter of the source's mass. The config is
    accepted, and `fock` warns, renormalizes over the cutoff and exits 0
    with tables that sum to 1."""
    doc = {
        "grid": {"n_samples": 64, "window_ps": 5.0},
        "source": {"mean_photon_number": 1.0, "max_photon_cutoff": 1},
        "sweep": {"delays_ps": [0.0]},
        "monte_carlo": {"pulses_per_delay": 1},
    }
    cfg_path = tmp_path / "cutoff.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["validate-config", "--config", str(cfg_path)]) == 0
    with pytest.warns(CutoffTooSmall, match="cutoff 1 truncates 0.25"):
        code = main(["fock", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    curves = json.loads((tmp_path / "out" / "fock_probs.json").read_text())["curves"]
    for n in range(1, 7):
        table = [c["probability"][0] for c in curves if c["kind"] == "exact" and c["N"] == n]
        assert len(table) == n + 1
        assert sum(table) == pytest.approx(1.0, abs=1e-12)


def _pi_energy_nj(doc):
    """Rough pump energy, in nJ, of a π differential phase at the signal's
    centre at zero delay: the XPM coefficient 8π n2 / (3 λs A_eff) times
    the pump power the walk-through sweeps past that point, integrated over
    the fiber. That is E erf(√ln2 |w| L / τ) / |w| for a Gaussian pump of
    energy E and FWHM τ with walk-off w (P0 L at w = 0, P0 the peak power),
    scaled by L_eff / L for loss. At most 1000 nJ, the bound a weak Kerr
    effect gets."""
    fiber = doc["fiber"]
    length, alpha = fiber["length_m"], fiber["alpha_per_m"]
    walk = abs(fiber["walkoff_ps_m"]) * 1e-12
    fwhm = doc["pump"]["fwhm_fs"] * 1e-15
    l_eff = -math.expm1(-alpha * length) / alpha if alpha > 0.0 else length
    if walk * length > 1e-6 * fwhm:
        swept = math.erf(math.sqrt(math.log(2.0)) * walk * length / fwhm) / walk
    else:
        swept = 2.0 * math.sqrt(math.log(2.0) / math.pi) * length / fwhm
    coefficient = 8.0 * math.pi * fiber["n2_m2_w"] / (
        3.0 * doc["signal"]["wavelength_nm"] * 1e-9 * fiber["a_eff_um2"] * 1e-12
    )
    per_nj = coefficient * swept * (l_eff / length) * 1e-9
    return min(math.pi / per_nj, 1000.0) if per_nj > math.pi / 1000.0 else 1000.0


def test_every_accepted_config_exits_cleanly(tmp_path, capsys, cold_kernel_cache):
    """Small accepted documents, with every physics, source, detector, TOF
    and Monte Carlo field drawn, run `sweep`, `fock` and `calibrate` through
    `main`. Each run ends in exit 0, 2 or 3, and writes only finite CSV cells.
    On exit 0, every efficiency lies in [0, 1] and every fock table row with
    a nonzero total sums to 1.

    The sweep's energy ladder spans the drawn config's rough π energy
    (`_pi_energy_nj`): one rung below it, one above, up to three anywhere
    up to 3 times it. So `calibrate` brackets on some draws and exits 0:
    8 of the 40, where a ladder drawn on 0–20 nJ bracketed on none. Draws
    on which it cannot (sin²2θ ≤ 0.5, a signal much wider than the phase,
    the estimate far off) are kept, and exit 3.

    `spectrum` is left out: the one-key config ``{"grid": {"n_samples":
    256}}`` makes it raise an uncaught `NoCrossing` (exit 1), because the
    pump's spectrum fills the band and has no half-maximum crossing. That
    needs a spectral band guard first."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def floats(lo, hi):
        return st.floats(lo, hi, allow_nan=False, allow_infinity=False)

    document = st.fixed_dictionaries({
        "pump": st.fixed_dictionaries({
            "wavelength_nm": floats(900.0, 1600.0),
            "fwhm_fs": floats(50.0, 1000.0),
            "energy_nj": floats(0.01, 20.0),
        }),
        "signal": st.fixed_dictionaries({
            "wavelength_nm": floats(1000.0, 2000.0),
            "fwhm_fs": floats(100.0, 1200.0),
        }),
        "fiber": st.fixed_dictionaries({
            "length_m": floats(0.01, 1.0),
            "beta2_pump_ps2_km": floats(-50.0, 50.0),
            "beta3_pump_ps3_km": floats(-1.0, 1.0),
            "beta2_signal_ps2_km": floats(-50.0, 50.0),
            "walkoff_ps_m": floats(-20.0, 20.0),
            "n2_m2_w": floats(0.0, 1e-19),
            "a_eff_um2": floats(10.0, 100.0),
            "alpha_per_m": floats(0.0, 5.0),
        }),
        "geometry": st.fixed_dictionaries({"theta_rad": floats(0.0, math.pi / 2.0)}),
        # Pulses of at most 1.2 ps fit the smallest window's quarter.
        "grid": st.fixed_dictionaries({
            "n_samples": st.sampled_from([64, 128, 256, 512, 1024, 2048]),
            "window_ps": floats(5.0, 80.0),
        }),
        "source": st.fixed_dictionaries({
            "mean_photon_number": floats(0.0, 4.0),
            "max_photon_cutoff": st.integers(1, 60),
        }),
        "detectors": st.fixed_dictionaries({
            "herald_efficiency": floats(0.0, 1.0),
            "system_transmittance": floats(0.0, 1.0),
            "noise_per_pulse_switched": floats(0.0, 1e-2),
            "noise_per_pulse_unswitched": floats(0.0, 1e-2),
            "noise_window_multiplier": floats(0.0, 5.0),
        }),
        "tof": st.fixed_dictionaries({
            "dispersion_ps_nm": floats(10.0, 2000.0) | floats(-2000.0, -10.0),
            "reference_wavelength_nm": floats(1000.0, 2000.0),
            "jitter_fwhm_ps": floats(0.0, 50.0),
        }),
        "sweep": st.fixed_dictionaries({
            "delays_ps": st.lists(floats(-10.0, 10.0), min_size=1, max_size=20),
        }),
        "solver": st.fixed_dictionaries({"steps": st.integers(8, 48)}),
        "monte_carlo": st.fixed_dictionaries({"pulses_per_delay": st.integers(1, 2000)}),
        "rng_seed": st.integers(0, 2**64 - 1),
    })

    def with_ladder(doc):
        pi = _pi_energy_nj(doc)
        fractions = st.tuples(floats(0.0, 0.9), floats(1.1, 3.0)).flatmap(
            lambda ends: st.lists(floats(0.0, 3.0), max_size=3).map(lambda rest: [*ends, *rest])
        )
        return fractions.map(
            lambda fs: {**doc, "sweep": {**doc["sweep"], "energies_nj": [f * pi for f in fs]}}
        )

    document = document.flatmap(with_ladder)
    runs = count()
    calibrated = []

    def finite_cells(path):
        for row in read_csv(path)[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:  # a label column
                    continue
                assert math.isfinite(value), (path.name, row)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(document)
    def check(doc):
        ks.parse_config(json.dumps(doc))  # the strategy draws accepted documents only
        base = tmp_path / str(next(runs))
        base.mkdir()
        cfg_path = base / "config.json"
        cfg_path.write_text(json.dumps(doc))
        for command in ("sweep", "fock", "calibrate"):
            out = base / command
            with warnings.catch_warnings():
                # A cutoff that truncates the source is warned of, as
                # documented (see test_fock_with_a_truncating_cutoff); any
                # other warning still fails.
                warnings.simplefilter("ignore", CutoffTooSmall)
                code = main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code in (0, 2, 3), (command, code)
            for path in sorted(out.glob("*.csv")):
                finite_cells(path)
            if code != 0:
                continue
            if command == "sweep":
                surface = np.array([row[1:] for row in read_csv(out / "surface.csv")[1:]], float)
                slices = np.array([row[3] for row in read_csv(out / "slices.csv")[1:]], float)
                for eta in (surface, slices):
                    assert np.all((eta >= 0.0) & (eta <= 1.0))
            elif command == "fock":
                curves = json.loads((out / "fock_probs.json").read_text())["curves"]
                tables: dict = {}
                for record in curves:
                    tables.setdefault((record["kind"], record["N"]), []).append(record["probability"])
                for table in tables.values():
                    probs = np.array(table)
                    assert np.all((probs >= 0.0) & (probs <= 1.0))
                    totals = probs.sum(axis=0)
                    assert np.all(np.abs(totals[totals != 0.0] - 1.0) <= 1e-9)
            else:
                eta = json.loads((out / "calibration.json").read_text())["eta_at_calibrated_energy"]
                assert 0.0 <= eta <= 1.0
                calibrated.append(doc)
        capsys.readouterr()

    check()
    assert len(calibrated) >= 8
