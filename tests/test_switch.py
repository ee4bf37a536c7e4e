"""Switching efficiencies: closed form, simulation path, calibration, and
temporal metrics."""

import dataclasses
import importlib
import json
import math
import pkgutil
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kerrswitch as ks
from kerrswitch.errors import EmptySpan, NoBracket, NoCrossing, ValidationError

NJ = 1e-9
PS = 1e-12


class TestAnalyticEfficiency:
    def test_maximum(self):
        assert ks.analytic_efficiency(math.pi / 4.0, math.pi) == 1.0

    def test_parallel_polarizations_never_switch(self):
        assert ks.analytic_efficiency(0.0, math.pi) == 0.0

    def test_half_phase(self):
        assert ks.analytic_efficiency(math.pi / 4.0, math.pi / 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_zero_phase_for_random_angles(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(0.0, math.pi / 2.0, size=100):
            assert abs(ks.analytic_efficiency(float(theta), 0.0)) <= 1e-15


class TestNonlinearPhase:
    def test_zero_intensity(self):
        assert ks.nonlinear_phase(2.6e-20, 0.24, 0.0, 1.55e-6) == 0.0

    def test_pi_point_inversion(self):
        n2, l_eff, lam = 2.6e-20, 0.24, 1.55e-6
        i_pi = 3.0 * lam / (8.0 * n2 * l_eff)
        assert ks.nonlinear_phase(n2, l_eff, i_pi, lam) == pytest.approx(math.pi, rel=1e-12)

    def test_pi_intensity_value(self):
        # Independent arithmetic: 3 * 1.55e-6 / (8 * 2.6e-20 * 0.24) = 9.3149e13 W/m^2
        i_pi = 3.0 * 1.55e-6 / (8.0 * 2.6e-20 * 0.24)
        assert i_pi == pytest.approx(9.3149e13, rel=1e-4)
        assert ks.nonlinear_phase(2.6e-20, 0.24, 9.3149e13, 1.55e-6) == pytest.approx(
            math.pi, rel=1e-4
        )


class TestNumericEfficiency:
    def test_zero_pump_energy_is_exactly_zero(self, default_cfg):
        assert ks.numeric_efficiency(default_cfg, 0.0, 0.0).eta == 0.0

    def test_calibrated_point_exceeds_99_percent(self, default_cfg, calibrated_energy):
        assert ks.numeric_efficiency(default_cfg, calibrated_energy, 0.0).eta >= 0.99

    def test_far_delay_vanishes(self, default_cfg, calibrated_energy):
        for delay in (20e-12, -20e-12):
            assert ks.numeric_efficiency(default_cfg, calibrated_energy, delay).eta < 1e-3

    def test_negative_energy_rejected(self, default_cfg):
        with pytest.raises(ValidationError):
            ks.numeric_efficiency(default_cfg, -1e-9, 0.0)

    def test_bounded_by_polarization_factor(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            theta = float(rng.uniform(0.1, math.pi / 2 - 0.1))
            doc = {"geometry": {"theta_rad": theta}}
            cfg = ks.parse_config(json.dumps(doc))
            e = float(rng.uniform(2e-9, 12e-9))
            tau = float(rng.uniform(-1e-12, 1e-12))
            eta = ks.numeric_efficiency(cfg, e, tau, steps=64).eta
            assert eta <= math.sin(2.0 * theta) ** 2 + 1e-12


def test_flat_phase_reduces_to_closed_form(default_cfg):
    weights = np.ones(256)
    for phi in (0.3, 1.0, math.pi):
        got = ks.efficiency_from_phase(weights, np.full(256, phi), math.pi / 4)
        assert got == pytest.approx(ks.analytic_efficiency(math.pi / 4, phi), abs=1e-15)


@pytest.mark.parametrize("size", [100, 8193, 11171, 65536])
def test_stacked_profiles_equal_one_profile_calls(size):
    """Each row of a stack of phase profiles gets the same bits as that
    profile alone, also past the 8192 values where a stacked einsum splits
    its rows; one profile gives a float."""
    rng = np.random.default_rng(size)
    weights = rng.uniform(0.0, 1.0, size)
    phases = rng.uniform(0.0, 2.0 * math.pi, (5, size))
    stacked = ks.efficiency_from_phase(weights, phases, 0.3)
    single = [ks.efficiency_from_phase(weights, phase, 0.3) for phase in phases]
    assert stacked.shape == (5,)
    assert all(type(eta) is float for eta in single)
    assert stacked.tolist() == single


def test_flat_pump_equivalence_with_analytic_formula():
    """Long super-Gaussian pump, no walk-off: simulation equals the formula."""
    g = ks.TimeGrid(n_samples=16384, window=40e-12)
    fiber = ks.FiberSpec(
        length=0.24, beta2_pump=0.0, beta3_pump=0.0, beta2_signal=-25e-27,
        walkoff=0.0, n2=2.6e-20, a_eff=4.3e-11, alpha=0.0,
    )
    theta = math.pi / 4.0
    pump = ks.make_supergaussian_pulse(g, 1030e-9, 8e-12, 0.6e-9, order=8)
    signal = ks.make_gaussian_pulse(g, 1550e-9, 600e-15, 1e-18)
    res = ks.propagate(pump, signal, fiber, delay=0.0, steps=64)
    numeric = ks.efficiency_from_phase(np.abs(res.signal_out.samples) ** 2, res.xpm_phase, theta)

    peak_intensity = np.abs(pump.samples).max() ** 2 / fiber.a_eff
    delta_phi = ks.nonlinear_phase(fiber.n2, fiber.effective_length(), peak_intensity, 1550e-9)
    assert numeric == pytest.approx(ks.analytic_efficiency(theta, delta_phi), abs=1e-4)


class TestCalibration:
    def test_default_operating_point_near_8_nj(self, calibrated_energy):
        assert abs(calibrated_energy - 8e-9) <= 0.2 * 8e-9

    def test_reproducible(self, default_cfg, calibrated_energy):
        again = ks.calibrate_pi_energy(default_cfg)
        assert again == pytest.approx(calibrated_energy, rel=1e-2)

    def test_doubling_a_eff_doubles_energy(self):
        energies = [float(i) for i in range(17)]
        base = ks.parse_config(json.dumps({
            "solver": {"steps": 128},
            "sweep": {"energies_nj": energies},
        }))
        doubled = ks.parse_config(json.dumps({
            "fiber": {"a_eff_um2": 86.0},
            "solver": {"steps": 128},
            "sweep": {"energies_nj": [2.0 * e for e in energies]},
        }))
        e1 = ks.calibrate_pi_energy(base)
        e2 = ks.calibrate_pi_energy(doubled)
        assert e2 / e1 == pytest.approx(2.0, rel=2e-2)

    def test_no_nonlinearity_has_no_bracket(self):
        cfg = ks.parse_config(json.dumps({"fiber": {"n2_m2_w": 0.0}, "solver": {"steps": 64}}))
        with pytest.raises(NoBracket):
            ks.calibrate_pi_energy(cfg)

    def test_default_energy_is_pinned(self, calibrated_energy):
        assert calibrated_energy / NJ == 7.810040508505646

    def test_repeated_energy_does_not_confine_the_refinement(self):
        """A sweep energy listed twice next to the best scanned one must not
        collapse the refinement's bracket onto one side of the optimum."""
        energies = [0.5 * i for i in range(29) if 0.5 * i not in (7.5, 8.0)]

        def calibrate(es):
            doc = {"solver": {"steps": 64}, "sweep": {"energies_nj": es}}
            return ks.calibrate_pi_energy(ks.parse_config(json.dumps(doc)))

        once = calibrate(energies + [7.6])
        assert abs(once / NJ - 7.6) > 0.1
        assert calibrate(energies + [7.6, 7.6]) == once

    def test_cold_default_refinement_is_one_batch_of_three(
        self, default_cfg, monkeypatch, cold_kernel_cache
    ):
        """The coarse scan's 28 kernels come as one batch, and the refinement
        stops after one round: the parabola's vertex and the points xatol on
        either side of it, as one more batch."""
        batches = []
        compute = ks.switch._kernel_batch

        def counting(launch, *args):
            batches.append(len(launch))
            return compute(launch, *args)

        monkeypatch.setattr(ks.switch, "_kernel_batch", counting)
        energy = ks.calibrate_pi_energy(default_cfg)
        assert batches == [28, 3]
        assert energy / NJ == 7.810040508505646

    @pytest.mark.parametrize("doc", [
        {},
        {"pump": {"fwhm_fs": 360.0}, "solver": {"steps": 128}},
        {
            "grid": {"n_samples": 1024, "window_ps": 40.0},
            "solver": {"steps": 16},
            "pump": {"energy_nj": 4.0},
            "sweep": {"energies_nj": [0.0, 4.0, 8.0, 12.0], "delays_ps": [-1.0, 0.0, 1.0]},
        },
    ], ids=["default", "wide-pump", "16-steps"])
    def test_refinement_matches_a_tight_bounded_search(self, doc, monkeypatch):
        """The refinement lands within its xatol of scipy's bounded search
        run on the same objective and bracket at xatol / 1000 (development
        check)."""
        optimize = pytest.importorskip("scipy.optimize")
        cfg = ks.parse_config(json.dumps(doc))
        searches = []
        search = ks.switch._bracketed_argmax

        def recording(objective, seen, xatol):
            searches.append((seen, xatol))
            return search(objective, seen, xatol)

        monkeypatch.setattr(ks.switch, "_bracketed_argmax", recording)
        energy = ks.calibrate_pi_energy(cfg)
        [(seen, xatol)] = searches
        res = optimize.minimize_scalar(
            lambda e: -ks.numeric_efficiency(cfg, float(e), 0.0).eta,
            bounds=(min(seen), max(seen)),
            method="bounded",
            options={"xatol": xatol / 1000},
        )
        assert abs(energy - res.x) <= xatol


def _unimodal(shape, centre, width):
    """A function of x with one maximum (or one flat top), at `centre`, on a
    scale `width`."""
    if shape == "parabola":
        return lambda x: -(((x - centre) / width) ** 2)
    if shape == "cusp":
        return lambda x: -(abs((x - centre) / width) ** 0.5)
    if shape == "terraces":  # flat steps: ties between evaluations
        return lambda x: -math.floor(8.0 * ((x - centre) / width) ** 2)
    return lambda x: (x - centre) / width - math.expm1((x - centre) / width)  # skewed


def _argmax_set(shape, centre, width, a, b):
    """(first, last) point of the set where `_unimodal` peaks on [a, b]."""
    nearest = min(max(centre, a), b)
    if shape != "terraces":
        return nearest, nearest
    level = math.floor(8.0 * ((nearest - centre) / width) ** 2)
    half = width * math.sqrt((level + 1) / 8.0)
    return max(centre - half, a), min(centre + half, b)


class TestBracketedArgmax:
    """`switch._bracketed_argmax`, seeded as calibration seeds it: the best
    point of a coarse scan and its neighbours."""

    def test_finds_the_maximum_on_unimodal_functions(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            shape=st.sampled_from(["parabola", "cusp", "terraces", "skewed"]),
            lo=st.floats(-1e3, 1e3),
            span=st.floats(1e-6, 1e3),
            # 0 and 1 put the maximum on a bound, beyond [0, 1] outside it.
            at=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-1.0, 2.0)),
            scale=st.floats(1e-2, 1e2),
            tol=st.floats(1e-6, 0.1),
            n=st.integers(2, 17),
        )
        # Parabolic rounds that stall on one side, without the golden-section
        # fallback when a round does not halve the bracket.
        @hypothesis.example("skewed", 364.3913882570697, 364.3913882570697,
                            0.3483313802943848, 0.01, 1e-6, 10)
        # Golden rounds, which need not halve the bracket, each forcing
        # another golden round: 25 rounds without a parabolic round after one.
        @hypothesis.example("skewed", 0.0, 1.0, 0.5, 0.25, 1e-6, 3)
        # A tie on a lower terrace, beside a gap that holds the top.
        @hypothesis.example("terraces", -4.6490703623173554e-79, 351.97239691137355,
                            0.08729019224342283, 0.01, 1e-6, 3)
        def check(shape, lo, span, at, scale, tol, n):
            a, b = lo, lo + span
            hypothesis.assume(b > a)
            func = _unimodal(shape, lo + at * span, scale * span)
            coarse = [float(x) for x in np.linspace(a, b, n)]
            values = [func(x) for x in coarse]
            best = int(np.argmax(values))
            seed = range(max(best - 1, 0), min(best + 2, n))
            rounds = []

            def objective(xs):
                rounds.append(xs)
                return [func(x) for x in xs]

            xatol = tol * span
            x = ks.switch._bracketed_argmax(
                objective, {coarse[i]: values[i] for i in seed}, xatol
            )
            first, last = _argmax_set(shape, lo + at * span, scale * span, a, b)
            assert max(first - x, x - last) <= xatol * (1.0 + 1e-9)
            assert x in [coarse[i] for i in seed] + [e for xs in rounds for e in xs]
            assert all(1 <= len(xs) <= 3 for xs in rounds)
            # Exact ties make a plateau, which the search may sample down to
            # xatol until its round cap; any other shape stops well before.
            cap = ks.switch._MAX_ROUNDS if shape == "terraces" else 20
            assert len(rounds) <= cap

        check()

    def test_finds_a_maximum_on_either_bound(self):
        seed = {2.0: 2.0, 3.5: 3.5, 5.0: 5.0}
        assert ks.switch._bracketed_argmax(lambda xs: xs, seed, 1e-6) == 5.0
        negated = {x: -x for x in seed}
        assert ks.switch._bracketed_argmax(lambda xs: [-x for x in xs], negated, 1e-6) == 2.0


def _scanned_ends(x, y, level, outermost):
    """The crossings of `level` on each side of argmax(y), found by scanning
    the segments [i, i+1] outward from it: the first found on each side, or
    with `outermost` the last; None on a side with none. A segment crosses
    when exactly one of its ends lies below the level."""
    peak = int(np.argmax(y))
    ends = []
    for segments in (range(peak - 1, -1, -1), range(peak, len(y) - 1)):
        end = None
        for i in segments:
            if (y[i] < level) != (y[i + 1] < level):
                x0, y0, x1, y1 = x[i], y[i], x[i + 1], y[i + 1]
                end = x0 + (level - y0) * (x1 - x0) / (y1 - y0)
                if not outermost:
                    break
        ends.append(end)
    return ends


class TestTemporalMetrics:
    def test_rectangle_width(self):
        delays = np.linspace(-5e-12, 5e-12, 101)
        etas = np.where(np.abs(delays) <= 0.96e-12, 1.0, 0.0)
        width = ks.temporal_resolution(delays, etas)
        spacing = delays[1] - delays[0]
        assert abs(width - 1.92e-12) <= spacing

    def test_gaussian_profile_closed_form(self):
        sigma = 0.8e-12
        delays = np.linspace(-6e-12, 6e-12, 241)
        etas = np.exp(-0.5 * (delays / sigma) ** 2)
        expected = 2.0 * sigma * math.sqrt(2.0 * math.log(10.0))
        assert ks.temporal_resolution(delays, etas) == pytest.approx(expected, rel=1e-2)

    def test_no_crossing(self):
        delays = np.linspace(-1e-12, 1e-12, 33)
        etas = np.full(33, 0.9)
        etas[16] = 1.0
        with pytest.raises(NoCrossing):
            ks.temporal_resolution(delays, etas, threshold_db=10.0)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            ks.temporal_resolution(np.arange(8), np.arange(8.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_curve_that_is_not_finite_is_rejected(self, bad):
        """One NaN sample was taken as the peak (`np.argmax` returns it):
        `full_width` raised NoCrossing below nan and `flat_top_span`
        returned nan."""
        delays = np.linspace(-5e-12, 5e-12, 101)
        etas = np.exp(-0.5 * (delays / 1e-12) ** 2)
        etas[70] = bad
        for measure in (
            lambda: ks.full_width(delays, etas, 0.5),
            lambda: ks.temporal_resolution(delays, etas),
            lambda: ks.flat_top_span(delays, etas, 0.98),
        ):
            with pytest.raises(ValidationError, match="the curve must be finite"):
                measure()

    def test_flat_top_span_rectangle(self):
        delays = np.linspace(-5e-12, 5e-12, 201)
        etas = np.where(np.abs(delays) <= 1.5e-12, 1.0, 0.2)
        span = ks.flat_top_span(delays, etas, 0.98)
        assert abs(span - 3e-12) <= 2 * (delays[1] - delays[0])

    def test_flat_top_span_empty(self):
        delays = np.linspace(-5e-12, 5e-12, 101)
        etas = 0.5 * np.exp(-0.5 * (delays / 1e-12) ** 2)
        with pytest.raises(EmptySpan):
            ks.flat_top_span(delays, etas, 0.98)

    def test_widths_match_a_scan_from_the_peak(self):
        """`full_width` spans the outermost crossings, `flat_top_span` the
        innermost or an axis end, as a loop scanning out from the argmax
        finds them; axes too short or not increasing are rejected first."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # Few distinct values, so curves tie and hold plateaus.
        value = st.one_of(st.sampled_from([0.0, 0.05, 0.5, 0.98, 1.0]), st.floats(-0.5, 1.5))

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            n=st.one_of(st.integers(16, 64), st.integers(0, 15)),
            data=st.data(),
            fraction=st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0)),
            # Levels past 1 lie above the maximum of most curves.
            level=st.one_of(st.sampled_from([0.98, 1.0, 1.5]), st.floats(-0.5, 2.0)),
            unsorted=st.booleans(),
        )
        def check(n, data, fraction, level, unsorted):
            steps = data.draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
            x = np.cumsum(steps)
            y = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
            if unsorted and n > 1:
                x[-1] = x[0]
            if n < 16 or (unsorted and n > 1):
                with pytest.raises(ValidationError):
                    ks.full_width(x, y, fraction)
                with pytest.raises(ValidationError):
                    ks.flat_top_span(x, y, level)
                return

            peak = y.max()
            if not (0.0 < fraction < 1.0) or peak <= 0.0:
                with pytest.raises(ValidationError):
                    ks.full_width(x, y, fraction)
            else:
                left, right = _scanned_ends(x, y, peak * fraction, outermost=True)
                if left is None or right is None:
                    with pytest.raises(NoCrossing):
                        ks.full_width(x, y, fraction)
                else:
                    assert ks.full_width(x, y, fraction) == right - left

            if peak < level:
                with pytest.raises(EmptySpan):
                    ks.flat_top_span(x, y, level)
            else:
                left, right = _scanned_ends(x, y, level, outermost=False)
                left = x[0] if left is None else left
                right = x[-1] if right is None else right
                assert ks.flat_top_span(x, y, level) == right - left

        check()

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_axis_that_does_not_increase_is_rejected(self, order):
        delays = np.linspace(-5e-12, 5e-12, 101)
        etas = np.where(np.abs(delays) <= 1.5e-12, 1.0, 0.05)
        if order == "reversed":
            index = np.arange(delays.size)[::-1]
        else:
            index = np.random.default_rng(5).permutation(delays.size)
        with pytest.raises(ValidationError):
            ks.full_width(delays[index], etas[index], 0.1)
        with pytest.raises(ValidationError):
            ks.flat_top_span(delays[index], etas[index], 0.98)


class TestDelayProfile:
    def test_resolution_and_span_windows(self, default_cfg, calibrated_energy):
        delays = np.asarray(default_cfg.sweep.delays)
        curve = ks.efficiency_vs_delay(default_cfg, calibrated_energy, delays)
        fw10 = ks.temporal_resolution(delays, curve)
        assert abs(fw10 - 2.3e-12) <= 0.7e-12
        span = ks.flat_top_span(delays, curve, 0.98)
        assert abs(span - 533e-15) <= 250e-15

    def test_vanishes_on_both_sides(self, default_cfg, calibrated_energy):
        delays = np.asarray(default_cfg.sweep.delays)
        curve = ks.efficiency_vs_delay(default_cfg, calibrated_energy, delays)
        assert curve[0] < 1e-3 and curve[-1] < 1e-3
        assert curve.max() > 0.99

    def test_wider_pump_widens_flat_top(self, default_cfg, calibrated_energy):
        delays = np.asarray(default_cfg.sweep.delays)
        narrow = ks.parse_config(json.dumps({"solver": {"steps": 128}}))
        base = ks.efficiency_vs_delay(narrow, calibrated_energy, delays)
        span_base = ks.flat_top_span(delays, base, 0.98)

        wide = ks.parse_config(json.dumps({"pump": {"fwhm_fs": 360.0}, "solver": {"steps": 128}}))
        e_wide = ks.calibrate_pi_energy(wide)
        curve_wide = ks.efficiency_vs_delay(wide, e_wide, delays)
        span_wide = ks.flat_top_span(delays, curve_wide, 0.98)
        assert span_wide > span_base


def test_row_equals_direct_calls_on_a_wide_signal_support():
    """A 4000 fs signal has a support longer than 8192 values, where a
    stacked multi-delay einsum would round differently; each entry of the
    row still equals the one-delay call bit for bit."""
    cfg = ks.parse_config(json.dumps({"signal": {"fwhm_fs": 4000.0}, "solver": {"steps": 16}}))
    assert ks.switch._model(cfg).signal_support[1].size > 8192
    delays = np.asarray(cfg.sweep.delays)
    assert delays.size == 121
    row = ks.efficiency_vs_delay(cfg, 8e-9, delays)
    direct = [ks.numeric_efficiency(cfg, 8e-9, float(tau)).eta for tau in delays]
    assert row.max() > 0.1
    assert row.tolist() == direct


def test_row_equals_direct_calls_across_delay_blocks(monkeypatch):
    """With blocks of 50 delays, the 121 delays take three blocks, the last
    one partial; each entry still equals the one-delay call bit for bit."""
    cfg = ks.parse_config(json.dumps({"solver": {"steps": 16}}))
    support = ks.switch._model(cfg).signal_support[1].size
    monkeypatch.setattr(ks.switch, "_ETA_BLOCK", 50 * support)
    blocks = []
    evaluate = ks.switch._rotated

    def recording(weights, phase):
        blocks.append(phase.shape)
        return evaluate(weights, phase)

    monkeypatch.setattr(ks.switch, "_rotated", recording)
    delays = np.asarray(cfg.sweep.delays)
    row = ks.efficiency_vs_delay(cfg, 8e-9, delays)
    assert blocks == [(50, support), (50, support), (21, support)]
    direct = [ks.numeric_efficiency(cfg, 8e-9, float(tau)).eta for tau in delays]
    assert row.max() > 0.1
    assert row.tolist() == direct


def _interp_row(cfg, kernel, delays):
    """Efficiency of `kernel` at each of `delays` with the phase sampled by
    np.interp on the span, one delay at a time."""
    first, weights = ks.switch._model(cfg).signal_support
    times = cfg.grid.times[first : first + weights.size]
    return np.array([
        ks.efficiency_from_phase(
            weights,
            np.interp(times - tau, kernel.offsets, kernel.phase_vs_offset, left=0.0, right=0.0),
            cfg.geometry.theta,
        )
        for tau in delays
    ])


def _default_delay_axes(cfg):
    axis = np.asarray(cfg.sweep.delays)
    whole = np.arange(-2400, 2401, 40) * cfg.grid.dt
    return {
        "axis": axis,
        "reversed": axis[::-1],
        "whole_samples": whole,
        "one_microsecond": np.array([-1e-6, 1e-6]),
    }


class TestTwoTapEvaluator:
    """`_etas` samples the phase by `_add_shifted`'s two-tap blend of the
    span; its rows are np.interp's to within roundoff, with the same exact
    zeros."""

    @pytest.mark.parametrize("energy_nj", [0.5, 4.0, 7.8, 14.0])
    @pytest.mark.parametrize("axis", ["axis", "reversed", "whole_samples", "one_microsecond"])
    def test_rows_match_np_interp(self, default_cfg, energy_nj, axis):
        delays = _default_delay_axes(default_cfg)[axis]
        if axis == "whole_samples":
            # Most of these delays divide by dt exactly (frac = 0); the rest
            # land an ulp below and blend with frac = 1 - 2**-k.
            shifts = delays / default_cfg.grid.dt
            assert (shifts == np.floor(shifts)).sum() >= 90
        model = ks.switch._model(default_cfg)
        (kernel,) = model.kernels([energy_nj * NJ])
        row = ks.switch._etas(model, [kernel], delays)[0]
        reference = _interp_row(default_cfg, kernel, delays)
        assert np.abs(row - reference).max() <= 1e-15
        assert np.array_equal(row == 0.0, reference == 0.0)
        if axis == "one_microsecond":
            assert row.tolist() == [0.0, 0.0]
        else:
            assert row.max() > 1e-3

    def test_span_on_the_grid_ends(self):
        """Walk-off carries the phase past both ends of a 10 ps grid, so the
        span ends on the grid ends with a nonzero phase, where np.interp
        steps to 0; delays sweep both ends across the signal."""
        cfg = ks.parse_config(json.dumps({
            "grid": {"n_samples": 4096, "window_ps": 10.0},
            "fiber": {"walkoff_ps_m": 50.0},
            "solver": {"steps": 16},
        }))
        model = ks.switch._model(cfg)
        (kernel,) = model.kernels([8 * NJ])
        assert kernel.offsets.size == cfg.grid.n_samples
        assert kernel.phase_vs_offset[0] > 0.1 and kernel.phase_vs_offset[-1] > 0.1
        delays = (np.arange(-4800, 4801, 40) + 0.3) * cfg.grid.dt
        row = ks.switch._etas(model, [kernel], delays)[0]
        reference = _interp_row(cfg, kernel, delays)
        assert np.abs(row - reference).max() <= 1e-15
        assert np.array_equal(row == 0.0, reference == 0.0)
        assert (row == 0.0).any() and row.max() > 0.1

    def test_blocks_stay_bounded(self, default_cfg):
        """Over the default sweep's 29 kernels (computed beforehand), `_etas`
        traces at most two blocks' worth of memory: its one block buffer,
        which each delay's row is shifted into in place, and a span-sized
        scratch row."""
        model = ks.switch._model(default_cfg)
        kernels = list(model.kernels(default_cfg.sweep.energies))
        assert len(kernels) == 29
        model.signal_support  # computed before tracing starts
        tracemalloc.start()
        try:
            ks.switch._etas(model, kernels, default_cfg.sweep.delays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**16 * 8  # 1 MiB: two blocks of 2**16 doubles


def test_efficiency_from_phase_is_the_plain_weighted_sum():
    """The in-place sum gives the bits of the out-of-place expression, and
    leaves the caller's phase alone."""
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.0, 1.0, 3001)
    phases = rng.uniform(-4.0, 4.0, (7, 3001))
    phases[2] = 0.0
    kept = phases.copy()
    for theta in (0.3, math.pi / 4):
        got = ks.efficiency_from_phase(weights, phases, theta)
        plain = math.sin(2.0 * theta) ** 2 * (
            (weights * np.sin(0.5 * phases) ** 2).sum(axis=-1) / weights.sum()
        )
        assert got.tolist() == plain.tolist()
        assert np.array_equal(phases, kept)


class TestSweepSurface:
    def test_single_cell_equals_direct_call(self):
        doc = {"sweep": {"energies_nj": [6.0], "delays_ps": [0.25]}}
        cfg = ks.parse_config(json.dumps(doc))
        surface = ks.sweep_surface(cfg)
        direct = ks.numeric_efficiency(cfg, 6e-9, 0.25e-12).eta
        assert surface.eta_grid.shape == (1, 1)
        assert surface.eta_grid[0, 0] == direct

    def test_energy_slice_rises_peaks_decays(self, default_cfg, calibrated_energy):
        energies = np.asarray(default_cfg.sweep.energies)
        etas = np.array([ks.numeric_efficiency(default_cfg, float(e), 0.0).eta for e in energies])
        peak = int(np.argmax(etas))
        assert abs(energies[peak] - calibrated_energy) <= 1e-9
        assert np.all(np.diff(etas[: peak + 1]) > 0.0)
        assert etas[-1] < etas[peak]

    def test_runs_on_the_calling_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("sweep_surface started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        doc = {
            "sweep": {"energies_nj": [1.0, 3.0, 5.0], "delays_ps": [-0.5, 0.0, 0.5]},
            "solver": {"steps": 16},
            "grid": {"n_samples": 1024, "window_ps": 20.0},
        }
        cfg = ks.parse_config(json.dumps(doc))
        surface = ks.sweep_surface(cfg, workers=2)
        assert surface.eta_grid.shape == (3, 3)

    def test_values_in_unit_interval(self, default_cfg):
        doc = {"sweep": {"energies_nj": [0.0, 4.0, 8.0, 12.0], "delays_ps": [-2.0, 0.0, 2.0]}}
        cfg = ks.parse_config(json.dumps(doc))
        surface = ks.sweep_surface(cfg)
        assert np.all(surface.eta_grid >= 0.0) and np.all(surface.eta_grid <= 1.0)

    def test_cold_default_sweep_runs_one_split_step(
        self, default_cfg, monkeypatch, cold_kernel_cache
    ):
        """The default ladder's 28 kernels run as one split-step loop: the
        pumps whose window grows go on mid-fiber instead of starting again."""
        rows = []
        split_step = ks.propagation._split_step

        def counting(launch, *args):
            rows.append(len(launch))
            return split_step(launch, *args)

        monkeypatch.setattr(ks.propagation, "_split_step", counting)
        ks.sweep_surface(default_cfg)
        assert rows == [28]

    def test_rows_equal_one_kernel_at_a_time(self, cold_kernel_cache):
        doc = {
            "sweep": {"energies_nj": [0.0, 2.0, 6.0, 10.0], "delays_ps": [-1.0, 0.0, 0.5]},
            "solver": {"steps": 32},
            "grid": {"n_samples": 4096, "window_ps": 40.0},
        }
        cfg = ks.parse_config(json.dumps(doc))
        surface = ks.sweep_surface(cfg)
        for energy, row in zip(cfg.sweep.energies, surface.eta_grid):
            ks.switch._model.cache_clear()
            assert np.array_equal(row, ks.efficiency_vs_delay(cfg, energy, surface.delays))

    def test_ladder_longer_than_the_kernel_cache(self, cold_kernel_cache):
        doc = {
            "sweep": {"energies_nj": [0.1 * i for i in range(70)], "delays_ps": [0.0]},
            "solver": {"steps": 8},
            "grid": {"n_samples": 1024, "window_ps": 20.0},
        }
        cfg = ks.parse_config(json.dumps(doc))
        surface = ks.sweep_surface(cfg)
        assert len(ks.switch._model(cfg).kernel_cache) == ks.switch._KERNEL_CACHE_SIZE
        assert surface.eta_grid[-1, 0] == ks.numeric_efficiency(cfg, cfg.sweep.energies[-1], 0.0).eta
        assert np.all(np.diff(surface.eta_grid[:, 0]) > 0.0)

    def test_kernel_cache_hits_across_equal_configs(self, monkeypatch):
        """A config parsed apart from an equal one hashes alike, so it finds
        the other's kernel in the cache."""
        doc = json.dumps({"solver": {"steps": 16}, "grid": {"n_samples": 1024, "window_ps": 20.0}})
        first, second = ks.parse_config(doc), ks.parse_config(doc)
        assert first is not second
        batches = []
        compute = ks.switch._kernel_batch

        def counting(launch, *args):
            batches.append(len(launch))
            return compute(launch, *args)

        monkeypatch.setattr(ks.switch, "_kernel_batch", counting)
        delays = np.array([-0.5e-12, 0.0, 0.5e-12])
        etas = ks.efficiency_vs_delay(first, 5.125e-9, delays)
        assert np.array_equal(ks.efficiency_vs_delay(second, 5.125e-9, delays), etas)
        assert batches == [1]

    def test_a_third_config_evicts_the_first_model(self, monkeypatch, cold_kernel_cache):
        """Models are kept for the two most recently used configs: after
        three configs run in turn, the later two find their kernels and the
        first one's is computed again. Configs that differ only in theta have
        kernels of the same bits, but share no kernel object."""
        base = {"solver": {"steps": 8}, "grid": {"n_samples": 1024, "window_ps": 20.0}}
        cfgs = [
            ks.parse_config(json.dumps(dict(base, geometry={"theta_rad": theta})))
            for theta in (0.5, 0.6, 0.7)
        ]
        batches = []
        compute = ks.switch._kernel_batch

        def counting(launch, *args):
            batches.append(len(launch))
            return compute(launch, *args)

        monkeypatch.setattr(ks.switch, "_kernel_batch", counting)
        for cfg in cfgs:
            ks.numeric_efficiency(cfg, 5e-9, 0.0)
        assert batches == [1, 1, 1]
        assert ks.switch._model.cache_info().currsize == 2
        (second,), (third,) = (ks.switch._model(c).kernel_cache.values() for c in cfgs[1:])
        assert second is not third
        assert second.phase_vs_offset.tobytes() == third.phase_vs_offset.tobytes()
        ks.numeric_efficiency(cfgs[2], 5e-9, 0.0)
        assert batches == [1, 1, 1]
        ks.numeric_efficiency(cfgs[0], 5e-9, 0.0)
        assert batches == [1, 1, 1, 1]


def test_no_module_level_cache_but_the_model():
    """`switch` keeps what it derives from a config in `switch._model`
    alone, and `propagation` keeps nothing: neither holds another
    module-level dict, OrderedDict or lru_cache. No module of the package
    holds another lru_cache, at module level or on a class (`config_io`'s
    constant dicts are no cache)."""
    found = [
        (module.__name__, name)
        for module in (ks.switch, ks.propagation)
        for name, value in vars(module).items()
        if not name.startswith("__") and (isinstance(value, dict) or hasattr(value, "cache_info"))
    ]
    assert found == [("kerrswitch.switch", "_model")]
    modules = [ks] + [
        importlib.import_module(f"kerrswitch.{m.name}") for m in pkgutil.iter_modules(ks.__path__)
    ]
    assert len(modules) == len(list(Path(ks.__file__).parent.glob("*.py")))
    caches = set()
    for module in modules:
        for value in vars(module).values():
            held = [value, *vars(value).values()] if isinstance(value, type) else [value]
            caches.update((v.__module__, v.__qualname__) for v in held if hasattr(v, "cache_info"))
    assert caches == {("kerrswitch.switch", "_model")}


TINY = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "tiny.json"


class TestLaunchFields:
    """The kernel ladder's pumps exist only on their launch windows: one
    whole-grid shape per config, one window search, and per energy the
    window's samples alone."""

    def test_cold_sweep_builds_no_pump_envelope(self, default_cfg, monkeypatch, cold_kernel_cache):
        """A cold default sweep builds no pump `PulseEnvelope`, so none on
        the grid per energy (28 when each pump was built on the whole
        grid), and no signal envelope either: the signal's support is
        propagated on the signal's window alone (two whole-grid signal
        envelopes were built when it was propagated on the grid)."""
        built = []
        post_init = ks.PulseEnvelope.__post_init__

        def counting(envelope):
            built.append((envelope.grid, envelope.center_wavelength))
            post_init(envelope)

        monkeypatch.setattr(ks.PulseEnvelope, "__post_init__", counting)
        ks.sweep_surface(default_cfg)
        assert [w for _, w in built if w == default_cfg.pump.center_wavelength] == []
        assert [w for _, w in built if w == default_cfg.signal.center_wavelength] == []
        assert built == []

    @staticmethod
    def assert_same_as_whole_grid_pumps(cfg, energies):
        """Each energy's launch field is the window of the pump built on the
        whole grid, bit for bit, and that pump's own `_launch_window` search
        gives the cached window."""
        model = ks.switch._model(cfg)
        shape, raw = model.pump_shape
        m = shape.size
        lo = (cfg.grid.n_samples - m) // 2
        for e, field in zip(energies, model.launch_fields(energies)):
            pump = ks.switch._make_pump(cfg, e)
            window = ks.propagation._launch_window(np.abs(pump.samples) ** 2)
            assert window == slice(lo, lo + m), e
            assert field.tobytes() == pump.samples[lo : lo + m].tobytes(), e

    WIDE_PUMP = {
        "grid": {"n_samples": 256, "window_ps": 5.0},
        "pump": {"fwhm_fs": 1000.0},
        "signal": {"fwhm_fs": 1000.0},
    }

    @pytest.mark.parametrize("doc, window", [
        ("{}", 768),
        (TINY.read_text(), 64),
        ('{"grid": {"n_samples": 256}}', 64),
        (json.dumps(WIDE_PUMP), 256),
    ], ids=["default", "tiny", "256-samples", "whole-grid"])
    def test_window_equals_each_pumps_own_search(self, doc, window):
        """The cached window is each pump's own full-grid search, on the
        default ladder, perfbench's tiny config, a 256-sample grid and a
        grid the pump fills (its window is the whole grid). The two searches
        sum the same shape, at each energy scaled and rounded once more, so
        only a pump whose outside mass, or outer-1/16 mass, lies within an
        ulp of the 1e-15 bound could tell them apart."""
        cfg = ks.parse_config(doc)
        energies = sorted({e for e in cfg.sweep.energies if e > 0.0} | {cfg.pump.energy})
        self.assert_same_as_whole_grid_pumps(cfg, energies)
        assert ks.switch._model(cfg).pump_shape[0].size == window

    def test_window_equals_each_pumps_own_search_on_drawn_grids(self):
        """As above, on drawn pump widths, grids and energies (the same
        ulp caveat holds)."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.floats(20.0, 2000.0),
            st.sampled_from([2**k for k in range(6, 17)]),
            st.floats(4.05, 300.0),
            st.lists(st.floats(1e-4, 100.0), min_size=1, max_size=4),
        )
        def check(fwhm_fs, n_samples, window_over_fwhm, energies_nj):
            doc = {
                "pump": {"fwhm_fs": fwhm_fs},
                "signal": {"fwhm_fs": fwhm_fs},
                "grid": {"n_samples": n_samples, "window_ps": fwhm_fs * window_over_fwhm * 1e-3},
            }
            cfg = ks.parse_config(json.dumps(doc))
            self.assert_same_as_whole_grid_pumps(cfg, [e * 1e-9 for e in energies_nj])

        check()

    def test_negative_or_overflowing_energy_rejected(self, default_cfg, cold_kernel_cache):
        """The checks a whole-grid pump made still hold on its window."""
        with pytest.raises(ks.errors.NegativeEnergy):
            ks.numeric_efficiency(default_cfg, -1e-9, 0.0)
        with pytest.raises(ValidationError, match="finite"):
            ks.numeric_efficiency(default_cfg, math.inf, 0.0)


@pytest.fixture(scope="module")
def cold_sweep_kernels(tmp_path_factory):
    """Every kernel a cold default `cmd_sweep` leaves in its model's kernel
    cache."""
    ks.switch._model.cache_clear()
    cfg = ks.default_config()
    ks.cmd_sweep(cfg, tmp_path_factory.mktemp("cold_sweep"))
    return list(ks.switch._model(cfg).kernel_cache.values())


def test_stored_kernels_give_the_grid_kernels_etas(default_cfg, cold_sweep_kernels):
    """Each kernel's phase, stored on its span, gives the same efficiency
    bits as a copy expanded onto the whole grid."""
    grid = default_cfg.grid
    delays = default_cfg.sweep.delays
    model = ks.switch._model(default_cfg)
    assert any(k.offsets.size < grid.n_samples for k in cold_sweep_kernels)
    for kernel in cold_sweep_kernels:
        on_grid = dataclasses.replace(
            kernel,
            first=0,
            phase_vs_offset=ks.propagation.sample_xpm_phase(kernel, grid, 0.0),
        )
        got = ks.switch._etas(model, [kernel], delays)
        assert got.max() > 0.0
        assert np.array_equal(got, ks.switch._etas(model, [on_grid], delays))


def test_cold_sweep_kernel_cache_holds_spans(default_cfg, cold_sweep_kernels):
    """The 32 kernels of a cold default sweep hold under a quarter of the
    24 bytes per grid sample each that a full-grid phase and output pump
    would take. Their phases and pumps are their own arrays, not views that
    keep a batch's arrays alive."""
    n = default_cfg.grid.n_samples
    assert len(cold_sweep_kernels) == 32
    assert all(k.phase_vs_offset.base is None and k.pump_window.base is None
               for k in cold_sweep_kernels)
    held = sum(k.phase_vs_offset.nbytes + k.pump_window.nbytes for k in cold_sweep_kernels)
    assert held < 32 * 24 * n / 4


def test_cold_sweep_kernels_read_their_fields_off_their_arrays(default_cfg, cold_sweep_kernels):
    """Each kernel of a cold default sweep is placed by its span's first
    grid index: its offsets are the grid's times on the span, bit for bit.
    Its window size is its output pump's, and its step count is that of its
    step energies: the 31 ladder and refinement kernels at ``solver.steps``,
    the convergence check's kernel at twice that."""
    grid, steps = default_cfg.grid, default_cfg.solver.steps
    for k in cold_sweep_kernels:
        size = k.phase_vs_offset.size
        assert 0 <= k.first and k.first + size <= grid.n_samples
        assert k.offsets.tobytes() == grid.times[k.first : k.first + size].tobytes()
        assert k.window_samples == k.pump_window.size
    assert sorted(k.steps for k in cold_sweep_kernels) == [steps] * 31 + [2 * steps]


def _signal_on(cfg, window):
    """The propagated signal's intensity on `window` of the grid: the
    whole-grid signal's samples there, propagated on the window alone."""
    samples = ks.switch._make_signal(cfg).samples[window]
    return np.abs(ks.propagation._signal_linear(samples, cfg.grid.dt, cfg.fiber)) ** 2


def _whole_grid_signal(cfg):
    signal = ks.switch._make_signal(cfg)
    return np.abs(ks.propagation.propagate_signal_linear(signal, cfg.fiber).samples) ** 2


def test_signal_support_holds_a_copy_of_its_weights(default_cfg):
    """The default signal's support holds the propagated signal's intensity
    on the signal's 2048-sample launch window, bit for bit, in a read-only
    array of its own, which keeps no window array alive."""
    first, weights = ks.switch._model(default_cfg).signal_support
    assert weights.base is None and not weights.flags.writeable
    shape, _ = ks.core._pulse_shape(default_cfg.grid, default_cfg.signal.fwhm_duration, 0.0, 1)
    window = ks.propagation._launch_window(shape)
    assert window == slice(7168, 9216)
    start = first - window.start
    on_window = _signal_on(default_cfg, window)
    assert weights.tobytes() == on_window[start : start + weights.size].tobytes()


def test_signal_support_matches_the_whole_grid_propagation(default_cfg):
    """The default signal's support starts at grid index 7353 and holds
    1679 weights, as when the signal was propagated on the whole grid, and
    lies within 5e-13 of the peak weight of that propagation (1.75e-13
    measured: the window's periodic ends against the grid's)."""
    first, weights = ks.switch._model(default_cfg).signal_support
    assert (first, weights.size) == (7353, 1679)
    whole = _whole_grid_signal(default_cfg)[first : first + weights.size]
    assert np.abs(weights - whole).max() <= 5e-13 * whole.max()


def test_spreading_signal_grows_its_window():
    """At -2500 ps²/km the signal spreads past its 2048-sample launch
    window, whose output then holds 4 % of the weight in its outer 1/16
    and lies 35 % of the peak off the whole-grid propagation. The end
    guard grows the window until the outer 1/16 holds at most
    ``WINDOW_MASS_BOUND``, and the support then lies within 1e-13 of the
    whole-grid propagation's peak (1.8e-15 measured)."""
    cfg = ks.parse_config(json.dumps({"fiber": {"beta2_signal_ps2_km": -2500.0}}))
    first, weights = ks.switch._model(cfg).signal_support
    assert weights.size > 2048
    whole = _whole_grid_signal(cfg)
    assert np.abs(weights - whole[first : first + weights.size]).max() <= 1e-13 * whole.max()
    launch = _signal_on(cfg, slice(7168, 9216))
    assert ks.propagation._edge_mass(launch) > ks.propagation.WINDOW_MASS_BOUND * launch.sum()


def test_convergence_check_passes_at_defaults(default_cfg):
    residual = ks.switch.check_convergence(default_cfg, 8e-9, 0.0)
    assert residual < 1e-4
