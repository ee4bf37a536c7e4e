"""Source statistics, loss, port splitting, noise bookkeeping, and the Monte
Carlo counting experiment."""

import json
import math

import numpy as np
import pytest

import kerrswitch as ks
from kerrswitch.photons import _outcome_cells, binomial_splits
from kerrswitch.errors import CutoffTooSmall, NoCoincidences, ValidationError, ZeroNoise


class TestThermalSource:
    def test_vacuum(self):
        dist = ks.thermal_joint_source(0.0, cutoff=5)
        assert dist.probs[0, 0] == 1.0
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_unit_mean(self):
        dist = ks.thermal_joint_source(1.0, cutoff=60)
        assert dist.probs[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert dist.probs[1, 1] == pytest.approx(0.25, abs=1e-12)

    def test_perfect_correlation(self):
        dist = ks.thermal_joint_source(0.7, cutoff=40)
        off_diag = dist.probs - np.diag(np.diag(dist.probs))
        assert np.all(off_diag == 0.0)

    def test_high_gain_mean(self):
        dist = ks.thermal_joint_source(3.86, cutoff=60)
        assert dist.mean_idler() == pytest.approx(3.86, abs=1e-3)
        assert dist.mean_signal() == pytest.approx(3.86, abs=1e-3)

    def test_warns_when_cutoff_truncates(self):
        with pytest.warns(CutoffTooSmall):
            ks.thermal_joint_source(3.86, cutoff=10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            ks.thermal_joint_source(-0.1, cutoff=10)
        with pytest.raises(ValidationError):
            ks.thermal_joint_source(0.5, cutoff=0)


class TestApplyLoss:
    def test_identity(self):
        dist = ks.thermal_joint_source(0.8, cutoff=30)
        out = ks.apply_loss(dist, 1.0, 1.0)
        assert np.array_equal(out.probs, dist.probs)

    def test_opaque_signal_arm(self):
        dist = ks.thermal_joint_source(0.8, cutoff=30)
        out = ks.apply_loss(dist, 1.0, 0.0)
        assert np.all(out.probs[:, 1:] == 0.0)
        assert out.probs[:, 0] == pytest.approx(dist.probs.sum(axis=1), abs=1e-15)

    def test_single_pair_insertion_loss(self):
        t = 10.0 ** (-2.27 / 10.0)
        probs = np.zeros((2, 2))
        probs[1, 1] = 1.0
        dist = ks.JointPhotonDistribution(probs=probs)
        out = ks.apply_loss(dist, 1.0, t)
        assert out.probs[1, 1] == pytest.approx(t, rel=1e-12)
        assert out.probs[1, 0] == pytest.approx(1.0 - t, rel=1e-12)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_thinning_composition(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(size=(13, 13))
        dist = ks.JointPhotonDistribution(probs=raw / raw.sum())
        t1, t2 = 0.7, 0.55
        once = ks.apply_loss(ks.apply_loss(dist, 1.0, t1), 1.0, t2)
        combined = ks.apply_loss(dist, 1.0, t1 * t2)
        assert np.allclose(once.probs, combined.probs, rtol=0, atol=1e-12)

    def test_rejects_bad_transmittance(self):
        dist = ks.thermal_joint_source(0.5, cutoff=25)
        with pytest.raises(ValidationError):
            ks.apply_loss(dist, 1.2, 0.5)


class TestBinomialSplit:
    def test_single_photon_point(self):
        dist = ks.binomial_split(1, 0.985)
        assert dist.probs[1] == 0.985
        assert dist.probs[0] == pytest.approx(0.015, rel=1e-12)

    def test_zero_efficiency(self):
        dist = ks.binomial_split(4, 0.0)
        assert dist.probs[0] == 1.0
        assert np.all(dist.probs[1:] == 0.0)

    def test_balanced_two_photons(self):
        dist = ks.binomial_split(2, 0.5)
        assert np.array_equal(dist.probs, np.array([0.25, 0.5, 0.25]))

    @pytest.mark.parametrize("n,eta", [(1, 0.3), (3, 0.92), (6, 0.985), (9, 0.5)])
    def test_mean_and_normalization(self, n, eta):
        dist = ks.binomial_split(n, eta)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.mean_switched() == pytest.approx(n * eta, abs=1e-12)


def _scalar_split(n, eta):
    """The one-efficiency formula `binomial_splits` batches, kept as written
    before it was batched."""
    k = np.arange(n + 1)
    coeff = np.array([math.comb(n, int(i)) for i in k], dtype=float)
    probs = coeff * eta**k * (1.0 - eta) ** (n - k)
    return probs / probs.sum()


class TestBinomialSplits:
    EDGES = [0.0, 1.0, 5e-324, 1.0 - 1e-16]

    def test_rows_equal_the_scalar_formula_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            n=st.integers(0, 10),
            etas=st.lists(
                st.one_of(st.sampled_from(self.EDGES), st.floats(0.0, 1.0)),
                min_size=1,
                max_size=20,
            ),
        )
        @hypothesis.example(10, self.EDGES)
        def check(n, etas):
            rows = binomial_splits(n, etas)
            assert rows.shape == (len(etas), n + 1)
            for eta, row in zip(etas, rows):
                assert row.tobytes() == _scalar_split(n, eta).tobytes()
                assert ks.binomial_split(n, eta).probs.tobytes() == row.tobytes()

        check()

    @pytest.mark.parametrize("eta", EDGES)
    @pytest.mark.parametrize("n", range(11))
    def test_edge_efficiencies(self, n, eta):
        row = binomial_splits(n, [0.5, eta])[1]
        assert row.tobytes() == _scalar_split(n, eta).tobytes()

    def test_rejections_match_the_scalar_call(self):
        cases = [
            (-1, 0.5, "photon number must be non-negative"),
            (3, -1e-12, "eta must lie in"),
            (3, 1.0 + 1e-12, "eta must lie in"),
            (3, math.nan, "eta must lie in"),
        ]
        for n, eta, message in cases:
            with pytest.raises(ValidationError, match=message):
                ks.binomial_split(n, eta)
            with pytest.raises(ValidationError, match=message):
                binomial_splits(n, [0.5, eta])

    def test_split_vs_delay_rows_equal_the_scalar_formula(self):
        cfg = _mc_config()
        delays = np.asarray(cfg.sweep.delays, dtype=float)
        etas = ks.efficiency_vs_delay(cfg, cfg.pump.energy, delays)
        dists = ks.split_vs_delay(cfg, 6)
        assert len(dists) == delays.size
        for eta, dist in zip(etas, dists):
            assert dist.herald == 6
            assert dist.probs.tobytes() == _scalar_split(6, float(eta)).tobytes()


class TestSplitVsDelay:
    def test_composition_with_switch(self, default_cfg, calibrated_energy):
        n = 6
        dists = ks.split_vs_delay(default_cfg, n)
        delays = np.asarray(default_cfg.sweep.delays)
        etas = ks.efficiency_vs_delay(default_cfg, default_cfg.pump.energy, delays)

        # far delay: everything exits the unswitched port
        assert dists[0].probs[0] > 0.999
        # zero delay: P_{N,0} = eta(0)^N stays high for N up to 6
        zero_idx = int(np.flatnonzero(delays == 0.0)[0])
        eta0 = etas[zero_idx]
        assert eta0 >= 0.99
        assert dists[zero_idx].probs[n] == pytest.approx(eta0**n, rel=1e-12)
        assert dists[zero_idx].probs[n] >= 0.94

    def test_narrowing_with_photon_number(self, default_cfg):
        delays = np.asarray(default_cfg.sweep.delays)
        etas = ks.efficiency_vs_delay(default_cfg, default_cfg.pump.energy, delays)
        widths = [ks.full_width(delays, etas**n, 0.5) for n in range(1, 7)]
        assert all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))


class TestEtaExp:
    def test_plain_ratio(self):
        est = ks.eta_exp(ks.CountRecord(n_si=99, n_ui=1, pulses=1000, noise_s=0, noise_u=0))
        assert est.value == 0.99
        assert est.stderr == pytest.approx(math.sqrt(0.99 * 0.01 / 100.0), rel=1e-12)

    def test_all_unswitched(self):
        est = ks.eta_exp(ks.CountRecord(n_si=0, n_ui=50, pulses=100, noise_s=0, noise_u=0))
        assert est.value == 0.0

    def test_no_coincidences(self):
        with pytest.raises(NoCoincidences):
            ks.eta_exp(ks.CountRecord(n_si=0, n_ui=0, pulses=10, noise_s=0, noise_u=0))


class TestSnr:
    def test_reference_operating_point(self):
        assert ks.snr(0.32, 1e-5) == 0.32 / 1e-5
        assert ks.snr(0.32, 1e-5) == pytest.approx(32000.0, rel=1e-12)

    def test_simple_ratio(self):
        assert ks.snr(0.5, 1e-3) == pytest.approx(500.0, rel=1e-12)

    def test_zero_signal(self):
        assert ks.snr(0.0, 1e-4) == 0.0

    def test_zero_noise_undefined(self):
        with pytest.raises(ZeroNoise):
            ks.snr(0.32, 0.0)


def _mc_config(**overrides):
    doc = {
        "source": {"mean_photon_number": 3.86, "max_photon_cutoff": 60},
        "detectors": {
            "herald_efficiency": 1.0,
            "system_transmittance": 1.0,
            "noise_per_pulse_switched": 0.0,
            "noise_per_pulse_unswitched": 0.0,
        },
        "sweep": {"delays_ps": [0.0, 0.6, 1.2]},
    }
    for key, value in overrides.items():
        doc.setdefault(key, {}).update(value)
    return ks.parse_config(json.dumps(doc))


class TestMonteCarlo:
    def test_ideal_single_photon_routing(self):
        cfg = _mc_config(source={"mean_photon_number": 0.05})
        result = ks.monte_carlo_experiment(cfg, lambda tau: 1.0, pulses=20_000, seed=5, n_max=2)
        for rec in result.records:
            assert rec.n_ui == 0
            assert rec.n_si > 0
        p, err, totals = result.empirical_split(1)
        assert p.shape == err.shape == (3, 2) and totals.shape == (3,)
        assert np.all(totals > 0)
        assert np.all(p[:, 1] == 1.0) and np.all(p[:, 0] == 0.0)
        assert np.all(err == 0.0)

    def test_empirical_split_rows_are_each_delays_ratios(self):
        cfg = _mc_config()
        eta_curve = lambda tau: 0.3 + 0.4 * tau / 1e-12
        result = ks.monte_carlo_experiment(cfg, eta_curve, pulses=50_000, seed=11, n_max=3)
        for n in (1, 2, 3):
            p, err, totals = result.empirical_split(n)
            for j, events in enumerate(result.split_events[n]):
                total = events.sum()
                assert totals[j] == total > 0
                row = events / total
                assert np.array_equal(p[j], row)
                assert np.array_equal(err[j], np.sqrt(row * (1.0 - row) / total))

    def test_delay_without_heralds_splits_to_zeros(self):
        """No pairs, so no N-herald pulses at any delay: zero probabilities
        and errors, and no division warning (tier-1 fails on warnings)."""
        cfg = _mc_config(source={"mean_photon_number": 0.0})
        result = ks.monte_carlo_experiment(cfg, lambda tau: 0.5, pulses=1000, seed=3, n_max=2)
        for n in (1, 2):
            p, err, totals = result.empirical_split(n)
            assert p.shape == err.shape == (3, n + 1)
            assert np.all(totals == 0)
            assert np.all(p == 0.0) and np.all(err == 0.0)

    def test_matches_exact_binomial_within_5_sigma(self):
        cfg = _mc_config()
        eta_curve = lambda tau: 0.9 * math.exp(-((tau / 1e-12) ** 2))
        pulses = 1_200_000
        result = ks.monte_carlo_experiment(cfg, eta_curve, pulses=pulses, seed=424242, n_max=3)
        for n in (1, 2, 3):
            for j, tau in enumerate(result.delays):
                exact = ks.binomial_split(n, eta_curve(float(tau))).probs
                events = result.split_events[n][j]
                total = events.sum()
                assert total > 1e5
                for k in range(n + 1):
                    sigma = math.sqrt(max(exact[k] * (1.0 - exact[k]), 1e-30) * total)
                    # +3 counts absorbs Poisson discreteness where N*p < ~10
                    assert abs(events[k] - total * exact[k]) <= 5.0 * sigma + 3.0

    def test_eta_exp_recovers_model_efficiency(self):
        cfg = _mc_config(
            source={"mean_photon_number": 0.24},
            detectors={
                "herald_efficiency": 0.5,
                "system_transmittance": 0.32,
                "noise_per_pulse_switched": 1e-5,
                "noise_per_pulse_unswitched": 1e-5,
            },
        )
        true_eta = 0.9
        result = ks.monte_carlo_experiment(cfg, lambda tau: true_eta, pulses=1_000_000, seed=7, n_max=1)
        est = ks.eta_exp(result.records[0])
        assert abs(est.value - true_eta) <= 3.0 * est.stderr

    def test_seed_reproducibility(self):
        cfg = _mc_config()
        a = ks.monte_carlo_experiment(cfg, lambda t: 0.8, pulses=50_000, seed=31, n_max=2)
        b = ks.monte_carlo_experiment(cfg, lambda t: 0.8, pulses=50_000, seed=31, n_max=2)
        c = ks.monte_carlo_experiment(cfg, lambda t: 0.8, pulses=50_000, seed=32, n_max=2)
        assert a.records == b.records
        for n in (1, 2):
            assert np.array_equal(a.split_events[n], b.split_events[n])
        assert a.records != c.records

    def test_worker_count_invariance(self):
        cfg = _mc_config()
        pulses = (1 << 17) + 7919
        one = ks.monte_carlo_experiment(cfg, lambda t: 0.7, pulses=pulses, seed=13, n_max=2, workers=1)
        two = ks.monte_carlo_experiment(cfg, lambda t: 0.7, pulses=pulses, seed=13, n_max=2, workers=2)
        three = ks.monte_carlo_experiment(cfg, lambda t: 0.7, pulses=pulses, seed=13, n_max=2, workers=3)
        assert one.records == two.records == three.records
        for n in (1, 2):
            assert np.array_equal(one.split_events[n], two.split_events[n])
            assert np.array_equal(one.split_events[n], three.split_events[n])

    def test_each_delay_draws_alone(self):
        """Delay d draws from its own (seed, d) stream: truncating the delay
        axis or changing eta at the other delays leaves its counts unchanged."""
        noise = {"noise_per_pulse_switched": 1e-3, "noise_per_pulse_unswitched": 2e-3}
        full = _mc_config(detectors=noise, sweep={"delays_ps": [0.0, 0.6, 1.2, 1.8]})
        prefix = _mc_config(detectors=noise, sweep={"delays_ps": [0.0, 0.6]})
        flat = lambda tau: 0.7
        bumpy = lambda tau: 0.7 if tau == full.sweep.delays[1] else 0.2

        def run(cfg, eta):
            return ks.monte_carlo_experiment(cfg, eta, pulses=50_000, seed=29, n_max=3)

        base, short, changed = run(full, flat), run(prefix, flat), run(full, bumpy)
        assert short.records == base.records[:2]
        assert changed.records[1] == base.records[1]
        assert changed.records[0] != base.records[0]
        for n in (1, 2, 3):
            assert np.array_equal(short.split_events[n], base.split_events[n][:2])
            assert np.array_equal(changed.split_events[n][1], base.split_events[n][1])

    def test_noise_totals_past_int64_rejected(self):
        """The parser refuses this pulse count in a config; a library caller
        that passes it to the Monte Carlo is refused there too."""
        cfg = ks.parse_config(json.dumps({"detectors": {"noise_window_multiplier": 1e6}}))
        with pytest.raises(ValidationError):
            ks.monte_carlo_experiment(cfg, lambda tau: 0.5, pulses=10**18, seed=1)

    def test_noise_totals_exact_up_to_the_int64_bound(self):
        cfg = ks.parse_config(json.dumps({
            "detectors": {"noise_window_multiplier": 1e6},
            "sweep": {"delays_ps": [0.0]},
        }))
        det = cfg.detectors
        mean = (det.noise_per_pulse_switched + det.noise_per_pulse_unswitched) * 1e6
        top = ks.photons._noise_totals(mean).size - 1
        most = (2**63 - 1) // top
        rec = ks.monte_carlo_experiment(cfg, lambda tau: 0.5, pulses=most, seed=3).records[0]
        # An int64 sum that wrapped would be off by a multiple of 2**64.
        assert rec.noise_s + rec.noise_u == pytest.approx(most * mean, rel=1e-6)
        with pytest.raises(ValidationError):
            ks.monte_carlo_experiment(cfg, lambda tau: 0.5, pulses=most + 1, seed=3)

    def test_noise_counts_recorded(self):
        cfg = _mc_config(
            detectors={
                "herald_efficiency": 0.5,
                "system_transmittance": 0.32,
                "noise_per_pulse_switched": 1e-3,
                "noise_per_pulse_unswitched": 1e-3,
            }
        )
        result = ks.monte_carlo_experiment(cfg, lambda t: 0.9, pulses=200_000, seed=17, n_max=1)
        assert sum(r.noise_s for r in result.records) > 0
        assert sum(r.noise_u for r in result.records) > 0

    def test_noise_window_multiplier_scales_noise(self):
        base = _mc_config(
            detectors={
                "herald_efficiency": 0.5,
                "system_transmittance": 0.32,
                "noise_per_pulse_switched": 1e-4,
                "noise_per_pulse_unswitched": 1e-4,
            }
        )
        tes = _mc_config(
            detectors={
                "herald_efficiency": 0.5,
                "system_transmittance": 0.32,
                "noise_per_pulse_switched": 1e-4,
                "noise_per_pulse_unswitched": 1e-4,
                "noise_window_multiplier": 100.0,
            }
        )
        r1 = ks.monte_carlo_experiment(base, lambda t: 0.9, pulses=100_000, seed=8, n_max=1)
        r2 = ks.monte_carlo_experiment(tes, lambda t: 0.9, pulses=100_000, seed=8, n_max=1)
        noise1 = sum(r.noise_s + r.noise_u for r in r1.records)
        noise2 = sum(r.noise_s + r.noise_u for r in r2.records)
        assert noise2 > 50 * noise1


class TestOutcomeCells:
    @pytest.mark.parametrize("noise", [0.0, 1e-5, 0.3, 40.0])
    @pytest.mark.parametrize("eta", [0.0, 0.37, 0.985, 1.0])
    def test_probabilities_sum_to_one(self, eta, noise):
        cfg = _mc_config(
            source={"mean_photon_number": 0.8},
            detectors={
                "herald_efficiency": 0.6,
                "system_transmittance": 0.5,
                "noise_per_pulse_switched": noise,
                "noise_per_pulse_unswitched": noise / 3.0,
            },
        )
        *_, probs = _outcome_cells(cfg, 6, [eta])
        assert np.all(probs >= 0.0)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_noise_totals_follow_the_counted_cells(self):
        # No signal photon reaches a detector and the unswitched port has no
        # noise, so every counted switched detection is a switched noise
        # count of the same pulse. Noise totals drawn apart from the
        # coincidences would fall below the switched detections in some runs.
        cfg = _mc_config(
            source={"mean_photon_number": 1.0},
            detectors={
                "herald_efficiency": 0.8,
                "system_transmittance": 0.0,
                "noise_per_pulse_switched": 0.7,
                "noise_per_pulse_unswitched": 0.0,
            },
            sweep={"delays_ps": [0.0]},
        )
        with_detections = 0
        for seed in range(1000):
            result = ks.monte_carlo_experiment(cfg, lambda t: 0.5, pulses=1, seed=seed, n_max=3)
            switched = sum(
                k * int(result.split_events[n][0, k]) for n in (1, 2, 3) for k in range(n + 1)
            )
            assert result.records[0].noise_s >= switched
            with_detections += switched > 0
        assert with_detections >= 50

    def test_huge_pulse_count(self):
        cfg = _mc_config(
            source={"mean_photon_number": 0.24},
            detectors={
                "herald_efficiency": 0.5,
                "system_transmittance": 0.32,
                "noise_per_pulse_switched": 1e-5,
                "noise_per_pulse_unswitched": 1e-5,
            },
        )
        pulses = 10**12
        result = ks.monte_carlo_experiment(cfg, lambda t: 0.9, pulses=pulses, seed=3, n_max=6)
        for n in range(1, 7):
            assert np.all(result.split_events[n].sum(axis=1) <= pulses)
        assert all(r.pulses == pulses and r.n_si > 0 for r in result.records)

    def test_herald_numbers_past_the_cutoff_never_occur(self):
        cfg = _mc_config(
            source={"mean_photon_number": 0.24, "max_photon_cutoff": 2},
            detectors={"noise_per_pulse_switched": 0.1, "noise_per_pulse_unswitched": 0.1},
        )
        with pytest.warns(CutoffTooSmall):
            result = ks.monte_carlo_experiment(cfg, lambda t: 0.9, pulses=100_000, seed=4, n_max=6)
        assert result.split_events[2].sum() > 0
        for n in range(3, 7):
            assert not result.split_events[n].any()
