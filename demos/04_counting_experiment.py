"""Emulating the counting experiment: heralds, loss, noise, coincidences.

Runs the Monte Carlo (one multinomial draw per delay over the exact outcome
probabilities of a pulse) at the low mean-photon-number operating point, recovers the switching efficiency from coincidence ratios, compares
empirical split distributions against the exact binomial law at high mean
photon number, and closes with the signal-to-noise bookkeeping.
"""

import json
import math

import kerrswitch as ks

# --- Coincidence-ratio estimate at <n> = 0.24 --------------------------------
doc = {
    "source": {"mean_photon_number": 0.24},
    "detectors": {"herald_efficiency": 0.5, "system_transmittance": 0.32,
                  "noise_per_pulse_switched": 1e-5, "noise_per_pulse_unswitched": 1e-5},
    "sweep": {"delays_ps": [0.0, 0.4, 0.8, 1.2]},
}
cfg = ks.parse_config(json.dumps(doc))
eta_model = lambda tau: 0.998 * math.exp(-((tau / 1.1e-12) ** 4))

mc = ks.monte_carlo_experiment(cfg, eta_model, pulses=2_000_000, seed=99, n_max=1)
print("delay (ps) | model eta | estimated eta (one-photon coincidences)")
for tau, record in zip(mc.delays, mc.records):
    est = ks.eta_exp(record)
    print(f"  {tau*1e12:6.1f}   |  {eta_model(float(tau)):.4f}   |  "
          f"{est.value:.4f} +- {est.stderr:.4f}  ({est.coincidences} events)")

# --- Empirical versus exact splits at <n> = 3.86 ------------------------------
doc_hi = {
    "source": {"mean_photon_number": 3.86},
    "detectors": {"herald_efficiency": 1.0, "system_transmittance": 1.0,
                  "noise_per_pulse_switched": 0.0, "noise_per_pulse_unswitched": 0.0},
    "sweep": {"delays_ps": [0.0]},
}
cfg_hi = ks.parse_config(json.dumps(doc_hi))
mc_hi = ks.monte_carlo_experiment(cfg_hi, lambda tau: 0.9, pulses=500_000, seed=7, n_max=3)
print("\nN=3 heralds at eta = 0.9: empirical vs exact")
p_hat, err, totals = mc_hi.empirical_split(3)  # one row per delay; here one delay
exact = ks.binomial_split(3, 0.9).probs
for k in range(4):
    print(f"  P(n_S={k}) = {p_hat[0, k]:.4f} +- {err[0, k]:.4f}   exact {exact[k]:.4f}")
print(f"  ({totals[0]} postselected heralds)")

# --- Noise bookkeeping --------------------------------------------------------
print(f"\nheralded detection 32% over 1e-5 noise counts per pulse: "
      f"SNR = {ks.snr(0.32, 1e-5):,.0f}")
t_insert = 10 ** (-2.27 / 10)
print(f"2.27 dB insertion loss = transmittance {t_insert:.3f}")
