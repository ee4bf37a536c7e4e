"""kerrswitch: desk-scale simulator of an ultrafast all-optical fiber Kerr
switch for telecom photons.

A strong 1030 nm pump pulse writes a transient birefringence into a short
single-mode fiber via the optical Kerr effect; a co-propagating 1550 nm
photon's polarization rotates by the accumulated differential phase and a
polarizing splitter routes it. The package covers the split-step pump
propagation, the switching-efficiency model, heralded photon-number
statistics with Monte Carlo counting, and a time-of-flight spectrometer
model.
"""

__version__ = "0.1.0"

from .core import (
    C_LIGHT,
    ExperimentConfig,
    FiberSpec,
    PolarizationGeometry,
    PulseEnvelope,
    TimeGrid,
    energy,
    gaussian_peak_power,
    make_gaussian_pulse,
    make_supergaussian_pulse,
)
from .config_io import config_hash, default_config, emit_config, parse_config
from .propagation import (
    PropagationResult,
    XpmKernel,
    clip_spectrum_support,
    compute_xpm_kernel,
    nonlinear_coefficient,
    propagate,
    pump_spectrum,
)
from .switch import (
    SweepSurface,
    SwitchResult,
    analytic_efficiency,
    calibrate_pi_energy,
    convergence_residual,
    efficiency_from_phase,
    efficiency_vs_delay,
    flat_top_span,
    full_width,
    nonlinear_phase,
    numeric_efficiency,
    pump_output_spectrum,
    sweep_surface,
    temporal_resolution,
)
from .photons import (
    CountRecord,
    EtaEstimate,
    JointPhotonDistribution,
    MonteCarloResult,
    SplitDistribution,
    apply_loss,
    binomial_split,
    eta_exp,
    monte_carlo_experiment,
    snr,
    split_vs_delay,
    thermal_joint_source,
)
from .tof import TofSpec, arrival_time, histogram_csv, spectrum_to_histogram
from .runner import RunManifest, cmd_calibrate, cmd_fock, cmd_spectrum, cmd_sweep
from . import errors

__all__ = [
    "C_LIGHT",
    "CountRecord",
    "EtaEstimate",
    "ExperimentConfig",
    "FiberSpec",
    "JointPhotonDistribution",
    "MonteCarloResult",
    "PolarizationGeometry",
    "PropagationResult",
    "PulseEnvelope",
    "RunManifest",
    "SplitDistribution",
    "SweepSurface",
    "SwitchResult",
    "TimeGrid",
    "TofSpec",
    "XpmKernel",
    "analytic_efficiency",
    "apply_loss",
    "arrival_time",
    "binomial_split",
    "calibrate_pi_energy",
    "clip_spectrum_support",
    "cmd_calibrate",
    "cmd_fock",
    "cmd_spectrum",
    "cmd_sweep",
    "compute_xpm_kernel",
    "config_hash",
    "convergence_residual",
    "default_config",
    "efficiency_from_phase",
    "efficiency_vs_delay",
    "emit_config",
    "energy",
    "errors",
    "eta_exp",
    "flat_top_span",
    "full_width",
    "gaussian_peak_power",
    "histogram_csv",
    "make_gaussian_pulse",
    "make_supergaussian_pulse",
    "monte_carlo_experiment",
    "nonlinear_coefficient",
    "nonlinear_phase",
    "numeric_efficiency",
    "parse_config",
    "propagate",
    "pump_output_spectrum",
    "pump_spectrum",
    "snr",
    "spectrum_to_histogram",
    "split_vs_delay",
    "sweep_surface",
    "temporal_resolution",
    "thermal_joint_source",
]
