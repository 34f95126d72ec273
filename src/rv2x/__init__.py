"""Two-phase resource allocation for V2X links with hidden channel-error laws.

The package simulates a cellular V2X deployment where V2V pairs reuse V2I
uplink resources.  An initial probing ("absorption") phase recovers the law
of the hidden interference-channel error by Fourier deconvolution and fixes
the pair/channel matching; the following adaptation phase picks per-slot
transmit powers so the delay-satisfaction probability stays above target
while the uplink rate floor holds.  Gaussian-moment and high-probability-
region baselines run on the same probes for comparison.
"""

from .absorption import (
    AbsorptionPlan,
    DeconvEstimate,
    absorption_power,
    adaptation_capability_bound,
    collect_sample,
    estimate_pdf,
    hungarian_match,
    run_absorption,
)
from .adaptation import (
    AdaptationContext,
    PairTable,
    beta,
    c_param,
    check_prop1_condition,
    ell,
    prop1_holds,
    solve_slots,
    u_value,
)
from .baselines import GaussianFit, HprRegion, fit_gaussian, fit_hpr
from .channel import (
    ChannelState,
    ErrorDistribution,
    LargeScaleState,
    build_large_scale,
    doppler_coefficient,
    error_law,
    evolve_small_scale,
    pathloss_v2i_db,
    pathloss_winner_b1_db,
)
from .config import SimConfig, load_config
from .errors import ConfigurationError, InfeasibleMatching, NonFiniteSatisfaction
from .harness import RunReport, emit, run, run_trial
from .qosmodel import (
    AllocationDecision,
    delay,
    delay_outage_closed_form,
    hazard_rate,
    sinr,
    throughput,
    true_satisfaction_prob,
)
from .scenario import Topology, build_topology, noise_power, qos_constants

__version__ = "0.1.0"

__all__ = [
    "AbsorptionPlan",
    "AdaptationContext",
    "AllocationDecision",
    "ChannelState",
    "ConfigurationError",
    "DeconvEstimate",
    "ErrorDistribution",
    "GaussianFit",
    "HprRegion",
    "InfeasibleMatching",
    "LargeScaleState",
    "NonFiniteSatisfaction",
    "PairTable",
    "RunReport",
    "SimConfig",
    "Topology",
    "absorption_power",
    "adaptation_capability_bound",
    "beta",
    "build_large_scale",
    "build_topology",
    "c_param",
    "check_prop1_condition",
    "collect_sample",
    "delay",
    "delay_outage_closed_form",
    "doppler_coefficient",
    "ell",
    "emit",
    "error_law",
    "estimate_pdf",
    "evolve_small_scale",
    "fit_gaussian",
    "fit_hpr",
    "hazard_rate",
    "hungarian_match",
    "load_config",
    "noise_power",
    "pathloss_v2i_db",
    "pathloss_winner_b1_db",
    "prop1_holds",
    "qos_constants",
    "run",
    "run_absorption",
    "run_trial",
    "sinr",
    "solve_slots",
    "throughput",
    "true_satisfaction_prob",
    "u_value",
]
