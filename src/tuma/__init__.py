"""
Type-based unsourced multiple access: sensors quantize target states to a
shared message codebook, transmit the matching codewords over a Gaussian
multiple-access channel, and the receiver recovers the empirical message
distribution (the type) with Bayesian iterative decoders.
"""

from .scenario import (ConfigError, DiscreteMeasure, SystemConfig,
                       assign_sensors, draw_targets, trial_rng, true_type,
                       true_multiplicity)
from .codebooks import (GridQuantizer, HadamardCodebook, adjoint, apply, fwht,
                        grid_codebook, hadamard_codebook, quantize, sq_adjoint,
                        sq_apply)
from .channel import ReceivedSignal, snr_from_db, transmit
from .denoiser import CountPrior, multiplicity_prior, posterior_moments
from .decoders import (ALGORITHMS, DecoderDiverged, DecoderOptions,
                       DecoderReport, decode, round_estimate)
from .metrics import (estimated_type, quantization_distortion,
                      total_variation, wasserstein)
from .harness import (CSV_COLUMNS, SweepSpec, TrialResult, aggregate,
                      derive_config, run_sweep, run_trial)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DiscreteMeasure", "SystemConfig", "assign_sensors",
    "draw_targets", "trial_rng", "true_type", "true_multiplicity",
    "GridQuantizer", "HadamardCodebook", "adjoint", "apply", "fwht",
    "grid_codebook", "hadamard_codebook", "quantize", "sq_adjoint", "sq_apply",
    "ReceivedSignal", "snr_from_db", "transmit",
    "CountPrior", "multiplicity_prior", "posterior_moments",
    "ALGORITHMS", "DecoderDiverged", "DecoderOptions", "DecoderReport",
    "decode", "round_estimate",
    "estimated_type", "quantization_distortion", "total_variation",
    "wasserstein",
    "CSV_COLUMNS", "SweepSpec", "TrialResult", "aggregate", "derive_config",
    "run_sweep", "run_trial",
    "__version__",
]
