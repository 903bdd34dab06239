"""Differentially private simple linear and polynomial regression.

The package releases regression fits under pure epsilon-DP in the add/remove
model. Its core mechanism privatizes two simplex-transformed query groups
whose per-record contributions each sum to 1 up to rounding, then recombines
the noisy sums into lower-variance refined sufficient statistics; baseline
mechanisms (noisy sufficient statistics, private Theil-Sen) and a Monte
Carlo evaluation harness round it out.
"""

from .data import Bounds, Dataset, as_dataset, normalize
from .evaluate import (
    ExperimentGrid,
    ExperimentRow,
    METHOD_NAMES,
    RSS_VARIANCES,
    SS_VARIANCES,
    STATISTIC_ORDER,
    SetupConfig,
    VarianceRow,
    generate_setup,
    l1_error,
    l2_error,
    reference_setup,
    run_experiment,
    simulate_stats,
    verify_variances,
)
from .mechanisms import (
    FALLBACK_ALPHA,
    FALLBACK_BETA,
    FitResult,
    TheilSenHyper,
    denormalize_fit,
    dp_rss_fit,
    dp_ss_fit,
    dp_theil_sen_fit,
)
from .median import dp_median, median_interval_probs
from .noise import NoiseEvent, NoiseLedger, RandomStream
# Through the re-export, so that ``import dpreg`` binds ``dpreg.polynomial``.
from .polynomial import dp_rss_poly_fit
from .simplex import exact_group_stats, group_contributions, sensitivity_oracle

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "Dataset",
    "ExperimentGrid",
    "ExperimentRow",
    "FALLBACK_ALPHA",
    "FALLBACK_BETA",
    "FitResult",
    "METHOD_NAMES",
    "NoiseEvent",
    "NoiseLedger",
    "RSS_VARIANCES",
    "RandomStream",
    "STATISTIC_ORDER",
    "SS_VARIANCES",
    "SetupConfig",
    "TheilSenHyper",
    "VarianceRow",
    "as_dataset",
    "denormalize_fit",
    "dp_median",
    "dp_rss_fit",
    "dp_rss_poly_fit",
    "dp_ss_fit",
    "dp_theil_sen_fit",
    "exact_group_stats",
    "generate_setup",
    "group_contributions",
    "l1_error",
    "l2_error",
    "median_interval_probs",
    "normalize",
    "reference_setup",
    "run_experiment",
    "sensitivity_oracle",
    "simulate_stats",
    "verify_variances",
]
