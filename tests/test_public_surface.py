"""The package's public names, pinned so that any change to them shows up in review."""
import dpreg
import dpreg.polynomial
import dpreg.simplex

PUBLIC_NAMES = [
    "Bounds",
    "Dataset",
    "DegenerateInputWarning",
    "ExperimentGrid",
    "ExperimentRow",
    "FALLBACK_ALPHA",
    "FALLBACK_BETA",
    "FitResult",
    "METHOD_NAMES",
    "MetricResult",
    "NoiseEvent",
    "NoiseLedger",
    "PolyFitResult",
    "PrivacyBudget",
    "RSS_VARIANCES",
    "RandomStream",
    "Record",
    "SS_VARIANCES",
    "STATISTIC_ORDER",
    "SetupConfig",
    "TheilSenHyper",
    "VarianceRow",
    "ZeroNoiseStream",
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
    "line_errors",
    "median_interval_probs",
    "normalize",
    "reference_setup",
    "run_experiment",
    "sensitivity_oracle",
    "simulate_baseline_stats",
    "simulate_refined_stats",
    "verify_variances",
]

# Earlier copies of the per-record group vectors; simplex._component_rows
# is now the only definition, and group_contributions returns its rows.
REMOVED = {
    dpreg.simplex: ["simplex_transform_x", "simplex_transform_xy", "_check_unit"],
    dpreg.polynomial: ["poly_group1_contribution", "poly_group2_contribution"],
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 44
    assert sorted(dpreg.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(dpreg, name) is not None, name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert not hasattr(dpreg, name), name
