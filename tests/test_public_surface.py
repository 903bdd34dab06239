"""The package's public names, pinned so that any change to them shows up in review."""
import dpreg
import dpreg.noise
import dpreg.polynomial
import dpreg.simplex

PUBLIC_NAMES = [
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
    "median_interval_probs",
    "normalize",
    "reference_setup",
    "run_experiment",
    "sensitivity_oracle",
    "simulate_stats",
    "verify_variances",
]

# Earlier copies of the per-record group vectors; simplex._component_rows
# is now the only definition, and group_contributions returns its rows.
# The median no longer answers empty input with a warning and a fixed
# value, and the scalar solvers gave way to the batched post-processing.
# Every fitter, and so every ledger, now runs through mechanisms._fit,
# which builds the one FitResult of every degree. The line metrics are
# called one at a time. Both Laplace releases share one cell-sum cache, one
# draw, one solve and one simulator. Every per-mechanism table, the budget
# splits, the Laplace releases and the (draw, solve) pairs, is now a field
# of the mechanism's record in mechanisms.MECHANISMS.
REMOVED = {
    dpreg.noise: ["_RELEASE_PARTS", "_SHARES"],
    dpreg.simplex: ["simplex_transform_x", "simplex_transform_xy", "_check_unit",
                    "_solve_normal_equations", "_coefficients", "refined_fit", "_refined_fits",
                    "refined_release", "_group_sums", "_refined_releases", "_LAPLACE_RELEASES"],
    dpreg.polynomial: ["poly_group1_contribution", "poly_group2_contribution", "PolyFitResult"],
    dpreg.median: ["DegenerateInputWarning"],
    dpreg.mechanisms: ["_line_fit", "_rss_fits", "_ss_fits", "_theil_sen_fits", "_SS_LABELS",
                       "_fit_results", "_ss_sums", "_ss_rows", "_ss_draw", "_ss_solve",
                       "_FIT_CORES"],
    dpreg.evaluate: ["_errors_of_fits", "line_errors", "MetricResult", "simulate_refined_stats",
                     "simulate_baseline_stats"],
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 39
    assert sorted(dpreg.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(dpreg, name) is not None, name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert not hasattr(dpreg, name), name
