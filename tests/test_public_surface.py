"""The package's public names, pinned so that any change to them shows up in review."""
import ast
import pathlib

import dpreg
import dpreg.data
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
    "RSS_VARIANCES",
    "RandomStream",
    "SS_VARIANCES",
    "STATISTIC_ORDER",
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

# Earlier copies of the per-record group vectors; simplex._component_rows
# is now the only definition, and group_contributions returns its rows.
# The median no longer answers empty input with a warning and a fixed
# value, and the scalar solvers gave way to the batched post-processing.
# Every fitter, and so every ledger, now runs through mechanisms._fit,
# which builds the one FitResult of every degree. The line metrics are
# called one at a time. Both Laplace releases share one cell-sum cache, one
# draw, one solve and one simulator. Every per-mechanism table, the budget
# splits, the Laplace releases and the (draw, solve) pairs, is now a field
# of the mechanism's record in mechanisms.MECHANISMS. No path needs a
# budget wrapper or a record type, and a stream that releases the exact sums
# under a ledger of epsilon lives in the tests (tests/zero_noise.py).
REMOVED = {
    dpreg.data: ["Record"],
    dpreg.noise: ["_RELEASE_PARTS", "_SHARES", "PrivacyBudget", "ZeroNoiseStream"],
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
    assert len(PUBLIC_NAMES) == 36
    assert sorted(dpreg.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(dpreg, name) is not None, name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert not hasattr(dpreg, name), name


def test_dataset_is_not_iterable():
    assert not hasattr(dpreg.Dataset, "__iter__")


def duplicate_definitions(tree):
    """(body owner, name) for each function or class defined twice in one body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef)):
            seen = set()
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if child.name in seen:
                        found.append((getattr(node, "name", "<module>"), child.name))
                    seen.add(child.name)
    return found


def test_no_name_is_defined_twice_in_one_body():
    # A second definition silently replaces the first, which then reads as
    # live code; pyflakes' redefinition check, without the dependency.
    src = pathlib.Path(dpreg.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert duplicate_definitions(ast.parse(path.read_text())) == [], path.name
    assert duplicate_definitions(ast.parse("class A:\n def f(s): 1\n def f(s): 2\n")) == [
        ("A", "f")]
