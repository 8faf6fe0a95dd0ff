"""Reliability benchmarking for reward models.

Measures how reliably a reward model's top-ranked responses track an
oracle's quality judgments: quantile reliability curves computed as exact
expectations over response subsets, closed-form best-of-n curve families,
classical ranking metrics, diverse prompt selection, and synthetic
distributions with known limits for end-to-end validation.

``import retabench`` loads no submodule. Each public name is imported from
its module on first use (PEP 562), so a program, and each command of the
CLI, loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "bon": (
        "BonCurve",
        "BonPoint",
        "BonVariant",
        "bon_curve",
        "default_n_grid",
        "kl_best_of_n",
        "write_bon_csv",
    ),
    "dataset": (
        "BenchmarkDataset",
        "DEFAULT_MAX_ORACLE_SCORE",
        "PromptRecord",
        "ResponseRecord",
        "RmScoreTable",
        "ValidationIssue",
        "ingest_rm_scores",
        "load_benchmark",
        "load_candidate_prompts",
        "oracle_score_table",
        "write_benchmark",
        "write_rm_scores",
    ),
    "dpp": (
        "DppModel",
        "DppSampleConfig",
        "build_dpp",
        "sample_kdpp",
    ),
    "metrics": (
        "MetricReport",
        "default_hit_rate_cutoffs",
        "load_win_labels",
        "metric_report",
        "write_metrics_csv",
    ),
    "reta": (
        "RetaConfig",
        "RetaCurve",
        "RetaEstimate",
        "default_eta_grid",
        "exhaustive_reta",
        "resample_sizes",
        "reta_curve",
        "reta_curve_pair",
        "reta_estimate",
        "write_curve_csv",
        "write_per_prompt_csv",
    ),
    "synthetic": (
        "DistSpec",
        "analytic_reta",
        "gen_synthetic",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
