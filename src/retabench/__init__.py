"""Reliability benchmarking for reward models.

Measures how reliably a reward model's top-ranked responses track an
oracle's quality judgments: quantile reliability curves computed as exact
expectations over response subsets, closed-form best-of-n curve families,
classical ranking metrics, diverse prompt selection, and synthetic
distributions with known limits for end-to-end validation.
"""

from .bon import (
    BonCurve,
    BonPoint,
    BonVariant,
    bon_curve,
    default_n_grid,
    kl_best_of_n,
    write_bon_csv,
)
from .dataset import (
    BenchmarkDataset,
    DEFAULT_MAX_ORACLE_SCORE,
    PromptRecord,
    ResponseRecord,
    RmScoreTable,
    ValidationIssue,
    ValidationReport,
    ingest_rm_scores,
    load_benchmark,
    load_candidate_prompts,
    oracle_score_table,
    validate_dataset,
    write_benchmark,
    write_rm_scores,
)
from .dpp import (
    DppModel,
    DppSampleConfig,
    build_dpp,
    diversity_score,
    sample_kdpp,
    subset_log_det,
)
from .metrics import (
    MetricReport,
    default_hit_rate_cutoffs,
    load_win_labels,
    metric_report,
    win_rate_aggregate,
    write_metrics_csv,
)
from .ranking import eta_parts
from .reta import (
    RetaConfig,
    RetaCurve,
    RetaEstimate,
    default_eta_grid,
    exhaustive_reta,
    resample_sizes,
    reta_curve,
    reta_curve_pair,
    reta_estimate,
    write_curve_csv,
    write_per_prompt_csv,
)
from .synthetic import (
    ConvergencePoint,
    DistSpec,
    analytic_reta,
    convergence_experiment,
    gen_synthetic,
    write_convergence_csv,
)

__version__ = "0.1.0"
