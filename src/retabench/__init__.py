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
    best_m_of_n_estimate,
    bon_curve,
    bon_estimate,
    default_n_grid,
    kl_best_of_n,
    rank_k_of_n_estimate,
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
from .labeler import JUDGE_TEMPLATE, Labeler, OfflineLabeler
from .metrics import (
    MetricReport,
    default_hit_rate_cutoffs,
    hit_rate,
    load_win_labels,
    metric_report,
    mrr_at_selection,
    ndcg_at_selection,
    pairwise_accuracy,
    win_rate_aggregate,
    write_metrics_csv,
)
from .ranking import (
    RankedResponses,
    beta_subset,
    eta_parts,
    rank_by_oracle,
    rank_by_table,
    subset_rank_weights,
)
from .reta import (
    RetaConfig,
    RetaCurve,
    RetaEstimate,
    default_eta_grid,
    exhaustive_reta,
    resample_sizes,
    reta_curve,
    reta_estimate,
    reta_point_estimate,
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
