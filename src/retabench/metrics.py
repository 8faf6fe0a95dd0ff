"""Comparison metrics: hit rate, MRR/NDCG of a selected response, pairwise
accuracy, and win-rate aggregation from offline labels.

All metrics consume only rankings, so any strictly increasing transform of
the RM scores leaves them unchanged.

Pairwise accuracy is an exact integer count per prompt, batched over
prompts and O(N log N) each (Knight 1966, JASA 61:436). With P = N(N-1)/2
pairs and T_o, T_rm and T_joint the pairs tied in the oracle, in the RM and
in both, C = P - T_o pairs are comparable, the RM ties T_rm - T_joint of
them, and it orders n_c = C - T_rm + T_joint - n_d like the oracle. The
discordant count n_d is the number of strict inversions of the RM's ranks
once each prompt's responses are sorted by (oracle, RM). The value is
100 * (n_c + 0.5 * (T_rm - T_joint)) / C, the float expression of a plain
pair loop, whose value it equals exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import (
    BenchmarkDataset,
    RmScoreTable,
    _check_int,
    _check_number,
    _iter_jsonl,
    _req_strs,
    _write_csv,
)
from .errors import (
    EmptyGroundTruth,
    EmptyLabels,
    InvalidConfig,
    MalformedRecord,
    NoComparablePairs,
)
from .ranking import _eta_parts, _rank_orders, _score_matrices

OUTCOMES = ("win", "draw", "loss")


@dataclass
class MetricReport:
    """One RM's comparison metrics (hit rates keyed by cutoff K)."""

    rm_name: str
    hit_rate: dict[int, float]
    mrr: float
    ndcg: float
    selection_rank_j: int
    pairwise_accuracy: float
    win_rate: float | None = None


def _pairwise_accuracy(dataset: BenchmarkDataset, rm: np.ndarray, oracle: np.ndarray) -> float:
    n = rm.shape[1]
    oracle_ranks, oracle_ties = _dense_ranks(oracle)
    comparable = n * (n - 1) // 2 - oracle_ties
    if not comparable.all():
        prompt_id = dataset.prompt_ids()[np.flatnonzero(comparable == 0)[0]]
        raise NoComparablePairs(f"prompt {prompt_id!r}: all oracle scores equal")
    rm_ranks, rm_ties = _dense_ranks(rm)
    # each row by (oracle, RM): one int key, as both ranks lie in [0, N)
    joint = np.sort(oracle_ranks * n + rm_ranks, axis=1)
    joint_ties = _tied_pairs(joint)
    agree = comparable - rm_ties + joint_ties - _inversions(joint % n)
    per_prompt = (100.0 * (agree + 0.5 * (rm_ties - joint_ties)) / comparable).tolist()
    return math.fsum(per_prompt) / len(per_prompt)


def _dense_ranks(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``scores``, each entry's 0-based rank among the row's
    distinct values, and the number of pairs of equal entries."""
    order = np.argsort(scores, axis=1)
    ordered = np.take_along_axis(scores, order, axis=1)
    ranks = np.empty(scores.shape, np.int64)
    np.put_along_axis(ranks, order, np.cumsum(_group_starts(ordered), axis=1) - 1, axis=1)
    return ranks, _tied_pairs(ordered)


def _group_starts(rows: np.ndarray) -> np.ndarray:
    """True where an entry of a row-sorted array differs from its left neighbour."""
    starts = np.ones(rows.shape, bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    return starts


def _tied_pairs(rows: np.ndarray) -> np.ndarray:
    """Per row of a row-sorted array, the number of pairs of equal entries:
    the sum over entries of how many equal entries precede each one."""
    index = np.arange(rows.shape[1])
    start = np.maximum.accumulate(np.where(_group_starts(rows), index, 0), axis=1)
    return (index - start).sum(axis=1)


def _inversions(ranks: np.ndarray) -> np.ndarray:
    """Per row of ``ranks`` (ints in [0, N)), the pairs i < j with
    ranks[i] > ranks[j], by bottom-up merge sort of all rows at once.

    The key row * N² + block * N + rank keeps each block of the current
    width sorted and all blocks of all rows in one ascending array. For an
    entry of an odd block, the keys up to key - N reach into the block
    before it as far as the ranks not above the entry's; the rest of that
    block are its inversions. Moving each key to its block of twice the
    width and sorting the rows merges the blocks; the stable sort is a
    timsort, which merges the two sorted runs of each block in one pass.
    """
    rows, n = ranks.shape
    col = np.arange(n)
    first = (np.arange(rows) * n)[:, None]
    keys = (first + col) * n + ranks
    count = np.zeros(rows, np.int64)
    width = 1
    while width < n:
        block = col // width
        right = block % 2 == 1
        below = np.searchsorted(keys.ravel(), keys[:, right] - n, side="right")
        count += (first + block[right] * width - below).sum(axis=1)
        keys = np.sort(keys + (block // 2 - block) * n, axis=1, kind="stable")
        width *= 2
    return count


def load_win_labels(path: str | Path, dataset: BenchmarkDataset) -> list[str]:
    """Read win/draw/loss outcomes from a JSONL labels file whose every
    (prompt_id, response_id) is a pair of ``dataset``."""
    label_path = Path(path)
    if not label_path.is_file():
        raise MalformedRecord(str(label_path), None, "-", "file not found")
    labels = []
    source = label_path.name
    for line_no, obj in _iter_jsonl(label_path):
        pid, rid = _req_strs(obj, ("prompt_id", "response_id"), source, line_no)
        if (pid, rid) not in dataset._pair_index:
            if pid not in dataset.prompt_ids():
                raise MalformedRecord(source, line_no, "prompt_id", f"unknown prompt {pid!r}")
            raise MalformedRecord(source, line_no, "response_id",
                                  f"unknown response {pid + '/' + rid!r}")
        [outcome] = _req_strs(obj, ("outcome",), source, line_no)
        if outcome not in OUTCOMES:
            raise MalformedRecord(source, line_no, "outcome",
                                  f"must be one of {OUTCOMES}, got {outcome!r}")
        labels.append(outcome)
    if not labels:
        raise EmptyLabels(f"{source}: no label records")
    return labels


def default_hit_rate_cutoffs(num_responses: int) -> list[int]:
    """Cutoffs at N/8, N/4, and N/2 (deduplicated, at least 1)."""
    _check_int(num_responses, "num_responses")
    if num_responses < 1:
        raise InvalidConfig(f"num_responses must be positive, got {num_responses}")
    return sorted({max(1, int(num_responses) // part) for part in (8, 4, 2)})


def metric_report(dataset: BenchmarkDataset, table: RmScoreTable, *,
                  eta: float = 0.25,
                  selection_rank: int = 1,
                  win_labels: Sequence[str] | None = None) -> MetricReport:
    """All comparison metrics for one RM, averaged across prompts.

    The hit rate at K, for each K of ``default_hit_rate_cutoffs(N)``, is
    the percent of the oracle's top floor(eta*N) responses among the RM's
    top K. MRR and NDCG score the RM's ``selection_rank``-th pick j by its
    oracle rank r: 1/r, and 1/log2(1+r) over the ideal pick's 1/log2(1+j),
    which for j = 1 lies in [0, 1] with 1.0 for a perfect model. Pairwise
    accuracy is the percent of response pairs the RM orders like the
    oracle: pairs with equal oracle scores are excluded, and pairs the RM
    scores equally count half. The win rate is the percent of
    ``win_labels`` that are "win"; each must be one of ``OUTCOMES``.
    """
    _check_number(eta, "eta")
    if not 0.0 < eta < 1.0:
        raise InvalidConfig(f"eta must be in (0, 1), got {eta}")
    rm, oracle = _score_matrices(dataset, table)
    # [i, r]: the 0-based oracle rank of the response prompt i's RM ranks at r + 1
    rankings = np.take_along_axis(dataset._oracle_ranks, _rank_orders(rm), axis=1)
    pool = rankings.shape[1]
    gt_size = int(_eta_parts(eta, pool)[0])  # floor(eta*N)
    if gt_size == 0:
        raise EmptyGroundTruth(f"floor(eta*N) = 0 for eta={eta}, N={pool}")
    hit_rates = {}
    for k in default_hit_rate_cutoffs(pool):
        hits = (rankings[:, :k] < gt_size).sum(axis=1)
        hit_rates[k] = math.fsum((100.0 * hits / gt_size).tolist()) / len(rankings)
    _check_int(selection_rank, "selection rank")
    if selection_rank < 1:
        raise InvalidConfig(f"selection rank must be >= 1, got {selection_rank}")
    if selection_rank > pool:
        raise InvalidConfig(f"selection rank {selection_rank} exceeds pool size {pool}")
    ranks = (rankings[:, selection_rank - 1] + 1).tolist()
    ideal = 1.0 / math.log2(1 + selection_rank)
    win = None
    if win_labels is not None:
        if not win_labels:
            raise EmptyLabels("no outcome labels")
        for label in win_labels:
            if label not in OUTCOMES:
                raise InvalidConfig(f"unknown outcome {label!r}, expected one of {OUTCOMES}")
        win = 100.0 * win_labels.count("win") / len(win_labels)
    return MetricReport(
        rm_name=table.rm_name,
        hit_rate=hit_rates,
        mrr=math.fsum(1.0 / rank for rank in ranks) / len(ranks),
        ndcg=math.fsum((1.0 / math.log2(1 + rank)) / ideal for rank in ranks) / len(ranks),
        selection_rank_j=selection_rank,
        pairwise_accuracy=_pairwise_accuracy(dataset, rm, oracle),
        win_rate=win,
    )


def write_metrics_csv(reports: Iterable[MetricReport], path: str | Path,
                      header_comment: str | None = None) -> None:
    """One CSV row per RM: hit rates per cutoff, NDCG, MRR, pairwise, win rate."""
    reports = list(reports)
    if not reports:
        raise InvalidConfig("no metric reports to write")
    cutoffs = sorted(reports[0].hit_rate)
    for report in reports:
        if sorted(report.hit_rate) != cutoffs:
            raise InvalidConfig("metric reports use different hit-rate cutoffs")
    _write_csv(path, header_comment,
               ["rm_name"] + [f"hit_rate_at_{k}" for k in cutoffs]
               + ["ndcg", "mrr", "selection_rank", "pairwise_accuracy", "win_rate"],
               ([report.rm_name]
                + [repr(report.hit_rate[k]) for k in cutoffs]
                + [repr(report.ndcg), repr(report.mrr), report.selection_rank_j,
                   repr(report.pairwise_accuracy),
                   "" if report.win_rate is None else repr(report.win_rate)]
                for report in reports))
