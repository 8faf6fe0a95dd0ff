"""Best-of-n curve family via closed-form subset-rank weights.

For a pool of N ranked responses, the expected oracle score of the
rank-k-by-RM response within a uniformly drawn n-subset is a weighted sum
over pool ranks r with hypergeometric weights

    w_k(r) = C(r-1, k-1) * C(N-r, n-k) / C(N, n),

i.e. the probability that the pool's rank-r response lands at subset rank
k (``ranking.subset_rank_weights``). This turns an O(C(N, n)) enumeration
into an O(N) dot product per (n, prompt); the equivalence is
property-tested against brute force. Best-m-of-n reads the mean of the
top m, the selection row ``ranking._selection_weights`` builds at (m, 0).
Each curve stacks the rows of all its n, on one log-factorial table, into
one bank that ``ranking._weighted_sums`` applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import BenchmarkDataset, RmScoreTable, _write_csv
from .errors import InvalidConfig
from .ranking import (
    RankedResponses,
    _across_prompts,
    _check_int,
    _log_factorials,
    _rank_weights,
    _selection_weights,
    _weighted_sums,
    oracle_matrix,
)


def kl_best_of_n(n: int) -> float:
    """KL divergence of best-of-n selection against a single random draw."""
    if n < 1:
        raise InvalidConfig(f"n must be positive, got {n}")
    return math.log(n) - (n - 1) / n


@dataclass(frozen=True)
class BonVariant:
    kind: str  # "best_of_n" | "rank_k_of_n" | "best_m_of_n"
    param: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "best_of_n":
            if self.param is not None:
                raise InvalidConfig("best_of_n takes no parameter")
            return
        letter = {"rank_k_of_n": "k", "best_m_of_n": "m"}.get(self.kind)
        if letter is None:
            raise InvalidConfig(f"unknown variant kind {self.kind!r}")
        if self.param is not None:
            _check_int(self.param, letter)
        if self.param is None or self.param < 1:
            raise InvalidConfig(f"{self.kind} requires {letter} >= 1")

    @property
    def label(self) -> str:
        if self.kind == "best_of_n":
            return "best_of_n"
        if self.kind == "rank_k_of_n":
            return f"rank_{self.param}_of_n"
        return f"best_{self.param}_of_n"

    @property
    def min_n(self) -> int:
        return 1 if self.param is None else self.param

    def _weights(self, log_fact: np.ndarray, n: int) -> np.ndarray:
        """(1, N) weights over the ranks of the pool whose ``_log_factorials``
        is ``log_fact``; ``ranking._weighted_sums`` applies them."""
        if self.kind == "best_m_of_n":
            return _selection_weights(log_fact, n, np.array([self.param]), np.zeros(1))
        return _rank_weights(log_fact, n, np.array([self.min_n]))


def _estimate(ranked_all: RankedResponses, variant: BonVariant, n: int) -> float:
    pool = len(ranked_all)
    _check_int(n, "n")
    if not variant.min_n <= n <= pool:
        raise InvalidConfig(f"n={n} outside [{variant.min_n}, {pool}]")
    weights = variant._weights(_log_factorials(pool), n)
    return float(_weighted_sums(weights, ranked_all.oracle_scores[None, :])[0, 0])


def bon_estimate(ranked_all: RankedResponses, n: int) -> float:
    """Expected oracle score of the RM's best pick within a uniform n-subset."""
    return _estimate(ranked_all, BonVariant("best_of_n"), n)


def rank_k_of_n_estimate(ranked_all: RankedResponses, k: int, n: int) -> float:
    """Expected oracle score of the RM's k-th pick within a uniform n-subset."""
    return _estimate(ranked_all, BonVariant("rank_k_of_n", k), n)


def best_m_of_n_estimate(ranked_all: RankedResponses, m: int, n: int) -> float:
    """Expected mean oracle score of the RM's top m within a uniform n-subset."""
    return _estimate(ranked_all, BonVariant("best_m_of_n", m), n)


@dataclass
class BonPoint:
    n: int
    value: float
    std_error: float


@dataclass
class BonCurve:
    rm_name: str
    variant: str
    points: list[BonPoint]
    kl: list[float]


def default_n_grid(num_responses: int) -> list[int]:
    """Powers of two from 1 up to N inclusive."""
    grid = []
    n = 1
    while n <= num_responses:
        grid.append(n)
        n *= 2
    return grid


def bon_curve(dataset: BenchmarkDataset, table: RmScoreTable,
              variant: BonVariant | None = None,
              n_values: Sequence[int] | None = None) -> BonCurve:
    """Per-n prompt means with standard errors across prompts, plus KL column.

    The n grid is ``n_values`` sorted and deduplicated, each an int inside
    [variant.min_n, N], or by default the powers of two in that range.
    """
    variant = variant or BonVariant("best_of_n")
    pool = dataset.responses_per_prompt
    if n_values is None:
        grid = [n for n in default_n_grid(pool) if n >= variant.min_n]
    else:
        for n in n_values:
            _check_int(n, "n")
        grid = sorted(set(map(int, n_values)))
        for n in grid:
            if not variant.min_n <= n <= pool:
                raise InvalidConfig(f"n={n} outside [{variant.min_n}, {pool}]")
    if not grid:
        raise InvalidConfig(f"no usable n values for variant {variant.label}")
    log_fact = _log_factorials(pool)
    bank = np.concatenate([variant._weights(log_fact, n) for n in grid])
    values = _weighted_sums(bank, oracle_matrix(dataset, table)).tolist()
    points = [BonPoint(n, *_across_prompts(row)) for n, row in zip(grid, values)]
    return BonCurve(
        rm_name=table.rm_name,
        variant=variant.label,
        points=points,
        kl=[kl_best_of_n(n) for n in grid],
    )


def write_bon_csv(curve: BonCurve, path: str | Path,
                  header_comment: str | None = None) -> None:
    """Curve export: rm_name, variant, n, kl, value, std_error."""
    _write_csv(path, header_comment, ["rm_name", "variant", "n", "kl", "value", "std_error"],
               ([curve.rm_name, curve.variant, point.n,
                 repr(kl), repr(point.value), repr(point.std_error)]
                for point, kl in zip(curve.points, curve.kl)))
