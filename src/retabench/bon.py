"""Best-of-n curve family via closed-form subset-rank weights.

For a pool of N ranked responses, the expected oracle score of the
rank-k-by-RM response within a uniformly drawn n-subset is a weighted sum
over pool ranks r with hypergeometric weights

    w_k(r) = C(r-1, k-1) * C(N-r, n-k) / C(N, n),

i.e. the probability that the pool's rank-r response lands at subset rank
k (``ranking.subset_rank_weights``). This turns an O(C(N, n)) enumeration
into an O(N) dot product per (n, prompt); the equivalence is
property-tested against brute force. Best-m-of-n sums the first m rows
of the weight table and builds no others.
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
    _log_factorials,
    _rank_weights,
    oracle_matrix,
    subset_rank_weights,
)
from .reta import _spread


def kl_best_of_n(n: int) -> float:
    """KL divergence of best-of-n selection against a single random draw."""
    if n < 1:
        raise InvalidConfig(f"n must be positive, got {n}")
    return math.log(n) - (n - 1) / n


def bon_estimate(ranked_all: RankedResponses, n: int) -> float:
    """Expected oracle score of the RM's best pick within a uniform n-subset."""
    return rank_k_of_n_estimate(ranked_all, 1, n)


def rank_k_of_n_estimate(ranked_all: RankedResponses, k: int, n: int) -> float:
    """Expected oracle score of the RM's k-th pick within a uniform n-subset."""
    return float(subset_rank_weights(len(ranked_all), n, k) @ ranked_all.oracle_scores)


def best_m_of_n_estimate(ranked_all: RankedResponses, m: int, n: int) -> float:
    """Expected mean oracle score of the RM's top m within a uniform n-subset."""
    return float(_top_m_weights(len(ranked_all), m, n) @ ranked_all.oracle_scores)


def _top_m_weights(pool_size: int, m: int, n: int) -> np.ndarray:
    if not 1 <= m <= n <= pool_size:
        raise InvalidConfig(f"need 1 <= m <= n <= N, got m={m}, n={n}, N={pool_size}")
    return _rank_weights(_log_factorials(pool_size), n, np.arange(1, m + 1)).sum(axis=0) / m


@dataclass(frozen=True)
class BonVariant:
    kind: str  # "best_of_n" | "rank_k_of_n" | "best_m_of_n"
    param: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "best_of_n":
            if self.param is not None:
                raise InvalidConfig("best_of_n takes no parameter")
        elif self.kind == "rank_k_of_n":
            if self.param is None or self.param < 1:
                raise InvalidConfig("rank_k_of_n requires k >= 1")
        elif self.kind == "best_m_of_n":
            if self.param is None or self.param < 1:
                raise InvalidConfig("best_m_of_n requires m >= 1")
        else:
            raise InvalidConfig(f"unknown variant kind {self.kind!r}")

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

    def weights(self, pool_size: int, n: int) -> np.ndarray:
        """Weights over pool ranks whose dot product with oracle scores is the estimate."""
        if self.kind == "best_m_of_n":
            return _top_m_weights(pool_size, self.param, n)
        return subset_rank_weights(pool_size, n, 1 if self.param is None else self.param)

    def estimate(self, ranked: RankedResponses, n: int) -> float:
        return float(self.weights(len(ranked), n) @ ranked.oracle_scores)


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
    """Per-n prompt means with standard errors across prompts, plus KL column."""
    variant = variant or BonVariant("best_of_n")
    pool = dataset.responses_per_prompt
    if n_values is None:
        grid = [n for n in default_n_grid(pool) if n >= variant.min_n]
    else:
        grid = sorted(set(int(n) for n in n_values))
        for n in grid:
            if not variant.min_n <= n <= pool:
                raise InvalidConfig(f"n={n} outside [{variant.min_n}, {pool}]")
    if not grid:
        raise InvalidConfig(f"no usable n values for variant {variant.label}")
    oracle = oracle_matrix(dataset, table)
    points = []
    for n in grid:
        values = (oracle @ variant.weights(pool, n)).tolist()
        points.append(BonPoint(n=n, value=math.fsum(values) / len(values),
                               std_error=_spread(values)))
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
