"""Best-of-n curve family via closed-form subset-rank weights.

For a pool of N ranked responses, the expected oracle score of the
rank-k-by-RM response within a uniformly drawn n-subset is a weighted sum
over pool ranks r with hypergeometric weights

    w_k(r) = C(r-1, k-1) * C(N-r, n-k) / C(N, n),

i.e. the probability that the pool's rank-r response lands at subset rank
k (``ranking._rank_weights``). This turns an O(C(N, n)) enumeration
into an O(N) dot product per (n, prompt); the equivalence is
property-tested against brute force. Best-m-of-n reads the mean of the
top m, the selection row ``ranking._selection_weights`` builds at (m, 0).
Each curve stacks one row per n, built one n per kernel call, into one
bank that ``ranking._weighted_sums`` applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import BenchmarkDataset, RmScoreTable, _check_int, _write_csv
from .errors import InvalidConfig
from .ranking import (
    _across_prompts,
    _rank_weights,
    _selection_weights,
    _weighted_sums,
    oracle_matrix,
)


def kl_best_of_n(n: int) -> float:
    """KL divergence of best-of-n selection against a single random draw."""
    _check_int(n, "n")
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

    def _weights(self, pool: int, ns: Sequence[int]) -> np.ndarray:
        """(len(ns), N) weights over the ranks of a pool of N = ``pool``, one
        row for each n of ``ns``, each from a kernel call of its own;
        ``ranking._weighted_sums`` applies them."""
        if self.kind == "best_m_of_n":
            return np.concatenate([_selection_weights(pool, n, [self.param], 0.0) for n in ns])
        return np.concatenate([_rank_weights(pool, n, [self.min_n]) for n in ns])


# at most 8 banks of len(ns) * N * 8 bytes each: 18 KiB at N = 256 and
# the default n grid
@lru_cache(maxsize=8)
def _bank(variant: BonVariant, pool: int, ns: tuple[int, ...]) -> np.ndarray:
    """``variant._weights``, built once for each (variant, N, n grid) and
    read-only, so every table and call that has them shares one bank."""
    bank = variant._weights(pool, list(ns))
    bank.flags.writeable = False
    return bank


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
    _check_int(num_responses, "num_responses")
    if num_responses < 1:
        raise InvalidConfig(f"num_responses must be positive, got {num_responses}")
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
    The weight bank depends on the variant, N and the n grid alone, so it
    comes from ``_bank``: a K-table command or a loop of calls builds it
    once.
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
    bank = _bank(variant, pool, tuple(grid))
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
