"""Deterministic response rankings, and the subset-rank weights that turn
expectations over response subsets into dot products with them, shared by
all estimators and metrics.

Responses are ordered by reward-model score descending; exact score ties
are broken by ascending response id so that every ranking is a stable,
reproducible permutation.

The subset-rank weight w_k(r), the probability that pool rank r lands at
rank k of a uniform n-subset, is the product of a factor in r, a factor
in k and a factor in r - k. A table of any rows k is therefore one
gather from a single vector plus two broadcast adds and one exp in log
space, and callers build only the rows they read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import BenchmarkDataset, RmScoreTable, _rank_orders
from .errors import EmptySelection, InvalidConfig, MissingScore

# eta*n computed in floats can land a few ulp away from an exact integer
# (e.g. (1/3)*3 == 0.999...); snap within this tolerance before flooring.
_INTEGER_SNAP_TOL = 1e-9


def eta_parts(eta: float, n: int) -> tuple[int, float]:
    """Split eta*n into (floor, fractional part), snapping float noise."""
    x = eta * n
    nearest = round(x)
    if abs(x - nearest) <= _INTEGER_SNAP_TOL:
        x = float(nearest)
    floor = int(math.floor(x))
    return floor, x - floor


@dataclass(frozen=True)
class RankedResponses:
    """One prompt's responses sorted by RM score descending.

    ``order[j]`` is the index (into the dataset's response list) of the
    response at rank j+1; ``rm_scores`` / ``oracle_scores`` /
    ``response_ids`` are aligned to that order.
    """

    prompt_id: str
    order: np.ndarray
    rm_scores: np.ndarray
    oracle_scores: np.ndarray
    response_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.order)

    @property
    def size(self) -> int:
        return len(self.order)


def _build_ranking(prompt_id: str, response_ids: list[str],
                   rm_scores: list[float], oracle_scores: list[float]) -> RankedResponses:
    order = sorted(range(len(response_ids)),
                   key=lambda i: (-rm_scores[i], response_ids[i]))
    return RankedResponses(
        prompt_id=prompt_id,
        order=np.asarray(order, dtype=np.intp),
        rm_scores=np.asarray([rm_scores[i] for i in order], dtype=np.float64),
        oracle_scores=np.asarray([oracle_scores[i] for i in order], dtype=np.float64),
        response_ids=tuple(response_ids[i] for i in order),
    )


def rank_by_table(dataset: BenchmarkDataset, table: RmScoreTable,
                  prompt_id: str) -> RankedResponses:
    """Rank one prompt's responses by the given score table."""
    responses = dataset.responses[prompt_id]
    ids = [r.response_id for r in responses]
    rm = [table.score(prompt_id, r.response_id) for r in responses]
    oracle = [r.oracle_score for r in responses]
    return _build_ranking(prompt_id, ids, rm, oracle)


def rank_by_oracle(dataset: BenchmarkDataset, prompt_id: str) -> RankedResponses:
    """Rank one prompt's responses by their oracle scores."""
    responses = dataset.responses[prompt_id]
    ids = [r.response_id for r in responses]
    oracle = [r.oracle_score for r in responses]
    return _build_ranking(prompt_id, ids, oracle, oracle)


def beta_subset(ranked: RankedResponses, eta: float, subset_size: int) -> list[int]:
    """Indices of the top floor(eta*n) responses by RM score.

    ``subset_size`` must equal the number of ranked entries; ties are
    already resolved by the ranking's stable id order.
    """
    n = len(ranked)
    if subset_size != n:
        raise InvalidConfig(f"subset_size {subset_size} != ranked size {n}")
    if not 0.0 < eta <= 1.0:
        raise InvalidConfig(f"eta must be in (0, 1], got {eta}")
    count, _ = eta_parts(eta, n)
    if count == 0:
        raise EmptySelection(f"floor(eta*n) = 0 for eta={eta}, n={n}")
    return [int(i) for i in ranked.order[:count]]


def _score_matrices(dataset: BenchmarkDataset,
                    table: RmScoreTable) -> tuple[np.ndarray, np.ndarray]:
    """(table scores, oracle scores), each (prompts, N) in the stored response
    order; the oracle matrix is the dataset's read-only column, read first so
    that a malformed dataset is reported before any table score."""
    oracle = dataset._oracle_scores
    index = dataset._pair_index
    try:
        rm = np.fromiter(map(table.scores.__getitem__, index), np.float64, count=len(index))
    except KeyError:
        raise MissingScore(next(pair for pair in index if pair not in table.scores)) from None
    return rm.reshape(oracle.shape), oracle


def _id_ranks(dataset: BenchmarkDataset) -> np.ndarray:
    """(prompts, N) rank of each stored response's id within its prompt."""
    return dataset._id_ranks


def oracle_matrix(dataset: BenchmarkDataset, table: RmScoreTable) -> np.ndarray:
    """(prompts, N) oracle scores; row i is prompt i ordered by the table's ranking."""
    rm, oracle = _score_matrices(dataset, table)
    return np.take_along_axis(oracle, _rank_orders(rm, _id_ranks(dataset)), axis=1)


def _log_factorials(pool_size: int) -> np.ndarray:
    """log m! for m = 0..pool_size, exact zeros at 0! and 1!.

    ``math.lgamma`` per entry stays within 1e-15 relative, where a running
    sum of logs drifts by about 1e-12 at m = 256.
    """
    return np.array(list(map(math.lgamma, range(1, pool_size + 2))), dtype=np.float64)


def _rank_weights(log_fact: np.ndarray, n: int, ranks: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Rows w_k(r) = C(r-1, k-1) * C(N-r, n-k) / C(N, n) for subset ranks k in ``ranks``.

    ``log_fact`` is ``_log_factorials(N)``; callers that build many tables
    over one pool build it once. In log space, so large pools cannot
    overflow, log w_k(r) splits into a term in r, a term in k and a term
    g(r-k) = -log (r-k)! - log (N-n-(r-k))!, which is -inf where r-k falls
    outside [0, N-n]. The table is therefore one gather from g, two
    broadcast adds and one exp, and impossible placements come out as
    exp(-inf) = 0 exactly. ``out``, if given, receives the rows.
    """
    pool_size = len(log_fact) - 1
    spare = pool_size - n
    # g(d) for d = r - k in [1-n, N-1], stored at index d + n - 1
    g = np.full(pool_size + n - 1, -np.inf)
    g[n - 1:pool_size] = -(log_fact[:spare + 1] + log_fact[spare::-1])
    # window n-k is g(r-k) over r = 1..N; mode="clip" never clips (every
    # index is in range) but lets take write straight into ``out``
    windows = np.lib.stride_tricks.sliding_window_view(g, pool_size)
    log_w = np.take(windows, n - ranks, axis=0, out=out, mode="clip")
    log_w += log_fact[:pool_size] + log_fact[pool_size - 1::-1]  # log (r-1)! (N-r)!
    log_w += (log_fact[n] + log_fact[spare] - log_fact[pool_size]
              - log_fact[ranks - 1] - log_fact[n - ranks])[:, None]
    return np.exp(log_w, out=log_w)


def subset_rank_weights(pool_size: int, n: int, k: int) -> np.ndarray:
    """Probability that pool rank r (1-based) is subset rank k; length pool_size."""
    if not 1 <= k <= n <= pool_size:
        raise InvalidConfig(f"need 1 <= k <= n <= N, got k={k}, n={n}, N={pool_size}")
    return _rank_weights(_log_factorials(pool_size), n, np.array([k]))[0]


def subset_rank_table(pool_size: int, n: int) -> np.ndarray:
    """(n, pool_size) array whose row k-1 is ``subset_rank_weights(pool_size, n, k)``."""
    if not 1 <= n <= pool_size:
        raise InvalidConfig(f"need 1 <= n <= N, got n={n}, N={pool_size}")
    return _rank_weights(_log_factorials(pool_size), n, np.arange(1, n + 1))
