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
space. The top-c sum w_1 + ... + w_c comes from the row w_c alone
(``_top_sums``). ``_selection_weights`` combines the two into the rows
RETA and best-m-of-n read, on one ``_log_factorials`` table per pool.
Every RETA and best-of-n value is one entry of ``_weighted_sums`` of a
bank of such rows, and ``_across_prompts`` summarizes it over prompts.
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


def _check_int(value, name: str) -> None:
    """InvalidConfig unless ``value`` is an int or a numpy integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(f"{name} must be an int, got {value!r}")


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


def _build_ranking(dataset: BenchmarkDataset, prompt_id: str,
                   table: RmScoreTable | None) -> RankedResponses:
    """Rank one prompt's responses by ``table``'s scores, or by their oracle
    scores when ``table`` is None, with the tie rule of ``_rank_orders``;
    read from the dataset's columns."""
    try:
        row = dataset.prompt_ids().index(prompt_id)
    except ValueError:
        raise InvalidConfig(f"unknown prompt {prompt_id!r}") from None
    size = dataset.responses_per_prompt
    response_ids = dataset._pair_ids[1][row * size:(row + 1) * size]
    oracle = dataset._oracle_scores[row]
    rm = oracle if table is None else np.array(
        [table.score(prompt_id, rid) for rid in response_ids], dtype=np.float64)
    order = _rank_orders(rm[None, :])[0]
    return RankedResponses(prompt_id, order, rm[order], oracle[order],
                           tuple(response_ids[i] for i in order))


def rank_by_table(dataset: BenchmarkDataset, table: RmScoreTable,
                  prompt_id: str) -> RankedResponses:
    """Rank one prompt's responses by the given score table."""
    return _build_ranking(dataset, prompt_id, table)


def rank_by_oracle(dataset: BenchmarkDataset, prompt_id: str) -> RankedResponses:
    """Rank one prompt's responses by their oracle scores."""
    return _build_ranking(dataset, prompt_id, None)


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
    """(table scores, oracle scores), each (prompts, N) with responses in id
    order; the oracle matrix is the dataset's read-only column. A missing
    score names the smallest missing pair, as ``ingest_rm_scores`` does."""
    oracle = dataset._oracle_scores
    index = dataset._pair_index
    try:
        rm = np.fromiter(map(table.scores.__getitem__, index), np.float64, count=len(index))
    except KeyError:
        raise MissingScore(next(pair for pair in index if pair not in table.scores)) from None
    return rm.reshape(oracle.shape), oracle


def oracle_matrix(dataset: BenchmarkDataset, table: RmScoreTable) -> np.ndarray:
    """(prompts, N) oracle scores; row i is prompt i ordered by the table's ranking."""
    rm, oracle = _score_matrices(dataset, table)
    return np.take_along_axis(oracle, _rank_orders(rm), axis=1)


def _weighted_sums(bank: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """(K, prompts) dot products of the rows of a (K, N) weight bank with the
    rows of a (prompts, N) oracle matrix in RM-rank order. ``np.einsum``
    without ``optimize`` sums each entry from its two rows alone, whatever
    rows share the call; BLAS orders a row's sum by the other rows too."""
    return np.einsum("kn,pn->kp", bank, oracle)


def _across_prompts(values: list[float]) -> tuple[float, float]:
    """Mean over prompts (an exact ``math.fsum``) and its standard error,
    sample stddev / sqrt(k); the error is 0 for k == 1."""
    k = len(values)
    spread = float(np.std(values, ddof=1)) / math.sqrt(k) if k > 1 else 0.0
    return math.fsum(values) / k, spread


def _log_factorials(pool_size: int) -> np.ndarray:
    """log m! for m = 0..pool_size, exact zeros at 0! and 1!.

    ``math.lgamma`` per entry stays within 1e-15 relative, where a running
    sum of logs drifts by about 1e-12 at m = 256.
    """
    return np.array(list(map(math.lgamma, range(1, pool_size + 2))), dtype=np.float64)


def _rank_weights(log_fact: np.ndarray, n: int, ranks: np.ndarray) -> np.ndarray:
    """Rows w_k(r) = C(r-1, k-1) * C(N-r, n-k) / C(N, n) for subset ranks k in ``ranks``.

    ``log_fact`` is ``_log_factorials(N)``; callers that build many tables
    over one pool build it once. In log space, so large pools cannot
    overflow, log w_k(r) splits into a term in r, a term in k and a term
    g(r-k) = -log (r-k)! - log (N-n-(r-k))!, which is -inf where r-k falls
    outside [0, N-n]. The table is therefore one gather from g, two
    broadcast adds and one exp, and impossible placements come out as
    exp(-inf) = 0 exactly. Each row comes from the same elementwise steps
    whatever the other ranks are.
    """
    pool_size = len(log_fact) - 1
    spare = pool_size - n
    # g(d) for d = r - k in [1-n, N-1], stored at index d + n - 1
    g = np.full(pool_size + n - 1, -np.inf)
    g[n - 1:pool_size] = -(log_fact[:spare + 1] + log_fact[spare::-1])
    # window n-k is g(r-k) over r = 1..N, a strided view of g (built
    # directly: sliding_window_view costs more than the rest of a small table)
    windows = np.ndarray((n, pool_size), buffer=g, strides=(g.itemsize, g.itemsize))
    log_w = windows[n - ranks]
    log_w += log_fact[:pool_size] + log_fact[pool_size - 1::-1]  # log (r-1)! (N-r)!
    log_w += (log_fact[n] + log_fact[spare] - log_fact[pool_size]
              - log_fact[ranks - 1] - log_fact[n - ranks])[:, None]
    return np.exp(log_w, out=log_w)


def _selection_weights(log_fact: np.ndarray, n: int, counts: np.ndarray,
                       deltas: np.ndarray) -> np.ndarray:
    """Pool-rank weights of a uniform n-subset's top c members plus
    delta*(1-delta) of its rank c and delta**2 of its rank c+1, over
    c + delta: rows (top_c + delta*(1-delta)*w_c + delta**2*w_{c+1}) / (c + delta)
    for the entries of ``counts`` and ``deltas``, with w_0 = top_0 = 0.
    Needs c + delta > 0, and c < n where delta > 0. Each row comes from the
    same elementwise steps whatever the other rows are.
    """
    # rows w_c, then w_{c+1}; w_1 stands in for w_0 and is zeroed, and w_n
    # for w_{n+1}, whose weight delta**2 is then zero
    ranks = np.concatenate((np.maximum(counts, 1), np.minimum(counts + 1, n)))
    weights = _rank_weights(log_fact, n, ranks)
    top, below = weights[:len(counts)], weights[len(counts):]
    top[counts == 0] = 0.0
    deltas = deltas[:, None]
    rows = _top_sums(top, n, counts)
    rows += deltas * (1.0 - deltas) * top
    rows += deltas * deltas * below
    rows /= counts[:, None] + deltas
    return rows


def _top_sums(rows: np.ndarray, n: int, counts: np.ndarray) -> np.ndarray:
    """Top-c sums top_c(r) = w_1(r) + ... + w_c(r), one for each row w_c of
    ``rows`` (from ``_rank_weights``) with c the matching entry of ``counts``;
    a row of zeros stands for w_0, whose top sum is zero.

    top_c(r) is the chance that pool rank r is in a uniform n-subset with
    at most c - 1 members above it. One rank down it loses the subsets
    holding r, r + 1 and exactly c - 1 members above r, so
    top_c(r) - top_c(r + 1) = w_c(r) * (n - c) / (N - r): top_c is a
    reverse cumulative sum of that row over ranks, and every term is
    non-negative, so nothing cancels. Past rank N - n + c the row, and so
    the sum, is exactly zero. At c = n every rank reads exactly n/N.
    """
    pool_size = rows.shape[1]
    # the step out of rank r for r = 1..N-1; from rank N there is none,
    # since w_c(N) = 0 for every c < n
    steps = np.divide.outer(n - counts, np.arange(pool_size - 1, 0, -1.0))
    steps *= rows[:, :-1]
    sums = np.zeros(rows.shape)
    np.cumsum(steps[:, ::-1], axis=1, out=sums[:, -2::-1])
    sums[counts == n] = n / pool_size
    return sums


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
