"""Deterministic response rankings, and the subset-rank weights that turn
expectations over response subsets into dot products with them, shared by
all estimators and metrics.

Responses are ordered by reward-model score descending; exact score ties
are broken by ascending response id so that every ranking is a stable,
reproducible permutation.

The subset-rank weight w_k(r), the probability that pool rank r lands at
rank k of a uniform n-subset, is the product of a factor in r, a factor
in (n, k) and a factor in (n, r - k). A table of rows k for one n is
therefore one row gather plus two adds and one exp in log space
(``_rank_weights``). The top-c sum w_1 + ... + w_c comes from the row w_c
alone (``_top_sums``). ``_selection_weights`` combines the two into the
rows RETA and best-m-of-n read, for any (c, delta) at one n, each row
over every pool rank. Every RETA and best-of-n value is one entry of
``_weighted_sums`` of a bank of such rows, and ``_across_prompts``
summarizes it over prompts. A bank depends on N and the grids alone,
never on the scores, so ``reta._bank`` and ``bon._bank`` each keep the
last 8 they built, read-only, and every table and call with the same
key reads one of them, as every row of one N reads one
``_log_factorials`` table.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .dataset import BenchmarkDataset, RmScoreTable, _rank_orders
from .errors import MissingScore

# eta*n computed in floats can land a few ulp away from an exact integer
# (e.g. (1/3)*3 == 0.999...); snap within this tolerance before flooring.
_INTEGER_SNAP_TOL = 1e-9


def _eta_parts(etas, ns) -> tuple[np.ndarray, np.ndarray]:
    """eta*n split into (integer floor, fractional part), snapping float
    noise, for every entry of ``etas`` and ``ns`` broadcast against each
    other."""
    x = np.multiply(etas, ns, dtype=np.float64)
    nearest = np.rint(x)
    x = np.where(np.abs(x - nearest) <= _INTEGER_SNAP_TOL, nearest, x)
    floor = np.floor(x)
    return floor.astype(np.int64), x - floor


def _score_matrices(dataset: BenchmarkDataset,
                    table: RmScoreTable) -> tuple[np.ndarray, np.ndarray]:
    """(table scores, oracle scores), each (prompts, N) with responses in id
    order; the oracle matrix is the dataset's read-only column. Every table
    keeps its pairs sorted in the dataset's id order, so one holding
    exactly the dataset's pairs, read or built from a dict, is a view of
    its score column; a partial table or one over other pairs is gathered
    through its ``scores`` dict, and a missing score names the smallest
    missing pair, as ``ingest_rm_scores`` does."""
    oracle = dataset._oracle_scores
    if table._pair_ids == dataset._pair_ids:
        return table._values.reshape(oracle.shape), oracle
    pairs = list(dataset.iter_pairs())
    scores = table.scores
    try:
        rm = np.fromiter(map(scores.__getitem__, pairs), np.float64, count=len(pairs))
    except KeyError:
        raise MissingScore(next(pair for pair in pairs if pair not in scores)) from None
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


@lru_cache(maxsize=4)
def _log_factorials(pool_size: int) -> np.ndarray:
    """log m! for m = 0..pool_size, exact zeros at 0! and 1!, built once per
    pool size and read-only, as every later weight row of that size reads it.

    ``math.lgamma`` per entry stays within 1e-15 relative, where a running
    sum of logs drifts by about 1e-12 at m = 256.
    """
    log_fact = np.array(list(map(math.lgamma, range(1, pool_size + 2))), dtype=np.float64)
    log_fact.flags.writeable = False
    return log_fact


def _windows(values: np.ndarray, width: int) -> np.ndarray:
    """(len(values) - width + 1, width) view whose row j is values[j:j + width]
    (built directly: sliding_window_view costs more than a small table)."""
    return np.ndarray((len(values) - width + 1, width), buffer=values,
                      strides=(values.itemsize, values.itemsize))


def _rank_weights(pool: int, n: int, ranks) -> np.ndarray:
    """Rows w_k(r) = C(r-1, k-1) * C(N-r, n-k) / C(N, n) over the pool ranks
    r = 1..N, one for each subset rank k of the 1-D ``ranks`` of a uniform
    n-subset of a pool of N = ``pool``; needs 1 <= k <= n <= N.

    In log space, so large pools cannot overflow, log w_k(r) splits into a
    term in r, a term in (n, k) and a term g(r-k) = -log (r-k)! -
    log (N-n-(r-k))!, which is -inf where r-k falls outside [0, N-n].
    Row k reads g at its own offset, so the table is one row gather, two
    adds and one exp, and impossible placements come out as exp(-inf) = 0
    exactly. Each entry comes from the same elementwise steps whatever
    the other rows are.
    """
    log_fact = _log_factorials(pool)
    ranks = np.asarray(ranks)
    spare = pool - n
    # g(d) at index d + n - 1, for d from 1 - n to N - 1
    g = np.full(pool + n - 1, -np.inf)
    np.negative(log_fact[:spare + 1] + log_fact[spare::-1], out=g[n - 1:pool])
    log_w = _windows(g, pool)[n - ranks]
    log_w += log_fact[:pool] + log_fact[pool - 1::-1]  # log (r-1)! + log (N-r)!
    log_w += (log_fact[n] + log_fact[spare] - log_fact[pool]
              - log_fact[ranks - 1] - log_fact[n - ranks])[:, None]
    return np.exp(log_w, out=log_w)


def _selection_weights(pool: int, n: int, counts, deltas) -> np.ndarray:
    """Pool-rank weights of a uniform n-subset's top c members plus
    delta*(1-delta) of its rank c and delta**2 of its rank c+1, over
    c + delta: rows (top_c + delta*(1-delta)*w_c + delta**2*w_{c+1}) / (c + delta)
    over every rank of a pool of N = ``pool``, one for each entry of the
    1-D ``counts`` and ``deltas``, which broadcast against each other,
    with w_0 = top_0 = 0. Needs c < n where delta > 0; a row with
    c + delta = 0 selects nothing and is zero. Each entry comes from the
    same elementwise steps whatever the other rows are.
    """
    counts, deltas = np.broadcast_arrays(counts, deltas)
    # rows w_c, then w_{c+1}; w_1 stands in for w_0 and is zeroed, and w_n
    # for w_{n+1}, whose weight delta**2 is then zero
    weights = _rank_weights(pool, n, np.concatenate((np.maximum(counts, 1),
                                                     np.minimum(counts + 1, n))))
    top, below = weights[:len(counts)], weights[len(counts):]
    top[counts == 0] = 0.0
    rows = _top_sums(top, n, counts)
    scale = counts + deltas
    scale[scale == 0.0] = np.inf  # c + delta = 0 selects nothing: each weight is 0 / inf
    rows += (deltas * (1.0 - deltas))[:, None] * top
    rows += (deltas * deltas)[:, None] * below
    rows /= scale[:, None]
    return rows


def _top_sums(rows: np.ndarray, n: int, counts: np.ndarray) -> np.ndarray:
    """Top-c sums top_c(r) = w_1(r) + ... + w_c(r) over every pool rank, one
    for each row w_c of ``rows`` (from ``_rank_weights``) with c the
    matching entry of ``counts``; a row of zeros stands for w_0, whose top
    sum is zero.

    top_c(r) is the chance that pool rank r is in a uniform n-subset with
    at most c - 1 members above it. One rank down it loses the subsets
    holding r, r + 1 and exactly c - 1 members above r, so
    top_c(r) - top_c(r + 1) = w_c(r) * (n - c) / (N - r): top_c is a
    reverse cumulative sum of that row over ranks, and every term is
    non-negative, so nothing cancels. Past rank N - n + c the row, and so
    the sum, is exactly zero; above rank c it stays at its value at c. At
    c = n every rank reads exactly n/N.
    """
    pool = rows.shape[1]
    # N - r for the step out of rank r < N; w_c(N) is zero for every c < n,
    # so rank N reads zero
    steps = np.divide.outer(n - counts, np.arange(pool - 1, 0, -1.0))
    steps *= rows[:, :-1]
    sums = np.zeros(rows.shape)
    np.cumsum(steps[:, ::-1], axis=1, out=sums[:, -2::-1])
    sums[counts == n] = n / pool
    return sums
