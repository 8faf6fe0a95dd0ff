"""Deterministic response rankings, and the subset-rank weights that turn
expectations over response subsets into dot products with them, shared by
all estimators and metrics.

Responses are ordered by reward-model score descending; exact score ties
are broken by ascending response id so that every ranking is a stable,
reproducible permutation.

The subset-rank weight w_k(r), the probability that pool rank r lands at
rank k of a uniform n-subset, is the product of a factor in r, a factor
in (n, k) and a factor in (n, r - k). A table of any rows (n, k), with
its own n on each row, is therefore two row gathers from small tables
plus two adds and one exp in log space (``_rank_weights``). The top-c
sum w_1 + ... + w_c comes from the row w_c alone (``_top_sums``).
``_selection_weights`` combines the two into the rows RETA and
best-m-of-n read, for any mix of (n, c, delta) in one call, from
tables built once per pool size (``_pool_tables``). It works each row out only where it
varies, the N - n + 2 ranks from max(c, 1) on, and places the exact
zeros and the constant top sum above that window into the full row at
the end; every entry keeps the bits a full-width row of its own would
have. Every RETA and best-of-n value is one entry of ``_weighted_sums``
of a bank of such rows, and ``_across_prompts`` summarizes it over
prompts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dataset import BenchmarkDataset, RmScoreTable, _rank_orders
from .errors import MissingScore

# eta*n computed in floats can land a few ulp away from an exact integer
# (e.g. (1/3)*3 == 0.999...); snap within this tolerance before flooring.
_INTEGER_SNAP_TOL = 1e-9


def eta_parts(eta: float, n: int) -> tuple[int, float]:
    """Split eta*n into (floor, fractional part), snapping float noise."""
    floor, fraction = _eta_parts(eta, n)
    return int(floor), float(fraction)


def _eta_parts(etas, ns) -> tuple[np.ndarray, np.ndarray]:
    """``eta_parts`` of every entry of ``etas`` and ``ns`` broadcast against
    each other: (integer floors, fractional parts)."""
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


def _log_factorials(pool_size: int) -> np.ndarray:
    """log m! for m = 0..pool_size, exact zeros at 0! and 1!.

    ``math.lgamma`` per entry stays within 1e-15 relative, where a running
    sum of logs drifts by about 1e-12 at m = 256.
    """
    return np.array(list(map(math.lgamma, range(1, pool_size + 2))), dtype=np.float64)


class _PoolTables(NamedTuple):
    """Read-only vectors of one pool of N that every weight table reads,
    each padded so that any window a kernel reads stays inside it."""

    log_fact: np.ndarray  # log m! for m = 0..N
    low: np.ndarray  # log d! at index d + N, +inf for d < 0 or d > N
    high: np.ndarray  # log (N - j)! at index j, +inf for j > N
    ends: np.ndarray  # log (r-1)! + log (N-r)! at index r - 1, 0 past rank N
    spans: np.ndarray  # N - r at index r - 1, 1 from rank N on


@lru_cache(maxsize=4)
def _pool_tables(pool: int) -> _PoolTables:
    """The ``_PoolTables`` of a pool of ``pool``, built once per pool size."""
    log_fact = _log_factorials(pool)
    inf = np.full(2 * pool + 2, np.inf)
    tables = _PoolTables(
        log_fact,
        np.concatenate((inf[:pool], log_fact, inf)),
        np.concatenate((log_fact[::-1], inf)),
        np.concatenate((log_fact[:pool] + log_fact[pool - 1::-1], np.zeros(pool + 2))),
        np.concatenate((np.arange(pool - 1, 0, -1.0), np.ones(pool + 2))))
    for vector in tables:
        vector.setflags(write=False)
    return tables


def _windows(values: np.ndarray, width: int) -> np.ndarray:
    """(len(values) - width + 1, width) view whose row j is values[j:j + width]
    (built directly: sliding_window_view costs more than a small table)."""
    return np.ndarray((len(values) - width + 1, width), buffer=values,
                      strides=(values.itemsize, values.itemsize))


def _rank_weights(pool: int, ns, ranks, starts=1, width: int | None = None) -> np.ndarray:
    """Rows w_k(r) = C(r-1, k-1) * C(N-r, n-k) / C(N, n), one for each subset
    rank k in ``ranks`` of a uniform n-subset of a pool of N = ``pool``,
    with n the matching entry of ``ns``, over the ``width`` pool ranks r
    from the matching entry of ``starts`` on (by default every rank).
    ``ns``, ``ranks`` and ``starts`` broadcast to one 1-D shape, and need
    1 <= k <= n <= N and a window that ends by rank 2N.

    In log space, so large pools cannot overflow, log w_k(r) splits into a
    term in r, a term in (n, k) and a term g(r-k) = -log (r-k)! -
    log (N-n-(r-k))!, which is -inf where r-k falls outside [0, N-n] (and
    so past rank N). g is built once for each distinct n, the term in r
    once for the pool (``_pool_tables``), and each row reads a window of
    both at its own offset, so the table is two row gathers, two adds and
    one exp, and impossible placements come out as exp(-inf) = 0 exactly.
    Each entry comes from the same elementwise steps whatever the other
    rows, the window or its width are.
    """
    tables = _pool_tables(pool)
    log_fact = tables.log_fact
    width = pool if width is None else width
    offsets = np.subtract(starts, ranks)  # r - k at each row's first rank
    low = int(offsets.min())
    sizes, which = np.unique(ns, return_inverse=True)
    # g(d) for d from ``low`` on, one row for each distinct n
    d = np.arange(low, int(offsets.max()) + width)
    g = tables.low[d + pool] + tables.high[sizes[:, None] + d]
    np.negative(g, out=g)
    log_w = _windows(g.reshape(-1), width)[which * g.shape[1] + offsets - low]
    log_w += _windows(tables.ends, width)[np.subtract(starts, 1)]
    log_w += (log_fact[ns] + log_fact[np.subtract(pool, ns)] - log_fact[pool]
              - log_fact[np.subtract(ranks, 1)] - log_fact[np.subtract(ns, ranks)])[:, None]
    return np.exp(log_w, out=log_w)


def _selection_weights(pool: int, ns, counts, deltas) -> np.ndarray:
    """Pool-rank weights of a uniform n-subset's top c members plus
    delta*(1-delta) of its rank c and delta**2 of its rank c+1, over
    c + delta: rows (top_c + delta*(1-delta)*w_c + delta**2*w_{c+1}) / (c + delta)
    for the entries of ``ns``, ``counts`` and ``deltas``, which broadcast
    to one 1-D shape, in a pool of N = ``pool``, with w_0 = top_0 = 0.
    Needs c < n where delta > 0;
    a row with c + delta = 0 selects nothing and is zero.

    One call builds the rows of any mix of n. Each row is worked out only
    on the ranks k .. k + N - n + 1 with k = max(c, 1), which hold the
    support of w_c and w_{c+1}; every rank above k reads the top sum at k,
    and every rank past the window reads exactly zero. Each entry comes
    from the same elementwise steps whatever the other rows are.
    """
    ns, counts, deltas = np.broadcast_arrays(ns, counts, deltas)
    firsts = np.maximum(counts, 1)
    # rows w_c, then w_{c+1}; w_1 stands in for w_0 and is zeroed, and w_n
    # for w_{n+1}, whose weight delta**2 is then zero
    weights = _rank_weights(pool, np.concatenate((ns, ns)),
                            np.concatenate((firsts, np.minimum(counts + 1, ns))),
                            np.concatenate((firsts, firsts)), pool - int(ns.min()) + 2)
    top, below = weights[:len(counts)], weights[len(counts):]
    top[counts == 0] = 0.0
    rows = _top_sums(top, pool, ns, counts, firsts)
    scale = counts + deltas
    scale[scale == 0.0] = np.inf  # c + delta = 0 selects nothing: each weight is 0 / inf
    # above its window a row's w_c and w_{c+1} are zero: x + 0.0 = x
    above = rows[:, 0] / scale
    top *= (deltas * (1.0 - deltas))[:, None]
    rows += top
    below *= (deltas * deltas)[:, None]
    rows += below
    rows /= scale[:, None]
    return _place(above, rows, firsts, pool)


def _top_sums(rows: np.ndarray, pool: int, ns: np.ndarray, counts: np.ndarray,
              starts: np.ndarray) -> np.ndarray:
    """Top-c sums top_c(r) = w_1(r) + ... + w_c(r), one for each row w_c of
    ``rows`` (from ``_rank_weights``) with n, c and its first rank the
    matching entries of ``ns``, ``counts`` and ``starts``; a row of zeros
    stands for w_0, whose top sum is zero. Each row must hold all of w_c's
    support, the ranks c .. N - n + c, and the sum is read there alone.

    top_c(r) is the chance that pool rank r is in a uniform n-subset with
    at most c - 1 members above it. One rank down it loses the subsets
    holding r, r + 1 and exactly c - 1 members above r, so
    top_c(r) - top_c(r + 1) = w_c(r) * (n - c) / (N - r): top_c is a
    reverse cumulative sum of that row over ranks, and every term is
    non-negative, so nothing cancels. Past rank N - n + c the row, and so
    the sum, is exactly zero; above rank c it stays at its value at c. At
    c = n every rank reads exactly n/N.
    """
    # N - r for the step out of rank r; from rank N on there is none (w_c is
    # zero there for every c < n), so any finite span does
    steps = _windows(_pool_tables(pool).spans, rows.shape[1])[starts - 1]
    np.divide((ns - counts)[:, None], steps, out=steps)
    steps *= rows
    sums = np.empty(rows.shape)
    np.cumsum(steps[:, ::-1], axis=1, out=sums[:, ::-1])
    full = counts == ns
    if full.any():
        sums[full] = (ns[full] / pool)[:, None]
    return sums


def _place(above: np.ndarray, rows: np.ndarray, starts: np.ndarray, pool: int) -> np.ndarray:
    """(len(rows), pool) rows over every pool rank: row i reads ``above[i]``
    at the ranks before ``starts[i]``, then ``rows[i]`` (whose columns past
    rank N are dropped), then zero."""
    count, width = rows.shape
    # each row laid out after enough copies of its ``above`` and before
    # enough zeros that every start reads a whole pool from it
    lead, tail = int(starts.max()) - 1, max(0, pool + 1 - int(starts.min()) - width)
    lines = np.empty((count, lead + width + tail))
    lines[:, :lead] = above[:, None]
    lines[:, lead:lead + width] = rows
    lines[:, lead + width:] = 0.0
    return _windows(lines.reshape(-1), pool)[
        np.arange(lead + 1, lines.size, lines.shape[1]) - starts]

