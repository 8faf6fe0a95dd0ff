"""Reliability-at-eta estimation.

The headline quantity is the expected oracle quality of the responses a
reward model places in its top ``eta`` fraction, divided by the average
oracle quality of the whole response pool, so 1.0 is the random-selection
baseline. Per prompt and subset size ``n`` it is the expectation, over
uniform size-``n`` response subsets drawn without replacement, of the
oracle total of the model's top ``floor(eta*n)`` picks within the subset
(with a fractional-rank correction that keeps the value continuous when
``eta*n`` is not an integer), rescaled by ``N/(eta*n)`` and normalized by
the pool's total oracle score. Values are averaged over a grid of subset
sizes proportional to ``N**(2/3)``.

The expectation is computed exactly rather than sampled, so estimates
carry no Monte Carlo error and involve no randomness. Each n contributes,
per eta, one coefficient vector over pool ranks, the selection row that
``ranking._selection_weights`` builds for subset rank floor(eta*n) and
the fraction past it, in one call per n; their sums over n form one bank
that ``ranking._weighted_sums`` applies to the (prompts x N) oracle
matrix.
``eta == 1`` is set exactly. ``exhaustive_reta`` enumerates every subset
as an independent reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import BenchmarkDataset, RmScoreTable, _check_int, _check_number, _write_csv
from .errors import (
    DegenerateDenominator,
    EmptyNRange,
    InvalidConfig,
    TooManySubsets,
)
from .ranking import (
    _across_prompts,
    _eta_parts,
    _selection_weights,
    _weighted_sums,
    oracle_matrix,
)

MAX_ENUMERATED_SUBSETS = 1_000_000

# c * N**e computed in floats can land a hair off an exact integer; snap
# before ceil/floor so grid endpoints are stable (e.g. 5 * 64**(2/3) -> 80).
_GRID_SNAP_TOL = 1e-9

@dataclass(frozen=True)
class RetaConfig:
    """Estimation parameters.

    Subset sizes run over ``[ceil(lo * N**e), floor(hi * N**e)]`` with
    ``lo``, ``hi`` and ``e`` the ``n_range_*`` coefficients and
    ``n_exponent``. The estimate is exact and uses no randomness.
    """

    n_range_low_coeff: float = 3.0
    n_range_high_coeff: float = 5.0
    n_exponent: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        for name in ("n_range_low_coeff", "n_range_high_coeff", "n_exponent"):
            _check_number(getattr(self, name), name)
        if not (0 < self.n_range_low_coeff < math.inf and 0 < self.n_range_high_coeff < math.inf):
            raise InvalidConfig("n-range coefficients must be positive and finite")
        if self.n_range_low_coeff > self.n_range_high_coeff:
            raise InvalidConfig("n_range_low_coeff must not exceed n_range_high_coeff")
        if not 0.0 < self.n_exponent <= 1.0:
            raise InvalidConfig(f"n_exponent must be in (0, 1], got {self.n_exponent}")


@dataclass
class RetaEstimate:
    """Point estimate at one eta with per-prompt breakdown."""

    eta: float
    value: float
    per_prompt: dict[str, float]
    std_error: float
    n_values_used: list[int]


@dataclass
class RetaCurve:
    rm_name: str
    points: list[RetaEstimate]


def default_eta_grid() -> list[float]:
    """The paper's grid: 15 log-uniform etas from 1 down to 2**-7."""
    return [float(2.0 ** -t) for t in np.linspace(0.0, 7.0, 15)]


def _snap(x: float) -> float:
    nearest = round(x)
    if abs(x - nearest) <= _GRID_SNAP_TOL * max(1.0, abs(x)):
        return float(nearest)
    return x


def resample_sizes(num_responses: int, config: RetaConfig) -> list[int]:
    """Integer subset-size grid: ceil(c_lo*N^e) .. floor(c_hi*N^e), clipped to [1, N]."""
    _check_int(num_responses, "num_responses")
    if num_responses < 1:
        raise InvalidConfig(f"num_responses must be positive, got {num_responses}")
    scale = num_responses ** config.n_exponent
    # every end past N acts alike; capping there also keeps a product that
    # overflowed to inf out of round() and ceil()
    cap = num_responses + 1.0
    low = max(1, math.ceil(_snap(min(config.n_range_low_coeff * scale, cap))))
    high = min(num_responses, math.floor(_snap(min(config.n_range_high_coeff * scale, cap))))
    if low > high:
        raise EmptyNRange(
            f"no subset sizes in [{config.n_range_low_coeff}, {config.n_range_high_coeff}] "
            f"* N^{config.n_exponent} for N={num_responses}")
    return list(range(low, high + 1))


def _coefficients(pool: int, grid: Sequence[int], etas: Sequence[float]) -> np.ndarray:
    """(len(etas), pool) weights over pool ranks, summed over the n grid,
    whose dot product with a prompt's oracle scores in RM-rank order is
    the sum over n of the expected selection total divided by eta*n.

    With eta*n = c + delta, a subset's selection total is its top c oracle
    scores plus delta*(1-delta) times rank c and delta**2 times rank c+1;
    ``ranking._selection_weights`` turns that into weights over pool ranks,
    one row per eta for one n at a time, and each n's rows are added to
    the running sums in increasing n. eta == 1 rows stay zero, since the
    caller sets them exactly, and so does each (n, eta) with eta*n == 0,
    which selects nothing.
    """
    coefs = np.zeros((len(etas), pool))
    sums = coefs[int(etas[0] == 1.0):]
    rest = etas[len(etas) - len(sums):]
    for n in grid if rest else ():
        sums += _selection_weights(pool, n, *_eta_parts(rest, n))
    return coefs


# at most 8 banks of len(etas) * N * 8 bytes each: 30 KiB at N = 256 and
# the default 15 etas
@lru_cache(maxsize=8)
def _bank(pool: int, grid: tuple[int, ...], etas: tuple[float, ...]) -> np.ndarray:
    """``_coefficients``, built once for each (N, n grid, eta grid) and
    read-only, so every table and call that has them shares one bank."""
    bank = _coefficients(pool, grid, etas)
    bank.flags.writeable = False
    return bank


def _check_etas(etas: Sequence[float]) -> list[float]:
    """The eta grid as floats, once it is checked: non-empty, numbers (a
    bool is not one), strictly decreasing and inside (0, 1]."""
    if not etas:
        raise InvalidConfig("eta grid is empty")
    for eta in etas:
        _check_number(eta, "eta")
    etas = [float(eta) for eta in etas]
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise InvalidConfig("eta grid must be strictly decreasing")
    for eta in etas:
        if not 0.0 < eta <= 1.0:
            raise InvalidConfig(f"eta must be in (0, 1], got {eta}")
    return etas


def _values(oracle: np.ndarray, prompt_ids: Sequence[str], grid: Sequence[int],
            etas: Sequence[float], raw: bool) -> list[np.ndarray]:
    """RETA averaged over the n grid for every (eta, prompt), shape (len(etas), prompts),
    then, if ``raw``, the same without dividing by each prompt's pool mean,
    both from one coefficient bank and one product. The bank depends on
    N, the n grid and the eta grid alone, so it comes from ``_bank``: a
    K-table command or a loop of calls builds it once.

    Row i of ``oracle`` holds prompt i's oracle scores ordered by RM rank.
    At eta == 1 the expected total of a uniform n-subset is exactly n/N of
    the pool's, so that value is set exactly.
    """
    pool = oracle.shape[1]
    totals = oracle.sum(axis=1)
    degenerate = totals <= 0.0
    if degenerate.any():
        prompt_id = prompt_ids[int(np.argmax(degenerate))]
        raise DegenerateDenominator(f"prompt {prompt_id!r} has zero total oracle score")
    bodies = _weighted_sums(_bank(pool, tuple(grid), tuple(etas)), oracle)
    arrays = [pool * bodies / totals / len(grid)] + ([bodies / len(grid)] if raw else [])
    if etas[0] == 1.0:
        arrays[0][0] = 1.0
        if raw:
            arrays[1][0] = totals / pool
    return arrays


def exhaustive_reta(oracle_by_rank: Sequence[float], eta: float, n: int) -> float:
    """Reference value by direct enumeration of every n-subset of one
    prompt's pool, given its oracle scores in RM-rank order (a row of
    ``ranking.oracle_matrix``).

    Deliberately naive (plain loops, exact summation); kept independent of
    the vectorized estimator so the two can cross-check each other. Each
    score must be a finite number (a bool is not one).
    """
    scores = []
    for value in oracle_by_rank:
        _check_number(value, "oracle score")
        if not math.isfinite(value):
            raise InvalidConfig(f"oracle score {value!r}: must be finite")
        scores.append(float(value))
    total = len(scores)
    _check_int(n, "n")
    if not 1 <= n <= total:
        raise InvalidConfig(f"n={n} outside [1, {total}]")
    _check_number(eta, "eta")
    if not 0.0 < eta <= 1.0:
        raise InvalidConfig(f"eta must be in (0, 1], got {eta}")
    num_subsets = math.comb(total, n)
    if num_subsets > MAX_ENUMERATED_SUBSETS:
        raise TooManySubsets(f"C({total},{n}) = {num_subsets} exceeds {MAX_ENUMERATED_SUBSETS}")
    pool_total = math.fsum(scores)
    if pool_total <= 0.0:
        raise DegenerateDenominator("the pool has zero total oracle score")
    count, delta = _eta_parts(eta, n)
    count, delta = int(count), float(delta)
    if count == 0 and delta == 0.0:
        return 0.0
    bodies = []
    for combo in itertools.combinations(range(total), n):
        body = math.fsum(scores[combo[j]] for j in range(min(count, n)))
        if delta > 0.0:
            body += delta * delta * scores[combo[count]]
            if count >= 1:
                body += delta * (1.0 - delta) * scores[combo[count - 1]]
        bodies.append(body)
    expectation = math.fsum(bodies) / num_subsets
    return total * expectation / ((count + delta) * pool_total)


def _reta_curves(dataset: BenchmarkDataset, table: RmScoreTable,
                 eta_grid: Sequence[float] | None, config: RetaConfig,
                 raw: bool) -> list[RetaCurve]:
    """The normalized curve, then, if ``raw``, the unnormalized one, each
    point averaged over the n grid and all prompts; each n's weight rows
    are built once, in one call, for every eta and both curves."""
    # before the grid, whose errors would hide a bad eta
    etas = _check_etas(list(eta_grid) if eta_grid is not None else default_eta_grid())
    grid = resample_sizes(dataset.responses_per_prompt, config)
    prompt_ids = dataset.prompt_ids()
    arrays = _values(oracle_matrix(dataset, table), prompt_ids, grid, etas, raw)
    curves = []
    for values in arrays:
        rows = values.tolist()
        curves.append(RetaCurve(table.rm_name, [
            RetaEstimate(eta, value, dict(zip(prompt_ids, row)), std_error, list(grid))
            for eta, row, (value, std_error) in zip(etas, rows, map(_across_prompts, rows))]))
    return curves


def reta_estimate(dataset: BenchmarkDataset, table: RmScoreTable, eta: float,
                  config: RetaConfig | None = None) -> RetaEstimate:
    """Full estimate at one eta: averaged over the n grid and all prompts."""
    return _reta_curves(dataset, table, [eta], config or RetaConfig(), False)[0].points[0]


def reta_curve(dataset: BenchmarkDataset, table: RmScoreTable,
               eta_grid: Sequence[float] | None = None,
               config: RetaConfig | None = None) -> RetaCurve:
    """One estimate per eta over a strictly decreasing grid in (0, 1]."""
    return _reta_curves(dataset, table, eta_grid, config or RetaConfig(), False)[0]


def reta_curve_pair(dataset: BenchmarkDataset, table: RmScoreTable,
                    eta_grid: Sequence[float] | None = None,
                    config: RetaConfig | None = None) -> tuple[RetaCurve, RetaCurve]:
    """``reta_curve``, and the same curve without dividing by each prompt's
    pool mean (the selection's mean oracle score), from one coefficient
    bank and one product."""
    normalized, raw = _reta_curves(dataset, table, eta_grid, config or RetaConfig(), True)
    return normalized, raw


def write_curve_csv(curve: RetaCurve, path: str | Path,
                    header_comment: str | None = None) -> None:
    """Curve export: rm_name, eta, value, std_error, n_low, n_high."""
    _write_csv(path, header_comment,
               ["rm_name", "eta", "value", "std_error", "n_low", "n_high"],
               ([curve.rm_name, repr(point.eta), repr(point.value), repr(point.std_error),
                 min(point.n_values_used), max(point.n_values_used)]
                for point in curve.points))


def write_per_prompt_csv(curve: RetaCurve, dataset: BenchmarkDataset, path: str | Path,
                         header_comment: str | None = None) -> None:
    """Per-prompt export (metric vs. prompt perplexity): prompt_id, eta, value, perplexity."""
    perplexity = {p.prompt_id: "" if p.perplexity is None else repr(p.perplexity)
                  for p in dataset.prompts}
    _write_csv(path, header_comment, ["prompt_id", "eta", "value", "perplexity"],
               ([prompt_id, repr(point.eta), repr(value), perplexity.get(prompt_id, "")]
                for point in curve.points for prompt_id, value in point.per_prompt.items()))
