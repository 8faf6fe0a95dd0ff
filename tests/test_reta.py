"""Reliability estimator: exactness, identities, invariances, determinism."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from retabench import (
    BenchmarkDataset,
    PromptRecord,
    RetaConfig,
    analytic_reta,
    exhaustive_reta,
    load_benchmark,
    metric_report,
    oracle_score_table,
    resample_sizes,
    reta_curve,
    reta_curve_pair,
    reta_estimate,
    write_curve_csv,
    write_per_prompt_csv,
    DistSpec,
    gen_synthetic,
)
from retabench.cli import main
from retabench.dataset import write_benchmark, write_rm_scores
from retabench import reta as reta_module
from retabench.ranking import _eta_parts, oracle_matrix
from retabench.reta import _coefficients, default_eta_grid
from retabench.errors import (
    DegenerateDenominator,
    EmptyNRange,
    InvalidConfig,
    TooManySubsets,
)

from conftest import build_dataset, build_table, one_prompt, random_prompt, reta_at


def enumeration_oracle(oracle_by_rank, eta, n):
    """Independent reference: average the selection total over all n-subsets.

    Handles only integer eta*n (no fractional-rank terms); used to pin the
    plain top-count path.
    """
    total_pool = len(oracle_by_rank)
    count = round(eta * n)
    assert abs(eta * n - count) < 1e-9
    pool_total = math.fsum(oracle_by_rank)
    bodies = [
        math.fsum(oracle_by_rank[i] for i in combo[:count])
        for combo in itertools.combinations(range(total_pool), n)
    ]
    expectation = math.fsum(bodies) / len(bodies)
    return total_pool * expectation / (count * pool_total)


def test_exhaustive_matches_hand_example():
    # N=4, oracle [4,3,2,1], RM agrees, eta=1/2, n=2: all six pairs select
    # their better member -> (4/1) * ((4+4+4+3+3+2)/6) / 10 = 4/3
    expected = enumeration_oracle([4.0, 3.0, 2.0, 1.0], 0.5, 2)
    assert expected == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert exhaustive_reta([4.0, 3.0, 2.0, 1.0], 0.5, 2) == pytest.approx(4.0 / 3.0, abs=1e-12)
    value = reta_at(*one_prompt([4.0, 3.0, 2.0, 1.0]), 0.5, 2)
    assert value == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_exhaustive_single_subset_case():
    # n = N: one subset; selection is the top floor(eta*n) of the pool
    value = exhaustive_reta([5.0, 2.0, 1.0], 1.0 / 3.0, 3)
    assert value == pytest.approx(3.0 * 5.0 / (1.0 * 8.0), abs=1e-12)
    assert exhaustive_reta([5.0, 2.0, 1.0], 1.0, 3) == pytest.approx(1.0, abs=1e-12)


def test_eta_one_identity_is_exact():
    rng = np.random.default_rng(0)
    for size in (4, 16, 33):
        pool = random_prompt(rng, size)
        for n in (1, size // 2 + 1, size):
            assert reta_at(*pool, 1.0, n) == 1.0
        raw = reta_at(*pool, 1.0, 2, normalize=False)
        assert raw == float(np.sum(oracle_matrix(*pool))) / size


def test_eta_one_estimate_zero_spread():
    dataset = build_dataset({"p1": [1.0, 5.0, 2.0], "p2": [3.0, 4.0, 9.0]})
    table = build_table({"p1": [0.1, 0.2, 0.3], "p2": [0.3, 0.1, 0.2]})
    config = RetaConfig(n_range_low_coeff=0.5, n_range_high_coeff=1.0, n_exponent=1.0)
    estimate = reta_estimate(dataset, table, 1.0, config)
    assert estimate.value == 1.0
    assert estimate.std_error == 0.0
    assert all(v == 1.0 for v in estimate.per_prompt.values())


def test_enumeration_mode_matches_exhaustive_small():
    # n runs up to N, and eta = 0.1 keeps floor(eta*n) = 0 for every n here
    rng = np.random.default_rng(7)
    for size in (4, 6):
        pool = random_prompt(rng, size)
        [by_rank] = oracle_matrix(*pool)
        for n in range(1, size + 1):
            for eta in (0.1, 0.25, 1.0 / 3.0, 0.7, 1.0):
                fast = reta_at(*pool, eta, n)
                slow = exhaustive_reta(by_rank, eta, n)
                assert fast == pytest.approx(slow, abs=1e-12), (size, n, eta)


def test_integer_path_equals_plain_top_count():
    # when eta*n is an integer the fractional terms vanish identically
    rng = np.random.default_rng(21)
    for size, n, eta in [(6, 4, 0.5), (6, 3, 1.0 / 3.0), (8, 5, 0.2), (8, 5, 0.4)]:
        [by_rank] = oracle_matrix(*random_prompt(rng, size))
        expected = enumeration_oracle(by_rank.tolist(), eta, n)
        assert exhaustive_reta(by_rank, eta, n) == expected


def test_fractional_path_enumeration():
    # eta*n = 1.5 over N=3, n=2: selection is rank 1 plus half-weighted blend
    scores = [3.0, 2.0, 1.0]
    delta = 0.5
    bodies = []
    for combo in itertools.combinations(range(3), 2):
        top = scores[combo[0]]
        bodies.append(top + delta * (delta * scores[combo[1]] + (1 - delta) * top))
    expected = 3.0 * (math.fsum(bodies) / 3.0) / (1.5 * 6.0)
    assert exhaustive_reta(scores, 0.75, 2) == pytest.approx(expected, abs=1e-15)


def test_eta_n_that_snaps_to_zero_selects_nothing():
    # eta*n within float noise of 0 takes no response, at every subset size,
    # in the reference and in the estimator alike
    assert exhaustive_reta([4.0, 2.0, 1.0, 3.0], 1e-12, 1) == 0.0
    assert exhaustive_reta([4.0, 2.0, 1.0, 3.0], 1e-12, 4) == 0.0
    dataset, table = one_prompt([4.0, 2.0, 1.0, 3.0])
    config = RetaConfig(n_range_low_coeff=0.25, n_range_high_coeff=0.25, n_exponent=1.0)
    assert resample_sizes(4, config) == [1]
    assert [point.value for point in reta_curve(dataset, table, [1.0, 1e-12], config).points] \
        == [1.0, 0.0]


def test_floor_zero_uses_residual_only():
    # eta*n < 1: only the top response contributes, weighted by delta^2
    scores = [4.0, 2.0]
    eta, n = 0.25, 2
    delta = 0.5
    body = delta * delta * 4.0  # single subset (n = N), best response
    expected = 2.0 * body / (0.5 * 6.0)
    assert exhaustive_reta(scores, eta, n) == pytest.approx(expected, abs=1e-15)


def test_smoothing_continuity_across_integer_boundary():
    rng = np.random.default_rng(3)
    [by_rank] = oracle_matrix(*random_prompt(rng, 6))
    n = 4
    total = float(np.sum(by_rank))
    max_score = float(np.max(by_rank))
    step = 0.002
    etas = np.arange(0.40, 0.60, step)  # eta*n sweeps 1.6 -> 2.4 across 2
    values = [exhaustive_reta(by_rank, float(e), n) for e in etas]
    bound = 4.0 * max_score * len(by_rank) * (step * n) / (0.4 * n * total)
    for a, b in zip(values, values[1:]):
        assert abs(b - a) <= bound


def test_resample_size_grid():
    assert resample_sizes(256, RetaConfig()) == list(range(121, 202))
    assert resample_sizes(64, RetaConfig()) == list(range(48, 65))
    with pytest.raises(EmptyNRange):
        resample_sizes(4, RetaConfig())


def test_resample_sizes_clip_overflowed_ends():
    # c * N**e overflows to inf: a high end clips to N, a low end leaves none
    assert resample_sizes(256, RetaConfig(n_range_high_coeff=1e308)) == list(range(121, 257))
    with pytest.raises(EmptyNRange):
        resample_sizes(256, RetaConfig(n_range_low_coeff=1e308, n_range_high_coeff=1e308))


def test_config_rejects_crossed_coefficients_and_an_exponent_above_1():
    with pytest.raises(InvalidConfig) as raised:
        RetaConfig(n_range_low_coeff=5.0, n_range_high_coeff=3.0)
    assert str(raised.value) == "n_range_low_coeff must not exceed n_range_high_coeff"
    with pytest.raises(InvalidConfig) as raised:
        RetaConfig(n_exponent=1.5)
    assert str(raised.value) == "n_exponent must be in (0, 1], got 1.5"


def test_point_estimate_deepest_ranks_match_exhaustive():
    # eta just below 1 reads the table's last rank; 1 - 1e-12 snaps eta*n to n
    rng = np.random.default_rng(31)
    pool = random_prompt(rng, 7)
    [by_rank] = oracle_matrix(*pool)
    for n in range(1, 8):
        for eta in (0.999, 1.0 - 1e-12):
            fast = reta_at(*pool, eta, n)
            assert fast == pytest.approx(exhaustive_reta(by_rank, eta, n), abs=1e-12), (n, eta)


def test_monotone_transform_bit_identical():
    spec = DistSpec.noisy_gaussian(0.6, 7.0)
    dataset, table = gen_synthetic(spec, 6, 24, seed=11)
    config = RetaConfig(n_range_low_coeff=0.5, n_range_high_coeff=1.0,
                        n_exponent=1.0)
    base = reta_estimate(dataset, table, 0.3, config)
    for transform in (lambda y: 2.0 * y + 7.0, np.exp, np.arctan):
        mapped = build_table({
            pid: [float(transform(table.scores[(pid, r.response_id)]))
                  for r in dataset.responses[pid]]
            for pid in dataset.prompt_ids()
        })
        moved = reta_estimate(dataset, mapped, 0.3, config)
        assert moved.value == base.value
        assert moved.std_error == base.std_error
        assert moved.per_prompt == base.per_prompt


def test_normalizer_scale_invariance():
    dataset = build_dataset({"p1": [1.0, 5.0, 2.0, 8.0], "p2": [3.0, 4.0, 9.0, 0.5]})
    table = build_table({"p1": [0.4, 0.1, 0.3, 0.2], "p2": [0.1, 0.4, 0.2, 0.3]})
    config = RetaConfig(n_range_low_coeff=0.5, n_range_high_coeff=1.0,
                        n_exponent=1.0)
    base = reta_estimate(dataset, table, 0.5, config)
    for c in (0.5, 3.0):
        scaled = build_dataset({
            "p1": [c * v for v in [1.0, 5.0, 2.0, 8.0]],
            "p2": [3.0, 4.0, 9.0, 0.5],
        })
        moved = reta_estimate(scaled, table, 0.5, config)
        assert moved.per_prompt["p1"] == pytest.approx(base.per_prompt["p1"], abs=1e-12)
        assert moved.per_prompt["p2"] == base.per_prompt["p2"]


def test_curve_pair_is_the_normalized_and_the_unnormalized_curve():
    dataset, table = gen_synthetic(DistSpec.noisy_gaussian(0.5, 7.0), 3, 64, seed=4)
    normalized, _ = reta_curve_pair(dataset, table)
    assert normalized == reta_curve(dataset, table)
    # at a single subset size the unnormalized value is the enumerated
    # normalized one times the pool mean
    rng = np.random.default_rng(4)
    for size in (4, 6):
        pool = random_prompt(rng, size)
        [by_rank] = oracle_matrix(*pool).tolist()
        for n in range(1, size + 1):
            for eta in (0.1, 0.25, 1.0 / 3.0, 0.7, 1.0):
                expected = exhaustive_reta(by_rank, eta, n) * (math.fsum(by_rank) / size)
                assert reta_at(*pool, eta, n, normalize=False) == pytest.approx(
                    expected, rel=1e-12, abs=1e-15), (size, n, eta)


def test_oracle_dominance_per_prompt():
    spec = DistSpec.noisy_gaussian(0.7, 7.0)
    dataset, rm_table = gen_synthetic(spec, 8, 32, seed=23)
    oracle = oracle_score_table(dataset)
    config = RetaConfig()
    for eta in (0.5, 0.25):
        top = reta_estimate(dataset, oracle, eta, config)
        tested = reta_estimate(dataset, rm_table, eta, config)
        for pid in dataset.prompt_ids():
            assert top.per_prompt[pid] >= tested.per_prompt[pid]


def test_seed_determinism_and_threads():
    spec = DistSpec.independent(1.0, 9.0)
    dataset, table = gen_synthetic(spec, 6, 32, seed=4)
    config = RetaConfig()
    one = reta_estimate(dataset, table, 0.25, config)
    again = reta_estimate(dataset, table, 0.25, config)
    assert one.value == again.value
    assert one.per_prompt == again.per_prompt


def test_seed_does_not_change_estimate(tmp_path):
    # reta takes --seed as every command does, but the exact estimate draws
    # nothing: any seed, -1 included, gives the same rows
    spec = DistSpec.noisy_gaussian(0.5, 7.0)
    dataset, table = gen_synthetic(spec, 5, 32, seed=8)
    write_benchmark(dataset, tmp_path / "data")
    write_rm_scores(table, tmp_path / "data" / "rm_scores.jsonl")
    rows = []
    for seed in ("1", "2", "-1"):
        out = tmp_path / f"out{seed}"
        assert main(["reta", "--dataset", str(tmp_path / "data"), "--rm-scores",
                     str(tmp_path / "data" / "rm_scores.jsonl"), "--eta", "0.3",
                     "--max-oracle-score", "20", "--seed", seed, "--output-dir", str(out)]) == 0
        rows.append([line for name in ("reta_synthetic-rm.csv", "reta_synthetic-rm_per_prompt.csv")
                     for line in (out / name).read_text().splitlines()
                     if not line.startswith("#")])
    assert rows[0] == rows[1] == rows[2]


def test_curve_points_equal_single_estimates():
    spec = DistSpec.noisy_gaussian(0.6, 7.0)
    dataset, table = gen_synthetic(spec, 6, 64, seed=12)
    config = RetaConfig()
    curve = reta_curve(dataset, table, None, config)
    for point in curve.points:
        single = reta_estimate(dataset, table, point.eta, config)
        assert point.value == single.value, point.eta
        assert point.std_error == single.std_error, point.eta
        assert point.per_prompt == single.per_prompt, point.eta


def test_raw_curve_points_equal_single_estimates():
    spec = DistSpec.noisy_gaussian(0.6, 7.0)
    dataset, table = gen_synthetic(spec, 6, 64, seed=12)
    config = RetaConfig()
    curve = reta_curve_pair(dataset, table, None, config)[1]
    for point in curve.points:
        [single] = reta_curve_pair(dataset, table, [point.eta], config)[1].points
        assert point.value == single.value, point.eta
        assert point.std_error == single.std_error, point.eta
        assert point.per_prompt == single.per_prompt, point.eta
    assert curve.points[0].eta == 1.0
    for pid, value, row in zip(dataset.prompt_ids(), curve.points[0].per_prompt.values(),
                               oracle_matrix(dataset, table)):
        assert value == float(np.sum(row)) / 64, pid


def exact_reta_at(oracle_by_rank, eta, grid):
    """RETA averaged over ``grid`` from exact integer binomials; reads only
    ranks up to floor(eta*n) + 1, so it is cheap for small eta."""
    pool = len(oracle_by_rank)
    total = math.fsum(oracle_by_rank)
    per_n = []
    for n in grid:
        count, delta = _eta_parts(eta, n)
        denominator = math.comb(pool, n)

        def weight(k, r):
            if not 1 <= k <= n:
                return 0.0
            return math.comb(r - 1, k - 1) * math.comb(pool - r, n - k) / denominator

        body = math.fsum(
            score * (math.fsum(weight(k, r) for k in range(1, count + 1))
                     + delta * (1.0 - delta) * weight(count, r)
                     + delta * delta * weight(count + 1, r))
            for r, score in enumerate(oracle_by_rank, start=1))
        per_n.append(pool * body / ((count + delta) * total))
    return math.fsum(per_n) / len(per_n)


def test_paper_scale_curve_matches_exact_binomials():
    # N = 256 and the default grid: the two smallest etas (floor(eta*n) = 0
    # for part of the n grid) against exact integers, and eta = 1 exactly
    spec = DistSpec.noisy_gaussian(0.6, 7.0)
    dataset, table = gen_synthetic(spec, 3, 256, seed=5)
    config = RetaConfig()
    grid = resample_sizes(256, config)
    curve = reta_curve(dataset, table, None, config)
    assert curve.points[0].eta == 1.0
    assert all(v == 1.0 for v in curve.points[0].per_prompt.values())
    smallest = curve.points[-2:]
    assert any(_eta_parts(smallest[-1].eta, n)[0] == 0 for n in grid)
    for point in smallest:
        for (pid, value), row in zip(point.per_prompt.items(), oracle_matrix(dataset, table)):
            expected = exact_reta_at(row.tolist(), point.eta, grid)
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0), (point.eta, pid)


def log_binomial(a, b):
    """log C(a, b) by scipy's gammaln, -inf where b lies outside [0, a]."""
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    inside = (0 <= b) & (b <= a)
    out = np.full(a.shape, -np.inf)
    out[inside] = (gammaln(a[inside] + 1) - gammaln(b[inside] + 1)
                   - gammaln(a[inside] - b[inside] + 1))
    return out


def running_sum_coefficients(pool, grid, etas):
    """Independent reference for ``_coefficients``: each n's whole table of
    subset-rank weights w_k(r) = C(r-1, k-1) * C(N-r, n-k) / C(N, n), from
    scipy's log-gamma, and its running sum over subset ranks, with no top
    sum taken from a single row."""
    coefs = np.zeros((len(etas), pool))
    ranks = np.arange(1, pool + 1)
    for n in grid:
        # row k is w_k; row 0 stands for the empty rank 0
        k = np.arange(1, n + 1)[:, None]
        weights = np.vstack([np.zeros(pool), np.exp(
            log_binomial(ranks - 1, k - 1) + log_binomial(pool - ranks, n - k)
            - log_binomial(pool, n))])
        cumulative = np.cumsum(weights, axis=0)
        for coef, eta in zip(coefs, etas):
            count, delta = _eta_parts(eta, n)
            if eta == 1.0 or count + delta == 0.0:
                continue
            term = cumulative[count] + delta * (1.0 - delta) * weights[count]
            if delta > 0.0:
                term += delta * delta * weights[count + 1]
            coef += term / (count + delta)
    return coefs


@pytest.mark.parametrize("pool", [2, 3, 64, 128, 256])
def test_coefficients_match_running_sum_over_whole_tables(pool):
    # every n of a tiny pool, eta*n < 1 (the 40-point grid reaches 2**-12),
    # and eta == 1 alone, whose bank is all zeros
    grid = list(range(1, pool + 1)) if pool < 64 else resample_sizes(pool, RetaConfig())
    deep = [float(2.0 ** -t) for t in np.linspace(0.0, 12.0, 40)]
    for etas in (default_eta_grid(), [0.25], [1.0], deep):
        fast = _coefficients(pool, grid, etas)
        reference = running_sum_coefficients(pool, grid, etas)
        assert np.array_equal(fast == 0.0, reference == 0.0), etas
        nonzero = reference != 0.0
        if nonzero.any():
            error = np.abs(fast - reference)[nonzero] / reference[nonzero]
            assert np.max(error) <= 1e-12, etas
        else:
            assert etas == [1.0]


def test_default_bank_stays_under_half_a_mebibyte():
    # the bank is built one n at a time, so no temporary holds the rows of
    # the whole n grid
    grid, etas = resample_sizes(256, RetaConfig()), default_eta_grid()
    # the uncached builder, so the traced call builds the bank again
    assert not hasattr(_coefficients, "cache_info")
    _coefficients(256, grid, etas)
    tracemalloc.start()
    try:
        _coefficients(256, grid, etas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19, peak


def _curve_bytes(curve) -> bytes:
    """Every number of a curve: each point's value, standard error and
    per-prompt values."""
    return np.array([[p.value, p.std_error, *p.per_prompt.values()]
                     for p in curve.points]).tobytes()


def test_bank_cache_keys_on_pool_n_grid_and_eta_grid():
    # calls interleaved over two pool sizes, two n ranges, two eta grids, one
    # eta alone and both curve kinds, then in reverse, so later calls read banks
    # built for earlier ones (and some banks are evicted): each result has
    # the bytes of a cold build made after the cache is emptied
    reta_module._bank.cache_clear()
    spec = DistSpec.noisy_gaussian(0.5, 7.0)
    pools = {pool: gen_synthetic(spec, 3, pool, seed=pool) for pool in (64, 256)}
    configs = (RetaConfig(), RetaConfig(n_range_low_coeff=1.0, n_range_high_coeff=2.0))

    def run(pool, config, etas, kind):
        dataset, table = pools[pool]
        if kind == "pair":
            return [_curve_bytes(c) for c in reta_curve_pair(dataset, table, etas, config)]
        if kind == "estimate":
            return reta_estimate(dataset, table, etas[0], config).per_prompt
        return [_curve_bytes(reta_curve(dataset, table, etas, config))]

    calls = [(pool, config, etas, kind)
             for kind, grids in (("curve", (None, [0.5, 0.3, 0.1])),
                                 ("pair", (None, [0.5, 0.3, 0.1])), ("estimate", ([0.25],)))
             for etas in grids for config in configs for pool in pools]
    warm = [run(*call) for call in calls + calls[::-1]]
    info = reta_module._bank.cache_info()
    assert info.hits > 0 and info.misses > info.maxsize
    assert info.currsize <= info.maxsize
    for call, result in zip(calls + calls[::-1], warm):
        reta_module._bank.cache_clear()
        assert run(*call) == result, call
    # every key's bank is the uncached build, and no caller can write into it
    for pool, config, etas in {(c[0], c[1], tuple(c[2] or default_eta_grid())) for c in calls}:
        grid = tuple(resample_sizes(pool, config))
        bank = reta_module._bank(pool, grid, etas)
        assert bank is reta_module._bank(pool, grid, etas)
        assert bank.tobytes() == _coefficients(pool, grid, etas).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            bank[-1, 0] = 0.0
    assert reta_module._bank.cache_info().currsize <= reta_module._bank.cache_info().maxsize


def test_estimate_aggregation_invariants():
    spec = DistSpec.independent(1.0, 9.0)
    dataset, table = gen_synthetic(spec, 5, 16, seed=6)
    config = RetaConfig(n_range_low_coeff=1.0, n_range_high_coeff=2.0)
    estimate = reta_estimate(dataset, table, 0.5, config)
    values = list(estimate.per_prompt.values())
    assert estimate.value == pytest.approx(sum(values) / len(values), abs=1e-15)
    expected_spread = np.std(values, ddof=1) / math.sqrt(len(values))
    assert estimate.std_error == pytest.approx(expected_spread, abs=1e-15)
    assert estimate.n_values_used == resample_sizes(16, config)


def test_independent_rm_near_random_baseline():
    spec = DistSpec.independent(1.0, 9.0)
    dataset, table = gen_synthetic(spec, 24, 32, seed=42)
    estimate = reta_estimate(dataset, table, 0.25, RetaConfig())
    assert abs(estimate.value - 1.0) <= 3.0 * estimate.std_error


def test_independent_rm_curve_hugs_baseline():
    # every point of the default 15-point grid stays within 3 standard errors
    spec = DistSpec.independent(1.0, 9.0)
    dataset, table = gen_synthetic(spec, 12, 256, seed=13)
    curve = reta_curve(dataset, table, None, RetaConfig())
    assert len(curve.points) == 15
    for point in curve.points:
        margin = max(3.0 * point.std_error, 0.01)  # eta=1 has zero spread
        assert abs(point.value - 1.0) <= margin, point.eta


def test_default_curve_shape():
    spec = DistSpec.deterministic_uniform(0.0, 1.0)
    dataset, table = gen_synthetic(spec, 3, 16, seed=1)
    config = RetaConfig(n_range_low_coeff=1.0, n_range_high_coeff=2.0,
                        n_exponent=0.5)
    curve = reta_curve(dataset, table, None, config)
    assert len(curve.points) == 15
    assert curve.points[0].eta == 1.0
    assert curve.points[0].value == 1.0
    etas = [p.eta for p in curve.points]
    assert all(b < a for a, b in zip(etas, etas[1:]))
    assert etas[-1] == pytest.approx(1.0 / 128.0, abs=1e-15)


def test_curve_rejects_bad_grids():
    spec = DistSpec.deterministic_uniform(0.0, 1.0)
    dataset, table = gen_synthetic(spec, 2, 8, seed=1)
    config = RetaConfig(n_range_low_coeff=0.5, n_range_high_coeff=1.0, n_exponent=1.0)
    with pytest.raises(InvalidConfig):
        reta_curve(dataset, table, [0.25, 0.5], config)
    with pytest.raises(InvalidConfig):
        reta_curve(dataset, table, [1.5, 0.5], config)
    with pytest.raises(InvalidConfig, match="^eta grid is empty$"):
        reta_curve(dataset, table, [], config)


@pytest.mark.parametrize("eta", [True, "0.5", None, 10 ** 400],
                         ids=["bool", "string", "none", "int-past-float"])
def test_eta_grid_takes_numbers_and_keeps_them_as_floats(eta, tmp_path):
    spec = DistSpec.deterministic_uniform(0.0, 1.0)
    dataset, table = gen_synthetic(spec, 2, 8, seed=1)
    config = RetaConfig(n_range_low_coeff=0.5, n_range_high_coeff=1.0, n_exponent=1.0)
    with pytest.raises(InvalidConfig, match=re.escape(f"eta {eta!r}: ")):
        reta_curve(dataset, table, [1.0, eta], config)
    # an int or a numpy float is written as the float it equals
    curve = reta_curve(dataset, table, [1, np.float64(0.5)], config)
    assert curve == reta_curve(dataset, table, [1.0, 0.5], config)
    assert [type(point.eta) for point in curve.points] == [float, float]
    write_curve_csv(curve, tmp_path / "curve.csv")
    rows = tmp_path.joinpath("curve.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1.0", "0.5"]


def test_default_eta_grid_is_the_papers_15_point_grid():
    grid = default_eta_grid()
    assert grid == [float(2.0 ** -t) for t in np.linspace(0.0, 7.0, 15)]
    assert grid[0] == 1.0 and grid[-1] == 2.0 ** -7 and grid[2] == 0.5
    assert all(type(eta) is float for eta in grid)
    with pytest.raises(TypeError):
        default_eta_grid(15)


@pytest.mark.parametrize("kwargs", [
    {"points": "3"}, {"points": True}, {"points": 0}, {"points": -1}, {"max_log2": "7"},
    {"max_log2": 10 ** 400}, {"max_log2": -1}, {"max_log2": math.nan}, {"max_log2": math.inf},
    {"max_log2": 0.0}, {"max_log2": 1100.0},
], ids=["points-string", "points-bool", "points-zero", "points-negative", "max-string",
        "max-past-float", "max-negative", "max-nan", "max-inf", "one-eta-twice", "eta-zero"])
def test_default_eta_grid_rejects_an_unusable_grid(kwargs):
    # the grid takes no knob: any other grid is passed as eta_grid, which
    # reta_curve checks (test_curve_rejects_bad_grids)
    [key] = kwargs
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
        default_eta_grid(**kwargs)


def test_degenerate_denominator_guard():
    # no reader or constructor takes a zero oracle score: build the columns directly
    dataset = BenchmarkDataset._from_columns("d", [PromptRecord("p", "t")], np.zeros((1, 2)),
                                             (["p", "p"], ["r000", "r001"]), [None, None])
    with pytest.raises(DegenerateDenominator, match="prompt 'p'"):
        reta_at(dataset, build_table({"p": [1.0, 0.0]}), 0.5, 2)
    with pytest.raises(DegenerateDenominator):
        exhaustive_reta([0.0, 0.0], 0.5, 2)


def test_point_estimate_rejects_subset_size_outside_pool():
    pool = one_prompt([4.0, 3.0, 2.0, 1.0])
    for n in (0, 5):
        with pytest.raises(InvalidConfig):
            exhaustive_reta([4.0, 3.0, 2.0, 1.0], 0.5, n)
    # the estimate's n grid is clipped to [1, N]: a range past N is empty
    for eta in (0.5, 1.0):
        with pytest.raises(InvalidConfig):
            reta_at(*pool, eta, 0)  # a zero n-range coefficient
        with pytest.raises(EmptyNRange):
            reta_at(*pool, eta, 5)


@pytest.mark.parametrize("n", [2.0, 2.5, True])
def test_exhaustive_reta_takes_only_an_int_subset_size(n):
    scores = [4.0, 3.0, 2.0, 1.0]
    with pytest.raises(InvalidConfig, match="n must be an int"):
        exhaustive_reta(scores, 0.5, n)
    assert exhaustive_reta(scores, 0.5, np.int64(2)) == exhaustive_reta(scores, 0.5, 2)


@pytest.mark.parametrize("score, problem", [
    (math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "must be finite"),
    ("x", "must be a number"), (True, "must be a number"),
], ids=["nan", "inf", "minus-inf", "string", "bool"])
def test_exhaustive_reta_takes_only_finite_number_scores(score, problem):
    # a score it cannot sum ends in InvalidConfig, never a nan value or a bare ValueError
    with pytest.raises(InvalidConfig) as raised:
        exhaustive_reta([score, 1.0], 0.5, 2)
    assert str(raised.value) == f"oracle score {score!r}: {problem}"


_SCALAR_ARGUMENTS = {
    "metric_report-eta": ("eta", lambda v: metric_report(*_pair(), eta=v)),
    "exhaustive_reta-eta": ("eta", lambda v: exhaustive_reta([4.0, 3.0, 2.0, 1.0], v, 2)),
    "analytic_reta-eta": ("eta", lambda v: analytic_reta(DistSpec.noisy_gaussian(0.5), v)),
    **{f"RetaConfig-{name}": (name, lambda v, name=name: RetaConfig(**{name: v}))
       for name in ("n_range_low_coeff", "n_range_high_coeff", "n_exponent")},
    "load_benchmark-max_oracle_score": (
        "max_oracle_score", lambda v: load_benchmark("missing", max_oracle_score=v)),
}


def _pair():
    return (build_dataset({"p1": [1.0, 2.0, 3.0, 4.0], "p2": [4.0, 1.0, 3.0, 2.0]}),
            build_table({"p1": [0.1, 0.4, 0.2, 0.3], "p2": [0.3, 0.1, 0.2, 0.4]}))


@pytest.mark.parametrize("value", ["0.5", None, True, 10 ** 400],
                         ids=["string", "none", "bool", "huge-int"])
@pytest.mark.parametrize("argument", list(_SCALAR_ARGUMENTS))
def test_scalar_arguments_must_be_numbers(argument, value):
    # each is checked as a number before its range, so no value ends in a
    # bare TypeError and a bool is not taken as 0 or 1
    name, call = _SCALAR_ARGUMENTS[argument]
    with pytest.raises(InvalidConfig) as raised:
        call(value)
    problem = "number too large for a float" if value == 10 ** 400 else "must be a number"
    assert str(raised.value) == f"{name} {value!r}: {problem}"


def test_too_many_subsets_guard():
    rng = np.random.default_rng(9)
    [by_rank] = oracle_matrix(*random_prompt(rng, 40))
    with pytest.raises(TooManySubsets):
        exhaustive_reta(by_rank, 0.5, 20)


def test_csv_exports(tmp_path):
    spec = DistSpec.deterministic_uniform(0.0, 1.0)
    dataset, table = gen_synthetic(spec, 3, 8, seed=5)
    config = RetaConfig(n_range_low_coeff=0.5, n_range_high_coeff=1.0,
                        n_exponent=1.0)
    curve = reta_curve(dataset, table, [1.0, 0.5], config)
    curve_path = tmp_path / "curve.csv"
    write_curve_csv(curve, curve_path, "prov")
    lines = curve_path.read_text().splitlines()
    assert lines[0] == "# prov"
    assert lines[1] == "rm_name,eta,value,std_error,n_low,n_high"
    assert len(lines) == 4
    per_prompt_path = tmp_path / "pp.csv"
    write_per_prompt_csv(curve, dataset, per_prompt_path)
    rows = per_prompt_path.read_text().splitlines()
    assert rows[0] == "prompt_id,eta,value,perplexity"
    assert len(rows) == 1 + 2 * 3
    assert rows[1].endswith(",")  # no perplexity recorded
