"""Best-of-n family: closed forms vs. brute force, weight identities, KL."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from retabench import (
    BonVariant,
    bon_curve,
    default_n_grid,
    kl_best_of_n,
    DistSpec,
    gen_synthetic,
)
from retabench import bon as bon_module
from retabench.errors import InvalidConfig
from retabench.ranking import _rank_weights, oracle_matrix

from conftest import bon_at, build_table, one_prompt, prompt_subset, random_prompt
from test_ranking import exact_top_numerators

BEST = BonVariant("best_of_n")


def rank_k(k):
    return BonVariant("rank_k_of_n", k)


def best_m(m):
    return BonVariant("best_m_of_n", m)


def brute_force_rank_k(oracle_by_rank, k, n):
    """Average, over every n-subset, of the oracle score at subset rank k."""
    values = [
        oracle_by_rank[combo[k - 1]]
        for combo in itertools.combinations(range(len(oracle_by_rank)), n)
    ]
    return math.fsum(values) / len(values)


def brute_force_best_m(oracle_by_rank, m, n):
    values = [
        math.fsum(oracle_by_rank[i] for i in combo[:m]) / m
        for combo in itertools.combinations(range(len(oracle_by_rank)), n)
    ]
    return math.fsum(values) / len(values)


def exact_rank_rows(pool, n, ks) -> np.ndarray:
    """Rows w_k(r) = C(r-1, k-1) * C(N-r, n-k) / C(N, n) over the pool ranks
    r = 1..N, one for each k of ``ks``, each the correctly rounded quotient
    of exact integers."""
    denominator = math.comb(pool, n)
    return np.array([[math.comb(r - 1, k - 1) * math.comb(pool - r, n - k) / denominator
                      for r in range(1, pool + 1)] for k in ks])


def rank_table(pool, n) -> np.ndarray:
    """The kernel's (n, N) table of w_1 .. w_n for one n."""
    return _rank_weights(pool, n, np.arange(1, n + 1))


def test_best_of_n_edge_cases():
    pool = one_prompt([4.0, 3.0, 2.0, 1.0])
    assert bon_at(*pool, BEST, 1) == pytest.approx(2.5, abs=1e-12)  # plain mean
    assert bon_at(*pool, BEST, 4) == pytest.approx(4.0, abs=1e-12)  # top pick


def test_best_of_n_hand_example():
    # N=3, oracle by RM rank [1.0, 0.5, 0.2], n=2:
    # pairs {1,2}->1.0, {1,3}->1.0, {2,3}->0.5 -> 2.5/3
    pool = one_prompt([1.0, 0.5, 0.2])
    expected = brute_force_rank_k([1.0, 0.5, 0.2], 1, 2)
    assert expected == pytest.approx(2.5 / 3.0, abs=1e-15)
    assert bon_at(*pool, BEST, 2) == pytest.approx(expected, abs=1e-12)


def test_rank_k_hand_example():
    # same pool, k=2, n=2: worse of each pair -> (0.5 + 0.2 + 0.2)/3 = 0.3
    pool = one_prompt([1.0, 0.5, 0.2])
    expected = brute_force_rank_k([1.0, 0.5, 0.2], 2, 2)
    assert expected == pytest.approx(0.3, abs=1e-15)
    assert bon_at(*pool, rank_k(2), 2) == pytest.approx(0.3, abs=1e-12)


def test_rank_k_reductions():
    rng = np.random.default_rng(1)
    pool = random_prompt(rng, 7)
    for n in (1, 3, 7):
        assert bon_at(*pool, rank_k(1), n) == pytest.approx(bon_at(*pool, BEST, n), abs=1e-14)
    # k = n = N: the single subset's worst pick
    assert bon_at(*pool, rank_k(7), 7) == pytest.approx(
        float(oracle_matrix(*pool)[0, -1]), abs=1e-14)


def test_best_m_reductions():
    rng = np.random.default_rng(2)
    pool = random_prompt(rng, 6)
    mean_score = float(np.mean(oracle_matrix(*pool)))
    for n in (2, 4, 6):
        assert bon_at(*pool, best_m(n), n) == pytest.approx(mean_score, abs=1e-12)
    for n in (1, 3, 6):
        assert bon_at(*pool, best_m(1), n) == pytest.approx(bon_at(*pool, BEST, n), abs=1e-14)


def test_best_m_hand_example():
    # N=4, oracle by rank [4,3,2,1], m=2, n=2: every pair is fully averaged,
    # so the value is the pool mean 2.5
    pool = one_prompt([4.0, 3.0, 2.0, 1.0])
    expected = brute_force_best_m([4.0, 3.0, 2.0, 1.0], 2, 2)
    assert expected == pytest.approx(2.5, abs=1e-15)
    assert bon_at(*pool, best_m(2), 2) == pytest.approx(2.5, abs=1e-12)


def test_estimators_match_brute_force():
    # every (k, n) and (m, n) of one-prompt pools: a prompt's value is its
    # slice of the batch, so the one-prompt curve is the per-prompt estimate
    rng = np.random.default_rng(14)
    for size in (5, 8, 10):
        pool = random_prompt(rng, size)
        scores = oracle_matrix(*pool)[0].tolist()
        for n in range(1, size + 1):
            assert bon_at(*pool, BEST, n) == pytest.approx(
                brute_force_rank_k(scores, 1, n), abs=1e-12)
            for k in range(1, n + 1):
                assert bon_at(*pool, rank_k(k), n) == pytest.approx(
                    brute_force_rank_k(scores, k, n), abs=1e-12)
            for m in range(1, n + 1):
                assert bon_at(*pool, best_m(m), n) == pytest.approx(
                    brute_force_best_m(scores, m, n), abs=1e-12)


@pytest.mark.parametrize("pool", [10, 37, 256])
def test_weight_identities(pool):
    for n in {1, 2, pool // 3, pool // 2, pool}:
        n = max(1, n)
        table = rank_table(pool, n)
        for k in {1, n // 2 + 1, n}:
            weights = table[k - 1]
            assert np.all(weights >= 0.0)
            assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)
        # each pool item appears in a uniform n-subset with probability n/N
        stacked = table.sum(axis=0)
        assert np.max(np.abs(stacked - n / pool)) <= 1e-12


def test_log_space_path_matches_exact():
    # pool of 60 uses the log-gamma path; pin it against exact integers
    pool, n, k = 60, 17, 5
    weights = rank_table(pool, n)[k - 1]
    denominator = math.comb(pool, n)
    for r in (1, 5, 23, 44, 60):
        exact = math.comb(r - 1, k - 1) * math.comb(pool - r, n - k) / denominator
        assert weights[r - 1] == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_rank_table_matches_exact_binomials():
    # every (k, r) of whole tables against exact integers; the zeros must be
    # exact wherever the placement is impossible
    worst = 0.0
    for pool in (2, 7, 64, 256):
        pascal = [[math.comb(a, b) for b in range(a + 1)] for a in range(pool)]
        for n in sorted({1, pool // 2, 121, 201, pool} & set(range(1, pool + 1))):
            table = rank_table(pool, n)
            assert table.shape == (n, pool)
            denominator = math.comb(pool, n)
            for k in range(1, n + 1):
                row = table[k - 1].tolist()
                for r in range(1, pool + 1):
                    above, below = pascal[r - 1], pascal[pool - r]
                    ways = ((above[k - 1] if k <= r else 0)
                            * (below[n - k] if n - k <= pool - r else 0))
                    if ways == 0:
                        assert row[r - 1] == 0.0, (pool, n, k, r)
                    else:
                        exact = ways / denominator  # correctly rounded
                        worst = max(worst, abs(row[r - 1] - exact) / exact)
    assert worst <= 1e-12


@pytest.mark.parametrize("pool", [2, 3, 64, 256])
def test_curve_bank_is_its_per_n_rows(pool):
    # bon_curve's bank holds one row for each n of its grid, the bytes of
    # that n alone: a w_k row against its exact binomials, and a best-m row,
    # top_m / m, against the exact top-m sum
    for variant in (BonVariant("best_of_n"), BonVariant("rank_k_of_n", 2),
                    BonVariant("best_m_of_n", 2)):
        grid = list(range(variant.min_n, pool + 1))
        bank = variant._weights(pool, grid)
        alone = np.concatenate([variant._weights(pool, [n]) for n in grid])
        assert bank.tobytes() == alone.tobytes(), (pool, variant)
        if variant.kind == "best_m_of_n":
            m = variant.param
            reference = np.array([[top / (math.comb(pool, n) * m)  # correctly rounded
                                   for top in exact_top_numerators(pool, n)[m]]
                                  for n in grid])
        else:
            reference = np.concatenate([exact_rank_rows(pool, n, [variant.min_n])
                                        for n in grid])
        # impossible placements are exact zeros
        assert np.array_equal(bank == 0.0, reference == 0.0), (pool, variant)
        nonzero = reference != 0.0
        assert np.max(np.abs(bank - reference)[nonzero] / reference[nonzero]) <= 1e-12


def test_monotone_transform_invariance():
    spec = DistSpec.noisy_gaussian(0.5, 7.0)
    dataset, table = gen_synthetic(spec, 4, 12, seed=3)
    base = bon_curve(dataset, table, BonVariant("best_of_n"))
    mapped = build_table({
        pid: [math.exp(table.scores[(pid, r.response_id)])
              for r in dataset.responses[pid]]
        for pid in dataset.prompt_ids()
    })
    moved = bon_curve(dataset, mapped, BonVariant("best_of_n"))
    for a, b in zip(base.points, moved.points):
        assert a.value == b.value
        assert a.std_error == b.std_error


def test_curve_grid_and_kl():
    spec = DistSpec.deterministic_uniform(0.0, 1.0)
    dataset, table = gen_synthetic(spec, 3, 256, seed=2)
    curve = bon_curve(dataset, table)
    assert [p.n for p in curve.points] == [1, 2, 4, 8, 16, 32, 64, 128, 256]
    assert len(curve.points) == 9
    assert curve.kl[0] == 0.0
    n4 = curve.kl[2]
    assert n4 == pytest.approx(math.log(4) - 3.0 / 4.0, abs=1e-15)
    n16 = curve.kl[4]
    assert round(n16, 4) == pytest.approx(1.8351)
    for point, kl in zip(curve.points, curve.kl):
        assert kl == pytest.approx(math.log(point.n) - (point.n - 1) / point.n, abs=1e-12)
    # an n that is not an int, a bool included, is no grid point
    for bad in ([2.5], [True], [4, 2.0]):
        with pytest.raises(InvalidConfig):
            bon_curve(dataset, table, n_values=bad)
    assert [p.n for p in bon_curve(dataset, table, n_values=np.array([8, 2])).points] == [2, 8]


def test_rank_k_curve_endpoint():
    spec = DistSpec.noisy_gaussian(0.9, 7.0)
    dataset, table = gen_synthetic(spec, 3, 16, seed=8)
    curve = bon_curve(dataset, table, BonVariant("rank_k_of_n", 2))
    assert [p.n for p in curve.points] == [2, 4, 8, 16]
    expected = np.mean(oracle_matrix(dataset, table)[:, 1])
    assert curve.points[-1].value == pytest.approx(float(expected), abs=1e-12)


def test_default_grid():
    assert default_n_grid(256) == [1, 2, 4, 8, 16, 32, 64, 128, 256]
    assert default_n_grid(5) == [1, 2, 4]


def test_variant_validation():
    with pytest.raises(InvalidConfig):
        BonVariant("rank_k_of_n")
    with pytest.raises(InvalidConfig):
        BonVariant("best_of_n", 3)
    with pytest.raises(InvalidConfig):
        BonVariant("nope")
    with pytest.raises(InvalidConfig):
        kl_best_of_n(0)


@pytest.mark.parametrize("kind", ["rank_k_of_n", "best_m_of_n"])
@pytest.mark.parametrize("param", [2.5, 2.0, True, "2"])
def test_variant_param_must_be_an_int(kind, param):
    with pytest.raises(InvalidConfig, match="must be an int"):
        BonVariant(kind, param)
    assert BonVariant(kind, np.int64(2)).min_n == 2


@pytest.mark.parametrize("variant", [BEST, rank_k(1), best_m(1)],
                         ids=["best_of_n", "rank_k_of_n", "best_m_of_n"])
def test_estimators_reject_an_n_that_is_not_an_int(variant):
    pool = one_prompt([4.0, 3.0, 2.0, 1.0])
    for n in (2.5, 2.0, True):
        with pytest.raises(InvalidConfig, match="n must be an int"):
            bon_at(*pool, variant, n)
    assert bon_at(*pool, variant, np.int64(2)) == bon_at(*pool, variant, 2)


@pytest.mark.parametrize("variant", [BEST, rank_k(2), best_m(3)],
                         ids=["best_of_n", "rank_2_of_n", "best_3_of_n"])
def test_curve_points_are_means_of_per_prompt_estimates(variant):
    # each point is the exact mean of the prompts' values, and each prompt's
    # value is the one its one-prompt dataset gives
    dataset, table = gen_synthetic(DistSpec.noisy_gaussian(0.5, 7.0), 5, 64, seed=3)
    alone = [prompt_subset(dataset, table, [pid]) for pid in dataset.prompt_ids()]
    grid = range(variant.min_n, 65)
    curve = bon_curve(dataset, table, variant, n_values=grid)
    assert [point.n for point in curve.points] == list(grid)
    per_prompt = [[point.value for point in bon_curve(*pool, variant, grid).points]
                  for pool in alone]
    for point, values in zip(curve.points, zip(*per_prompt)):
        assert point.value == math.fsum(values) / len(values)


def test_bank_cache_keys_on_variant_pool_and_n_grid():
    # calls interleaved over three variants that share a parameter value, two
    # pool sizes and two n grids, then in reverse (12 keys, so banks are evicted):
    # each curve has the bytes of a cold build made after the cache is emptied
    bon_module._bank.cache_clear()
    spec = DistSpec.noisy_gaussian(0.5, 7.0)
    pools = {pool: gen_synthetic(spec, 3, pool, seed=pool) for pool in (32, 64)}
    variants = (best_m(2), best_m(3), rank_k(2))
    calls = [(variant, pool, grid) for grid in (None, [4, 8, 16]) for pool in pools
             for variant in variants]

    def run(variant, pool, grid):
        curve = bon_curve(*pools[pool], variant, grid)
        return np.array([[p.value, p.std_error] for p in curve.points]).tobytes()

    warm = [run(*call) for call in calls + calls[::-1]]
    info = bon_module._bank.cache_info()
    assert info.hits > 0 and info.misses > info.maxsize
    assert info.currsize <= info.maxsize
    for call, result in zip(calls + calls[::-1], warm):
        bon_module._bank.cache_clear()
        assert run(*call) == result, call
    # the three variants read three different banks, each the uncached build
    # and read-only
    banks = [bon_module._bank(variant, 64, (4, 8, 16)) for variant in variants]
    for variant, bank in zip(variants, banks):
        assert bank.tobytes() == variant._weights(64, [4, 8, 16]).tobytes(), variant
        with pytest.raises(ValueError, match="read-only"):
            bank[0, 0] = 0.0
    assert len({bank.tobytes() for bank in banks}) == 3
    assert bon_module._bank.cache_info().currsize <= bon_module._bank.cache_info().maxsize
