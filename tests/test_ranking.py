"""Ranking construction, tie-breaks, and top-fraction selection."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from scipy.special import gammaln

from retabench import (
    BonVariant,
    DistSpec,
    DppSampleConfig,
    PromptRecord,
    RetaConfig,
    RmScoreTable,
    bon_curve,
    build_dpp,
    default_hit_rate_cutoffs,
    default_n_grid,
    gen_synthetic,
    ingest_rm_scores,
    kl_best_of_n,
    load_benchmark,
    oracle_score_table,
    resample_sizes,
    reta_curve_pair,
    reta_estimate,
    sample_kdpp,
    write_benchmark,
    write_rm_scores,
)
from retabench.errors import InvalidConfig, MissingScore
from retabench.ranking import (
    _eta_parts,
    _log_factorials,
    _rank_orders,
    _rank_weights,
    _score_matrices,
    _selection_weights,
    _top_sums,
    _weighted_sums,
    oracle_matrix,
)
from retabench.reta import default_eta_grid

from conftest import (
    build_dataset,
    build_table,
    forbid_response_records,
    forbid_score_dicts,
    prompt_subset,
    unordered_ties_dataset,
)


def test_rank_by_table_orders_descending():
    dataset = build_dataset({"p": [1.0, 2.0, 3.0]})
    table = build_table({"p": [0.2, 0.9, 0.5]})
    assert _rank_orders(_score_matrices(dataset, table)[0]).tolist() == [[1, 2, 0]]
    assert oracle_matrix(dataset, table).tolist() == [[2.0, 3.0, 1.0]]


def test_tie_break_by_response_id():
    # equal top scores: the smaller response_id ranks first
    dataset = build_dataset({"p": [1.0, 2.0, 3.0]})
    table = build_table({"p": [5.0, 5.0, 1.0]})
    assert _rank_orders(_score_matrices(dataset, table)[0]).tolist() == [[0, 1, 2]]
    assert oracle_matrix(dataset, table).tolist() == [[1.0, 2.0, 3.0]]


def test_eta_parts_snaps_float_noise():
    assert _eta_parts(1.0 / 3.0, 3) == (1, 0.0)
    assert _eta_parts(0.2, 5) == (1, 0.0)
    assert _eta_parts(0.7, 10) == (7, 0.0)
    floor, delta = _eta_parts(1.0 / 3.0, 4)
    assert floor == 1
    assert delta == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_rank_by_oracle_matches_oracle_table():
    # the oracle ranks the metrics read are the oracle score table's ranking
    dataset = build_dataset({"p": [4.0, 1.0, 3.5]})
    by_oracle = _rank_orders(dataset._oracle_scores)
    assert by_oracle.tolist() == [[0, 2, 1]]
    oracle = oracle_score_table(dataset)
    assert _rank_orders(_score_matrices(dataset, oracle)[0]).tolist() == by_oracle.tolist()
    assert oracle_matrix(dataset, oracle).tolist() == [[4.0, 3.5, 1.0]]


def reference_order(ids, scores):
    """Score descending, exact ties (0.0 against -0.0 too) by ascending id."""
    return sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))


def _ranking_bits(dataset, table) -> tuple:
    rm, oracle = _score_matrices(dataset, table)
    return (dataset.prompt_ids(), _rank_orders(rm).tobytes(), _rank_orders(oracle).tobytes(),
            oracle_matrix(dataset, table).tobytes(), dataset._oracle_ranks.tobytes())


def test_batched_orders_match_per_prompt_rankings(tmp_path, monkeypatch):
    dataset, table = unordered_ties_dataset()
    assert any(v == 0.0 and math.copysign(1.0, v) < 0 for v in table.scores.values())
    rm, oracle = _score_matrices(dataset, table)
    rm_orders, oracle_orders = _rank_orders(rm), _rank_orders(oracle)
    matrix = oracle_matrix(dataset, table)
    for i, pid in enumerate(dataset.prompt_ids()):
        responses = dataset.responses[pid]
        ids = [r.response_id for r in responses]
        by_rm = reference_order(ids, [table.scores[(pid, rid)] for rid in ids])
        by_oracle = reference_order(ids, [r.oracle_score for r in responses])
        assert rm_orders[i].tolist() == by_rm
        assert oracle_orders[i].tolist() == by_oracle
        assert matrix[i].tolist() == [responses[j].oracle_score for j in by_rm]
        # a one-prompt dataset ranks its prompt as the batch does
        alone = oracle_matrix(*prompt_subset(dataset, table, [pid]))
        assert alone.tobytes() == matrix[i].tobytes()
    # the block reader's copy ranks from its columns, builds no record and
    # gives the same rankings, bit for bit
    write_benchmark(dataset, tmp_path / "d")
    write_rm_scores(table, tmp_path / "d" / "rm_scores.jsonl")

    forbid_response_records(monkeypatch)
    read = load_benchmark(tmp_path / "d")
    read_table = ingest_rm_scores(read, tmp_path / "d" / "rm_scores.jsonl")
    # and the table's aligned rows, building no scores dict
    forbid_score_dicts(monkeypatch)
    assert _ranking_bits(read, read_table) == _ranking_bits(dataset, table)


def test_oracle_matrix_reads_through_score():
    dataset, table = unordered_ties_dataset()
    missing = dict(table.scores)
    del missing[("p2", "r05")]
    with pytest.raises(MissingScore):
        oracle_matrix(dataset, RmScoreTable("rm", missing))


def test_score_matrices_name_the_first_missing_pair_in_dataset_order(tmp_path):
    dataset, table = unordered_ties_dataset()
    missing = dict(table.scores)
    # dropped in neither the table's nor the id order
    for pair in [("p4", "r01"), ("p2", "r07"), ("p2", "r03"), ("p3", "r00")]:
        del missing[pair]
    partial = RmScoreTable("rm", missing)
    with pytest.raises(MissingScore) as from_matrices:
        _score_matrices(dataset, partial)
    write_rm_scores(partial, tmp_path / "rm_scores.jsonl")
    with pytest.raises(MissingScore) as from_ingest:
        ingest_rm_scores(dataset, tmp_path / "rm_scores.jsonl")
    assert from_matrices.value.pair == from_ingest.value.pair == ("p2", "r03")


def test_a_column_table_on_another_dataset_reads_as_its_dict_does(tmp_path):
    dataset, table = unordered_ties_dataset()
    write_benchmark(dataset, tmp_path / "full")
    full = load_benchmark(tmp_path / "full")
    subset, _ = prompt_subset(full, table, ["p1", "p4"])
    # each table holds the columns of the dataset it was ingested against
    tables = {}
    for name, data in (("full", full), ("subset", subset)):
        keep = set(data.prompt_ids())
        path = tmp_path / f"{name}.jsonl"
        write_rm_scores(RmScoreTable("rm", {pair: v for pair, v in table.scores.items()
                                             if pair[0] in keep}), path)
        tables[name] = ingest_rm_scores(data, path)
        assert tables[name]._pair_ids is data._pair_ids
    # on the superset the subset's table misses p0's scores, and every
    # reader names its first pair in id order, as for the table's dict
    as_dict = RmScoreTable("rm", dict(tables["subset"].scores))
    errors = []
    for call in (lambda t: _score_matrices(full, t), lambda t: oracle_matrix(full, t),
                 lambda t: bon_curve(full, t)):
        for source in (tables["subset"], as_dict):
            with pytest.raises(MissingScore) as info:
                call(source)
            errors.append(info.value.pair)
    assert errors == [("p0", "r00")] * 6
    # on the subset a table of every prompt reads the subset's rows
    expected = _score_matrices(subset, tables["subset"])
    for source in (tables["full"], RmScoreTable("rm", dict(tables["full"].scores))):
        got = _score_matrices(subset, source)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        assert _ranking_bits(subset, source) == _ranking_bits(subset, tables["subset"])


def test_rank_by_table_names_a_missing_score_of_its_prompt_only():
    # a table over more pairs than a one-prompt dataset reads that prompt's
    # scores alone; a score missing there names its first missing pair
    dataset, table = unordered_ties_dataset()
    missing = dict(table.scores)
    del missing[("p2", "r05")], missing[("p2", "r01")]
    partial = RmScoreTable("rm", missing)
    p1, p2 = (prompt_subset(dataset, table, [pid])[0] for pid in ("p1", "p2"))
    assert oracle_matrix(p1, partial).tobytes() == oracle_matrix(p1, table).tobytes()
    with pytest.raises(MissingScore) as info:
        oracle_matrix(p2, partial)
    assert info.value.pair == ("p2", "r01")


def test_cached_oracle_ranks_match_rank_by_oracle():
    dataset, _ = unordered_ties_dataset()
    for i, pid in enumerate(dataset.prompt_ids()):
        responses = dataset.responses[pid]
        order = reference_order([r.response_id for r in responses],
                                [r.oracle_score for r in responses])
        assert dataset._oracle_ranks[i][order].tolist() == list(range(len(order)))


def test_log_factorials_match_gammaln():
    log_fact = _log_factorials(100_000)
    assert log_fact.dtype == np.float64 and len(log_fact) == 100_001
    assert log_fact[0] == 0.0 and log_fact[1] == 0.0
    reference = gammaln(np.arange(2, 100_001, dtype=np.float64) + 1.0)
    assert np.max(np.abs(log_fact[2:] - reference) / reference) <= 1e-15


def test_log_factorials_are_built_once_and_read_only():
    # every later weight row of a pool size reads the one table, so no
    # caller may write into it
    log_fact = _log_factorials(37)
    assert _log_factorials(37) is log_fact
    with pytest.raises(ValueError, match="read-only"):
        log_fact[2] = 0.0


@functools.lru_cache(maxsize=None)
def pascal_rows(size):
    """Rows 0 .. size - 1 of Pascal's triangle, built once for each size."""
    return tuple(tuple(math.comb(a, b) for b in range(a + 1)) for a in range(size))


def exact_top_numerators(pool, n):
    """(n + 1) x pool integers: entry [c][r - 1] is
    sum over k <= c of C(r-1, k-1) * C(N-r, n-k), the top-c sum times C(N, n)."""
    pascal = pascal_rows(pool)
    columns = []
    for r in range(1, pool + 1):
        above, below = pascal[r - 1], pascal[pool - r]
        column = [0]
        for k in range(1, n + 1):
            ways = ((above[k - 1] if k <= r else 0)
                    * (below[n - k] if n - k <= pool - r else 0))
            column.append(column[-1] + ways)
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def check_top_sums(pool, n, counts):
    """Top sums from ``_top_sums`` against exact integers; returns the worst
    relative error. Zeros must be exact past rank N - n + c, and c = n must
    read exactly n/N."""
    counts = np.asarray(counts)
    rows = np.zeros((len(counts), pool))  # a row of zeros stands for w_0
    rows[counts > 0] = _rank_weights(pool, n, counts[counts > 0])
    sums = _top_sums(rows, n, counts)
    exact = exact_top_numerators(pool, n)
    denominator = math.comb(pool, n)
    worst = 0.0
    for c, row in zip(counts.tolist(), sums.tolist()):
        if c == n:
            assert row == [n / pool] * pool, (pool, n)
            continue
        for r, value in enumerate(row, start=1):
            numerator = exact[c][r - 1]
            assert (numerator == 0) == (c == 0 or r > pool - n + c), (pool, n, c, r)
            if numerator == 0:
                assert value == 0.0, (pool, n, c, r)
            else:
                worst = max(worst, abs(value - numerator / denominator) * denominator
                            / numerator)
    return worst


def test_top_sums_match_exact_binomials_for_every_count():
    worst = 0.0
    for pool in (1, 2, 7, 64):
        for n in range(1, pool + 1):
            worst = max(worst, check_top_sums(pool, n, np.arange(n + 1)))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [121, 201])
def test_top_sums_match_exact_binomials_at_paper_scale(n):
    # the counts RETA reads at N = 256: floor(eta*n) over the default grid
    counts = sorted({0, 1, n} | {int(_eta_parts(eta, n)[0]) for eta in default_eta_grid()})
    assert check_top_sums(256, n, counts) <= 1e-12


def selection_cases(n):
    """Every (c, delta) kind a selection from an n-subset takes: c = 0 < delta,
    c >= 1 with delta = 0, c >= 1 with delta > 0, and c = n. delta = 3/8 is
    exact in binary, so delta*(1-delta) = 15/64 and delta**2 = 9/64 are too."""
    cases = [(c, 0.0) for c in range(1, n + 1)] + [(c, 0.375) for c in range(n)]
    counts, deltas = zip(*cases)
    return np.array(counts), np.array(deltas)


def test_selection_weights_match_exact_binomials():
    # every entry against an exact integer ratio: zeros must be exact, and
    # the rest within 1e-12 relative
    worst = 0.0
    for pool in (2, 7, 64):
        for n in range(1, pool + 1):
            top = exact_top_numerators(pool, n)  # top[c][r - 1] * C(N, n)
            counts, deltas = selection_cases(n)
            rows = _selection_weights(pool, n, counts, deltas)
            denominator = math.comb(pool, n)
            for c, delta, row in zip(counts.tolist(), deltas.tolist(), rows.tolist()):
                for r, value in enumerate(row, start=1):
                    if delta == 0.0:
                        numerator, scale = top[c][r - 1], c
                    else:
                        at_c = top[c][r - 1] - (top[c - 1][r - 1] if c else 0)
                        at_next = top[c + 1][r - 1] - top[c][r - 1]
                        numerator = 64 * top[c][r - 1] + 15 * at_c + 9 * at_next
                        scale = 64 * c + 24  # 64 * (c + 3/8)
                    if numerator == 0:
                        assert value == 0.0, (pool, n, c, delta, r)
                    else:
                        exact = numerator / (denominator * scale)  # correctly rounded
                        worst = max(worst, abs(value - exact) / exact)
    assert worst <= 1e-12


@pytest.mark.parametrize("pool", [2, 3, 7, 64, 256])
def test_selection_row_is_the_same_alone_or_in_a_batch(pool):
    # a RETA curve point must equal the single-eta estimate, bit for bit: at
    # one n, a batch of every (c, delta) kind, eta*n = 0 (c = delta = 0, a
    # zero row) among them, gives each row the bytes it has alone
    for n in sorted({1, 2, 3, pool // 3, pool - 1, pool} & set(range(1, pool + 1))):
        counts, deltas = selection_cases(n)
        counts, deltas = np.append(counts, 0)[::-1], np.append(deltas, 0.0)[::-1]
        batch = _selection_weights(pool, n, counts, deltas)
        for i, (c, delta) in enumerate(zip(counts, deltas)):
            alone = _selection_weights(pool, n, counts[i:i + 1], deltas[i:i + 1])
            assert alone.tobytes() == batch[i:i + 1].tobytes(), (pool, n, c, delta)
        assert batch[0].tobytes() == bytes(8 * pool), (pool, n)


def test_found_case_reads_the_same_alone_and_in_its_batch():
    # with a BLAS matrix-vector product, p0004 read 1.0694472503355736 here in
    # the 5-prompt curve and 1.0694472503355739 alone (eta = 0.354 = 2**-1.5)
    dataset, table = gen_synthetic(DistSpec.noisy_gaussian(0.5, 7.0), 5, 64, seed=3)
    batch = reta_estimate(dataset, table, 2 ** -1.5)
    alone = reta_estimate(*prompt_subset(dataset, table, ["p0004"]), 2 ** -1.5)
    assert alone.per_prompt["p0004"] == batch.per_prompt["p0004"]


@pytest.mark.parametrize("pool", [7, 65, 257])
def test_per_prompt_values_are_the_same_alone_in_a_slice_or_in_the_batch(pool):
    # a per-prompt RETA or best-of-n value depends on its prompt alone, not
    # on which other prompts share the computation
    dataset, table = gen_synthetic(DistSpec.noisy_gaussian(0.5, 7.0), 15, pool, seed=5)
    prompt_ids = dataset.prompt_ids()
    groups = [prompt_ids[start:start + 7] for start in (0, 4, 8)]
    groups += [[pid] for pid in prompt_ids]
    config = RetaConfig(n_range_low_coeff=1.0, n_range_high_coeff=2.0)
    batch = reta_curve_pair(dataset, table, config=config)
    for group in groups:
        part = reta_curve_pair(*prompt_subset(dataset, table, group), config=config)
        # the normalized curve, then the unnormalized one
        for curve, whole_curve in zip(part, batch):
            for point, whole in zip(curve.points, whole_curve.points):
                assert point.per_prompt == {pid: whole.per_prompt[pid] for pid in group}
    oracle = oracle_matrix(dataset, table)
    for variant in (BonVariant("best_of_n"), BonVariant("rank_k_of_n", 2),
                    BonVariant("best_m_of_n", 3)):
        grid = sorted(set(range(variant.min_n, pool + 1, 8)) | {pool})
        # the bank bon_curve applies: one weight row per n
        bank = np.concatenate([variant._weights(pool, [n]) for n in grid])
        values = _weighted_sums(bank, oracle)
        for start in (0, 4, 8):
            assert _weighted_sums(bank, oracle[start:start + 7]).tobytes() == \
                values[:, start:start + 7].tobytes()
        for i, pid in enumerate(prompt_ids):
            alone = bon_curve(*prompt_subset(dataset, table, [pid]), variant, grid)
            assert [point.value for point in alone.points] == values[:, i].tolist()


def _sample(k=2, seed=0) -> list[int]:
    candidates = [PromptRecord(f"c{i}", "t", tuple(row)) for i, row in enumerate(np.eye(3))]
    return sample_kdpp(build_dpp(candidates), DppSampleConfig(k=k, seed=seed))


_SPEC = DistSpec.noisy_gaussian(0.5, 7.0)


# the sampler's, the generator's, the KL column's and the default grids'
# counts take the one _check_int rule: an int or a numpy integer, and never
# a bool; a negative count is InvalidConfig too
@pytest.mark.parametrize("name, call", [
    ("k", lambda value: _sample(k=value)),
    ("seed", lambda value: _sample(seed=value)),
    ("num_prompts", lambda value: gen_synthetic(_SPEC, value, 4, 0)),
    ("responses_per_prompt", lambda value: gen_synthetic(_SPEC, 2, value, 0)),
    ("seed", lambda value: gen_synthetic(_SPEC, 2, 4, value)),
    ("n", kl_best_of_n),
    # a grid of n = 2 alone at N = 2
    ("num_responses", lambda value: resample_sizes(value, RetaConfig(1.0, 1.0, 1.0))),
    ("num_responses", default_n_grid),
    ("num_responses", default_hit_rate_cutoffs),
], ids=["dpp-k", "dpp-seed", "synthetic-num-prompts", "synthetic-responses-per-prompt",
        "synthetic-seed", "kl-best-of-n", "resample-sizes", "default-n-grid",
        "default-hit-rate-cutoffs"])
def test_counts_take_an_int_or_a_numpy_integer_but_no_bool(name, call):
    for value in (2.5, 2.0, True, 64.5, 64.0):
        with pytest.raises(InvalidConfig, match=f"^{name} must be an int, got {value!r}$"):
            call(value)
    with pytest.raises(InvalidConfig):
        call(-3)
    assert call(np.int64(2)) == call(2)
