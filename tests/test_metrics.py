"""Hit rate, MRR/NDCG at a selection rank, pairwise accuracy, win rates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import kendalltau

from retabench import (
    DistSpec,
    default_hit_rate_cutoffs,
    gen_synthetic,
    hit_rate,
    load_win_labels,
    metric_report,
    mrr_at_selection,
    ndcg_at_selection,
    oracle_score_table,
    pairwise_accuracy,
    rank_by_oracle,
    rank_by_table,
    win_rate_aggregate,
    write_metrics_csv,
)
from retabench.errors import (
    EmptyGroundTruth,
    EmptyLabels,
    InvalidConfig,
    MalformedRecord,
    NoComparablePairs,
)

from conftest import build_dataset, build_table, unordered_ties_dataset, write_jsonl


@pytest.fixture(scope="module")
def big_uniform():
    spec = DistSpec.deterministic_uniform(0.0, 1.0)
    dataset, _ = gen_synthetic(spec, 4, 256, seed=31)
    return dataset


def test_oracle_hit_rate_anchors(big_uniform):
    dataset = big_uniform
    oracle = oracle_score_table(dataset)
    for prompt_id in dataset.prompt_ids():
        rm = rank_by_table(dataset, oracle, prompt_id)
        orc = rank_by_oracle(dataset, prompt_id)
        assert hit_rate(rm, orc, 0.25, 32) == 50.0
        assert hit_rate(rm, orc, 0.25, 64) == 100.0
        assert hit_rate(rm, orc, 0.25, 128) == 100.0


def test_hit_rate_oracle_identity_sweep(big_uniform):
    # for the oracle itself, hits are min(K, G) out of G by construction
    dataset = big_uniform
    oracle = oracle_score_table(dataset)
    prompt_id = dataset.prompt_ids()[0]
    rm = rank_by_table(dataset, oracle, prompt_id)
    orc = rank_by_oracle(dataset, prompt_id)
    for eta in (0.1, 0.25, 0.5):
        gt = math.floor(eta * 256)
        for k in (1, 9, 63, 64, 65, 200, 256):
            assert hit_rate(rm, orc, eta, k) == 100.0 * min(k, gt) / gt


def test_hit_rate_disjoint_is_zero():
    dataset = build_dataset({"p": [4.0, 3.0, 2.0, 1.0]})
    # RM ranks the oracle's bottom two on top
    table = build_table({"p": [0.1, 0.2, 0.9, 0.8]})
    rm = rank_by_table(dataset, table, "p")
    orc = rank_by_oracle(dataset, "p")
    assert hit_rate(rm, orc, 0.5, 2) == 0.0


def test_hit_rate_rejects_rankings_of_different_prompts():
    # synthetic response ids repeat across prompts, so the response sets match
    dataset, table = gen_synthetic(DistSpec.noisy_gaussian(0.5, 7.0), 2, 16, seed=1)
    rm = rank_by_table(dataset, table, "p0000")
    with pytest.raises(InvalidConfig):
        hit_rate(rm, rank_by_oracle(dataset, "p0001"), 0.25, 4)
    assert hit_rate(rm, rank_by_oracle(dataset, "p0000"), 0.25, 4) >= 0.0


def test_hit_rate_empty_ground_truth():
    dataset = build_dataset({"p": [4.0, 3.0, 2.0]})
    table = build_table({"p": [1.0, 2.0, 3.0]})
    rm = rank_by_table(dataset, table, "p")
    orc = rank_by_oracle(dataset, "p")
    with pytest.raises(EmptyGroundTruth):
        hit_rate(rm, orc, 0.1, 2)


def test_mrr_anchors(big_uniform):
    dataset = big_uniform
    oracle = oracle_score_table(dataset)
    assert mrr_at_selection(dataset, oracle, 1) == 1.0
    assert mrr_at_selection(dataset, oracle, 2) == 0.5


def test_mrr_worst_pick():
    dataset = build_dataset({"p": [4.0, 3.0, 2.0, 1.0]})
    # top RM pick is the oracle's worst response
    table = build_table({"p": [1.0, 2.0, 3.0, 9.0]})
    assert mrr_at_selection(dataset, table, 1) == 0.25


def test_ndcg_anchors(big_uniform):
    dataset = big_uniform
    oracle = oracle_score_table(dataset)
    assert ndcg_at_selection(dataset, oracle, 1) == 1.0
    assert ndcg_at_selection(dataset, oracle, 2) == 1.0


def test_ndcg_fixed_rank():
    # selected response always lands at oracle rank 3: 1/log2(4) = 0.5
    dataset = build_dataset({"p": [4.0, 3.0, 2.0, 1.0]})
    table = build_table({"p": [1.0, 2.0, 9.0, 3.0]})
    assert ndcg_at_selection(dataset, table, 1) == pytest.approx(0.5, abs=1e-15)


def test_pairwise_accuracy_extremes():
    dataset = build_dataset({"p": [4.0, 3.0, 2.0, 1.0]})
    aligned = build_table({"p": [9.0, 8.0, 7.0, 6.0]})
    reversed_table = build_table({"p": [6.0, 7.0, 8.0, 9.0]})
    assert pairwise_accuracy(aligned, dataset) == 100.0
    assert pairwise_accuracy(reversed_table, dataset) == 0.0


def test_pairwise_accuracy_hand_example():
    # oracle [3,2,1] vs RM [3,1,2]: pairs (0,1) and (0,2) agree, (1,2) flips
    dataset = build_dataset({"p": [3.0, 2.0, 1.0]})
    table = build_table({"p": [3.0, 1.0, 2.0]})
    assert pairwise_accuracy(table, dataset) == pytest.approx(200.0 / 3.0, abs=1e-9)


def test_pairwise_accuracy_tie_handling():
    # oracle tie (first pair) excluded; RM tie scores half
    dataset = build_dataset({"p": [2.0, 2.0, 1.0]})
    table = build_table({"p": [5.0, 5.0, 5.0]})
    # comparable pairs: (0,2) and (1,2); both RM-tied -> 50
    assert pairwise_accuracy(table, dataset) == 50.0


def test_pairwise_accuracy_reversal_complement():
    dataset = build_dataset({"p1": [1.0, 3.0, 2.0, 5.0], "p2": [2.0, 9.0, 4.0, 1.0]})
    table = build_table({"p1": [0.3, 0.1, 0.4, 0.2], "p2": [0.2, 0.4, 0.3, 0.1]})
    flipped = build_table({
        "p1": [-0.3, -0.1, -0.4, -0.2], "p2": [-0.2, -0.4, -0.3, -0.1]})
    total = pairwise_accuracy(table, dataset) + pairwise_accuracy(flipped, dataset)
    assert total == pytest.approx(100.0, abs=1e-9)


def test_pairwise_accuracy_no_comparable():
    dataset = build_dataset({"p": [2.0, 2.0, 2.0]})
    table = build_table({"p": [1.0, 2.0, 3.0]})
    with pytest.raises(NoComparablePairs):
        pairwise_accuracy(table, dataset)
    # of two prompts whose oracle ties every pair, the first in id order is named
    dataset = build_dataset({"p2": [2.0, 2.0, 2.0], "p0": [1.0, 2.0, 3.0],
                             "p1": [5.0, 5.0, 5.0]})
    table = build_table({pid: [1.0, 2.0, 3.0] for pid in ("p0", "p1", "p2")})
    with pytest.raises(NoComparablePairs, match="prompt 'p1'"):
        pairwise_accuracy(table, dataset)


def test_win_rate_examples():
    assert win_rate_aggregate(["win", "loss", "draw", "win"]) == (50.0, 0.25)
    assert win_rate_aggregate(["draw", "draw"]) == (0.0, 0.0)
    assert win_rate_aggregate(["win", "win"]) == (100.0, 1.0)
    with pytest.raises(EmptyLabels):
        win_rate_aggregate([])
    with pytest.raises(InvalidConfig):
        win_rate_aggregate(["victory"])


def test_load_win_labels(tmp_path):
    dataset = build_dataset({"p": [1.0, 2.0]})
    path = tmp_path / "labels.jsonl"
    write_jsonl(path, [
        {"prompt_id": "p", "response_id": "r000", "outcome": "win"},
        {"prompt_id": "p", "response_id": "r001", "outcome": "loss"},
    ])
    assert load_win_labels(path, dataset) == ["win", "loss"]
    bad = tmp_path / "bad.jsonl"
    write_jsonl(bad, [{"prompt_id": "p", "response_id": "r000", "outcome": "meh"}])
    with pytest.raises(MalformedRecord):
        load_win_labels(bad, dataset)


@pytest.mark.parametrize("pair, field, message", [
    (("nope", "r000"), "prompt_id", "unknown prompt 'nope'"),
    (("p", "zz"), "response_id", "unknown response 'p/zz'"),
])
def test_win_labels_for_pairs_the_dataset_lacks_are_malformed(tmp_path, pair, field, message):
    dataset = build_dataset({"p": [1.0, 2.0]})
    path = tmp_path / "labels.jsonl"
    write_jsonl(path, [
        {"prompt_id": "p", "response_id": "r000", "outcome": "win"},
        {"prompt_id": pair[0], "response_id": pair[1], "outcome": "win"},
    ])
    with pytest.raises(MalformedRecord) as info:
        load_win_labels(path, dataset)
    assert str(info.value) == f"labels.jsonl:2: field '{field}': {message}"


def test_missing_win_label_file_is_malformed_record(tmp_path):
    path = tmp_path / "absent.jsonl"
    with pytest.raises(MalformedRecord) as info:
        load_win_labels(path, build_dataset({"p": [1.0, 2.0]}))
    assert str(info.value) == f"{path}: field '-': file not found"


def test_metric_report_and_csv(big_uniform, tmp_path):
    dataset = big_uniform
    oracle = oracle_score_table(dataset)
    report = metric_report(dataset, oracle, eta=0.25,
                           win_labels=["win", "draw", "loss", "win"])
    assert report.hit_rate == {32: 50.0, 64: 100.0, 128: 100.0}
    assert report.mrr == 1.0 and report.ndcg == 1.0
    assert report.pairwise_accuracy == 100.0
    assert report.win_rate == 50.0
    assert default_hit_rate_cutoffs(256) == [32, 64, 128]
    path = tmp_path / "metrics.csv"
    write_metrics_csv([report], path, "prov")
    lines = path.read_text().splitlines()
    assert lines[0] == "# prov"
    assert lines[1].startswith("rm_name,hit_rate_at_32,hit_rate_at_64,hit_rate_at_128")
    assert lines[2].startswith("oracle,50.0,100.0,100.0,1.0,1.0,1,100.0,50.0")


def test_metric_report_matches_standalone_metrics(big_uniform):
    dataset = big_uniform
    # a scrambled RM: scores follow no monotone map of the oracle
    scrambled = build_table({
        pid: [math.sin(97.0 * r.oracle_score + i) for i, r in enumerate(dataset.responses[pid])]
        for pid in dataset.prompt_ids()
    }, rm_name="scrambled")
    report = metric_report(dataset, scrambled, eta=0.25, selection_rank=2)
    assert report.mrr == mrr_at_selection(dataset, scrambled, 2)
    assert report.ndcg == ndcg_at_selection(dataset, scrambled, 2)
    assert report.pairwise_accuracy == pairwise_accuracy(scrambled, dataset)
    assert 0.0 < report.mrr < 1.0 and 0.0 < report.ndcg < 1.0
    for k in (32, 64, 128):
        per_prompt = [hit_rate(rank_by_table(dataset, scrambled, pid),
                               rank_by_oracle(dataset, pid), 0.25, k)
                      for pid in dataset.prompt_ids()]
        assert report.hit_rate[k] == math.fsum(per_prompt) / len(per_prompt)


def test_metrics_invariant_under_monotone_transform(big_uniform):
    dataset = big_uniform
    oracle = oracle_score_table(dataset)
    transformed = build_table({
        pid: [math.atan(r.oracle_score) for r in dataset.responses[pid]]
        for pid in dataset.prompt_ids()
    }, rm_name="atan")
    assert mrr_at_selection(dataset, transformed, 1) == mrr_at_selection(dataset, oracle, 1)
    assert ndcg_at_selection(dataset, transformed, 2) == ndcg_at_selection(dataset, oracle, 2)
    assert pairwise_accuracy(transformed, dataset) == pairwise_accuracy(oracle, dataset)


def reference_pairwise_accuracy(table, dataset) -> float:
    """The per-prompt N x N sign-matrix form of pairwise accuracy."""
    per_prompt = []
    for prompt_id in dataset.prompt_ids():
        responses = dataset.responses[prompt_id]
        oracle = np.asarray([r.oracle_score for r in responses])
        rm = np.asarray([table.score(prompt_id, r.response_id) for r in responses])
        oracle_sign = np.sign(oracle[:, None] - oracle[None, :])
        rm_sign = np.sign(rm[:, None] - rm[None, :])
        comparable = np.triu(oracle_sign != 0, k=1)
        agree = int((comparable & (rm_sign == oracle_sign)).sum())
        rm_ties = int((comparable & (rm_sign == 0)).sum())
        per_prompt.append(100.0 * (agree + 0.5 * rm_ties) / int(comparable.sum()))
    return math.fsum(per_prompt) / len(per_prompt)


def _tie_case(rng, case: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(oracle, RM) scores of one prompt of N responses, with the ties that
    ``case`` names; the oracle always has two distinct values."""
    continuous = rng.uniform(1.0, 9.0, n)
    levels = rng.integers(1, 4, n).astype(float)
    levels[:2] = 1.0, 2.0
    if case == "none":
        return continuous, rng.standard_normal(n)
    if case == "oracle":
        return levels, rng.standard_normal(n)
    if case == "rm":
        return continuous, rng.integers(0, 3, n).astype(float)
    if case == "joint":
        return levels, levels + rng.integers(0, 2, n)
    return levels, np.full(n, 0.5)  # "constant": the RM ties every pair


def _tie_pairs(scores: np.ndarray) -> int:
    counts = np.unique(scores, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


def _kendall_pairwise_accuracy(oracle: np.ndarray, rm: np.ndarray) -> float:
    """One prompt's pairwise accuracy from scipy's tau-b: the comparable
    pairs C and n_c - n_d = tau_b * sqrt(C * (P - T_rm)) give
    100 * (C + n_c - n_d) / (2C)."""
    pairs = len(oracle) * (len(oracle) - 1) // 2
    comparable = pairs - _tie_pairs(oracle)
    tau = kendalltau(oracle, rm)[0]
    net = tau * math.sqrt(comparable * (pairs - _tie_pairs(rm)))
    return 50.0 * (comparable + net) / comparable


@pytest.mark.parametrize("n", [2, 3, 7, 64, 65, 257, 1024])
@pytest.mark.parametrize("case", ["none", "oracle", "rm", "joint", "constant"])
def test_pairwise_accuracy_matches_pair_loop_and_kendall_tau(case, n):
    rng = np.random.default_rng(n)
    rows = {f"p{i}": _tie_case(rng, case, n) for i in range(3)}
    dataset = build_dataset({pid: oracle for pid, (oracle, _) in rows.items()})
    table = build_table({pid: rm for pid, (_, rm) in rows.items()})
    batch = pairwise_accuracy(table, dataset)
    assert batch == reference_pairwise_accuracy(table, dataset)
    alone = [pairwise_accuracy(build_table({pid: rm}), build_dataset({pid: oracle}))
             for pid, (oracle, rm) in rows.items()]
    # a prompt's value does not depend on the prompts batched with it
    assert batch == math.fsum(alone) / len(alone)
    for value, (oracle, rm) in zip(alone, rows.values()):
        if np.all(rm == rm[0]):  # tau-b is undefined
            assert value == 50.0
        else:
            assert value == pytest.approx(_kendall_pairwise_accuracy(oracle, rm), abs=1e-12)


@pytest.mark.parametrize("selection_rank", [1, 2, 5])
def test_batched_metrics_match_per_prompt_rankings(selection_rank):
    dataset, table = unordered_ties_dataset()
    report = metric_report(dataset, table, eta=0.5, selection_rank=selection_rank)
    pids = dataset.prompt_ids()
    pairs = [(rank_by_table(dataset, table, pid), rank_by_oracle(dataset, pid)) for pid in pids]
    for k in (1, 3, 6):
        per_prompt = [hit_rate(rm, orc, 0.5, k) for rm, orc in pairs]
        assert report.hit_rate[k] == math.fsum(per_prompt) / len(per_prompt)
    ranks = [orc.response_ids.index(rm.response_ids[selection_rank - 1]) + 1
             for rm, orc in pairs]
    assert report.mrr == math.fsum(1.0 / r for r in ranks) / len(ranks)
    ideal = 1.0 / math.log2(1 + selection_rank)
    assert report.ndcg == math.fsum(
        (1.0 / math.log2(1 + r)) / ideal for r in ranks) / len(ranks)
    assert report.mrr == mrr_at_selection(dataset, table, selection_rank)
    assert report.ndcg == ndcg_at_selection(dataset, table, selection_rank)
    assert report.pairwise_accuracy == reference_pairwise_accuracy(table, dataset)
    assert report.pairwise_accuracy == pairwise_accuracy(table, dataset)


def test_metric_report_check_order():
    dataset, table = unordered_ties_dataset()
    with pytest.raises(InvalidConfig, match="eta"):
        metric_report(dataset, table, eta=1.5, hit_rate_cutoffs=[99])
    with pytest.raises(InvalidConfig, match="K=99"):
        metric_report(dataset, table, eta=0.5, hit_rate_cutoffs=[99, 0])
    with pytest.raises(EmptyGroundTruth):
        metric_report(dataset, table, eta=0.01, hit_rate_cutoffs=[2, 99])
    with pytest.raises(InvalidConfig, match="selection rank 13"):
        metric_report(dataset, table, eta=0.5, selection_rank=13)
