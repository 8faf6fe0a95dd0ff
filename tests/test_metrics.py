"""Hit rate, MRR/NDCG at a selection rank, pairwise accuracy, win rates."""

from __future__ import annotations

import math

import pytest

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

from conftest import build_dataset, build_table, write_jsonl


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


def test_win_rate_examples():
    assert win_rate_aggregate(["win", "loss", "draw", "win"]) == (50.0, 0.25)
    assert win_rate_aggregate(["draw", "draw"]) == (0.0, 0.0)
    assert win_rate_aggregate(["win", "win"]) == (100.0, 1.0)
    with pytest.raises(EmptyLabels):
        win_rate_aggregate([])
    with pytest.raises(InvalidConfig):
        win_rate_aggregate(["victory"])


def test_load_win_labels(tmp_path):
    path = tmp_path / "labels.jsonl"
    write_jsonl(path, [
        {"prompt_id": "p", "response_id": "a", "outcome": "win"},
        {"prompt_id": "p", "response_id": "b", "outcome": "loss"},
    ])
    assert load_win_labels(path) == ["win", "loss"]
    bad = tmp_path / "bad.jsonl"
    write_jsonl(bad, [{"prompt_id": "p", "response_id": "a", "outcome": "meh"}])
    with pytest.raises(MalformedRecord):
        load_win_labels(bad)


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
