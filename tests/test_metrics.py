"""Hit rate, MRR/NDCG at a selection rank, pairwise accuracy, win rates."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from scipy.stats import kendalltau

from retabench import (
    DistSpec,
    RmScoreTable,
    default_hit_rate_cutoffs,
    gen_synthetic,
    load_win_labels,
    metric_report,
    oracle_score_table,
    write_metrics_csv,
)
from retabench.errors import (
    EmptyGroundTruth,
    EmptyLabels,
    InvalidConfig,
    MalformedRecord,
    MissingScore,
    NoComparablePairs,
)

from conftest import (
    build_dataset,
    build_table,
    prompt_subset,
    unordered_ties_dataset,
    write_jsonl,
)


@pytest.fixture(scope="module")
def big_uniform():
    spec = DistSpec.deterministic_uniform(0.0, 1.0)
    dataset, _ = gen_synthetic(spec, 4, 256, seed=31)
    return dataset


def by_score(scores) -> list[int]:
    """Positions by score descending, exact ties by ascending position (id order)."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def reference_hit_rate(oracle, rm, eta: float, k: int) -> float:
    """One prompt's hit rate by plain loops: the percent of the oracle's top
    floor(eta*N) responses found in the RM's top K."""
    ground_truth = set(by_score(oracle)[:math.floor(eta * len(oracle))])
    hits = sum(1 for i in by_score(rm)[:k] if i in ground_truth)
    return 100.0 * hits / len(ground_truth)


def prompt_scores(dataset, table, prompt_id):
    """(oracle, RM) scores of one prompt's responses, in id order."""
    responses = dataset.responses[prompt_id]
    return ([r.oracle_score for r in responses],
            [table.scores[(prompt_id, r.response_id)] for r in responses])


def selection_rank_of(oracle, rm, j: int) -> int:
    """One prompt's 1-based oracle rank of the RM's j-th pick, by plain loops."""
    return by_score(oracle).index(by_score(rm)[j - 1]) + 1


def pairwise(dataset, table) -> float:
    """``metric_report``'s pairwise accuracy, at settings any pool of N >= 2 takes."""
    return metric_report(dataset, table, eta=0.5).pairwise_accuracy


def test_oracle_hit_rate_anchors(big_uniform):
    dataset = big_uniform
    oracle = oracle_score_table(dataset)
    for prompt_id in dataset.prompt_ids():
        report = metric_report(*prompt_subset(dataset, oracle, [prompt_id]), eta=0.25)
        assert report.hit_rate == {32: 50.0, 64: 100.0, 128: 100.0}


def test_hit_rate_oracle_identity_sweep(big_uniform):
    # for the oracle itself, hits are min(K, G) out of G by construction; the
    # etas put G below, at and above each of the cutoffs 32, 64 and 128
    dataset = big_uniform
    alone = prompt_subset(dataset, oracle_score_table(dataset), dataset.prompt_ids()[:1])
    for eta in (0.1, 0.25, 0.5, 0.75):
        gt = math.floor(eta * 256)
        report = metric_report(*alone, eta=eta)
        assert report.hit_rate == {k: 100.0 * min(k, gt) / gt for k in (32, 64, 128)}


def test_hit_rate_disjoint_is_zero():
    dataset = build_dataset({"p": [4.0, 3.0, 2.0, 1.0]})
    # RM ranks the oracle's bottom two on top
    table = build_table({"p": [0.1, 0.2, 0.9, 0.8]})
    assert metric_report(dataset, table, eta=0.5).hit_rate == {1: 0.0, 2: 0.0}


def test_hit_rate_empty_ground_truth():
    dataset = build_dataset({"p": [4.0, 3.0, 2.0]})
    table = build_table({"p": [1.0, 2.0, 3.0]})
    with pytest.raises(EmptyGroundTruth):
        metric_report(dataset, table, eta=0.1)


def test_mrr_anchors(big_uniform):
    dataset = big_uniform
    oracle = oracle_score_table(dataset)
    assert metric_report(dataset, oracle, selection_rank=1).mrr == 1.0
    assert metric_report(dataset, oracle, selection_rank=2).mrr == 0.5


def test_mrr_worst_pick():
    dataset = build_dataset({"p": [4.0, 3.0, 2.0, 1.0]})
    # top RM pick is the oracle's worst response
    table = build_table({"p": [1.0, 2.0, 3.0, 9.0]})
    assert metric_report(dataset, table, eta=0.5).mrr == 0.25


def test_ndcg_anchors(big_uniform):
    dataset = big_uniform
    oracle = oracle_score_table(dataset)
    assert metric_report(dataset, oracle, selection_rank=1).ndcg == 1.0
    assert metric_report(dataset, oracle, selection_rank=2).ndcg == 1.0


def test_ndcg_fixed_rank():
    # selected response always lands at oracle rank 3: 1/log2(4) = 0.5
    dataset = build_dataset({"p": [4.0, 3.0, 2.0, 1.0]})
    table = build_table({"p": [1.0, 2.0, 9.0, 3.0]})
    assert metric_report(dataset, table, eta=0.5).ndcg == pytest.approx(0.5, abs=1e-15)


def test_pairwise_accuracy_extremes():
    dataset = build_dataset({"p": [4.0, 3.0, 2.0, 1.0]})
    aligned = build_table({"p": [9.0, 8.0, 7.0, 6.0]})
    reversed_table = build_table({"p": [6.0, 7.0, 8.0, 9.0]})
    assert pairwise(dataset, aligned) == 100.0
    assert pairwise(dataset, reversed_table) == 0.0


def test_pairwise_accuracy_hand_example():
    # oracle [3,2,1] vs RM [3,1,2]: pairs (0,1) and (0,2) agree, (1,2) flips
    dataset = build_dataset({"p": [3.0, 2.0, 1.0]})
    table = build_table({"p": [3.0, 1.0, 2.0]})
    assert pairwise(dataset, table) == pytest.approx(200.0 / 3.0, abs=1e-9)


def test_pairwise_accuracy_tie_handling():
    # oracle tie (first pair) excluded; RM tie scores half
    dataset = build_dataset({"p": [2.0, 2.0, 1.0]})
    table = build_table({"p": [5.0, 5.0, 5.0]})
    # comparable pairs: (0,2) and (1,2); both RM-tied -> 50
    assert pairwise(dataset, table) == 50.0


def test_pairwise_accuracy_reversal_complement():
    dataset = build_dataset({"p1": [1.0, 3.0, 2.0, 5.0], "p2": [2.0, 9.0, 4.0, 1.0]})
    table = build_table({"p1": [0.3, 0.1, 0.4, 0.2], "p2": [0.2, 0.4, 0.3, 0.1]})
    flipped = build_table({
        "p1": [-0.3, -0.1, -0.4, -0.2], "p2": [-0.2, -0.4, -0.3, -0.1]})
    total = pairwise(dataset, table) + pairwise(dataset, flipped)
    assert total == pytest.approx(100.0, abs=1e-9)


def test_pairwise_accuracy_no_comparable():
    dataset = build_dataset({"p": [2.0, 2.0, 2.0]})
    table = build_table({"p": [1.0, 2.0, 3.0]})
    with pytest.raises(NoComparablePairs):
        pairwise(dataset, table)
    # of two prompts whose oracle ties every pair, the first in id order is named
    dataset = build_dataset({"p2": [2.0, 2.0, 2.0], "p0": [1.0, 2.0, 3.0],
                             "p1": [5.0, 5.0, 5.0]})
    table = build_table({pid: [1.0, 2.0, 3.0] for pid in ("p0", "p1", "p2")})
    with pytest.raises(NoComparablePairs, match="prompt 'p1'"):
        pairwise(dataset, table)


def test_win_rate_examples():
    dataset = build_dataset({"p": [1.0, 2.0, 3.0]})
    table = build_table({"p": [1.0, 2.0, 3.0]})

    def win_rate(labels):
        return metric_report(dataset, table, eta=0.5, win_labels=labels).win_rate

    assert win_rate(["win", "loss", "draw", "win"]) == 50.0
    assert win_rate(["draw", "draw"]) == 0.0
    assert win_rate(["win", "win"]) == 100.0
    assert win_rate(("win", "loss", "loss")) == 100.0 / 3.0
    with pytest.raises(EmptyLabels):
        win_rate([])
    # an unhashable label is an unknown outcome too, not a bare TypeError
    for labels in (["victory"], [["win"]], [{}], ["win", None]):
        with pytest.raises(InvalidConfig, match="^unknown outcome "):
            win_rate(labels)


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


def test_blank_win_label_file_is_empty_labels(tmp_path):
    path = tmp_path / "labels.jsonl"
    path.write_text("\n  \n", encoding="utf-8")
    with pytest.raises(EmptyLabels) as info:
        load_win_labels(path, build_dataset({"p": [1.0, 2.0]}))
    assert str(info.value) == "labels.jsonl: no label records"


def test_metrics_csv_needs_reports_of_one_pool_size(tmp_path):
    # pools of 4 and 16 responses give the cutoffs [1, 2] and [2, 4, 8]
    reports = [metric_report(build_dataset({"p": oracle}), build_table({"p": oracle}), eta=0.5)
               for oracle in ([4.0, 3.0, 2.0, 1.0], [float(v) for v in range(1, 17)])]
    path = tmp_path / "metrics.csv"
    for chosen, message in (([], "no metric reports to write"),
                            (reports, "metric reports use different hit-rate cutoffs")):
        with pytest.raises(InvalidConfig) as info:
            write_metrics_csv(chosen, path)
        assert str(info.value) == message
        assert not path.exists()


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
    # plain ints from a numpy count too, so a JSON echo of them works
    assert list(map(type, default_hit_rate_cutoffs(np.int64(256)))) == [int] * 3
    path = tmp_path / "metrics.csv"
    write_metrics_csv([report], path, "prov")
    lines = path.read_text().splitlines()
    assert lines[0] == "# prov"
    assert lines[1].startswith("rm_name,hit_rate_at_32,hit_rate_at_64,hit_rate_at_128")
    assert lines[2].startswith("oracle,50.0,100.0,100.0,1.0,1.0,1,100.0,50.0")


def test_metric_report_matches_plain_loops(big_uniform):
    dataset = big_uniform
    # a scrambled RM: scores follow no monotone map of the oracle
    scrambled = build_table({
        pid: [math.sin(97.0 * r.oracle_score + i) for i, r in enumerate(dataset.responses[pid])]
        for pid in dataset.prompt_ids()
    }, rm_name="scrambled")
    report = metric_report(dataset, scrambled, eta=0.25, selection_rank=2)
    scores = [prompt_scores(dataset, scrambled, pid) for pid in dataset.prompt_ids()]
    ranks = [selection_rank_of(oracle, rm, 2) for oracle, rm in scores]
    assert report.mrr == math.fsum(1.0 / r for r in ranks) / len(ranks)
    ideal = 1.0 / math.log2(3)
    assert report.ndcg == math.fsum((1.0 / math.log2(1 + r)) / ideal for r in ranks) / len(ranks)
    assert report.pairwise_accuracy == reference_pairwise_accuracy(scrambled, dataset)
    assert 0.0 < report.mrr < 1.0 and 0.0 < report.ndcg < 1.0
    for k in (32, 64, 128):
        per_prompt = [reference_hit_rate(oracle, rm, 0.25, k) for oracle, rm in scores]
        assert report.hit_rate[k] == math.fsum(per_prompt) / len(per_prompt)


def test_metrics_invariant_under_monotone_transform(big_uniform):
    dataset = big_uniform
    oracle = oracle_score_table(dataset)
    transformed = build_table({
        pid: [math.atan(r.oracle_score) for r in dataset.responses[pid]]
        for pid in dataset.prompt_ids()
    }, rm_name="atan")
    for j in (1, 2):
        moved = metric_report(dataset, transformed, selection_rank=j)
        base = metric_report(dataset, oracle, selection_rank=j)
        assert (moved.hit_rate, moved.mrr, moved.ndcg, moved.pairwise_accuracy) == \
            (base.hit_rate, base.mrr, base.ndcg, base.pairwise_accuracy)


def reference_pairwise_accuracy(table, dataset) -> float:
    """The per-prompt N x N sign-matrix form of pairwise accuracy."""
    per_prompt = []
    for prompt_id in dataset.prompt_ids():
        responses = dataset.responses[prompt_id]
        oracle = np.asarray([r.oracle_score for r in responses])
        rm = np.asarray([table.scores[(prompt_id, r.response_id)] for r in responses])
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
    batch = pairwise(dataset, table)
    assert batch == reference_pairwise_accuracy(table, dataset)
    alone = [pairwise(build_dataset({pid: oracle}), build_table({pid: rm}))
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
    scores = [prompt_scores(dataset, table, pid) for pid in dataset.prompt_ids()]
    for k in (1, 3, 6):
        per_prompt = [reference_hit_rate(oracle, rm, 0.5, k) for oracle, rm in scores]
        assert report.hit_rate[k] == math.fsum(per_prompt) / len(per_prompt)
    ranks = [selection_rank_of(oracle, rm, selection_rank) for oracle, rm in scores]
    assert report.mrr == math.fsum(1.0 / r for r in ranks) / len(ranks)
    ideal = 1.0 / math.log2(1 + selection_rank)
    assert report.ndcg == math.fsum(
        (1.0 / math.log2(1 + r)) / ideal for r in ranks) / len(ranks)
    assert report.pairwise_accuracy == reference_pairwise_accuracy(table, dataset)
    # each prompt alone: its pick's reciprocal rank and gain, and its pair count
    for pid, rank in zip(dataset.prompt_ids(), ranks):
        alone = prompt_subset(dataset, table, [pid])
        single = metric_report(*alone, eta=0.5, selection_rank=selection_rank)
        assert single.mrr == 1.0 / rank
        assert single.ndcg == (1.0 / math.log2(1 + rank)) / ideal
        assert single.pairwise_accuracy == reference_pairwise_accuracy(alone[1], alone[0])


def test_metric_report_check_order():
    # each call also breaks every check after the one it expects: eta, then
    # the scores, then the ground truth, then the selection rank, then the labels
    dataset, table = unordered_ties_dataset()
    partial = RmScoreTable("rm", dict(list(table.scores.items())[1:]))
    with pytest.raises(InvalidConfig, match=r"eta must be in \(0, 1\)"):
        metric_report(dataset, partial, eta=1.5, selection_rank=13, win_labels=[])
    with pytest.raises(MissingScore):
        metric_report(dataset, partial, eta=0.01, selection_rank=13, win_labels=[])
    with pytest.raises(EmptyGroundTruth):
        metric_report(dataset, table, eta=0.01, selection_rank=13, win_labels=[])
    with pytest.raises(InvalidConfig, match="selection rank 13"):
        metric_report(dataset, table, eta=0.5, selection_rank=13, win_labels=[])
    with pytest.raises(EmptyLabels):
        metric_report(dataset, table, eta=0.5, win_labels=[])


@pytest.mark.parametrize("eta", [5.0, 1.0, 0.0, -0.5])
def test_metric_report_checks_eta_with_no_hit_rate_cutoffs(eta):
    # no cutoff list is passed: the cutoffs follow from N, and eta is checked
    # once, before they are used, so no eta outside (0, 1) gets through
    dataset, table = unordered_ties_dataset()
    with pytest.raises(InvalidConfig, match=r"eta must be in \(0, 1\)"):
        metric_report(dataset, table, eta=eta)
    hit_rate = metric_report(dataset, table, eta=0.5).hit_rate
    assert list(hit_rate) == default_hit_rate_cutoffs(dataset.responses_per_prompt) == [1, 3, 6]


@pytest.mark.parametrize("rank", [True, 2.0, 2.5])
def test_selection_rank_must_be_an_int(rank, tmp_path):
    dataset, table = unordered_ties_dataset()
    with pytest.raises(InvalidConfig, match="selection rank must be an int"):
        metric_report(dataset, table, eta=0.5, selection_rank=rank)
    report = metric_report(dataset, table, eta=0.5, selection_rank=np.int64(2))
    expected = metric_report(dataset, table, eta=0.5, selection_rank=2)
    assert (report.mrr, report.ndcg) == (expected.mrr, expected.ndcg)
    path = tmp_path / "metrics.csv"
    write_metrics_csv([report], path)
    [row] = csv.DictReader(path.read_text(encoding="utf-8").splitlines())
    assert row["selection_rank"] == "2"
