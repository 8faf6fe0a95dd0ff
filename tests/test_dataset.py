"""Loader, writer, ingestion, and validation behavior."""

from __future__ import annotations

import json
import math

import pytest

from retabench import (
    ingest_rm_scores,
    load_benchmark,
    load_candidate_prompts,
    oracle_score_table,
    validate_dataset,
    write_benchmark,
    write_rm_scores,
)
from retabench.errors import (
    DuplicateId,
    DuplicateScore,
    InvalidConfig,
    MalformedRecord,
    MissingScore,
    NonFiniteScore,
    NonPositiveOracleScore,
    NonUniformN,
    UnknownPair,
)

from conftest import scores_records, write_dataset_dir, write_jsonl


def test_load_minimal_dataset(tiny_dataset_dir):
    dataset = load_benchmark(tiny_dataset_dir)
    assert dataset.num_prompts == 2
    assert dataset.responses_per_prompt == 3
    assert dataset.prompt_ids() == ["p1", "p2"]
    assert [r.response_id for r in dataset.responses["p1"]] == ["a", "b", "c"]


def test_load_is_deterministic(tiny_dataset_dir):
    first = load_benchmark(tiny_dataset_dir)
    second = load_benchmark(tiny_dataset_dir)
    assert first == second


def test_round_trip(tiny_dataset_dir, tmp_path):
    dataset = load_benchmark(tiny_dataset_dir)
    out = tmp_path / "rewritten"
    write_benchmark(dataset, out)
    reloaded = load_benchmark(out, name=dataset.name)
    assert reloaded == dataset


def test_non_uniform_counts_rejected(tmp_path):
    prompts = [{"prompt_id": "p1", "text": "t"}, {"prompt_id": "p2", "text": "t"}]
    responses = [
        {"prompt_id": "p1", "response_id": "a", "oracle_score": 1.0},
        {"prompt_id": "p1", "response_id": "b", "oracle_score": 2.0},
        {"prompt_id": "p2", "response_id": "a", "oracle_score": 1.0},
        {"prompt_id": "p2", "response_id": "b", "oracle_score": 2.0},
        {"prompt_id": "p2", "response_id": "c", "oracle_score": 3.0},
    ]
    directory = write_dataset_dir(tmp_path / "d", prompts, responses)
    with pytest.raises(NonUniformN):
        load_benchmark(directory)


def test_negative_oracle_score_rejected(tmp_path):
    prompts = [{"prompt_id": "p1", "text": "t"}]
    responses = [
        {"prompt_id": "p1", "response_id": "a", "oracle_score": -1.0},
        {"prompt_id": "p1", "response_id": "b", "oracle_score": 2.0},
    ]
    directory = write_dataset_dir(tmp_path / "d", prompts, responses)
    with pytest.raises(NonPositiveOracleScore):
        load_benchmark(directory)


def test_oracle_score_above_bound_rejected(tmp_path):
    prompts = [{"prompt_id": "p1", "text": "t"}]
    responses = [
        {"prompt_id": "p1", "response_id": "a", "oracle_score": 11.0},
        {"prompt_id": "p1", "response_id": "b", "oracle_score": 2.0},
    ]
    directory = write_dataset_dir(tmp_path / "d", prompts, responses)
    with pytest.raises(MalformedRecord):
        load_benchmark(directory)
    dataset = load_benchmark(directory, max_oracle_score=20.0)
    assert dataset.responses_per_prompt == 2


def test_bad_max_oracle_score_rejected(tiny_dataset_dir):
    dataset = load_benchmark(tiny_dataset_dir)
    for bound in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(InvalidConfig):
            load_benchmark(tiny_dataset_dir, max_oracle_score=bound)
        with pytest.raises(InvalidConfig):
            validate_dataset(dataset, max_oracle_score=bound)


def test_duplicate_ids_rejected(tmp_path):
    prompts = [{"prompt_id": "p1", "text": "t"}, {"prompt_id": "p1", "text": "t2"}]
    responses = [
        {"prompt_id": "p1", "response_id": "a", "oracle_score": 1.0},
        {"prompt_id": "p1", "response_id": "b", "oracle_score": 2.0},
    ]
    directory = write_dataset_dir(tmp_path / "d", prompts, responses)
    with pytest.raises(DuplicateId):
        load_benchmark(directory)


def test_oracle_samples_must_match_mean(tmp_path):
    prompts = [{"prompt_id": "p1", "text": "t"}]
    responses = [
        {"prompt_id": "p1", "response_id": "a", "oracle_score": 2.0,
         "oracle_samples": [1.0, 2.0, 3.0]},
        {"prompt_id": "p1", "response_id": "b", "oracle_score": 2.0,
         "oracle_samples": [1.0, 2.0, 4.0]},
    ]
    directory = write_dataset_dir(tmp_path / "d", prompts, responses)
    with pytest.raises(MalformedRecord):
        load_benchmark(directory)


def test_unknown_keys_become_warnings(tmp_path):
    prompts = [{"prompt_id": "p1", "text": "t", "extra_field": 1}]
    responses = [
        {"prompt_id": "p1", "response_id": "a", "oracle_score": 1.0},
        {"prompt_id": "p1", "response_id": "b", "oracle_score": 2.0},
    ]
    directory = write_dataset_dir(tmp_path / "d", prompts, responses)
    dataset = load_benchmark(directory)
    assert any("extra_field" in issue.message for issue in dataset.load_warnings)
    assert all(issue.severity == "warning" for issue in dataset.load_warnings)


def test_embedding_norm_enforced(tmp_path):
    prompts = [{"prompt_id": "p1", "text": "t", "embedding": [0.5, 0.5]}]
    responses = [
        {"prompt_id": "p1", "response_id": "a", "oracle_score": 1.0},
        {"prompt_id": "p1", "response_id": "b", "oracle_score": 2.0},
    ]
    directory = write_dataset_dir(tmp_path / "d", prompts, responses)
    with pytest.raises(MalformedRecord):
        load_benchmark(directory)


def test_ingest_rm_scores(tiny_dataset_dir, tmp_path):
    dataset = load_benchmark(tiny_dataset_dir)
    pairs = list(dataset.iter_pairs())
    path = tmp_path / "rm_scores.jsonl"
    write_jsonl(path, scores_records(pairs, [float(i) for i in range(len(pairs))]))
    table = ingest_rm_scores(dataset, path)
    assert table.rm_name == "rm"
    assert len(table.scores) == 6


def test_ingest_missing_pair(tiny_dataset_dir, tmp_path):
    dataset = load_benchmark(tiny_dataset_dir)
    pairs = list(dataset.iter_pairs())[:-1]
    path = tmp_path / "rm_scores.jsonl"
    write_jsonl(path, scores_records(pairs, [1.0] * len(pairs)))
    with pytest.raises(MissingScore):
        ingest_rm_scores(dataset, path)


def test_ingest_unknown_pair(tiny_dataset_dir, tmp_path):
    dataset = load_benchmark(tiny_dataset_dir)
    pairs = list(dataset.iter_pairs()) + [("p9", "zz")]
    path = tmp_path / "rm_scores.jsonl"
    write_jsonl(path, scores_records(pairs, [1.0] * len(pairs)))
    with pytest.raises(UnknownPair):
        ingest_rm_scores(dataset, path)


def test_ingest_duplicate_and_nonfinite(tiny_dataset_dir, tmp_path):
    dataset = load_benchmark(tiny_dataset_dir)
    pairs = list(dataset.iter_pairs())
    path = tmp_path / "dup.jsonl"
    write_jsonl(path, scores_records(pairs + [pairs[0]], [1.0] * (len(pairs) + 1)))
    with pytest.raises(DuplicateScore):
        ingest_rm_scores(dataset, path)
    bad = scores_records(pairs, [1.0] * len(pairs))
    bad[2]["score"] = float("nan")
    path2 = tmp_path / "nan.jsonl"
    with open(path2, "w", encoding="utf-8") as fh:
        for record in bad:
            fh.write(json.dumps(record).replace("NaN", "NaN") + "\n")
    with pytest.raises((NonFiniteScore, MalformedRecord)):
        ingest_rm_scores(dataset, path2)


def test_score_round_trip(tiny_dataset_dir, tmp_path):
    dataset = load_benchmark(tiny_dataset_dir)
    table = oracle_score_table(dataset, rm_name="oracle")
    path = tmp_path / "oracle.jsonl"
    write_rm_scores(table, path)
    reloaded = ingest_rm_scores(dataset, path)
    assert reloaded == table


def test_validate_ok(tiny_dataset_dir, tmp_path):
    dataset = load_benchmark(tiny_dataset_dir)
    table = oracle_score_table(dataset)
    report = validate_dataset(dataset, [table])
    assert report.ok
    assert report.errors() == []


def test_validate_duplicate_rm_name(tiny_dataset_dir):
    dataset = load_benchmark(tiny_dataset_dir)
    table = oracle_score_table(dataset, rm_name="same")
    other = oracle_score_table(dataset, rm_name="same")
    report = validate_dataset(dataset, [table, other])
    assert not report.ok
    assert any("duplicate rm_name" in issue.message for issue in report.errors())


def test_validate_embedding_dim_mismatch():
    from retabench import BenchmarkDataset, PromptRecord, ResponseRecord

    prompts = [
        PromptRecord("p1", "t", embedding=(1.0, 0.0)),
        PromptRecord("p2", "t", embedding=(1.0, 0.0, 0.0)),
    ]
    responses = {
        pid: [ResponseRecord(pid, f"r{i}", 1.0 + i) for i in range(2)]
        for pid in ("p1", "p2")
    }
    dataset = BenchmarkDataset("bad", prompts, responses, 2)
    report = validate_dataset(dataset)
    assert not report.ok
    assert any("dimension mismatch" in issue.message for issue in report.errors())


def test_load_candidate_prompts(tmp_path):
    path = tmp_path / "cands.jsonl"
    write_jsonl(path, [
        {"prompt_id": "a", "text": "x", "embedding": [3.0, 4.0]},
        {"prompt_id": "b", "text": "y", "embedding": [0.0, 2.0]},
    ])
    prompts = load_candidate_prompts(path)
    assert [p.prompt_id for p in prompts] == ["a", "b"]
    assert prompts[0].embedding == (3.0, 4.0)  # no unit-norm requirement
    with pytest.raises(MalformedRecord):
        load_candidate_prompts(tmp_path / "absent.jsonl")
