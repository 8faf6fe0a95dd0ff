"""Offline labeler: the single shipped oracle implementation."""

from __future__ import annotations

import pytest

from retabench import (
    JUDGE_TEMPLATE,
    BenchmarkDataset,
    OfflineLabeler,
    load_benchmark,
)
from retabench.errors import MissingScore

from conftest import forbid_response_records


def test_offline_labeler_returns_recorded_scores(tiny_dataset_dir, monkeypatch):
    loaded = load_benchmark(tiny_dataset_dir)
    records = BenchmarkDataset(loaded.name, loaded.prompts, loaded.responses,
                               loaded.responses_per_prompt)

    # the block reader's dataset: the labeler reads its columns
    forbid_response_records(monkeypatch)
    labeler = OfflineLabeler.from_directory(tiny_dataset_dir)
    assert labeler.oracle_score("p1", "a") == 4.0
    assert labeler.oracle_score("p2", "b") == 9.5
    assert labeler.oracle_samples("p1", "a") == (4.0,)
    with pytest.raises(MissingScore):
        labeler.oracle_score("p1", "zzz")
    # and reads what it reads from the equal dataset built from records
    built = OfflineLabeler(records)
    for pair in records.iter_pairs():
        assert labeler.oracle_score(*pair) == built.oracle_score(*pair)
        assert labeler.oracle_samples(*pair) == built.oracle_samples(*pair)


def test_offline_labeler_exposes_sample_lists(tmp_path):
    from conftest import write_dataset_dir

    prompts = [{"prompt_id": "p", "text": "t"}]
    responses = [
        {"prompt_id": "p", "response_id": "a", "oracle_score": 2.0,
         "oracle_samples": [1.0, 2.0, 3.0]},
        {"prompt_id": "p", "response_id": "b", "oracle_score": 5.0},
    ]
    directory = write_dataset_dir(tmp_path / "d", prompts, responses)
    labeler = OfflineLabeler(load_benchmark(directory))
    assert labeler.oracle_samples("p", "a") == (1.0, 2.0, 3.0)
    assert labeler.oracle_samples("p", "b") == (5.0,)


def test_judge_template_fields():
    rendered = JUDGE_TEMPLATE.format(prompt="Q", response="A")
    assert "Q" in rendered and "A" in rendered
