"""Shared fixtures: tiny in-memory datasets and on-disk JSONL builders."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from retabench import (
    BenchmarkDataset,
    PromptRecord,
    ResponseRecord,
    RetaConfig,
    RmScoreTable,
    bon_curve,
    reta_curve,
    reta_curve_pair,
)


def build_dataset(oracle_by_prompt: dict[str, list[float]],
                  name: str = "test") -> BenchmarkDataset:
    """Dataset from prompt_id -> oracle scores; ids r000, r001, ..."""
    prompts = [PromptRecord(pid, f"prompt {pid}") for pid in sorted(oracle_by_prompt)]
    responses = [
        ResponseRecord(pid, f"r{i:03d}", float(score))
        for pid in sorted(oracle_by_prompt)
        for i, score in enumerate(oracle_by_prompt[pid])
    ]
    return BenchmarkDataset(name=name, prompts=prompts, responses=responses)


def build_table(scores_by_prompt: dict[str, list[float]],
                rm_name: str = "rm") -> RmScoreTable:
    """Score table aligned with build_dataset's response ids."""
    scores = {
        (pid, f"r{i:03d}"): float(score)
        for pid in sorted(scores_by_prompt)
        for i, score in enumerate(scores_by_prompt[pid])
    }
    return RmScoreTable(rm_name=rm_name, scores=scores)


def forbid_response_records(monkeypatch) -> None:
    """Make every later ``ResponseRecord(...)`` raise, until the patch is undone."""
    def no_records(*args, **kwargs):
        raise AssertionError("a ResponseRecord was built")
    monkeypatch.setattr(ResponseRecord, "__init__", no_records)


def forbid_score_dicts(monkeypatch) -> None:
    """Make every later read of a table's ``scores`` dict or of a dataset's
    pair index raise, until the patch is undone."""
    def no_scores(self):
        raise AssertionError("a scores dict was built")

    def no_index(self):
        raise AssertionError("a pair index was built")
    monkeypatch.setattr(RmScoreTable, "scores", property(no_scores))
    monkeypatch.setattr(BenchmarkDataset, "_pair_index", property(no_index))


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def write_dataset_dir(directory: Path,
                      prompts: list[dict],
                      responses: list[dict]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    write_jsonl(directory / "prompts.jsonl", prompts)
    write_jsonl(directory / "responses.jsonl", responses)
    return directory


@pytest.fixture
def tiny_dataset_dir(tmp_path: Path) -> Path:
    """2 prompts x 3 responses, oracle scores in (0, 10]."""
    prompts = [
        {"prompt_id": "p1", "text": "first prompt"},
        {"prompt_id": "p2", "text": "second prompt"},
    ]
    responses = [
        {"prompt_id": "p1", "response_id": "a", "oracle_score": 4.0, "text": "r"},
        {"prompt_id": "p1", "response_id": "b", "oracle_score": 2.5},
        {"prompt_id": "p1", "response_id": "c", "oracle_score": 7.0},
        {"prompt_id": "p2", "response_id": "a", "oracle_score": 1.0},
        {"prompt_id": "p2", "response_id": "b", "oracle_score": 9.5},
        {"prompt_id": "p2", "response_id": "c", "oracle_score": 3.0},
    ]
    return write_dataset_dir(tmp_path / "tiny", prompts, responses)


def scores_records(dataset_pairs: list[tuple[str, str]], values: list[float],
                   rm_name: str = "rm") -> list[dict]:
    return [
        {"prompt_id": pid, "response_id": rid, "rm_name": rm_name, "score": value}
        for (pid, rid), value in zip(dataset_pairs, values)
    ]


def one_prompt(oracle_scores, rm_scores=None, prompt_id: str = "p0"):
    """A one-prompt dataset and its score table; the RM scores default to
    the oracle scores, so scores given in descending order are in rank order."""
    dataset = build_dataset({prompt_id: list(oracle_scores)})
    table = build_table({prompt_id: list(oracle_scores if rm_scores is None else rm_scores)})
    return dataset, table


def random_prompt(rng: np.random.Generator, size: int, prompt_id: str = "p0"):
    """``one_prompt`` over distinct random oracle scores, in a scrambled RM order."""
    return one_prompt(rng.uniform(0.5, 9.5, size=size), rng.standard_normal(size), prompt_id)


def reta_at(dataset: BenchmarkDataset, table: RmScoreTable, eta: float, n: int,
            normalize: bool = True) -> float:
    """A one-prompt dataset's RETA at the single subset size ``n``: the n
    grid [n/N * N**1, n/N * N**1] holds n alone. ``normalize=False`` reads
    the unnormalized curve of ``reta_curve_pair``."""
    ratio = n / dataset.responses_per_prompt
    config = RetaConfig(ratio, ratio, 1.0)
    curve = (reta_curve(dataset, table, [eta], config) if normalize
             else reta_curve_pair(dataset, table, [eta], config)[1])
    [point] = curve.points
    assert point.n_values_used == [n]
    [value] = point.per_prompt.values()
    return value


def bon_at(dataset: BenchmarkDataset, table: RmScoreTable, variant, n: int) -> float:
    """A one-prompt dataset's best-of-n family value at ``n`` alone."""
    [point] = bon_curve(dataset, table, variant, [n]).points
    return point.value


def prompt_subset(dataset: BenchmarkDataset, table: RmScoreTable, prompt_ids):
    """The dataset and score table restricted to ``prompt_ids``."""
    keep = set(prompt_ids)
    return (BenchmarkDataset(dataset.name, [p for p in dataset.prompts if p.prompt_id in keep],
                             [r for pid in keep for r in dataset.responses[pid]]),
            RmScoreTable(table.rm_name,
                         {pair: v for pair, v in table.scores.items() if pair[0] in keep}))


def unordered_ties_dataset(seed: int = 3, prompts: int = 6, size: int = 12):
    """Hand-built dataset whose responses are passed out of id order (the
    dataset stores them sorted), with exact score ties, including 0.0
    against -0.0, on both score sides."""
    rng = np.random.default_rng(seed)
    prompt_ids = [f"p{i}" for i in range(prompts)]
    responses, scores = [], {}
    for pid in prompt_ids:
        ids = [f"r{j:02d}" for j in rng.permutation(size)]
        oracle = rng.integers(1, 4, size).astype(float)
        rm = rng.integers(-1, 2, size) * rng.choice([1.0, 2.0], size)
        rm[rng.random(size) < 0.3] = -0.0
        responses += [ResponseRecord(pid, rid, float(o)) for rid, o in zip(ids, oracle)]
        scores.update({(pid, rid): float(v) for rid, v in zip(ids, rm)})
    dataset = BenchmarkDataset("unordered", [PromptRecord(pid, "t") for pid in prompt_ids],
                               responses)
    return dataset, RmScoreTable("rm", scores)
