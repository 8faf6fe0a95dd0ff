"""Loader, writer, ingestion, and validation behavior."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from retabench import (
    BenchmarkDataset,
    BonVariant,
    PromptRecord,
    ResponseRecord,
    RetaCurve,
    RetaEstimate,
    RmScoreTable,
    bon_curve,
    ingest_rm_scores,
    load_benchmark,
    load_candidate_prompts,
    load_win_labels,
    metric_report,
    oracle_score_table,
    reta_curve,
    reta_curve_pair,
    write_benchmark,
    write_bon_csv,
    write_curve_csv,
    write_metrics_csv,
    write_per_prompt_csv,
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
    RetabenchError,
    UnknownPair,
)
from retabench import dataset as dataset_module
from retabench.cli import main
from retabench.ranking import oracle_matrix
from retabench import synthetic as synthetic_module
from retabench.synthetic import DistSpec, gen_synthetic

from conftest import (
    build_dataset,
    build_table,
    forbid_response_records,
    forbid_score_dicts,
    scores_records,
    write_dataset_dir,
    write_jsonl,
)


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
    for bound in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(InvalidConfig):
            load_benchmark(tiny_dataset_dir, max_oracle_score=bound)


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


def test_embedding_norm_past_the_float_range_is_malformed(tmp_path):
    # the squares sum past the largest float; the norm itself does not
    prompts = [{"prompt_id": "p1", "text": "t", "embedding": [1.3e154, 1.3e154]}]
    responses = [{"prompt_id": "p1", "response_id": r, "oracle_score": 1.0} for r in "ab"]
    directory = write_dataset_dir(tmp_path / "d", prompts, responses)
    with pytest.raises(MalformedRecord) as info:
        load_benchmark(directory)
    assert str(info.value) == ("prompts.jsonl:1: field 'embedding': "
                               "norm 1.8384776310850235e+154 not within 1e-06 of 1")


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


def test_ingest_names_the_smallest_missing_pair(tiny_dataset_dir, tmp_path):
    dataset = load_benchmark(tiny_dataset_dir)
    pairs = list(dataset.iter_pairs())
    kept = [pair for i, pair in enumerate(pairs) if i not in (1, 4)][::-1]
    path = tmp_path / "rm_scores.jsonl"
    write_jsonl(path, scores_records(kept, [1.0] * len(kept)))
    with pytest.raises(MissingScore) as info:
        ingest_rm_scores(dataset, path)
    assert info.value.pair == min(pairs[1], pairs[4])


def test_ingest_is_independent_of_file_order(tiny_dataset_dir, tmp_path):
    dataset = load_benchmark(tiny_dataset_dir)
    pairs = list(dataset.iter_pairs())
    records = scores_records(pairs, [0.5 * i for i in range(len(pairs))])
    write_jsonl(tmp_path / "sorted.jsonl", records)
    shuffled = [records[i] for i in np.random.default_rng(0).permutation(len(records))]
    assert shuffled != records
    write_jsonl(tmp_path / "shuffled.jsonl", shuffled)
    table = ingest_rm_scores(dataset, tmp_path / "shuffled.jsonl")
    assert table == ingest_rm_scores(dataset, tmp_path / "sorted.jsonl")
    assert list(table.scores) == pairs


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


@pytest.mark.parametrize("key, field, problem", [
    (("p", 5), "response_id", "pair ('p', 5): required non-empty string"),
    (("p", ""), "response_id", "pair ('p', ''): required non-empty string"),
    ((7, "a"), "prompt_id", "pair (7, 'a'): required non-empty string"),
    (("p", "a\ud800"), "response_id", "pair ('p', 'a\\ud800'): cannot be encoded as UTF-8"),
    ("pa", "-", "key 'pa': not a (prompt_id, response_id) pair"),
    (("p",), "-", "key ('p',): not a (prompt_id, response_id) pair"),
    (("p", "a", "b"), "-", "key ('p', 'a', 'b'): not a (prompt_id, response_id) pair"),
], ids=["int-response-id", "empty-response-id", "int-prompt-id", "surrogate-response-id",
        "string-key", "one-id-key", "three-id-key"])
def test_score_writer_rejects_keys_the_reader_cannot_read_back(key, field, problem):
    # such a key would be written as a record ingest_rm_scores rejects, or
    # (a string key) read back as another pair; the table is refused when
    # it is built, before its keys are sorted, so no writer ever sees it
    with pytest.raises(MalformedRecord) as raised:
        RmScoreTable("rm", {("p", "b"): 0.5, key: 1.0})
    assert str(raised.value) == f"score table 'rm': field '{field}': {problem}"


# ids that exercise every escape json.dumps makes, and values that are not
# plain floats (ints and numpy floats; a bool is not a number) or sit at the
# ends of the float range: RM scores (any finite value), positive values
# (oracle scores, samples and perplexities) and unit-norm embeddings
ODD_IDS = ['q"uote', "back\\slash", "ctl\x00\x1f\x7f\n\t", "na\u00efve \u2028",
           "astral \U0001F600", "/slash"]
ODD_VALUES = [-0.0, 5e-324, 1e308, np.float64(0.1), np.float64(-0.0), 3, 1,
              -1e308, -5e-324, 1.7976931348623157e308, 0.1 + 0.2]
ODD_POSITIVE = [5e-324, 1e308, np.float64(0.1), 3, 1, 0.1 + 0.2,
                1.7976931348623157e308, np.float64(2.5), 1e-300, 7, 0.5]
ODD_EMBEDDINGS = [(-0.0, 5e-324, np.float64(-0.0), 1), (0.6, np.float64(0.8), -0.0, 0),
                  (0, -1, 5e-324, 0.0), (0.1 + 0.2, 0.0, np.float64(0.0), 0.9539392014169456)]


def _dumps_rm_scores(table: RmScoreTable, path: Path) -> None:
    """The writer's former path, one json.dumps per record: the reference."""
    with open(path, "w", encoding="utf-8") as fh:
        for (pid, rid) in sorted(table.scores):
            obj = {"prompt_id": pid, "response_id": rid, "rm_name": table.rm_name,
                   "score": table.scores[(pid, rid)]}
            fh.write(json.dumps(obj, sort_keys=False) + "\n")


def _dumps_benchmark(dataset: BenchmarkDataset, directory: Path) -> None:
    """The writer's former path, one json.dumps per record: the reference."""
    directory.mkdir(parents=True)
    prompts = sorted(dataset.prompts, key=lambda p: p.prompt_id)
    with open(directory / "prompts.jsonl", "w", encoding="utf-8") as fh:
        for prompt in prompts:
            obj: dict = {"prompt_id": prompt.prompt_id, "text": prompt.text}
            if prompt.embedding is not None:
                obj["embedding"] = list(prompt.embedding)
            if prompt.perplexity is not None:
                obj["perplexity"] = prompt.perplexity
            fh.write(json.dumps(obj, sort_keys=False) + "\n")
    with open(directory / "responses.jsonl", "w", encoding="utf-8") as fh:
        for prompt in prompts:
            for resp in sorted(dataset.responses[prompt.prompt_id], key=lambda r: r.response_id):
                obj = {"prompt_id": resp.prompt_id, "response_id": resp.response_id,
                       "oracle_score": resp.oracle_score}
                if resp.text is not None:
                    obj["text"] = resp.text
                if resp.oracle_samples is not None:
                    obj["oracle_samples"] = list(resp.oracle_samples)
                fh.write(json.dumps(obj, sort_keys=False) + "\n")


def test_writers_match_json_dumps_bytes(tmp_path):
    prompts, responses, scores = [], {}, {}
    for i, pid in enumerate(ODD_IDS):
        prompts.append(PromptRecord(
            pid, f"text of {pid}",
            embedding=None if i == 0 else ODD_EMBEDDINGS[i % len(ODD_EMBEDDINGS)],
            perplexity=None if i == 1 else ODD_POSITIVE[i]))
        responses[pid] = [
            ResponseRecord(pid, rid, ODD_POSITIVE[i + j],
                           text=None if j == 0 else f"{rid} answers {pid}",
                           oracle_samples=None if j == 1 else (ODD_POSITIVE[i + j],))
            for j, rid in enumerate(ODD_IDS)]
        for j, rid in enumerate(ODD_IDS):
            scores[(pid, rid)] = ODD_VALUES[i + j]
    dataset = BenchmarkDataset(name="odd", prompts=prompts, responses=responses,
                               responses_per_prompt=len(ODD_IDS))
    table = RmScoreTable(rm_name='rm "\u00e9\U0001F600', scores=scores)

    write_rm_scores(table, tmp_path / "scores.jsonl")
    _dumps_rm_scores(table, tmp_path / "reference.jsonl")
    assert (tmp_path / "scores.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
    write_benchmark(dataset, tmp_path / "written")
    _dumps_benchmark(dataset, tmp_path / "reference")
    for name in ("prompts.jsonl", "responses.jsonl"):
        assert (tmp_path / "written" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes()


def test_validate_ok(tiny_dataset_dir, tmp_path, capsys):
    # a dataset and its oracle table that load with no warning give an
    # ok report with no issue
    dataset = load_benchmark(tiny_dataset_dir)
    write_rm_scores(oracle_score_table(dataset), tmp_path / "oracle.jsonl")
    assert main(["validate", "--dataset", str(tiny_dataset_dir),
                 "--rm-scores", str(tmp_path / "oracle.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "issues": []}


def test_validate_duplicate_rm_name(tiny_dataset_dir, tmp_path, capsys):
    # a repeated rm_name is refused where the score files are read
    # together, by every command, before --output-dir exists
    dataset = load_benchmark(tiny_dataset_dir)
    scores = []
    for i in range(2):
        write_rm_scores(oracle_score_table(dataset, rm_name="same"), tmp_path / f"{i}.jsonl")
        scores.append(str(tmp_path / f"{i}.jsonl"))
    for command in ("validate", "reta"):
        out = tmp_path / command
        assert main([command, "--dataset", str(tiny_dataset_dir), "--rm-scores", *scores,
                     "--output-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvalidConfig",
            "message": "duplicate rm_name among score files: ['same', 'same']"}
        assert not out.exists()


def _hand_built_pair(record=None, rm_name: str = "rm", rm_score: float = 0.5,
                     **items) -> tuple[BenchmarkDataset, RmScoreTable]:
    """A valid 2 x 2 dataset and its table, with ``record`` in place of the
    prompt of its id or of p1's first response, ``items`` (``prompts`` or
    ``responses``) in place of the dataset's own, and ``rm_name`` and
    ``rm_score`` (for pair p1/a) in the table."""
    prompts = [PromptRecord("p1", "t", embedding=(0.6, 0.8), perplexity=2.0),
               PromptRecord("p2", "t", embedding=(1.0, 0.0))]
    if isinstance(record, PromptRecord):
        prompts = [record if p.prompt_id == record.prompt_id else p for p in prompts]
    responses = {pid: [ResponseRecord(pid, rid, 1.0, oracle_samples=(0.5, 1.5))
                       for rid in ("a", "b")] for pid in ("p1", "p2")}
    if isinstance(record, ResponseRecord):
        responses["p1"][0] = record
    dataset = BenchmarkDataset("hand-built", items.get("prompts", prompts),
                               items.get("responses", responses), 2)
    scores = dict.fromkeys(dataset.iter_pairs(), 0.5)
    scores[("p1", "a")] = rm_score
    return dataset, RmScoreTable(rm_name, scores)


@pytest.mark.parametrize("change, error, message", [
    ({"record": ResponseRecord("p2", "a", 1.0)}, MalformedRecord,
     "hand-built: field 'prompt_id': response 'p1/a': names prompt 'p2'"),
    ({"record": ResponseRecord("p1", "a", math.nan)}, NonPositiveOracleScore,
     "oracle score for ('p1', 'a') is nan, must be > 0"),
    ({"record": ResponseRecord("p1", "a", -1.0)}, NonPositiveOracleScore,
     "oracle score for ('p1', 'a') is -1.0, must be > 0"),
    ({"record": ResponseRecord("p1", "a", 1.0, oracle_samples=(1.0, 3.0))}, MalformedRecord,
     "hand-built: field 'oracle_samples': response 'p1/a': "
     "mean 2.0 does not match oracle_score 1.0"),
    ({"record": PromptRecord("p2", "t", embedding=(1.0, 0.0, 0.0))}, MalformedRecord,
     "hand-built: field 'embedding': prompt 'p2': dimension 3 != 2"),
    ({"record": PromptRecord("p2", "t", embedding=(0.5, 0.5))}, MalformedRecord,
     "hand-built: field 'embedding': prompt 'p2': norm 0.7071067811865476 not within 1e-06 of 1"),
    ({"record": PromptRecord("p1", "t", perplexity=math.nan)}, MalformedRecord,
     "hand-built: field 'perplexity': prompt 'p1': must be a positive real"),
    ({"rm_score": math.nan}, NonFiniteScore, "score for pair ('p1', 'a') is not finite: nan"),
    ({"rm_name": ""}, MalformedRecord,
     "score table '': field 'rm_name': required non-empty string"),
    # a value the reader's JSON types rule out, so no writer emits a file
    # its own reader rejects
    ({"record": ResponseRecord("p1", "a", "1.5")}, MalformedRecord,
     "hand-built: field 'oracle_score': response 'p1/a': must be a number"),
    ({"record": ResponseRecord("p1", "a", True)}, MalformedRecord,
     "hand-built: field 'oracle_score': response 'p1/a': must be a number"),
    ({"record": ResponseRecord("p1", "a", 10 ** 400)}, MalformedRecord,
     "hand-built: field 'oracle_score': response 'p1/a': number too large for a float"),
    ({"record": ResponseRecord("p1", "a", 1.0, oracle_samples=(1.0, "1.0"))}, MalformedRecord,
     "hand-built: field 'oracle_samples': response 'p1/a': must be a number"),
    ({"record": PromptRecord("p2", "t", embedding=(1.0, "0.0"))}, MalformedRecord,
     "hand-built: field 'embedding': prompt 'p2': must be a number"),
    ({"record": PromptRecord("p2", "t", embedding=(False, True))}, MalformedRecord,
     "hand-built: field 'embedding': prompt 'p2': must be a number"),
    ({"record": PromptRecord("p1", "t", perplexity="2")}, MalformedRecord,
     "hand-built: field 'perplexity': prompt 'p1': must be a number"),
    ({"rm_score": "0.5"}, MalformedRecord,
     "score table 'rm': field 'score': pair ('p1', 'a'): must be a number"),
    ({"rm_score": False}, MalformedRecord,
     "score table 'rm': field 'score': pair ('p1', 'a'): must be a number"),
    ({"rm_name": 5}, MalformedRecord, "score table 5: field 'rm_name': required non-empty string"),
    ({"record": PromptRecord("p1", "")}, MalformedRecord,
     "hand-built: field 'text': prompt 'p1': required non-empty string"),
    ({"record": PromptRecord("p1", None)}, MalformedRecord,
     "hand-built: field 'text': prompt 'p1': required non-empty string"),
    ({"record": ResponseRecord("p1", 5, 1.0)}, MalformedRecord,
     "hand-built: field 'response_id': response 'p1/5': required non-empty string"),
    ({"record": ResponseRecord("p1", "a\ud800", 1.0)}, MalformedRecord,
     "hand-built: field 'response_id': response 'p1/a\\ud800': cannot be encoded as UTF-8"),
    ({"record": ResponseRecord("p1", "a", 1.0, text=5)}, MalformedRecord,
     "hand-built: field 'text': response 'p1/a': must be a string"),
    # the reader's array rule: a JSON array, so a non-empty list or tuple
    *[({"record": ResponseRecord("p1", "a", 1.0, oracle_samples=samples)}, MalformedRecord,
       "hand-built: field 'oracle_samples': response 'p1/a': must be a non-empty array")
      for samples in (5, {1.0}, ())],
    *[({"record": PromptRecord("p2", "t", embedding=embedding)}, MalformedRecord,
       "hand-built: field 'embedding': prompt 'p2': must be a non-empty array")
      for embedding in (5, {1.0: 0.0}, ())],
    # an item that is not a record, or a container of the wrong kind
    ({"prompts": [("p1", "t")]}, MalformedRecord,
     "hand-built: field '-': prompts: item ('p1', 't') is not a PromptRecord"),
    ({"prompts": PromptRecord("p1", "t")}, MalformedRecord,
     "hand-built: field '-': prompts: PromptRecord(prompt_id='p1', text='t', embedding=None, "
     "perplexity=None) is not a list or tuple"),
    ({"responses": {"p1": [("a", 1.0), ("b", 2.0)]}}, MalformedRecord,
     "hand-built: field '-': responses of 'p1': item ('a', 1.0) is not a ResponseRecord"),
    ({"responses": {"p1": None}}, MalformedRecord,
     "hand-built: field '-': responses of 'p1': None is not a list or tuple"),
    ({"responses": [ResponseRecord("p1", "a", 1.0)]}, MalformedRecord,
     "hand-built: field '-': responses: not a dict"),
    # with several faults, the first bad record in input order is named, as
    # the reader names the first bad line
    ({"prompts": [PromptRecord("p2", "t", embedding=(1.0, 0.0)),
                  PromptRecord("p1", "t", embedding=(1.0, 0.0, 0.0))]}, MalformedRecord,
     "hand-built: field 'embedding': prompt 'p1': dimension 3 != 2"),
    ({"responses": {"p1": [ResponseRecord("p1", "a", -1.0)],
                    "p2": [ResponseRecord("p2", rid, 1.0) for rid in ("a", "b")]}},
     NonPositiveOracleScore, "oracle score for ('p1', 'a') is -1.0, must be > 0"),
], ids=["prompt-id-mismatch", "nan-oracle-score", "negative-oracle-score", "samples-mean",
        "embedding-dimension", "embedding-norm", "nan-perplexity", "nan-rm-score",
        "empty-rm-name", "string-oracle-score", "bool-oracle-score", "huge-int-oracle-score",
        "string-sample", "string-embedding", "bool-embedding", "string-perplexity",
        "string-rm-score", "bool-rm-score", "int-rm-name", "empty-prompt-text",
        "none-prompt-text", "int-response-id", "surrogate-response-id", "int-response-text",
        "int-samples", "set-samples", "empty-samples", "int-embedding", "dict-embedding",
        "empty-embedding", "tuple-prompt", "bare-prompt-record", "tuple-response",
        "none-response-list", "list-of-responses", "second-embedding-dimension",
        "negative-score-in-short-pool"])
def test_construction_rejects_bad_values(change, error, message):
    # what the readers reject line by line is rejected when a hand-built
    # dataset or table is built, so no estimator or validation sees it
    with pytest.raises(error) as raised:
        _hand_built_pair(**change)
    assert str(raised.value) == message


def test_construction_keeps_copies_of_the_callers_lists(tmp_path):
    embedding, samples = [0.6, 0.8], [0.5, 1.5]
    prompts = [PromptRecord("p1", "t", embedding=embedding)]
    responses = {"p1": [ResponseRecord("p1", "a", 1.0, oracle_samples=samples),
                        ResponseRecord("p1", "b", 2.0)]}
    dataset = BenchmarkDataset("d", prompts, responses, 2)
    write_benchmark(dataset, tmp_path / "d")
    embedding[0] = samples[0] = 9.0
    assert dataset.prompts[0].embedding == (0.6, 0.8)
    assert dataset.responses["p1"][0].oracle_samples == (0.5, 1.5)
    assert load_benchmark(tmp_path / "d") == dataset


def test_construction_stores_number_entries_as_floats():
    # as the reader stores them: equality is unchanged, and so are the bytes
    # write_benchmark gives for ints and floats alike
    prompts = [PromptRecord("p1", "t", embedding=(1, 0), perplexity=2)]
    responses = {"p1": [ResponseRecord("p1", "a", 1, oracle_samples=[1, 1]),
                        ResponseRecord("p1", "b", 2.0)]}
    dataset = BenchmarkDataset("d", prompts, responses, 2)
    [prompt] = dataset.prompts
    values = [*prompt.embedding, prompt.perplexity,
              *dataset.responses["p1"][0].oracle_samples]
    assert [type(value) for value in values] == [float] * 5
    assert dataset == BenchmarkDataset(
        "d", [PromptRecord("p1", "t", embedding=(1.0, 0.0), perplexity=2.0)],
        {"p1": [ResponseRecord("p1", "a", 1.0, oracle_samples=(1.0, 1.0)),
                ResponseRecord("p1", "b", 2.0)]}, 2)


def test_validate_reports_a_prompt_without_response_list(tmp_path, capsys):
    # the dataset cannot be built, so the validate command reports the load error
    directory = write_dataset_dir(
        tmp_path / "partial",
        [{"prompt_id": "p1", "text": "t"}, {"prompt_id": "p2", "text": "t"}],
        [{"prompt_id": "p1", "response_id": f"r{i}", "oracle_score": 1.0 + i} for i in range(2)])
    scores = tmp_path / "rm_scores.jsonl"
    write_jsonl(scores, scores_records([("p1", "r0"), ("p1", "r1")], [0.0, 1.0]))
    assert main(["validate", "--dataset", str(directory), "--rm-scores", str(scores)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "NonUniformN"
    assert "p2" in error["message"]


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


# --- reader parity: every bad line fails as the line-by-line json.loads reader did

def _score_line(pid: str, rid: str, score: str = "1.0", rm_name: str = '"rm"') -> str:
    return (f'{{"prompt_id": "{pid}", "response_id": "{rid}", "rm_name": {rm_name}, '
            f'"score": {score}}}')


@pytest.mark.parametrize("bad_line, error, message", [
    ("{} x", MalformedRecord,
     "field '-': invalid JSON: Extra data: line 1 column 4 (char 3)"),
    ('{"prompt_id": "p1"', MalformedRecord,
     "field '-': invalid JSON: Expecting ',' delimiter: line 1 column 19 (char 18)"),
    ("[1, 2]", MalformedRecord, "field '-': record is not a JSON object"),
    ("\ufeff" + _score_line("p1", "a"), MalformedRecord,
     "field '-': invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    (_score_line("p1", "a", score="true"), MalformedRecord, "field 'score': must be a number"),
    (_score_line("p1", "a", score='"1.0"'), MalformedRecord, "field 'score': must be a number"),
    (_score_line("", "a"), MalformedRecord, "field 'prompt_id': required non-empty string"),
    (_score_line("p1", "", rm_name="5"), MalformedRecord,
     "field 'response_id': required non-empty string"),
    (_score_line("p1", "a", rm_name='""'), MalformedRecord,
     "field 'rm_name': required non-empty string"),
    (_score_line("p1", "a", rm_name='"other"'), MalformedRecord,
     "field 'rm_name': mixed rm names in one file: 'rm' vs 'other'"),
    ('{"prompt_id": "p1", "response_id": "a", "rm_name": "rm"}', MalformedRecord,
     "field 'score': required"),
    (_score_line("p1", "a", score="NaN"), NonFiniteScore,
     "score for pair ('p1', 'a') is not finite: nan"),
    (_score_line("p1", "zz"), UnknownPair,
     "score for pair ('p1', 'zz') not present in the dataset"),
    (_score_line("p2", "c"), DuplicateScore, "more than one score for pair ('p2', 'c')"),
], ids=["extra-data", "truncated", "not-object", "bom", "bool-score", "string-score",
        "empty-prompt-id", "empty-response-id", "empty-rm-name", "mixed-rm-names",
        "missing-score", "nan-score", "unknown-pair", "duplicate-pair"])
def test_score_reader_errors(tiny_dataset_dir, tmp_path, bad_line, error, message):
    dataset = load_benchmark(tiny_dataset_dir)
    path = tmp_path / "rm_scores.jsonl"
    # a blank line and a padded record come first, so the bad line is line 4
    path.write_text("\n   \t\n  " + _score_line("p2", "c") + " \n" + bad_line + "\n",
                    encoding="utf-8")
    with pytest.raises(error) as info:
        ingest_rm_scores(dataset, path)
    if error is MalformedRecord:
        assert (info.value.line, str(info.value)) == (4, f"rm_scores.jsonl:4: {message}")
    else:
        assert str(info.value) == message


def test_score_reader_accepts_padding_int_scores_and_unknown_keys(tiny_dataset_dir, tmp_path):
    dataset = load_benchmark(tiny_dataset_dir)
    pairs = list(dataset.iter_pairs())
    lines = [_score_line(pid, rid, score=str(i)) for i, (pid, rid) in enumerate(pairs)]
    lines[1] = "  " + lines[1] + "\t"
    lines[2] = lines[2][:-1] + ', "note": "x"}'
    path = tmp_path / "rm_scores.jsonl"
    path.write_text("\n" + "\n\n".join(lines) + "\n", encoding="utf-8")
    table = ingest_rm_scores(dataset, path)
    assert table.scores == {pair: float(i) for i, pair in enumerate(pairs)}
    assert all(type(v) is float for v in table.scores.values())
    assert [(w.severity, w.location, w.message) for w in table.load_warnings] == [
        ("warning", "rm_scores.jsonl:6", "unknown key 'note' ignored")]


def _response_line(rid: str, score: str = "1.0", extra: str = "") -> str:
    return f'{{"prompt_id": "p1", "response_id": "{rid}", "oracle_score": {score}{extra}}}'


@pytest.mark.parametrize("bad_line, error, message", [
    (_response_line("c", score="true"), MalformedRecord,
     "responses.jsonl:2: field 'oracle_score': must be a number"),
    ('{"prompt_id": "p1", "response_id": "c"}', MalformedRecord,
     "responses.jsonl:2: field 'oracle_score': required"),
    (_response_line(""), MalformedRecord,
     "responses.jsonl:2: field 'response_id': required non-empty string"),
    ('{"prompt_id": "p9", "response_id": "c", "oracle_score": 1.0}', MalformedRecord,
     "responses.jsonl:2: field 'prompt_id': unknown prompt 'p9'"),
    (_response_line("a"), DuplicateId, "duplicate response id: 'p1/a'"),
    (_response_line("c", score="NaN"), NonPositiveOracleScore,
     "oracle score for ('p1', 'c') is nan, must be > 0"),
    (_response_line("c", score="0"), NonPositiveOracleScore,
     "oracle score for ('p1', 'c') is 0.0, must be > 0"),
    (_response_line("c", score="11"), MalformedRecord,
     "responses.jsonl:2: field 'oracle_score': 11.0 exceeds configured maximum 10.0"),
    (_response_line("c", extra=', "text": 3'), MalformedRecord,
     "responses.jsonl:2: field 'text': must be a string"),
    (_response_line("c", extra=', "oracle_samples": []'), MalformedRecord,
     "responses.jsonl:2: field 'oracle_samples': must be a non-empty array"),
    (_response_line("c", extra=', "oracle_samples": [1, false]'), MalformedRecord,
     "responses.jsonl:2: field 'oracle_samples': must be a number"),
    (_response_line("c", extra=', "oracle_samples": [1.0, -1.0]'), MalformedRecord,
     "responses.jsonl:2: field 'oracle_samples': samples must be positive reals"),
    (_response_line("c", extra=', "oracle_samples": [1e308, 1e308]'), MalformedRecord,
     "responses.jsonl:2: field 'oracle_samples': mean inf does not match oracle_score 1.0"),
], ids=["bool-score", "missing-score", "empty-id", "unknown-prompt", "duplicate",
        "nan-score", "zero-score", "above-maximum", "text-type", "empty-samples",
        "bool-sample", "negative-sample", "samples-past-float-range"])
def test_response_reader_errors(tmp_path, bad_line, error, message):
    directory = write_dataset_dir(tmp_path / "d", [{"prompt_id": "p1", "text": "t"}], [])
    (directory / "responses.jsonl").write_text(
        _response_line("a") + "\n" + bad_line + "\n", encoding="utf-8")
    with pytest.raises(error) as info:
        load_benchmark(directory)
    assert str(info.value) == message


def test_int_scores_and_samples_load_as_floats(tmp_path):
    prompts = [{"prompt_id": "p1", "text": "t", "embedding": [0, 1]}]
    responses = [
        {"prompt_id": "p1", "response_id": "a", "oracle_score": 2, "oracle_samples": [1, 3.0]},
        {"prompt_id": "p1", "response_id": "b", "oracle_score": 2.5},
    ]
    dataset = load_benchmark(write_dataset_dir(tmp_path / "d", prompts, responses))
    assert dataset.prompts[0].embedding == (0.0, 1.0)
    first = dataset.responses["p1"][0]
    assert (first.oracle_score, first.oracle_samples) == (2.0, (1.0, 3.0))
    values = [*dataset.prompts[0].embedding, first.oracle_score, *first.oracle_samples]
    assert all(type(v) is float for v in values)


@pytest.mark.parametrize("embedding, message", [
    ("[]", "must be a non-empty array"),
    ('[1.0, "x"]', "must be a number"),
    ("[1.0, true]", "must be a number"),
    ("[NaN, 1.0]", "contains non-finite values"),
    ("[1.0, 0.0, 0.0]", "dimension 3 != 2"),
])
def test_embedding_errors(tmp_path, embedding, message):
    lines = ['{"prompt_id": "a", "text": "x", "embedding": [0.6, 0.8]}',
             f'{{"prompt_id": "b", "text": "y", "embedding": {embedding}}}']
    path = tmp_path / "prompts.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as info:
        load_candidate_prompts(path)
    assert str(info.value) == f"prompts.jsonl:2: field 'embedding': {message}"
    responses = [{"prompt_id": pid, "response_id": rid, "oracle_score": 1.0}
                 for pid in ("a", "b") for rid in ("r1", "r2")]
    write_jsonl(tmp_path / "responses.jsonl", responses)
    with pytest.raises(MalformedRecord) as info:
        load_benchmark(tmp_path)
    assert str(info.value) == f"prompts.jsonl:2: field 'embedding': {message}"


@pytest.mark.parametrize("bad_line, field, message", [
    (_score_line("p1", "b", score="9" * 401).encode(), "score", "number too large for a float"),
    (_score_line("p1", "b", score="9" * 5001).encode(), "-",
     "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    (b'{"prompt_id": "p1", "response_id": "\xff"}', "-", "not valid UTF-8: invalid start byte"),
    (b"[" * 100_000, "-", "invalid JSON: maximum recursion depth exceeded"),
    # only space, tab, CR and LF are JSON whitespace: str.strip() would take these too
    *[(_score_line("p1", "b").encode() + space.encode(), "-", "invalid JSON: Extra data")
      for space in ("\x0b", "\x0c", "\x1f", "\xa0", "\u2028")],
    *[(space.encode() + _score_line("p1", "b").encode(), "-", "invalid JSON: Expecting value")
      for space in ("\x1c", "\u3000")],
    (b"\x0c", "-", "invalid JSON: Expecting value"),
], ids=["401-digit-score", "5001-digit-score", "byte-0xff", "deep-nesting",
        "trailing-vertical-tab", "trailing-form-feed", "trailing-unit-separator",
        "trailing-no-break-space", "trailing-line-separator", "leading-file-separator",
        "leading-ideographic-space", "form-feed-line"])
def test_unparsable_lines_are_malformed_records(tiny_dataset_dir, tmp_path, bad_line, field,
                                                message):
    dataset = load_benchmark(tiny_dataset_dir)
    path = tmp_path / "rm_scores.jsonl"
    path.write_bytes(_score_line("p1", "a").encode() + b"\n" + bad_line + b"\n")
    with pytest.raises(MalformedRecord) as info:
        ingest_rm_scores(dataset, path)
    assert (info.value.line, info.value.field) == (2, field)
    assert str(info.value).startswith(f"rm_scores.jsonl:2: field '{field}': {message}")


def _hand_built(prompt_ids: list[str], response_ids: dict[str, list[str]],
                size: int) -> BenchmarkDataset:
    """A dataset with one prompt per id in ``prompt_ids`` and, for each key
    of ``response_ids``, a response list holding those ids."""
    prompts = [PromptRecord(pid, "t") for pid in prompt_ids]
    responses = {pid: [ResponseRecord(pid, rid, 1.0 + i) for i, rid in enumerate(rids)]
                 for pid, rids in response_ids.items()}
    return BenchmarkDataset("hand-built", prompts, responses, size)


@pytest.mark.parametrize("shape, error, attributes", [
    ("missing-list", NonUniformN, {"prompt_id": "p2", "count": 0, "expected": 3}),
    ("long-list", NonUniformN, {"prompt_id": "p1", "count": 4, "expected": 3}),
    ("repeated-id", DuplicateId, {"kind": "response", "identifier": "p1/a"}),
])
@pytest.mark.parametrize("estimator", ["bon_curve", "metric_report", "oracle_matrix"])
def test_malformed_hand_built_dataset_raises_typed_errors(shape, error, attributes, estimator):
    # a 3-response dataset with one shape load_benchmark rejects is rejected
    # when it is built, so the estimator never sees it
    prompt_ids, response_ids = {"missing-list": (["p1", "p2"], {"p1": ["a", "b", "c"]}),
                                "long-list": (["p1"], {"p1": ["a", "b", "c", "d"]}),
                                "repeated-id": (["p1"], {"p1": ["a", "a", "b"]})}[shape]
    table = RmScoreTable("rm", {(pid, rid): 0.5 for pid, rids in response_ids.items()
                                for rid in rids})
    call = {"bon_curve": lambda d: bon_curve(d, table, BonVariant("best_of_n")),
            "metric_report": lambda d: metric_report(d, table),
            "oracle_matrix": lambda d: oracle_matrix(d, table)}[estimator]
    reached = []
    with pytest.raises(error) as raised:
        reached.append(call(_hand_built(prompt_ids, response_ids, 3)))
    assert {key: getattr(raised.value, key) for key in attributes} == attributes
    assert reached == []


@pytest.mark.parametrize("prompt_ids, response_ids, size, error, attributes", [
    (["p2", "p1", "p2"], {"p1": ["a", "b"], "p2": ["a", "b"]}, 2,
     DuplicateId, {"kind": "prompt", "identifier": "p2"}),
    (["p2", "p1"], {"p1": ["a"], "p2": ["b"]}, 1,
     NonUniformN, {"prompt_id": "p1", "count": 1, "expected": 2}),
    (["p1"], {"p1": ["a", "b"], "p9": ["a", "b"]}, 2,
     MalformedRecord, {"args": ("hand-built: field 'prompt_id': unknown prompt 'p9'",)}),
    ([], {}, 2, MalformedRecord, {"args": ("hand-built: field '-': no prompt records",)}),
    # an id the reader would reject is rejected before the ids are sorted or compared
    (["p1", 5], {"p1": ["a", "b"]}, 2, MalformedRecord,
     {"args": ("hand-built: field 'prompt_id': prompt 5: required non-empty string",)}),
    ([5, 5], {}, 2, MalformedRecord,
     {"args": ("hand-built: field 'prompt_id': prompt 5: required non-empty string",)}),
    (["p1", "x\ud800"], {"p1": ["a", "b"]}, 2, MalformedRecord,
     {"args": ("hand-built: field 'prompt_id': prompt 'x\\ud800': cannot be encoded as UTF-8",)}),
    (["p1"], {"p1": [7, 7]}, 2, MalformedRecord,
     {"args": ("hand-built: field 'response_id': response 'p1/7': required non-empty string",)}),
    (["p1"], {"p1": ["a", "b"], 5: ["a", "b"], "p9": ["a", "b"]}, 2, MalformedRecord,
     {"args": ("hand-built: field 'prompt_id': unknown prompt 5",)}),
    # a size every estimator reads as a count must be one
    (["p1"], {"p1": ["a", "b"]}, 2.0, InvalidConfig,
     {"args": ("responses_per_prompt must be an int, got 2.0",)}),
    (["p1"], {"p1": ["a", "b"]}, True, InvalidConfig,
     {"args": ("responses_per_prompt must be an int, got True",)}),
], ids=["repeated-prompt", "one-response", "unknown-prompt", "no-prompts", "int-prompt-id",
        "repeated-int-prompt-id", "surrogate-prompt-id", "repeated-int-response-id",
        "int-unknown-prompt", "float-size", "bool-size"])
def test_construction_rejects_bad_prompt_sets_and_sizes(prompt_ids, response_ids, size, error,
                                                         attributes):
    with pytest.raises(error) as raised:
        _hand_built(prompt_ids, response_ids, size)
    assert {key: getattr(raised.value, key) for key in attributes} == attributes


def test_construction_stores_prompts_and_responses_in_id_order(tmp_path):
    rng = np.random.default_rng(4)
    prompt_ids = [f"p{i}" for i in range(5)]
    oracle = {pid: {f"r{j:02d}": float(v) for j, v in enumerate(rng.uniform(1, 9, 8))}
              for pid in prompt_ids}

    def build(order: list[str], shuffle: bool) -> BenchmarkDataset:
        responses = {}
        for pid in order:
            rids = list(rng.permutation(sorted(oracle[pid]))) if shuffle else sorted(oracle[pid])
            responses[pid] = [ResponseRecord(pid, rid, oracle[pid][rid]) for rid in rids]
        return BenchmarkDataset("ordered", [PromptRecord(pid, f"text {pid}") for pid in order],
                                responses, 8)

    canonical = build(prompt_ids, shuffle=False)
    shuffled = build(list(rng.permutation(prompt_ids)), shuffle=True)
    assert shuffled == canonical
    assert shuffled.prompt_ids() == list(shuffled.responses) == prompt_ids
    for pid in prompt_ids:
        assert [r.response_id for r in shuffled.responses[pid]] == sorted(oracle[pid])
    write_benchmark(canonical, tmp_path / "canonical")
    write_benchmark(shuffled, tmp_path / "shuffled")
    for name in ("prompts.jsonl", "responses.jsonl"):
        assert (tmp_path / "shuffled" / name).read_bytes() == \
            (tmp_path / "canonical" / name).read_bytes()


def test_every_csv_writer_creates_its_parent_directory(tmp_path):
    dataset = build_dataset({"p1": [1.0, 2.0, 3.0, 4.0], "p2": [4.0, 1.0, 3.0, 2.0]})
    table = build_table({"p1": [0.1, 0.4, 0.2, 0.3], "p2": [0.3, 0.1, 0.2, 0.4]})
    curve = RetaCurve("rm", [RetaEstimate(0.5, 1.1, {"p1": 1.0, "p2": 1.2}, 0.1, [2, 3])])
    writers = {
        "curve.csv": (lambda p: write_curve_csv(curve, p, "note"), "rm_name,eta,"),
        "per_prompt.csv": (lambda p: write_per_prompt_csv(curve, dataset, p, "note"),
                           "prompt_id,eta,"),
        "bon.csv": (lambda p: write_bon_csv(
            bon_curve(dataset, table, BonVariant("best_of_n")), p, "note"), "rm_name,variant,"),
        "metrics.csv": (lambda p: write_metrics_csv([metric_report(dataset, table)], p, "note"),
                        "rm_name,hit_rate_at_"),
    }
    for name, (write, header) in writers.items():
        path = tmp_path / name / "a" / "b" / name
        write(path)
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"# note" and lines[1].decode().startswith(header), name
        assert b"\r" not in path.read_bytes(), name


@pytest.mark.parametrize("name, field, line", [
    ("prompts.jsonl", "prompt_id", 3),
    ("responses.jsonl", "response_id", 7),
    ("rm_scores.jsonl", "prompt_id", 1),
    ("rm_scores.jsonl", "response_id", 1),
    ("rm_scores.jsonl", "rm_name", 1),
    ("candidates.jsonl", "prompt_id", 1),
])
def test_ids_that_cannot_be_encoded_are_malformed_records(tiny_dataset_dir, tmp_path, name,
                                                          field, line):
    # JSON's "\ud800" escape loads as a lone surrogate, which no UTF-8
    # output file or file name can hold
    bad = "x\ud800"
    if name == "rm_scores.jsonl":
        dataset = load_benchmark(tiny_dataset_dir)
        records = scores_records(list(dataset.iter_pairs()), [1.0] * 6)
        records[0][field] = bad
        write_jsonl(tmp_path / name, records)
        read = lambda: ingest_rm_scores(dataset, tmp_path / name)  # noqa: E731
    elif name == "candidates.jsonl":
        write_jsonl(tmp_path / name, [{"prompt_id": bad, "text": "t"}])
        read = lambda: load_candidate_prompts(tmp_path / name)  # noqa: E731
    else:  # one more record after the tiny dataset's valid ones
        record = ({"prompt_id": bad, "text": "t"} if name == "prompts.jsonl" else
                  {"prompt_id": "p1", "response_id": bad, "oracle_score": 1.0})
        with open(tiny_dataset_dir / name, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        read = lambda: load_benchmark(tiny_dataset_dir)  # noqa: E731
    with pytest.raises(MalformedRecord) as info:
        read()
    assert str(info.value) == f"{name}:{line}: field '{field}': cannot be encoded as UTF-8"


# --- the block reader: canonical files take it, anything else reads as the
# per-line reader alone reads it

def _canonical_dir(directory: Path) -> Path:
    """A 3 x 3 dataset, one response with a text, and its score table, as
    write_benchmark and write_rm_scores write them."""
    prompts = [PromptRecord(f"p{i}", f"prompt {i}") for i in range(3)]
    responses = {p.prompt_id: [ResponseRecord(p.prompt_id, f"r{j}", 1.5 + i + j / 4,
                                              "some text" if (i, j) == (0, 0) else None)
                               for j in range(3)]
                 for i, p in enumerate(prompts)}
    dataset = BenchmarkDataset("readers", prompts, responses, 3)
    write_benchmark(dataset, directory)
    scores = {pair: 0.25 * k - 1.0 for k, pair in enumerate(dataset.iter_pairs())}
    write_rm_scores(RmScoreTable("rm", scores), directory / "rm_scores.jsonl")
    return directory


def _on_line(edit, index: int = 1):
    """An edit of a file's text that applies ``edit`` to its line ``index``
    (from 0), by default the second."""
    def apply(text: str) -> str:
        lines = text.splitlines(keepends=True)
        lines[index] = edit(lines[index])
        return "".join(lines)
    return apply


def _swap_lines(index: int = 1):
    """An edit that swaps a file's lines ``index`` and ``index + 1`` (from 0)."""
    def apply(text: str) -> str:
        lines = text.splitlines(keepends=True)
        lines[index], lines[index + 1] = lines[index + 1], lines[index]
        return "".join(lines)
    return apply


def _with_key(key: str, value: str):
    return _on_line(lambda line: line[:-2] + f', "{key}": {value}}}\n')


def _number(value: str):
    """The line's score or oracle score spelled as ``value``."""
    return _on_line(lambda line: re.sub(r'("(?:oracle_)?score": )[^,}]+',
                                        lambda m: m.group(1) + value, line, count=1))


_ANY_FILE = {
    "canonical": lambda text: text,
    "keys-reordered": _on_line(
        lambda line: json.dumps(dict(reversed(json.loads(line).items()))) + "\n"),
    "extra-spaces": _on_line(lambda line: line.replace(", ", " ,  ", 1)),
    "escaped-prompt-id": _on_line(lambda line: line.replace(': "p', ': "\\u0070', 1)),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "no-final-newline": lambda text: text[:-1],
    "blank-line": _on_line(lambda line: "\n" + line),
    "bom": lambda text: "\ufeff" + text,
    "unknown-key": _with_key("note", "1"),
    "duplicate-line": _on_line(lambda line: line + line),
    "junk-line": _on_line(lambda line: line + "x\n"),
    "junk-after-last-line": lambda text: text + "x",
    "missing-line": _on_line(lambda line: ""),
    "swapped-lines": _swap_lines(),
    "reversed-lines": lambda text: "".join(reversed(text.splitlines(keepends=True))),
}
_NUMBERS = {"int": "2", "401-digit-int": "9" * 401, "upper-exponent": "1E5",
            "small-exponent": "1e-3", "past-float-range": "1e400", "nan": "NaN",
            "infinity": "Infinity", "negative-zero": "-0.0", "trailing-zero": "2.50",
            "plus-sign": "+1.5", "leading-zero": "01.5"}
_VARIANTS = [
    *[(name, file, edit) for file in ("prompts.jsonl", "responses.jsonl", "rm_scores.jsonl")
      for name, edit in _ANY_FILE.items()],
    *[(f"{name}-score", file, _number(value)) for file in ("responses.jsonl", "rm_scores.jsonl")
      for name, value in _NUMBERS.items()],
    *[("escaped-response-id", file, _on_line(lambda line: line.replace(': "r', ': "\\u0072', 1)))
      for file in ("responses.jsonl", "rm_scores.jsonl")],
    ("escaped-text", "responses.jsonl", _with_key("text", '"a\\u00e9\\n"')),
    # json.loads reads literal non-ASCII and DEL as themselves
    ("literal-non-ascii-text", "responses.jsonl",
     _with_key("text", '"caf\u00e9 \u65e5\U0001f600 \x7f"')),
    ("empty-text", "responses.jsonl", _with_key("text", '""')),
    ("oracle-samples", "responses.jsonl", _on_line(lambda line: json.dumps(
        dict(json.loads(line), oracle_samples=[json.loads(line)["oracle_score"]] * 2)) + "\n")),
    ("above-max", "responses.jsonl", _number("11.0")),
    *[("unknown-prompt", file, _on_line(lambda line: line.replace('"p0"', '"p9"')))
      for file in ("responses.jsonl", "rm_scores.jsonl")],
    # p0 gets 4 responses and p1 2, the prompt ids of the first and last of
    # each run of 3 staying those of the prompts
    ("moved-response", "responses.jsonl", _on_line(
        lambda line: line.replace('"p1", "response_id": "r0"', '"p0", "response_id": "r3"'), 3)),
    ("empty-text", "prompts.jsonl", _on_line(lambda line: re.sub('"text": "[^"]*"',
                                                                   '"text": ""', line))),
    ("perplexity", "prompts.jsonl", _with_key("perplexity", "2.5")),
    ("unknown-pair", "rm_scores.jsonl", _on_line(lambda line: line.replace('"r1"', '"zz"'))),
    ("mixed-rm-name", "rm_scores.jsonl", _on_line(lambda line: line.replace('"rm"', '"other"'))),
    # the score pattern matches '"score": <number>}' at a line's end only
    ("score-rm-name", "rm_scores.jsonl", lambda text: text.replace('"rm"', '"score"')),
    # decodes to "rm" on every line
    ("escaped-rm-name", "rm_scores.jsonl", lambda text: text.replace('"rm"', '"r\\u006d"')),
    # p1's middle response filed under p2, the first and last of each run
    # keeping their prompt ids
    *[("middle-prompt-id", file, _on_line(lambda line: line.replace('"p1"', '"p2"'), 4))
      for file in ("responses.jsonl", "rm_scores.jsonl")],
    # a line cut after its response id: the score split leaves it in the
    # next line's separator, which then holds two heads and a newline
    *[("cut-after-response-id", file, _on_line(
        lambda line: line[:line.index('", "', line.index("response_id"))] + "\n"))
      for file in ("responses.jsonl", "rm_scores.jsonl")],
    # the last two responses of the last prompt swapped
    *[("response-out-of-order", file, _swap_lines(7))
      for file in ("responses.jsonl", "rm_scores.jsonl")],
]


def _read(directory: Path):
    """The loaded dataset and table with their warnings, or the error's type and text."""
    try:
        data = load_benchmark(directory)
        table = ingest_rm_scores(data, directory / "rm_scores.jsonl")
    except RetabenchError as exc:
        return type(exc), str(exc)
    return data, data.load_warnings, table, table.load_warnings


def _decline(path, pattern):
    """Stands in for ``_canonical_blocks``: one block that no line pattern
    matches, which every block reader declines."""
    return iter([[b"not a canonical line\n"]])


def _block_read(directory: Path) -> bool:
    """Whether the block reader takes the dataset's responses, which it is
    offered once the prompts read line by line."""
    try:
        prompts = dataset_module._read_prompts(
            dataset_module._iter_jsonl(directory / "prompts.jsonl"), "prompts.jsonl", [])
    except RetabenchError:
        return False
    return dataset_module._canonical_responses(
        directory / "responses.jsonl", [p.prompt_id for p in prompts], 10.0) is not None


@pytest.mark.parametrize("name, file, edit", _VARIANTS,
                         ids=[f"{file.split('.')[0]}-{name}" for name, file, _ in _VARIANTS])
def test_block_reader_matches_the_per_line_reader(tmp_path, monkeypatch, name, file, edit):
    directory = _canonical_dir(tmp_path / "d")
    path = directory / file
    path.write_bytes(edit(path.read_text(encoding="utf-8")).encode("utf-8"))
    shipped = _read(directory)
    forbid_response_records(monkeypatch)
    monkeypatch.setattr(dataset_module, "_canonical_blocks", _decline)
    assert shipped == _read(directory)


def _with_prompt_fields(text: str) -> str:
    """prompts.jsonl with an embedding and a perplexity on each line, and an
    unknown key on the second, so the block reader declines it."""
    lines = []
    for i, line in enumerate(text.splitlines()):
        record = dict(json.loads(line), embedding=[0.6, 0.8] if i % 2 else [1.0, 0.0],
                      perplexity=2.5 + i)
        lines.append(json.dumps(dict(record, extra=1) if i == 1 else record) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("name, edit", [("canonical", None)] + [
    (name, edit) for name, file, edit in _VARIANTS if file == "responses.jsonl"])
def test_prompts_with_embeddings_leave_responses_on_the_block_reader(
        tmp_path, monkeypatch, name, edit):
    # prompts read line by line, then the responses offered to the block
    # reader against their ids: the same dataset, warnings and errors as
    # reading both files line by line
    directory = _canonical_dir(tmp_path / "d")
    prompts = directory / "prompts.jsonl"
    prompts.write_text(_with_prompt_fields(prompts.read_text(encoding="utf-8")),
                       encoding="utf-8")
    responses = directory / "responses.jsonl"
    if edit is not None:
        responses.write_bytes(edit(responses.read_text(encoding="utf-8")).encode("utf-8"))
    shipped = _read(directory)
    if edit is None:
        assert shipped[0].prompts[1].embedding == (0.6, 0.8)
        assert [issue.location for issue in shipped[1]] == ["prompts.jsonl:2"]
        read_lines = dataset_module._iter_jsonl

        def prompts_only(path):
            assert path.name != "responses.jsonl", "responses went to the per-line reader"
            return read_lines(path)
        monkeypatch.setattr(dataset_module, "_iter_jsonl", prompts_only)
        assert _read(directory) == shipped
        monkeypatch.undo()
    forbid_response_records(monkeypatch)
    monkeypatch.setattr(dataset_module, "_canonical_blocks", _decline)
    assert _read(directory) == shipped


def test_per_line_reader_orders_shuffled_lines_with_texts_and_samples(tmp_path, monkeypatch):
    # no _VARIANTS case moves a line that holds a text or samples
    rng = np.random.default_rng(7)
    prompts = [PromptRecord(f"p{i}", f"prompt {i}") for i in range(4)]
    responses = {}
    for p in prompts:
        scores = rng.uniform(1.0, 9.0, 5).tolist()
        responses[p.prompt_id] = [
            ResponseRecord(p.prompt_id, f"r{j}", score, f"text {j}" if j % 2 else None,
                           (score - 0.5, score + 0.5) if j % 3 == 0 else None)
            for j, score in enumerate(scores)]
    dataset = BenchmarkDataset("d", prompts, responses, 5)
    write_benchmark(dataset, tmp_path / "d")
    path = tmp_path / "d" / "responses.jsonl"
    written = path.read_bytes()
    lines = written.splitlines(keepends=True)
    path.write_bytes(b"".join(lines[i] for i in rng.permutation(len(lines))))
    assert path.read_bytes() != written

    forbid_response_records(monkeypatch)
    loaded = load_benchmark(path.parent)
    assert loaded == dataset
    write_benchmark(loaded, tmp_path / "out")
    assert (tmp_path / "out" / "responses.jsonl").read_bytes() == written


def test_declined_blocks_leave_both_files_and_tables_to_the_per_line_reader(
        tmp_path, monkeypatch):
    # the parity tests compare the two readers only while this holds
    directory = _canonical_dir(tmp_path / "d")
    dataset = load_benchmark(directory)
    path = directory / "rm_scores.jsonl"
    assert dataset_module._ingest_canonical(dataset, path) == ingest_rm_scores(dataset, path)
    monkeypatch.setattr(dataset_module, "_canonical_blocks", _decline)
    assert not _block_read(directory)
    assert dataset_module._ingest_canonical(dataset, path) is None


@pytest.mark.parametrize("rm_name", ["score", "{rm}", "a b", "'~", "a.b*(c)+?[d]|e^$"])
def test_score_block_reader_takes_every_rm_name_written_as_itself(tmp_path, monkeypatch,
                                                                   rm_name):
    directory = _canonical_dir(tmp_path / "d")
    dataset = load_benchmark(directory)
    path = directory / "rm_scores.jsonl"
    write_rm_scores(RmScoreTable(rm_name, ingest_rm_scores(dataset, path).scores), path)
    table = dataset_module._ingest_canonical(dataset, path)
    assert table.rm_name == rm_name and "scores" not in vars(table)
    monkeypatch.setattr(dataset_module, "_canonical_blocks", _decline)
    assert ingest_rm_scores(dataset, path) == table


def test_score_block_reader_leaves_ids_the_writers_escape_to_the_per_line_reader(
        tmp_path, monkeypatch):
    # the dataset's response id is the 7 characters r\u0030, which the
    # writers escape; a score file in the writers' layout and order that
    # spells it as itself names "r0", a response the dataset lacks
    directory = tmp_path / "d"
    prompts = [PromptRecord("p0", "t")]
    responses = {"p0": [ResponseRecord("p0", rid, 1.5) for rid in ("r\\u0030", "r1")]}
    dataset = BenchmarkDataset("d", prompts, responses, 2)
    write_benchmark(dataset, directory)
    path = directory / "rm_scores.jsonl"
    write_rm_scores(oracle_score_table(dataset, "rm"), path)
    text = path.read_text(encoding="utf-8")
    assert '"r\\\\u0030"' in text
    path.write_text(text.replace("\\\\", "\\"), encoding="utf-8")
    shipped = _read(directory)
    assert shipped == (UnknownPair, str(UnknownPair(("p0", "r0"))))
    monkeypatch.setattr(dataset_module, "_canonical_blocks", _decline)
    assert _read(directory) == shipped


@pytest.mark.parametrize("file, edit", [
    ("responses.jsonl", lambda line: line[:-2] + b', "text": "a\xffb"}\n'),
    ("responses.jsonl", lambda line: line.replace(b'"r1"', b'"r\xff1"')),
    ("rm_scores.jsonl", lambda line: line.replace(b'"r1"', b'"r\xff1"')),
], ids=["response-text", "response-id", "score-response-id"])
def test_block_reader_declines_bytes_that_are_not_utf8(tmp_path, monkeypatch, file, edit):
    # the block reader splits bytes; a byte no UTF-8 text holds leaves the
    # file to the per-line reader, which names its line
    directory = _canonical_dir(tmp_path / "d")
    path = directory / file
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = edit(lines[1])
    path.write_bytes(b"".join(lines))
    if file == "responses.jsonl":
        assert not _block_read(directory)
    else:
        assert dataset_module._ingest_canonical(load_benchmark(directory), path) is None
    shipped = _read(directory)
    assert shipped == (MalformedRecord,
                       f"{file}:2: field '-': not valid UTF-8: invalid start byte")
    monkeypatch.setattr(dataset_module, "_canonical_blocks", _decline)
    assert _read(directory) == shipped


def test_block_reader_takes_files_of_many_blocks_with_multibyte_texts(tmp_path, monkeypatch):
    # literal multi-byte texts and DEL on every line, and a read of
    # _BLOCK_BYTES that ends inside a character
    prompts = [PromptRecord(f"p{i}", f"prompt {i}") for i in range(4)]
    responses = {p.prompt_id: [ResponseRecord(p.prompt_id, f"r{j:02d}", 1.0 + j / 8,
                                              f"{j} caf\u00e9 \u65e5\u672c\U0001f600\x7f" * 4)
                               for j in range(64)]
                 for p in prompts}
    directory = tmp_path / "d"
    write_benchmark(BenchmarkDataset("d", prompts, responses, 64), directory)
    path = directory / "responses.jsonl"
    data = "".join(json.dumps(json.loads(line), ensure_ascii=False) + "\n"
                   for line in path.read_text(encoding="utf-8").splitlines()).encode("utf-8")
    block = dataset_module._BLOCK_BYTES
    pad = next(pad for pad in range(200) if 0x80 <= data[block - pad] < 0xc0)
    path.write_bytes(data.replace(b'"text": "', b'"text": "' + b"x" * pad, 1))
    scores = {(pid, f"r{j:02d}"): j / 4 - 3.0 for pid in responses for j in range(64)}
    write_rm_scores(RmScoreTable("rm", scores), directory / "rm_scores.jsonl")
    assert min(path.stat().st_size, (directory / "rm_scores.jsonl").stat().st_size) > block
    assert 0x80 <= path.read_bytes()[block] < 0xc0

    dataset = load_benchmark(directory)
    assert _block_read(directory)
    table = dataset_module._ingest_canonical(dataset, directory / "rm_scores.jsonl")
    assert table is not None and dict(table.scores) == scores
    texts = [r.text for rows in responses.values() for r in rows]
    assert dataset._response_texts == ["x" * pad + texts[0], *texts[1:]]
    shipped = _read(directory)
    monkeypatch.setattr(dataset_module, "_canonical_blocks", _decline)
    assert _read(directory) == shipped


@pytest.mark.parametrize("prompt_ids, response_pairs", [
    (["p0", "p1"], [("p0", "r0"), ("p1", "r0")]),  # one response per prompt
    (["p0", "p0"], [("p0", f"r{j}") for j in range(4)]),  # a repeated prompt
], ids=["one-response-per-prompt", "repeated-prompt"])
def test_block_reader_leaves_shapes_it_cannot_hold_to_the_per_line_reader(
        tmp_path, monkeypatch, prompt_ids, response_pairs):
    # files in the writers' layout and order that no dataset could have written
    directory = write_dataset_dir(
        tmp_path / "d", [{"prompt_id": pid, "text": "t"} for pid in prompt_ids],
        [{"prompt_id": pid, "response_id": rid, "oracle_score": 1.5}
         for pid, rid in response_pairs])
    write_jsonl(directory / "rm_scores.jsonl", scores_records(response_pairs,
                                                              [0.5] * len(response_pairs)))
    assert not _block_read(directory)
    shipped = _read(directory)
    monkeypatch.setattr(dataset_module, "_canonical_blocks", _decline)
    assert shipped == _read(directory)
    assert shipped[0] in (NonUniformN, DuplicateId)


@pytest.mark.parametrize("file", ["responses.jsonl", "rm_scores.jsonl"])
@pytest.mark.parametrize("order", ["swapped-lines", "reversed-lines"])
def test_block_reader_takes_lines_only_in_writer_order(tmp_path, file, order):
    directory = _canonical_dir(tmp_path / "d")
    path = directory / file
    path.write_text(_ANY_FILE[order](path.read_text(encoding="utf-8")), encoding="utf-8")
    if file == "rm_scores.jsonl":
        assert dataset_module._ingest_canonical(load_benchmark(directory), path) is None
    else:
        assert not _block_read(directory)


def test_columns_read_to_the_per_line_readers_dataset(tmp_path, monkeypatch):
    directory = _canonical_dir(tmp_path / "d")
    columns = load_benchmark(directory)
    assert "responses" not in vars(columns)
    monkeypatch.setattr(dataset_module, "_canonical_blocks", _decline)
    records = load_benchmark(directory)
    assert repr(columns) == repr(records) == (
        "BenchmarkDataset(name='d', prompts=3, responses_per_prompt=3)")
    assert columns.responses == records.responses
    assert columns == records and records == columns
    assert columns.responses is columns.responses
    assert list(columns.iter_pairs()) == list(records.iter_pairs())
    assert columns._pair_ids == records._pair_ids
    with pytest.raises(AttributeError, match="no attribute 'absent'"):
        columns.absent
    with pytest.raises(AttributeError, match="no attribute 'absent'"):
        records.absent


def test_threads_racing_the_first_responses_access_read_equal_records(tmp_path):
    directory = _canonical_dir(tmp_path / "d")
    expected = load_benchmark(directory).responses
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            dataset = load_benchmark(directory)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: dataset.responses) for _ in range(8)]
                results = [future.result(timeout=10) for future in futures]
            assert all(result == expected for result in results)
            assert dataset.responses == expected
    finally:
        sys.setswitchinterval(interval)


def test_estimator_commands_build_no_response_records(tmp_path, monkeypatch):
    spec = DistSpec.from_json('{"kind": "independent", "params": {"low": 1.0, "high": 9.0}}')
    generated, table = gen_synthetic(spec, 3, 64, seed=5, name="synth")
    directory = tmp_path / "synth"
    write_benchmark(generated, directory)
    write_rm_scores(table, directory / "rm_scores.jsonl")
    args = ["--dataset", str(directory), "--rm-scores", str(directory / "rm_scores.jsonl")]
    # the records of the generated dataset are built before the patch
    expected = {(r.prompt_id, r.response_id): r.oracle_score
                for rows in generated.responses.values() for r in rows}

    forbid_response_records(monkeypatch)
    commands = [["reta", "--raw-variant"], ["bon"],
                ["bon", "--variant", "best_m_of_n", "--best-m", "2"], ["metrics"], ["validate"]]
    for i, command in enumerate(commands):
        assert main([*command, *args, "--output-dir", str(tmp_path / f"out{i}")]) == 0
    dataset = load_benchmark(directory)
    assert oracle_score_table(dataset).scores == expected
    # a label file's unknown pair is named from the ids alone
    labels = tmp_path / "labels.jsonl"
    for pid, message in (("nope", "unknown prompt"), (generated.prompt_ids()[0],
                                                      "unknown response")):
        write_jsonl(labels, [{"prompt_id": pid, "response_id": "zz", "outcome": "win"}])
        with pytest.raises(MalformedRecord, match=message):
            load_win_labels(labels, dataset)
    with pytest.raises(AssertionError, match="ResponseRecord was built"):
        load_benchmark(directory).responses


def test_synth_builds_and_writes_no_response_records(tmp_path, monkeypatch):
    spec = DistSpec.noisy_gaussian(0.5, 7.0)

    forbid_response_records(monkeypatch)
    generated, table = gen_synthetic(spec, 11, 16, seed=4, name="synth")
    write_benchmark(generated, tmp_path / "synth")
    write_rm_scores(table, tmp_path / "synth" / "rm_scores.jsonl")
    monkeypatch.undo()
    # the records of each prompt's own Philox stream
    prompts, responses, scores = [], {}, {}
    for p_idx in range(11):
        pid = f"p{p_idx:04d}"
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([4, p_idx])))
        rm, oracle = synthetic_module._draw_pairs(spec, rng, 16)
        prompts.append(PromptRecord(pid, f"synthetic prompt {p_idx}"))
        responses[pid] = [ResponseRecord(pid, f"r{j:03d}", float(oracle[j])) for j in range(16)]
        scores.update({(pid, f"r{j:03d}"): float(rm[j]) for j in range(16)})
    expected = BenchmarkDataset("synth", prompts, responses, 16)
    assert generated == expected and table == RmScoreTable("synthetic-rm", scores)
    assert _read(tmp_path / "synth") == (expected, [], table, [])


def test_export_of_a_canonical_read_dataset_builds_no_response_records(tmp_path, monkeypatch):
    directory = _canonical_dir(tmp_path / "data")
    # the block reader takes a text with non-ASCII in it, which json.dumps escapes
    raw = "caf\u00e9 \x7f"
    responses = directory / "responses.jsonl"
    written = responses.read_text(encoding="utf-8")
    responses.write_text(written.replace('"some text"', f'"{raw}"'), encoding="utf-8")

    forbid_response_records(monkeypatch)
    assert main(["export", "--dataset", str(directory), "--rm-scores",
                 str(directory / "rm_scores.jsonl"), "--output-dir", str(tmp_path / "out")]) == 0
    out = tmp_path / "out"
    assert (out / "prompts.jsonl").read_bytes() == (directory / "prompts.jsonl").read_bytes()
    assert (out / "rm_scores_rm.jsonl").read_bytes() == (
        directory / "rm_scores.jsonl").read_bytes()
    assert (out / "responses.jsonl").read_text(encoding="utf-8") == written.replace(
        '"some text"', json.dumps(raw))


def test_written_files_take_the_block_reader(tmp_path, monkeypatch):
    # a pattern that declined every file would pass every other test
    spec = DistSpec.from_json('{"kind": "independent", "params": {"low": 1.0, "high": 9.0}}')
    generated, table = gen_synthetic(spec, 3, 512, seed=5, name="synth")
    write_benchmark(generated, tmp_path / "synth")
    write_rm_scores(table, tmp_path / "synth" / "rm_scores.jsonl")
    _canonical_dir(tmp_path / "readers")
    expected = _read(tmp_path / "readers")

    read_lines = dataset_module._iter_jsonl

    def prompts_only(path):
        # prompts have no block reader
        assert path.name == "prompts.jsonl", f"{path} went to the per-line reader"
        return read_lines(path)
    monkeypatch.setattr(dataset_module, "_iter_jsonl", prompts_only)
    assert _read(tmp_path / "synth") == (generated, [], table, [])
    assert _read(tmp_path / "readers") == expected
    assert expected[0].responses["p0"][0].text == "some text"


def test_equality_of_block_read_datasets_builds_no_records(tmp_path, monkeypatch):
    directory = _canonical_dir(tmp_path / "d")
    first, second = load_benchmark(directory), load_benchmark(directory)
    spec = DistSpec.noisy_gaussian(0.5, 7.0)
    generated, _ = gen_synthetic(spec, 3, 3, seed=1, name="d")
    forbid_response_records(monkeypatch)
    assert first == second and first != generated
    assert repr(first) == "BenchmarkDataset(name='d', prompts=3, responses_per_prompt=3)"
    assert "responses" not in vars(first) and "responses" not in vars(second)
    monkeypatch.undo()
    # the columns are equal exactly when the records are: change one field
    # of one record at a time
    records = first.responses
    for change in ({"oracle_score": 2.5}, {"text": "other"}, {"text": None},
                   {"oracle_samples": (1.0, 2.0)}, {"response_id": "r9"}):
        rows = [dataclasses.replace(records["p0"][0], **change), *records["p0"][1:]]
        changed = BenchmarkDataset("d", first.prompts, {**records, "p0": rows}, 3)
        assert changed != first and first != changed and changed.responses != records
    assert BenchmarkDataset("d", first.prompts, records, 3) == second


def test_commands_on_a_canonical_table_build_no_score_dict_or_pair_index(tmp_path, monkeypatch):
    spec = DistSpec.from_json('{"kind": "independent", "params": {"low": 1.0, "high": 9.0}}')
    generated, table = gen_synthetic(spec, 3, 64, seed=5, name="synth")
    directory = tmp_path / "synth"
    write_benchmark(generated, directory)
    write_rm_scores(table, directory / "rm_scores.jsonl")
    args = ["--dataset", str(directory), "--rm-scores", str(directory / "rm_scores.jsonl")]

    forbid_score_dicts(monkeypatch)
    commands = [["reta", "--raw-variant"], ["bon"], ["bon", "--variant", "rank_k_of_n",
                                                     "--rank-k", "2"],
                ["metrics"], ["validate"], ["export"]]
    for i, command in enumerate(commands):
        assert main([*command, *args, "--output-dir", str(tmp_path / f"out{i}")]) == 0
    assert (tmp_path / "out5" / "rm_scores_synthetic-rm.jsonl").read_bytes() == (
        directory / "rm_scores.jsonl").read_bytes()
    dataset = load_benchmark(directory)
    read = ingest_rm_scores(dataset, directory / "rm_scores.jsonl")
    oracle = oracle_score_table(dataset)
    assert repr(read) == "RmScoreTable(rm_name='synthetic-rm', pairs=192)"
    assert read.load_warnings == [] and dataset.load_warnings == []
    assert read == table and read != oracle
    with pytest.raises(AssertionError, match="scores dict was built"):
        read.scores
    monkeypatch.undo()
    assert read.scores == table.scores and read.scores is read.scores
    assert list(read.scores) == list(dataset.iter_pairs())


def _result_files(dataset, table, directory: Path) -> dict[str, bytes]:
    """The bytes of the score file and of every result CSV of ``table``."""
    normalized, raw = reta_curve_pair(dataset, table)
    write_curve_csv(normalized, directory / "reta.csv")
    write_curve_csv(raw, directory / "reta_raw.csv")
    write_per_prompt_csv(normalized, dataset, directory / "per_prompt.csv")
    for variant in (BonVariant("best_of_n"), BonVariant("rank_k_of_n", 2)):
        write_bon_csv(bon_curve(dataset, table, variant), directory / f"{variant.label}.csv")
    write_metrics_csv([metric_report(dataset, table)], directory / "metrics.csv")
    write_rm_scores(table, directory / "rm_scores.jsonl")
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_dict_and_column_tables_give_the_same_bytes(tmp_path):
    dataset, table = gen_synthetic(DistSpec.noisy_gaussian(0.5, 7.0), 4, 32, seed=2)
    pairs = list(table.scores.items())
    shuffled = [pairs[i] for i in np.random.default_rng(0).permutation(len(pairs))]
    by_dict = RmScoreTable(table.rm_name, dict(shuffled))
    # the dict's key order is gone: the table holds the dataset's pair order
    assert [pair for pair, _ in shuffled] != list(table.scores)
    assert by_dict._pair_ids == dataset._pair_ids and list(by_dict.scores) == list(table.scores)
    assert by_dict == table and table == by_dict
    assert repr(by_dict) == repr(table) == "RmScoreTable(rm_name='synthetic-rm', pairs=128)"
    columns = _result_files(dataset, table, tmp_path / "columns")
    assert len(columns) == 7
    assert _result_files(dataset, by_dict, tmp_path / "dict") == columns


def test_hand_built_table_over_the_datasets_pairs_is_read_as_a_reshape(tmp_path, monkeypatch):
    # built from a dict in shuffled key order, a table over exactly the
    # dataset's pairs holds the dataset's sorted pair id lists, so the
    # estimators read its score column and build no dict
    generated, table = gen_synthetic(DistSpec.noisy_gaussian(0.5, 7.0), 4, 32, seed=3)
    write_benchmark(generated, tmp_path / "d")
    write_rm_scores(table, tmp_path / "d" / "rm_scores.jsonl")
    dataset = load_benchmark(tmp_path / "d", max_oracle_score=20.0)
    ingested = ingest_rm_scores(dataset, tmp_path / "d" / "rm_scores.jsonl")
    pairs, values = list(dataset.iter_pairs()), ingested._values.tolist()
    order = np.random.default_rng(0).permutation(len(pairs))
    by_dict = RmScoreTable(ingested.rm_name, {pairs[i]: values[i] for i in order})
    forbid_score_dicts(monkeypatch)
    assert by_dict._pair_ids == dataset._pair_ids and by_dict == ingested
    assert reta_curve(dataset, by_dict) == reta_curve(dataset, ingested)
    for variant in (BonVariant("best_of_n"), BonVariant("rank_k_of_n", 2)):
        assert bon_curve(dataset, by_dict, variant) == bon_curve(dataset, ingested, variant)
    assert metric_report(dataset, by_dict) == metric_report(dataset, ingested)
    assert "scores" not in vars(by_dict)


def test_a_table_keeps_no_reference_to_the_callers_dict(tmp_path):
    dataset = build_dataset({"p1": [1.0, 2.0], "p2": [3.0, 4.0]})
    scores = {pair: 0.5 for pair in dataset.iter_pairs()}
    table = RmScoreTable("rm", scores)
    scores[("p1", "r000")] = math.nan
    del scores[("p2", "r001")]
    assert table.scores == dict.fromkeys(dataset.iter_pairs(), 0.5)
    write_rm_scores(table, tmp_path / "rm_scores.jsonl")
    assert ingest_rm_scores(dataset, tmp_path / "rm_scores.jsonl") == table


def test_int_scores_are_held_written_and_read_back_as_floats(tmp_path):
    dataset = build_dataset({"p1": [1.0, 2.0], "p2": [3.0, 4.0]})
    ints = [3, 2 ** 60 + 1, -7, 0]
    table = RmScoreTable("rm", dict(zip(dataset.iter_pairs(), ints)))
    assert [type(v) for v in table.scores.values()] == [float] * 4
    assert list(table.scores.values()) == list(map(float, ints))
    path = tmp_path / "rm_scores.jsonl"
    write_rm_scores(table, path)
    text = path.read_text()
    assert [json.loads(line)["score"] for line in text.splitlines()] == list(map(float, ints))
    assert '"score": 3.0}' in text and '"score": 1.152921504606847e+18}' in text
    assert ingest_rm_scores(dataset, path) == table


def test_score_tables_compare_without_building_dicts_and_are_unhashable(tmp_path):
    directory = _canonical_dir(tmp_path / "d")
    dataset = load_benchmark(directory)
    first, second = (ingest_rm_scores(dataset, directory / "rm_scores.jsonl") for _ in range(2))
    other = load_benchmark(directory)  # equal pair id lists, not the same ones
    oracle = oracle_score_table(other, "rm")
    assert first == second and first != oracle and oracle != first
    with pytest.raises(TypeError, match="unhashable type: 'RmScoreTable'"):
        hash(first)
    assert not any("scores" in vars(table) for table in (first, second, oracle))
    # a dict table compares by content, and is unhashable too
    by_dict = RmScoreTable("rm", dict(reversed(first.scores.items())))
    assert by_dict == first and first == by_dict
    assert by_dict != RmScoreTable("other", by_dict.scores)
    with pytest.raises(TypeError, match="unhashable type: 'RmScoreTable'"):
        hash(by_dict)


def test_column_tables_raise_the_dict_tables_errors():
    dataset, table = gen_synthetic(DistSpec.noisy_gaussian(0.5, 7.0), 2, 4, seed=2)
    values = np.array(list(table.scores.values()))
    values[[5, 2]] = math.inf, -math.inf
    for rm_name, column in (("rm", values), ("", values), ("a\0b", table._values)):
        with pytest.raises(RetabenchError) as from_columns:
            RmScoreTable._from_columns(rm_name, dataset._pair_ids, column)
        with pytest.raises(RetabenchError) as from_dict:
            RmScoreTable(rm_name, dict(zip(dataset.iter_pairs(), column.tolist())))
        assert (type(from_columns.value), str(from_columns.value)) == (
            type(from_dict.value), str(from_dict.value))
    assert isinstance(from_columns.value, MalformedRecord)
    with pytest.raises(MalformedRecord, match="rm_name"):
        oracle_score_table(dataset, "")
