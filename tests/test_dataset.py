"""Loader, writer, ingestion, and validation behavior."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from retabench import (
    BenchmarkDataset,
    BonVariant,
    ConvergencePoint,
    PromptRecord,
    ResponseRecord,
    RetaCurve,
    RetaEstimate,
    RmScoreTable,
    bon_curve,
    ingest_rm_scores,
    load_benchmark,
    load_candidate_prompts,
    metric_report,
    oracle_score_table,
    validate_dataset,
    write_benchmark,
    write_bon_csv,
    write_convergence_csv,
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
    UnknownPair,
)
from retabench.ranking import oracle_matrix

from conftest import build_dataset, build_table, scores_records, write_dataset_dir, write_jsonl


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


# ids that exercise every escape json.dumps makes, and values that are not
# plain finite floats
ODD_IDS = ['q"uote', "back\\slash", "ctl\x00\x1f\x7f\n\t", "na\u00efve \u2028",
           "astral \U0001F600", "/slash"]
ODD_VALUES = [-0.0, 5e-324, 1e308, np.float64(0.1), np.float64(-0.0), 3, True,
              math.nan, math.inf, -math.inf, 0.1 + 0.2]


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
    values = ODD_VALUES * 2
    prompts, responses, scores = [], {}, {}
    for i, pid in enumerate(ODD_IDS):
        prompts.append(PromptRecord(
            pid, f"text of {pid}",
            embedding=None if i == 0 else tuple(values[i:i + 4]) if i % 2 else (),
            perplexity=None if i == 1 else values[i]))
        responses[pid] = [
            ResponseRecord(pid, rid, values[i + j],
                           text=None if j == 0 else f"{rid} answers {pid}",
                           oracle_samples=None if j == 1 else tuple(values[j:j + 3]))
            for j, rid in enumerate(ODD_IDS)]
        for j, rid in enumerate(ODD_IDS):
            scores[(pid, rid)] = values[i + j]
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


def test_validate_reports_a_prompt_without_response_list():
    prompts = [PromptRecord("p1", "t"), PromptRecord("p2", "t")]
    responses = {"p1": [ResponseRecord("p1", f"r{i}", 1.0 + i) for i in range(2)]}
    dataset = BenchmarkDataset("partial", prompts, responses, 2)
    table = RmScoreTable("rm", {("p1", "r0"): 0.0, ("p1", "r1"): 1.0})
    report = validate_dataset(dataset, [table])
    assert [(i.severity, i.location, i.message) for i in report.issues] == [
        ("error", "prompt:p2", "no response list")]


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
], ids=["bool-score", "missing-score", "empty-id", "unknown-prompt", "duplicate",
        "nan-score", "zero-score", "above-maximum", "text-type", "empty-samples",
        "bool-sample", "negative-sample"])
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
], ids=["401-digit-score", "5001-digit-score", "byte-0xff", "deep-nesting"])
def test_unparsable_lines_are_malformed_records(tiny_dataset_dir, tmp_path, bad_line, field,
                                                message):
    dataset = load_benchmark(tiny_dataset_dir)
    path = tmp_path / "rm_scores.jsonl"
    path.write_bytes(_score_line("p1", "a").encode() + b"\n" + bad_line + b"\n")
    with pytest.raises(MalformedRecord) as info:
        ingest_rm_scores(dataset, path)
    assert (info.value.line, info.value.field) == (2, field)
    assert str(info.value).startswith(f"rm_scores.jsonl:2: field '{field}': {message}")


def _malformed_dataset(shape: str) -> tuple[BenchmarkDataset, RmScoreTable]:
    """A hand-built 3-response dataset with one shape ``load_benchmark`` rejects,
    and a table scoring every stored pair."""
    ids = {"missing-list": {"p1": ["a", "b", "c"], "p2": None},
           "long-list": {"p1": ["a", "b", "c", "d"]},
           "repeated-id": {"p1": ["a", "a", "b"]}}[shape]
    prompts = [PromptRecord(pid, "t") for pid in ids]
    responses = {pid: [ResponseRecord(pid, rid, 1.0 + i) for i, rid in enumerate(rids)]
                 for pid, rids in ids.items() if rids is not None}
    table = RmScoreTable("rm", {(pid, rid): 0.5 for pid, rids in ids.items()
                                for rid in rids or ()})
    return BenchmarkDataset("malformed", prompts, responses, 3), table


@pytest.mark.parametrize("shape, error, attributes", [
    ("missing-list", NonUniformN, {"prompt_id": "p2", "count": 0, "expected": 3}),
    ("long-list", NonUniformN, {"prompt_id": "p1", "count": 4, "expected": 3}),
    ("repeated-id", DuplicateId, {"kind": "response", "identifier": "p1/a"}),
])
@pytest.mark.parametrize("estimator", ["bon_curve", "metric_report", "oracle_matrix"])
def test_malformed_hand_built_dataset_raises_typed_errors(shape, error, attributes, estimator):
    dataset, table = _malformed_dataset(shape)
    call = {"bon_curve": lambda: bon_curve(dataset, table, BonVariant("best_of_n")),
            "metric_report": lambda: metric_report(dataset, table),
            "oracle_matrix": lambda: oracle_matrix(dataset, table)}[estimator]
    with pytest.raises(error) as raised:
        call()
    assert {key: getattr(raised.value, key) for key in attributes} == attributes
    # validation reads only the pair index, so it reports the shape instead
    assert not validate_dataset(dataset, [table]).ok


def test_every_csv_writer_creates_its_parent_directory(tmp_path):
    dataset = build_dataset({"p1": [1.0, 2.0, 3.0, 4.0], "p2": [4.0, 1.0, 3.0, 2.0]})
    table = build_table({"p1": [0.1, 0.4, 0.2, 0.3], "p2": [0.3, 0.1, 0.2, 0.4]})
    curve = RetaCurve("rm", [RetaEstimate(0.5, 1.1, {"p1": 1.0, "p2": 1.2}, 0.1, [2, 3])])
    point = ConvergencePoint(4, 0.5, 1.2, 1.1, 0.1, 0.05, 7)
    writers = {
        "curve.csv": (lambda p: write_curve_csv(curve, p, "note"), "rm_name,eta,"),
        "per_prompt.csv": (lambda p: write_per_prompt_csv(curve, dataset, p, "note"),
                           "prompt_id,eta,"),
        "bon.csv": (lambda p: write_bon_csv(
            bon_curve(dataset, table, BonVariant("best_of_n")), p, "note"), "rm_name,variant,"),
        "metrics.csv": (lambda p: write_metrics_csv([metric_report(dataset, table)], p, "note"),
                        "rm_name,hit_rate_at_"),
        "convergence.csv": (lambda p: write_convergence_csv([point], p, "note"), "N,eta,"),
    }
    for name, (write, header) in writers.items():
        path = tmp_path / name / "a" / "b" / name
        write(path)
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"# note" and lines[1].decode().startswith(header), name
        assert b"\r" not in path.read_bytes(), name
