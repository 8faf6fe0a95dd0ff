"""Benchmark dataset types and JSON-lines file I/O.

A benchmark lives in a directory with two files: ``prompts.jsonl`` (one
prompt per line) and ``responses.jsonl`` (one scored response per line,
exactly N per prompt). Reward-model scores for the same response pool are
ingested from separate ``rm_scores.jsonl`` files, one table per tested
model.

Loading is deterministic: prompts are ordered by ``prompt_id`` and
responses by ``response_id``, so two loads of the same directory yield
identical in-memory objects. Loaded datasets and tables are immutable and
safe to share across threads. A dataset builds its array columns (the
pair index, the oracle matrix and the rank columns) once, on first use,
which relies on that immutability: a dataset changed after a column was
read would keep the stale column.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
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

PROMPTS_FILE = "prompts.jsonl"
RESPONSES_FILE = "responses.jsonl"

DEFAULT_MAX_ORACLE_SCORE = 10.0

_EMBEDDING_NORM_TOL = 1e-6
_ORACLE_SAMPLES_TOL = 1e-9

_PROMPT_KEYS = frozenset({"prompt_id", "text", "embedding", "perplexity"})
_RESPONSE_KEYS = frozenset(
    {"prompt_id", "response_id", "text", "oracle_score", "oracle_samples"})
_SCORE_KEYS = frozenset({"prompt_id", "response_id", "rm_name", "score"})
_FLOAT_TYPE = frozenset({float})

# json.dumps quotes strings with this (ensure_ascii is its default)
_json_str = json.encoder.encode_basestring_ascii


@dataclass(frozen=True)
class PromptRecord:
    """One prompt: full conversation context up to the final turn."""

    prompt_id: str
    text: str
    embedding: tuple[float, ...] | None = None
    perplexity: float | None = None


@dataclass(frozen=True, slots=True)
class ResponseRecord:
    """One scored response. ``oracle_score`` is the (averaged) judge score."""

    prompt_id: str
    response_id: str
    oracle_score: float
    text: str | None = None
    oracle_samples: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" or "warning"
    location: str
    message: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue]

    @property
    def ok(self) -> bool:
        return not any(i.severity == "error" for i in self.issues)

    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]


@dataclass
class BenchmarkDataset:
    """The frozen evaluation substrate: prompts, responses, oracle scores."""

    name: str
    prompts: list[PromptRecord]
    responses: dict[str, list[ResponseRecord]]
    responses_per_prompt: int
    load_warnings: list[ValidationIssue] = field(default_factory=list, compare=False)

    @property
    def num_prompts(self) -> int:
        return len(self.prompts)

    def prompt_ids(self) -> list[str]:
        return [p.prompt_id for p in self.prompts]

    def oracle_scores(self, prompt_id: str) -> list[float]:
        return [r.oracle_score for r in self.responses[prompt_id]]

    def iter_pairs(self) -> Iterator[tuple[str, str]]:
        return iter(self._pair_index)

    @cached_property
    def _pair_index(self) -> dict[tuple[str, str], int]:
        """Flat position of each (prompt_id, response_id), prompts in order and
        each prompt's responses in stored order; a prompt without a response
        list contributes no pairs, and a repeated pair keeps its first position."""
        pairs = dict.fromkeys(
            (pid, resp.response_id)
            for pid in self.prompt_ids() for resp in self.responses.get(pid, ()))
        return dict(zip(pairs, range(len(pairs))))

    @cached_property
    def _oracle_scores(self) -> np.ndarray:
        """(prompts, N) oracle scores in the stored response order; read-only.

        Every array column is built from this one, so it checks the shape
        once and raises what ``load_benchmark`` raises for the same input:
        ``NonUniformN`` for a missing or wrong-length response list, and
        ``DuplicateId`` for the first repeated (prompt, response) pair.
        """
        size = self.responses_per_prompt
        rows = []
        for pid in self.prompt_ids():
            row = self.oracle_scores(pid) if pid in self.responses else []
            if len(row) != size:
                raise NonUniformN(pid, len(row), size)
            rows.append(row)
        if len(self._pair_index) != len(rows) * size:
            seen = set()
            for pair in ((pid, r.response_id) for pid in self.prompt_ids()
                         for r in self.responses[pid]):
                if pair in seen:
                    raise DuplicateId("response", "/".join(pair))
                seen.add(pair)
        return _frozen(np.array(rows, dtype=np.float64))

    @cached_property
    def _id_ranks(self) -> np.ndarray:
        """(prompts, N) rank of each stored response's id within its prompt; read-only."""
        by_id = []
        for pid in self.prompt_ids():
            ids = [r.response_id for r in self.responses[pid]]
            by_id.append(sorted(range(len(ids)), key=ids.__getitem__))
        return _frozen(np.argsort(by_id, axis=1))  # the inverse of each row's permutation

    @cached_property
    def _oracle_ranks(self) -> np.ndarray:
        """(prompts, N) 0-based oracle rank of each stored response, ties by
        ascending response id; read-only."""
        return _frozen(np.argsort(_rank_orders(self._oracle_scores, self._id_ranks), axis=1))


def _rank_orders(scores: np.ndarray, id_ranks: np.ndarray) -> np.ndarray:
    """Row i holds prompt i's stored indices by score descending, ties by
    ascending response id (``id_ranks`` gives each stored response's id
    rank), for every prompt in one sort."""
    return np.lexsort((id_ranks, -scores), axis=1)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class RmScoreTable:
    """Scalar scores of one tested reward model for every (prompt, response)."""

    rm_name: str
    scores: dict[tuple[str, str], float]
    load_warnings: list[ValidationIssue] = field(default_factory=list, compare=False)

    def score(self, prompt_id: str, response_id: str) -> float:
        key = (prompt_id, response_id)
        if key not in self.scores:
            raise MissingScore(key)
        return self.scores[key]


_scan_once = json.JSONDecoder().scan_once


def _iter_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file.

    Each stripped line is decoded by one call of the C scanner behind
    ``json.loads``; on a stripped line it accepts exactly what
    ``json.loads`` accepts, so ``json.loads`` runs only on a line the
    scanner rejects, to raise the same error text.
    """
    source = path.name
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    try:
                        obj, end = _scan_once(line, 0)
                    except StopIteration:
                        end = -1
                    if end != len(line):
                        obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    # JSONDecodeError, or an integer past Python's digit limit
                    raise MalformedRecord(source, line_no, "-", f"invalid JSON: {exc}") from exc
                if type(obj) is not dict:
                    raise MalformedRecord(source, line_no, "-", "record is not a JSON object")
                yield line_no, obj
        except UnicodeDecodeError as exc:
            raise MalformedRecord(source, _first_undecodable_line(path), "-",
                                  f"not valid UTF-8: {exc.reason}") from exc


def _first_undecodable_line(path: Path) -> int | None:
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return None


def _req_str(obj: dict, key: str, source: str, line: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise MalformedRecord(source, line, key, "required non-empty string")
    return value


def _as_float(value, key: str, source: str, line: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedRecord(source, line, key, "must be a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise MalformedRecord(source, line, key, "number too large for a float") from exc


def _float_array(raw, key: str, source: str, line: int) -> tuple[float, ...]:
    if not isinstance(raw, list) or not raw:
        raise MalformedRecord(source, line, key, "must be a non-empty array")
    if _FLOAT_TYPE.issuperset(map(type, raw)):
        return tuple(raw)
    return tuple(_as_float(v, key, source, line) for v in raw)


def _embedding(raw, dim: int | None, source: str, line: int) -> tuple[float, ...]:
    """A finite embedding whose dimension matches ``dim`` (None: any)."""
    embedding = _float_array(raw, "embedding", source, line)
    if not all(map(math.isfinite, embedding)):
        raise MalformedRecord(source, line, "embedding", "contains non-finite values")
    if dim is not None and len(embedding) != dim:
        raise MalformedRecord(source, line, "embedding",
                              f"dimension {len(embedding)} != {dim}")
    return embedding


def _warn_unknown_keys(obj: dict, known: frozenset[str], source: str, line: int,
                       sink: list[ValidationIssue]) -> None:
    for key in sorted(set(obj) - known):
        sink.append(ValidationIssue("warning", f"{source}:{line}",
                                    f"unknown key {key!r} ignored"))


def _check_max_oracle_score(value: float) -> None:
    if not 0.0 < value < math.inf:
        raise InvalidConfig(f"max_oracle_score must be positive and finite, got {value}")


def load_benchmark(path: str | Path, *,
                   max_oracle_score: float = DEFAULT_MAX_ORACLE_SCORE,
                   name: str | None = None) -> BenchmarkDataset:
    """Load a benchmark directory containing prompts.jsonl and responses.jsonl.

    Every response must have a strictly positive oracle score no larger
    than ``max_oracle_score`` (scores are judge outputs on a bounded
    scale, and boundedness is required by the estimators downstream).
    All prompts must carry the same number of responses.
    """
    _check_max_oracle_score(max_oracle_score)
    directory = Path(path)
    prompts_path = directory / PROMPTS_FILE
    responses_path = directory / RESPONSES_FILE
    if not prompts_path.is_file():
        raise MalformedRecord(str(directory), None, PROMPTS_FILE, "file not found")
    if not responses_path.is_file():
        raise MalformedRecord(str(directory), None, RESPONSES_FILE, "file not found")

    warnings: list[ValidationIssue] = []
    prompts: dict[str, PromptRecord] = {}
    embedding_dim: int | None = None
    source = PROMPTS_FILE
    # Each record loop tests the common valid case in one expression and
    # falls back to the checking helpers, in their order, only when it fails.
    for line_no, obj in _iter_jsonl(prompts_path):
        if not _PROMPT_KEYS.issuperset(obj):
            _warn_unknown_keys(obj, _PROMPT_KEYS, source, line_no, warnings)
        pid, text = obj.get("prompt_id"), obj.get("text")
        if not (type(pid) is str and pid and type(text) is str and text):
            pid = _req_str(obj, "prompt_id", source, line_no)
            text = _req_str(obj, "text", source, line_no)
        if pid in prompts:
            raise DuplicateId("prompt", pid)
        embedding = obj.get("embedding")
        if embedding is not None:
            embedding = _embedding(embedding, embedding_dim, source, line_no)
            embedding_dim = len(embedding)
            norm = math.sqrt(math.fsum(map(operator.mul, embedding, embedding)))
            if abs(norm - 1.0) > _EMBEDDING_NORM_TOL:
                raise MalformedRecord(source, line_no, "embedding",
                                      f"norm {norm!r} not within {_EMBEDDING_NORM_TOL} of 1")
        perplexity = None
        if obj.get("perplexity") is not None:
            perplexity = _as_float(obj["perplexity"], "perplexity", source, line_no)
            if not math.isfinite(perplexity) or perplexity <= 0:
                raise MalformedRecord(source, line_no, "perplexity", "must be a positive real")
        prompts[pid] = PromptRecord(pid, text, embedding, perplexity)

    if not prompts:
        raise MalformedRecord(PROMPTS_FILE, None, "-", "no prompt records")

    responses: dict[str, dict[str, ResponseRecord]] = {pid: {} for pid in prompts}
    source = RESPONSES_FILE
    for line_no, obj in _iter_jsonl(responses_path):
        if not _RESPONSE_KEYS.issuperset(obj):
            _warn_unknown_keys(obj, _RESPONSE_KEYS, source, line_no, warnings)
        pid, rid = obj.get("prompt_id"), obj.get("response_id")
        if not (type(pid) is str and pid and type(rid) is str and rid):
            pid = _req_str(obj, "prompt_id", source, line_no)
            rid = _req_str(obj, "response_id", source, line_no)
        by_id = responses.get(pid)
        if by_id is None:
            raise MalformedRecord(source, line_no, "prompt_id", f"unknown prompt {pid!r}")
        if rid in by_id:
            raise DuplicateId("response", f"{pid}/{rid}")
        score = obj.get("oracle_score")
        if type(score) is not float:
            if "oracle_score" not in obj:
                raise MalformedRecord(source, line_no, "oracle_score", "required")
            score = _as_float(score, "oracle_score", source, line_no)
        if not 0.0 < score <= max_oracle_score:
            if not math.isfinite(score) or score <= 0:
                raise NonPositiveOracleScore(pid, rid, score)
            raise MalformedRecord(source, line_no, "oracle_score",
                                  f"{score} exceeds configured maximum {max_oracle_score}")
        text = obj.get("text")
        if text is not None and type(text) is not str:
            raise MalformedRecord(source, line_no, "text", "must be a string")
        samples = obj.get("oracle_samples")
        if samples is not None:
            samples = _float_array(samples, "oracle_samples", source, line_no)
            if any(not math.isfinite(v) or v <= 0 for v in samples):
                raise MalformedRecord(source, line_no, "oracle_samples",
                                      "samples must be positive reals")
            mean = math.fsum(samples) / len(samples)
            if abs(mean - score) > _ORACLE_SAMPLES_TOL:
                raise MalformedRecord(source, line_no, "oracle_samples",
                                      f"mean {mean!r} does not match oracle_score {score!r}")
        by_id[rid] = ResponseRecord(pid, rid, score, text, samples)

    ordered_prompts = [prompts[pid] for pid in sorted(prompts)]
    counts = {pid: len(responses[pid]) for pid in prompts}
    expected = counts[ordered_prompts[0].prompt_id]
    for prompt in ordered_prompts:
        if counts[prompt.prompt_id] != expected:
            raise NonUniformN(prompt.prompt_id, counts[prompt.prompt_id], expected)
    if expected < 2:
        raise NonUniformN(ordered_prompts[0].prompt_id, expected, 2)

    ordered_responses = {
        pid: [responses[pid][rid] for rid in sorted(responses[pid])] for pid in sorted(prompts)
    }
    return BenchmarkDataset(
        name=name or directory.name,
        prompts=ordered_prompts,
        responses=ordered_responses,
        responses_per_prompt=expected,
        load_warnings=warnings,
    )


def load_candidate_prompts(path: str | Path) -> list[PromptRecord]:
    """Read a standalone prompts.jsonl of sampling candidates.

    Unlike benchmark loading this does not require unit-norm embeddings:
    kernel construction downstream is invariant to a common rescaling.
    """
    source_path = Path(path)
    if not source_path.is_file():
        raise MalformedRecord(str(source_path), None, "-", "file not found")
    source = source_path.name
    prompts: list[PromptRecord] = []
    seen: set[str] = set()
    dim: int | None = None
    for line_no, obj in _iter_jsonl(source_path):
        pid, text = obj.get("prompt_id"), obj.get("text", "")
        if not (type(pid) is str and pid):
            pid = _req_str(obj, "prompt_id", source, line_no)
        if pid in seen:
            raise DuplicateId("prompt", pid)
        seen.add(pid)
        if type(text) is not str:
            raise MalformedRecord(source, line_no, "text", "must be a string")
        embedding = obj.get("embedding")
        if embedding is not None:
            embedding = _embedding(embedding, dim, source, line_no)
            dim = len(embedding)
        prompts.append(PromptRecord(pid, text, embedding))
    if not prompts:
        raise MalformedRecord(source, None, "-", "no candidate prompts")
    return prompts


def _json_value(value) -> str:
    """``json.dumps(value)``, with strings and finite floats spelled directly."""
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _json_list(values) -> str:
    return f"[{', '.join(map(_json_value, values))}]"


def _write_csv(path: str | Path, header_comment: str | None, columns: Sequence[str],
               rows: Iterator[Sequence]) -> None:
    """Write one result CSV, creating its parent directory: an optional
    ``# <header_comment>`` line, the column names, then ``rows``."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_benchmark(dataset: BenchmarkDataset, path: str | Path) -> None:
    """Write a dataset back to prompts.jsonl / responses.jsonl (canonical order).

    Each line is the bytes ``json.dumps`` gives for the record's dict.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    prompts = sorted(dataset.prompts, key=lambda p: p.prompt_id)
    with open(directory / PROMPTS_FILE, "w", encoding="utf-8") as fh:
        for prompt in prompts:
            line = (f'{{"prompt_id": {_json_value(prompt.prompt_id)}, '
                    f'"text": {_json_value(prompt.text)}')
            if prompt.embedding is not None:
                line += f', "embedding": {_json_list(prompt.embedding)}'
            if prompt.perplexity is not None:
                line += f', "perplexity": {_json_value(prompt.perplexity)}'
            fh.write(line + "}\n")
    with open(directory / RESPONSES_FILE, "w", encoding="utf-8") as fh:
        for prompt in prompts:
            for resp in sorted(dataset.responses[prompt.prompt_id], key=lambda r: r.response_id):
                line = (f'{{"prompt_id": {_json_value(resp.prompt_id)}, '
                        f'"response_id": {_json_value(resp.response_id)}, '
                        f'"oracle_score": {_json_value(resp.oracle_score)}')
                if resp.text is not None:
                    line += f', "text": {_json_value(resp.text)}'
                if resp.oracle_samples is not None:
                    line += f', "oracle_samples": {_json_list(resp.oracle_samples)}'
                fh.write(line + "}\n")


def ingest_rm_scores(dataset: BenchmarkDataset, path: str | Path) -> RmScoreTable:
    """Read an rm_scores.jsonl file covering exactly the dataset's pairs.

    The table's scores are keyed in the dataset's pair order, whatever
    the order of the file.
    """
    score_path = Path(path)
    if not score_path.is_file():
        raise MalformedRecord(str(score_path), None, "-", "file not found")
    warnings: list[ValidationIssue] = []
    index = dataset._pair_index
    values: list[float | None] = [None] * len(index)
    rm_name: str | None = None
    source = score_path.name
    for line_no, obj in _iter_jsonl(score_path):
        if not _SCORE_KEYS.issuperset(obj):
            _warn_unknown_keys(obj, _SCORE_KEYS, source, line_no, warnings)
        pid, rid, this_rm = obj.get("prompt_id"), obj.get("response_id"), obj.get("rm_name")
        if not (type(pid) is str and pid and type(rid) is str and rid
                and type(this_rm) is str and this_rm):
            pid = _req_str(obj, "prompt_id", source, line_no)
            rid = _req_str(obj, "response_id", source, line_no)
            this_rm = _req_str(obj, "rm_name", source, line_no)
        if this_rm != rm_name:
            if rm_name is not None:
                raise MalformedRecord(source, line_no, "rm_name",
                                      f"mixed rm names in one file: {rm_name!r} vs {this_rm!r}")
            if "\0" in this_rm:
                raise MalformedRecord(source, line_no, "rm_name", "contains a NUL character")
            rm_name = this_rm
        value = obj.get("score")
        if type(value) is not float:
            if "score" not in obj:
                raise MalformedRecord(source, line_no, "score", "required")
            value = _as_float(value, "score", source, line_no)
        pair = (pid, rid)
        position = index.get(pair)
        if position is None:
            raise UnknownPair(pair)
        if values[position] is not None:
            raise DuplicateScore(pair)
        if not math.isfinite(value):
            raise NonFiniteScore(pair, value)
        values[position] = value
    if rm_name is None:
        raise MalformedRecord(source, None, "-", "no score records")
    if None in values:
        raise MissingScore(min(pair for pair, value in zip(index, values) if value is None))
    return RmScoreTable(rm_name=rm_name, scores=dict(zip(index, values)),
                        load_warnings=warnings)


def write_rm_scores(table: RmScoreTable, path: str | Path) -> None:
    """Write a score table as rm_scores.jsonl in canonical (sorted) order.

    Each line is the bytes ``json.dumps`` gives for the record's dict.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    rm_name = _json_value(table.rm_name)
    scores = table.scores
    with open(out, "w", encoding="utf-8") as fh:
        for pair in sorted(scores):
            pid, rid = pair
            fh.write(f'{{"prompt_id": {_json_value(pid)}, "response_id": {_json_value(rid)}, '
                     f'"rm_name": {rm_name}, "score": {_json_value(scores[pair])}}}\n')


def oracle_score_table(dataset: BenchmarkDataset, rm_name: str = "oracle") -> RmScoreTable:
    """A score table whose scores equal the oracle scores (the ideal model)."""
    scores = {
        (resp.prompt_id, resp.response_id): resp.oracle_score
        for pid in dataset.prompt_ids()
        for resp in dataset.responses[pid]
    }
    return RmScoreTable(rm_name=rm_name, scores=scores)


def validate_dataset(dataset: BenchmarkDataset,
                     tables: Sequence[RmScoreTable] = (),
                     *,
                     max_oracle_score: float = DEFAULT_MAX_ORACLE_SCORE) -> ValidationReport:
    """Aggregate all invariant checks into a report; never mutates.

    Raises only ``InvalidConfig`` for a ``max_oracle_score`` that is not
    positive and finite; every problem in the data becomes an issue.
    """
    _check_max_oracle_score(max_oracle_score)
    issues: list[ValidationIssue] = list(dataset.load_warnings)

    seen_prompts: set[str] = set()
    embedding_dim: int | None = None
    for prompt in dataset.prompts:
        loc = f"prompt:{prompt.prompt_id}"
        if prompt.prompt_id in seen_prompts:
            issues.append(ValidationIssue("error", loc, "duplicate prompt_id"))
        seen_prompts.add(prompt.prompt_id)
        if prompt.embedding is not None:
            if embedding_dim is None:
                embedding_dim = len(prompt.embedding)
            elif len(prompt.embedding) != embedding_dim:
                issues.append(ValidationIssue("error", loc, "embedding dimension mismatch"))
            norm = math.sqrt(math.fsum(v * v for v in prompt.embedding))
            if abs(norm - 1.0) > _EMBEDDING_NORM_TOL:
                issues.append(ValidationIssue("error", loc, f"embedding norm {norm!r} != 1"))
        if prompt.perplexity is not None and prompt.perplexity <= 0:
            issues.append(ValidationIssue("error", loc, "perplexity must be positive"))

    if dataset.num_prompts < 1:
        issues.append(ValidationIssue("error", "dataset", "no prompts"))
    if dataset.responses_per_prompt < 2:
        issues.append(ValidationIssue("error", "dataset", "fewer than 2 responses per prompt"))

    for pid in dataset.prompt_ids():
        loc = f"prompt:{pid}"
        if pid not in dataset.responses:
            issues.append(ValidationIssue("error", loc, "no response list"))
            continue
        resp_list = dataset.responses[pid]
        if len(resp_list) != dataset.responses_per_prompt:
            issues.append(ValidationIssue(
                "error", loc,
                f"{len(resp_list)} responses, expected {dataset.responses_per_prompt}"))
        seen_rids: set[str] = set()
        for resp in resp_list:
            rloc = f"response:{pid}/{resp.response_id}"
            if resp.response_id in seen_rids:
                issues.append(ValidationIssue("error", rloc, "duplicate response_id"))
            seen_rids.add(resp.response_id)
            if not math.isfinite(resp.oracle_score) or resp.oracle_score <= 0:
                issues.append(ValidationIssue("error", rloc, "oracle score must be positive"))
            elif resp.oracle_score > max_oracle_score:
                issues.append(ValidationIssue(
                    "error", rloc, f"oracle score exceeds maximum {max_oracle_score}"))
            if resp.oracle_samples:
                mean = math.fsum(resp.oracle_samples) / len(resp.oracle_samples)
                if abs(mean - resp.oracle_score) > _ORACLE_SAMPLES_TOL:
                    issues.append(ValidationIssue(
                        "error", rloc, "oracle_samples mean does not match oracle_score"))

    expected_pairs = dataset._pair_index.keys()
    seen_rm_names: set[str] = set()
    for table in tables:
        loc = f"table:{table.rm_name}"
        issues.extend(table.load_warnings)
        if table.rm_name in seen_rm_names:
            issues.append(ValidationIssue("error", loc, "duplicate rm_name"))
        seen_rm_names.add(table.rm_name)
        pairs = set(table.scores)
        missing = expected_pairs - pairs
        extra = pairs - expected_pairs
        if missing:
            issues.append(ValidationIssue(
                "error", loc, f"{len(missing)} pairs missing (e.g. {min(missing)!r})"))
        if extra:
            issues.append(ValidationIssue(
                "error", loc, f"{len(extra)} unknown pairs (e.g. {min(extra)!r})"))
        for pair, value in table.scores.items():
            if not math.isfinite(value):
                issues.append(ValidationIssue("error", loc, f"non-finite score for {pair!r}"))

    return ValidationReport(issues=issues)
