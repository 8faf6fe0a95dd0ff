"""Benchmark dataset types and JSON-lines file I/O.

A benchmark lives in a directory with two files: ``prompts.jsonl`` (one
prompt per line) and ``responses.jsonl`` (one scored response per line,
exactly N per prompt). Reward-model scores for the same response pool are
ingested from separate ``rm_scores.jsonl`` files, one table per tested
model.

Loading is deterministic: prompts are ordered by ``prompt_id`` and
responses by ``response_id``, so two loads of the same directory yield
identical in-memory objects. Loaded datasets and tables are immutable and
safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

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

_PROMPT_KEYS = {"prompt_id", "text", "embedding", "perplexity"}
_RESPONSE_KEYS = {"prompt_id", "response_id", "text", "oracle_score", "oracle_samples"}
_SCORE_KEYS = {"prompt_id", "response_id", "rm_name", "score"}


@dataclass(frozen=True)
class PromptRecord:
    """One prompt: full conversation context up to the final turn."""

    prompt_id: str
    text: str
    embedding: tuple[float, ...] | None = None
    perplexity: float | None = None


@dataclass(frozen=True)
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
        for prompt in self.prompts:
            for resp in self.responses[prompt.prompt_id]:
                yield (prompt.prompt_id, resp.response_id)


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


def _iter_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    source = path.name
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(source, line_no, "-", f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise MalformedRecord(source, line_no, "-", "record is not a JSON object")
            yield line_no, obj


def _req_str(obj: dict, key: str, source: str, line: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise MalformedRecord(source, line, key, "required non-empty string")
    return value


def _as_float(value, key: str, source: str, line: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedRecord(source, line, key, "must be a number")
    return float(value)


def _warn_unknown_keys(obj: dict, known: set[str], source: str, line: int,
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
    for line_no, obj in _iter_jsonl(prompts_path):
        source = PROMPTS_FILE
        _warn_unknown_keys(obj, _PROMPT_KEYS, source, line_no, warnings)
        pid = _req_str(obj, "prompt_id", source, line_no)
        text = _req_str(obj, "text", source, line_no)
        if pid in prompts:
            raise DuplicateId("prompt", pid)
        embedding = None
        if obj.get("embedding") is not None:
            raw = obj["embedding"]
            if not isinstance(raw, list) or not raw:
                raise MalformedRecord(source, line_no, "embedding", "must be a non-empty array")
            embedding = tuple(_as_float(v, "embedding", source, line_no) for v in raw)
            if any(not math.isfinite(v) for v in embedding):
                raise MalformedRecord(source, line_no, "embedding", "contains non-finite values")
            if embedding_dim is None:
                embedding_dim = len(embedding)
            elif len(embedding) != embedding_dim:
                raise MalformedRecord(source, line_no, "embedding",
                                      f"dimension {len(embedding)} != {embedding_dim}")
            norm = math.sqrt(math.fsum(v * v for v in embedding))
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
    for line_no, obj in _iter_jsonl(responses_path):
        source = RESPONSES_FILE
        _warn_unknown_keys(obj, _RESPONSE_KEYS, source, line_no, warnings)
        pid = _req_str(obj, "prompt_id", source, line_no)
        rid = _req_str(obj, "response_id", source, line_no)
        if pid not in responses:
            raise MalformedRecord(source, line_no, "prompt_id", f"unknown prompt {pid!r}")
        if rid in responses[pid]:
            raise DuplicateId("response", f"{pid}/{rid}")
        if "oracle_score" not in obj:
            raise MalformedRecord(source, line_no, "oracle_score", "required")
        score = _as_float(obj["oracle_score"], "oracle_score", source, line_no)
        if not math.isfinite(score) or score <= 0:
            raise NonPositiveOracleScore(pid, rid, score)
        if score > max_oracle_score:
            raise MalformedRecord(source, line_no, "oracle_score",
                                  f"{score} exceeds configured maximum {max_oracle_score}")
        text = obj.get("text")
        if text is not None and not isinstance(text, str):
            raise MalformedRecord(source, line_no, "text", "must be a string")
        samples = None
        if obj.get("oracle_samples") is not None:
            raw = obj["oracle_samples"]
            if not isinstance(raw, list) or not raw:
                raise MalformedRecord(source, line_no, "oracle_samples",
                                      "must be a non-empty array")
            samples = tuple(_as_float(v, "oracle_samples", source, line_no) for v in raw)
            if any(not math.isfinite(v) or v <= 0 for v in samples):
                raise MalformedRecord(source, line_no, "oracle_samples",
                                      "samples must be positive reals")
            mean = math.fsum(samples) / len(samples)
            if abs(mean - score) > _ORACLE_SAMPLES_TOL:
                raise MalformedRecord(source, line_no, "oracle_samples",
                                      f"mean {mean!r} does not match oracle_score {score!r}")
        responses[pid][rid] = ResponseRecord(pid, rid, score, text, samples)

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
        pid = _req_str(obj, "prompt_id", source, line_no)
        if pid in seen:
            raise DuplicateId("prompt", pid)
        seen.add(pid)
        text = obj.get("text", "")
        if not isinstance(text, str):
            raise MalformedRecord(source, line_no, "text", "must be a string")
        embedding = None
        if obj.get("embedding") is not None:
            raw = obj["embedding"]
            if not isinstance(raw, list) or not raw:
                raise MalformedRecord(source, line_no, "embedding", "must be a non-empty array")
            embedding = tuple(_as_float(v, "embedding", source, line_no) for v in raw)
            if any(not math.isfinite(v) for v in embedding):
                raise MalformedRecord(source, line_no, "embedding", "contains non-finite values")
            if dim is None:
                dim = len(embedding)
            elif len(embedding) != dim:
                raise MalformedRecord(source, line_no, "embedding",
                                      f"dimension {len(embedding)} != {dim}")
        prompts.append(PromptRecord(pid, text, embedding))
    if not prompts:
        raise MalformedRecord(source, None, "-", "no candidate prompts")
    return prompts


def write_benchmark(dataset: BenchmarkDataset, path: str | Path) -> None:
    """Write a dataset back to prompts.jsonl / responses.jsonl (canonical order)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / PROMPTS_FILE, "w", encoding="utf-8") as fh:
        for prompt in sorted(dataset.prompts, key=lambda p: p.prompt_id):
            obj: dict = {"prompt_id": prompt.prompt_id, "text": prompt.text}
            if prompt.embedding is not None:
                obj["embedding"] = list(prompt.embedding)
            if prompt.perplexity is not None:
                obj["perplexity"] = prompt.perplexity
            fh.write(json.dumps(obj, sort_keys=False) + "\n")
    with open(directory / RESPONSES_FILE, "w", encoding="utf-8") as fh:
        for prompt in sorted(dataset.prompts, key=lambda p: p.prompt_id):
            for resp in sorted(dataset.responses[prompt.prompt_id], key=lambda r: r.response_id):
                obj = {
                    "prompt_id": resp.prompt_id,
                    "response_id": resp.response_id,
                    "oracle_score": resp.oracle_score,
                }
                if resp.text is not None:
                    obj["text"] = resp.text
                if resp.oracle_samples is not None:
                    obj["oracle_samples"] = list(resp.oracle_samples)
                fh.write(json.dumps(obj, sort_keys=False) + "\n")


def ingest_rm_scores(dataset: BenchmarkDataset, path: str | Path) -> RmScoreTable:
    """Read an rm_scores.jsonl file covering exactly the dataset's pairs."""
    score_path = Path(path)
    if not score_path.is_file():
        raise MalformedRecord(str(score_path), None, "-", "file not found")
    warnings: list[ValidationIssue] = []
    valid_pairs = set(dataset.iter_pairs())
    scores: dict[tuple[str, str], float] = {}
    rm_name: str | None = None
    source = score_path.name
    for line_no, obj in _iter_jsonl(score_path):
        _warn_unknown_keys(obj, _SCORE_KEYS, source, line_no, warnings)
        pid = _req_str(obj, "prompt_id", source, line_no)
        rid = _req_str(obj, "response_id", source, line_no)
        this_rm = _req_str(obj, "rm_name", source, line_no)
        if rm_name is None:
            rm_name = this_rm
        elif this_rm != rm_name:
            raise MalformedRecord(source, line_no, "rm_name",
                                  f"mixed rm names in one file: {rm_name!r} vs {this_rm!r}")
        if "score" not in obj:
            raise MalformedRecord(source, line_no, "score", "required")
        value = _as_float(obj["score"], "score", source, line_no)
        pair = (pid, rid)
        if pair not in valid_pairs:
            raise UnknownPair(pair)
        if pair in scores:
            raise DuplicateScore(pair)
        if not math.isfinite(value):
            raise NonFiniteScore(pair, value)
        scores[pair] = value
    if rm_name is None:
        raise MalformedRecord(source, None, "-", "no score records")
    for pair in sorted(valid_pairs):
        if pair not in scores:
            raise MissingScore(pair)
    return RmScoreTable(rm_name=rm_name, scores=scores, load_warnings=warnings)


def write_rm_scores(table: RmScoreTable, path: str | Path) -> None:
    """Write a score table as rm_scores.jsonl in canonical (sorted) order."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for (pid, rid) in sorted(table.scores):
            obj = {
                "prompt_id": pid,
                "response_id": rid,
                "rm_name": table.rm_name,
                "score": table.scores[(pid, rid)],
            }
            fh.write(json.dumps(obj, sort_keys=False) + "\n")


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

    expected_pairs = set(dataset.iter_pairs())
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
