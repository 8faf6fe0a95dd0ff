"""Benchmark dataset types and JSON-lines file I/O.

A benchmark lives in a directory with two files: ``prompts.jsonl`` (one
prompt per line) and ``responses.jsonl`` (one scored response per line,
exactly N per prompt). Reward-model scores for the same response pool are
ingested from separate ``rm_scores.jsonl`` files, one table per tested
model.

A ``BenchmarkDataset`` is canonical by construction: it stores prompts
and responses in id order and checks their shape and values, so two
loads of the same directory yield identical in-memory objects. Datasets
and tables are immutable and safe to share across threads. Each holds
columns, which every reader, writer and estimator reads, and builds its
records or dict, pair index and ranks from them on first use.

Prompts are read line by line through the JSON scanner. A responses
file or score table in the writers' layout and line order is read in
blocks of lines, one ``re.split`` per block (``_canonical_blocks``). Any
other such file, and any file holding an error, goes line by line through
the scanner too, which gives an equal dataset or table and raises or warns
with the line number.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, repeat
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
    RetabenchError,
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
# Fields that reach output files and file names must encode as UTF-8; JSON's
# "\ud800" escape gives a str with a lone surrogate, which does not.
_NAME_KEYS = frozenset({"prompt_id", "response_id", "rm_name"})
_SURROGATE = re.compile(r"[\ud800-\udfff]")

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


@dataclass
class BenchmarkDataset:
    """The frozen evaluation substrate: prompts, responses, oracle scores.

    Construction puts the dataset in canonical form and checks its shape,
    whatever order the records come in: ``prompts`` are stored by
    ``prompt_id`` and each prompt's responses by ``response_id``. It raises
    what ``load_benchmark`` raises for the same shape: ``DuplicateId`` for
    a repeated prompt or (prompt, response) id, ``NonUniformN`` for a
    prompt whose response list is missing or does not hold exactly
    ``responses_per_prompt`` responses, or for fewer than 2 responses per
    prompt, and ``MalformedRecord`` for no prompts at all or for a response
    list keyed by a prompt that is not in ``prompts``. Before all of
    these it raises ``InvalidConfig`` for a ``responses_per_prompt`` that
    is not an int (a bool is not one), then ``MalformedRecord``, naming
    the dataset and the item, for ``prompts`` that are not a list or tuple
    of ``PromptRecord`` or ``responses`` that are not a dict of them.

    It applies the reader's value rules (the ``_*_problem`` predicates)
    too: ``MalformedRecord``, naming the dataset and the record, for a
    ``prompt_id``, ``response_id`` or prompt ``text`` that is not a
    non-empty string (an id must also encode as UTF-8), checked before
    the shape, for a response ``text`` that is neither None nor a string,
    and for an oracle score, sample, embedding entry or perplexity that is
    not a number (a bool is not one, an int is), or an embedding or
    ``oracle_samples`` that is not a non-empty list or tuple,
    ``NonPositiveOracleScore`` for an oracle score that is not positive and
    finite, and ``MalformedRecord`` for a response filed under another
    prompt's id, bad ``oracle_samples``, an embedding that is not finite,
    unit-norm and of the shared dimension, or a perplexity that is not
    positive and finite.

    Construction serves hand-built datasets. It keeps the records' columns
    (``_store``), not the records, with embeddings and samples as tuples.
    Both readers and ``gen_synthetic`` build no record: they check the
    same rules on columns or lines, the per-line reader through the same
    shape check (``_check_shape``), and call ``_from_columns``.
    ``responses`` is built from the columns on first access
    (``__getattr__``), with float oracle scores; two threads racing that
    access store equal lists. Equality compares the columns and repr shows
    the shape, so neither builds records.
    """

    name: str
    prompts: list[PromptRecord]
    responses: dict[str, list[ResponseRecord]]
    responses_per_prompt: int
    load_warnings: list[ValidationIssue] = field(default_factory=list, compare=False)

    def __post_init__(self) -> None:
        size = self.responses_per_prompt
        if isinstance(size, bool) or not isinstance(size, int):
            raise InvalidConfig(f"responses_per_prompt must be an int, got {size!r}")
        self._reject("prompts", "-", _records_problem(self.prompts, PromptRecord))
        for key in ("prompt_id", "text"):
            for prompt in self.prompts:
                self._reject(_prompt_label(prompt), key, _str_problem(getattr(prompt, key), key))
        self._reject("responses", "-", None if isinstance(self.responses, dict) else "not a dict")
        for pid, rows in self.responses.items():
            self._reject(f"responses of {pid!r}", "-", _records_problem(rows, ResponseRecord))
            for resp in rows:
                self._reject(f"response {f'{resp.prompt_id}/{resp.response_id}'!r}", "response_id",
                             _str_problem(resp.response_id, "response_id"))
        self.prompts = sorted(self.prompts, key=_prompt_id)
        ids = self.prompt_ids()
        if not ids:
            raise MalformedRecord(self.name, None, "-", "no prompt records")
        _check_unique("prompt", "", ids)
        unknown = self.responses.keys() - set(ids)
        if unknown:
            raise MalformedRecord(self.name, None, "prompt_id",
                                  f"unknown prompt {min(unknown, key=str)!r}")
        rows = [sorted(self.responses.get(pid, ()), key=_response_id) for pid in ids]
        rids = [list(map(_response_id, row)) for row in rows]
        _check_shape(ids, rids, size)
        pids = [pid for pid in ids for _ in range(size)]
        records = list(chain.from_iterable(rows))
        oracle = self._check_values(pids, records)
        # tuples, so the caller's lists can change without changing the dataset
        samples = [None if r.oracle_samples is None else tuple(r.oracle_samples) for r in records]
        self._store((pids, list(chain.from_iterable(rids))), oracle,
                    list(map(_text, records)), samples if any(samples) else None)
        del self.responses  # the columns hold them now

    def _check_values(self, pids: list[str], records: list[ResponseRecord]) -> np.ndarray:
        """Raise for the first prompt, then the first of ``records`` (filed
        under ``pids``, in id order), that breaks a value rule: the reader's
        error type, naming the dataset and the record's id. Stores each
        embedding as a tuple, and returns the (prompts, N) read-only oracle
        matrix."""
        dim: int | None = None
        for i, prompt in enumerate(self.prompts):
            if prompt.embedding is not None:
                self._reject(_prompt_label(prompt), "embedding",
                             _numbers_problem(prompt.embedding)
                             or _embedding_problem(prompt.embedding, dim))
                dim = len(prompt.embedding)
                self.prompts[i] = replace(prompt, embedding=tuple(prompt.embedding))
            if prompt.perplexity is not None:
                self._reject(_prompt_label(prompt), "perplexity",
                             _number_problem(prompt.perplexity)
                             or _perplexity_problem(prompt.perplexity))
        for pid, resp in zip(pids, records):
            self._reject(f"response {pid + '/' + resp.response_id!r}", "oracle_score",
                         _number_problem(resp.oracle_score))
        scores = np.fromiter(map(_oracle_score, records), np.float64, len(records))
        oracle = _frozen(scores.reshape(self.num_prompts, -1))
        if _oracle_score_problem(oracle):
            bad = next(r for r in records if _oracle_score_problem(r.oracle_score))
            raise NonPositiveOracleScore(bad.prompt_id, bad.response_id, bad.oracle_score)
        for pid, resp in zip(pids, records):
            label = f"response {pid + '/' + resp.response_id!r}"
            if resp.prompt_id != pid:
                self._reject(label, "prompt_id", f"names prompt {resp.prompt_id!r}")
            if resp.text is not None and not isinstance(resp.text, str):
                self._reject(label, "text", "must be a string")
            if resp.oracle_samples is not None:
                self._reject(label, "oracle_samples", _numbers_problem(resp.oracle_samples)
                             or _oracle_samples_problem(resp.oracle_samples, resp.oracle_score))
        return oracle

    def _reject(self, record: str, key: str, problem: str | None) -> None:
        """MalformedRecord naming the dataset and ``record``, if there is a problem."""
        if problem:
            raise MalformedRecord(self.name, None, key, f"{record}: {problem}")

    def _store(self, pair_ids: tuple[list[str], list[str]], oracle: np.ndarray,
               texts: list[str | None], samples: list[tuple[float, ...] | None] | None) -> None:
        """Keep the response columns, each in id order: the prompt and the
        response id of each response, the (prompts, N) read-only oracle
        matrix, the texts, and the oracle samples or None when there are none."""
        self._pair_ids = pair_ids
        self._oracle_scores = oracle
        self._response_texts = texts
        self._oracle_samples = samples

    @classmethod
    def _from_columns(cls, name: str, prompts: list[PromptRecord], oracle: np.ndarray,
                      pair_ids: tuple[list[str], list[str]], texts: list[str | None],
                      samples: list[tuple[float, ...] | None] | None = None,
                      load_warnings: list[ValidationIssue] | None = None) -> BenchmarkDataset:
        """The dataset of ``prompts`` and the columns ``_store`` keeps. The
        caller has checked every rule of construction."""
        dataset = cls.__new__(cls)
        dataset.name = name
        dataset.prompts = prompts
        dataset.responses_per_prompt = oracle.shape[1]
        dataset.load_warnings = load_warnings or []
        dataset._store(pair_ids, oracle, texts, samples)
        return dataset

    def __getattr__(self, name: str):
        """``responses``, built from the columns on first access."""
        if name != "responses" or "_response_texts" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        size = self.responses_per_prompt
        records = list(map(ResponseRecord, *self._pair_ids, self._oracle_scores.ravel().tolist(),
                           self._response_texts, self._oracle_samples or repeat(None)))
        responses = {pid: records[i * size:(i + 1) * size]
                     for i, pid in enumerate(self.prompt_ids())}
        self.responses = responses
        return responses

    def __eq__(self, other) -> bool:
        """Equal name, prompts, N and response columns, which is what equal
        records mean."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name == other.name and self.prompts == other.prompts
                and self.responses_per_prompt == other.responses_per_prompt
                and self._pair_ids == other._pair_ids
                and np.array_equal(self._oracle_scores, other._oracle_scores)
                and self._response_texts == other._response_texts
                and self._oracle_samples == other._oracle_samples)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(name={self.name!r}, prompts={self.num_prompts}, "
                f"responses_per_prompt={self.responses_per_prompt})")

    @property
    def num_prompts(self) -> int:
        return len(self.prompts)

    def prompt_ids(self) -> list[str]:
        return [p.prompt_id for p in self.prompts]

    def iter_pairs(self) -> Iterator[tuple[str, str]]:
        return zip(*self._pair_ids)

    @cached_property
    def _pair_index(self) -> dict[tuple[str, str], int]:
        """Flat position of each (prompt_id, response_id), in id order."""
        return dict(zip(zip(*self._pair_ids), range(len(self._response_texts))))

    @cached_property
    def _verbatim_ids(self) -> bool:
        """Whether the writers spell every id as itself between quotes."""
        return bool(_verbatim("".join(chain(*self._pair_ids))))

    @cached_property
    def _oracle_ranks(self) -> np.ndarray:
        """(prompts, N) 0-based oracle rank of each response, ties by
        ascending response id; read-only."""
        return _frozen(np.argsort(_rank_orders(self._oracle_scores), axis=1))


_prompt_id = operator.attrgetter("prompt_id")
_response_id = operator.attrgetter("response_id")
_oracle_score = operator.attrgetter("oracle_score")
_text = operator.attrgetter("text")


def _prompt_label(prompt: PromptRecord) -> str:
    return f"prompt {prompt.prompt_id!r}"


def _records_problem(records, kind: type) -> str | None:
    """Why ``records`` is not a list or tuple of ``kind``, naming the item, or None."""
    if not isinstance(records, (list, tuple)):
        return f"{records!r} is not a list or tuple"
    bad = [record for record in records if not isinstance(record, kind)]
    return f"item {bad[0]!r} is not a {kind.__name__}" if bad else None


def _check_unique(kind: str, prefix: str, ids: list[str]) -> None:
    """DuplicateId for the first repeated id of the sorted ``ids``."""
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise DuplicateId(kind, prefix + a)


def _check_shape(ids: list[str], response_ids: list[list[str]], size: int) -> None:
    """Raise for the first of the sorted prompt ``ids`` whose sorted
    ``response_ids`` are not ``size`` in number (``NonUniformN``) or repeat
    one (``DuplicateId``), then ``NonUniformN`` for a ``size`` below 2."""
    for pid, rids in zip(ids, response_ids):
        if len(rids) != size:
            raise NonUniformN(pid, len(rids), size)
        _check_unique("response", f"{pid}/", rids)
    if size < 2:
        raise NonUniformN(ids[0], size, 2)


def _rank_orders(scores: np.ndarray) -> np.ndarray:
    """Row i holds prompt i's response indices by score descending, for every
    prompt in one sort; the sort is stable and responses are stored in id
    order, so exact ties go by ascending response id."""
    return np.argsort(-scores, axis=1, kind="stable")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class RmScoreTable:
    """Scalar scores of one tested reward model for every (prompt, response).

    A table holds columns: pair id lists in the dataset's (id) order and a
    read-only float64 score column in that order. Built from a ``scores``
    dict, it raises what ``ingest_rm_scores`` raises for an unusable
    ``rm_name``, a key that is not a pair of ids the reader accepts or a
    score that is not a number (``MalformedRecord``, naming the table and
    the key), or a score that is not finite (``NonFiniteScore``, for the
    smallest such pair), and keeps the sorted columns, not the dict. The
    readers pass the dataset's own pair id lists to ``_from_columns``.
    ``scores`` is built from the columns on first read (``__getattr__``);
    two threads racing that read build equal dicts. Equality compares the
    name and the columns; a table is unhashable.
    """

    rm_name: str
    scores: dict[tuple[str, str], float]
    load_warnings: list[ValidationIssue] = field(default_factory=list, compare=False)

    def __post_init__(self) -> None:
        source = _score_table_source(self.rm_name)
        keys = list(self.scores)
        # keys that are pairs of non-empty ASCII strings pass in one pass
        ids = (list(chain.from_iterable(keys)) if {tuple}.issuperset(map(type, keys))
               and {2}.issuperset(map(len, keys)) else [None])
        if not ({str}.issuperset(map(type, ids)) and all(ids) and "".join(ids).isascii()):
            for key in keys:
                if not (isinstance(key, tuple) and len(key) == 2):
                    raise MalformedRecord(source, None, "-",
                                          f"key {key!r}: not a (prompt_id, response_id) pair")
                for name, value in zip(("prompt_id", "response_id"), key):
                    problem = _str_problem(value, name)
                    if problem:
                        raise MalformedRecord(source, None, name, f"pair {key!r}: {problem}")
        pairs = sorted(keys)
        values = list(map(self.scores.__getitem__, pairs))
        if not _FLOAT_TYPE.issuperset(map(type, values)):
            for pair, problem in zip(pairs, map(_number_problem, values)):
                if problem:
                    raise MalformedRecord(source, None, "score", f"pair {pair!r}: {problem}")
        self._store(([pid for pid, _ in pairs], [rid for _, rid in pairs]),
                    np.array(values, dtype=np.float64))
        object.__delattr__(self, "scores")  # the columns hold them now

    def _store(self, pair_ids: tuple[list[str], list[str]], values: np.ndarray) -> None:
        """Keep ``pair_ids`` and their float64 score column ``values``, read-only;
        raises ``NonFiniteScore`` for the first pair whose score is not finite."""
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteScore((pair_ids[0][i], pair_ids[1][i]), float(values[i]))
        object.__setattr__(self, "_pair_ids", pair_ids)
        object.__setattr__(self, "_values", _frozen(values))

    @classmethod
    def _from_columns(cls, rm_name: str, pair_ids: tuple[list[str], list[str]],
                      values: np.ndarray,
                      load_warnings: list[ValidationIssue] | None = None) -> RmScoreTable:
        """The table of ``values``, a float64 score column in the order of
        ``pair_ids`` (a dataset's); raises what construction raises for them."""
        _score_table_source(rm_name)
        table = cls.__new__(cls)
        object.__setattr__(table, "rm_name", rm_name)
        object.__setattr__(table, "load_warnings", load_warnings or [])
        table._store(pair_ids, values)
        return table

    def __getattr__(self, name: str):
        """``scores``, built from the columns on first access."""
        if name != "scores" or "_values" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        scores = dict(zip(zip(*self._pair_ids), self._values.tolist()))
        object.__setattr__(self, "scores", scores)
        return scores

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rm_name == other.rm_name and self._pair_ids == other._pair_ids
                and np.array_equal(self._values, other._values))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rm_name={self.rm_name!r}, pairs={len(self._values)})"


def _score_table_source(rm_name: str) -> str:
    """How errors name the table; raises MalformedRecord for a bad ``rm_name``."""
    source = f"score table {rm_name!r}"
    problem = _rm_name_problem(rm_name)
    if problem:
        raise MalformedRecord(source, None, "rm_name", problem)
    return source


_scan_once = json.JSONDecoder().scan_once


def _iter_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file.

    Each stripped line goes through the C scanner behind ``json.loads``,
    which accepts exactly what ``json.loads`` accepts; ``json.loads`` runs
    only on a line the scanner rejects, to raise the same error text.
    """
    source = path.name
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip(" \t\n\r")  # JSON's whitespace, and no other
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


# The block reader: a canonical line is what write_benchmark and
# write_rm_scores write for a response or score record with printable-ASCII
# ids, a text without escapes and no optional field other than the text; its
# text may also hold literal non-ASCII and DEL, which json.loads reads to
# the same value and the writers escape. A line pattern matches one whole
# line and no group spans a line end, so a block is canonical when its
# split has one match per line and nothing between them.
_VERBATIM = r'[ !#-\[\]-~]+'  # printable ASCII but '"' and '\\': json.dumps keeps it
_verbatim = re.compile(_VERBATIM).fullmatch
_ID = f'"({_VERBATIM})"'
_TEXT = r'"([^"\\\x00-\x1f]*)"'
# a JSON number with a fraction or an exponent: json.loads reads it with float()
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
# the text group is None on a line without a text
_RESPONSE_LINE = re.compile(
    r'^\{"prompt_id": ' + _ID + r', "response_id": ' + _ID + r', "oracle_score": ' + _FLOAT
    + r'(?:, "text": ' + _TEXT + r')?\}\n', re.M)
_SCORE = re.compile(r'"score": ' + _FLOAT + r'\}\n')
# about 160 lines: blocks of 1 << 16 read no faster and left the wide_pool
# benchmark's peak RSS 1 MB higher than the per-line reader
_BLOCK_CHARS = 1 << 14


class _NotCanonical(Exception):
    """A file the block reader leaves to the per-line reader."""


def _canonical_blocks(path: Path, pattern: re.Pattern) -> Iterator[list[str | None]]:
    """``pattern.split`` of each block of whole lines of ``path``, so memory
    stays bounded by the block size. With ``width`` the group count plus
    one, ``parts[k::width]`` is the column of group k; the caller checks
    the separators ``parts[::width]``. Raises ``_NotCanonical`` at the
    first block that is not UTF-8."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            while block := fh.read(_BLOCK_CHARS):
                yield pattern.split(block + fh.readline())
        except UnicodeDecodeError:
            raise _NotCanonical from None


def _canonical_responses(path: Path, ids: list[str], max_oracle_score: float) -> tuple | None:
    """The response columns ``_from_columns`` takes (oracle matrix, pair
    ids, texts, no samples) when every line of ``path`` is canonical and
    the lines are a valid dataset's responses to the sorted prompt
    ``ids``, else None; never raises or warns.

    Each check is one operation on whole columns. With N the number of
    responses per prompt, read the id columns as (prompts, N) matrices:
    each matrix column of prompt ids equal to ``ids`` gives each prompt
    one run of N responses, and each column of response ids above the one
    before it puts the pairs in the dataset's order.
    """
    pids, rids, texts = [], [], []
    scores: list[np.ndarray] = []
    try:
        for parts in _canonical_blocks(path, _RESPONSE_LINE):
            if any(parts[::5]):
                return None
            pids += parts[1::5]
            rids += parts[2::5]
            scores.append(np.array(parts[3::5], dtype=np.float64))
            texts += parts[4::5]
    except _NotCanonical:
        return None
    size = len(pids) // len(ids)
    if not (size >= 2 and all(pids[k::size] == ids for k in range(size))
            and all(all(map(operator.lt, rids[k - 1::size], rids[k::size]))
                    for k in range(1, size))):
        return None
    oracle = np.concatenate(scores).reshape(len(ids), size)
    if _oracle_score_problem(oracle) or oracle.max() > max_oracle_score:
        return None
    return _frozen(oracle), (pids, rids), texts, None


def _ingest_canonical(dataset: BenchmarkDataset, path: Path) -> RmScoreTable | None:
    """What ``ingest_rm_scores`` returns for ``path`` when the file is
    canonical and holds one score for each of the dataset's pairs, in its
    pair order, under the ``rm_name`` of its first line, else None; never
    raises or warns. Each line's head is spelled from the dataset's ids,
    so each id must be one the writers spell as itself."""
    if not dataset._verbatim_ids:
        return None
    pids, rids = dataset._pair_ids
    columns, start = [], 0
    try:
        for parts in _canonical_blocks(path, _SCORE):
            if not start:
                rm_name = parts[0].rpartition('"rm_name": "')[2][:-3]
                if not _verbatim(rm_name):
                    return None
                tail = f'", "rm_name": "{rm_name}", '
            stop = start + len(parts) // 2
            # each line up to its score, as write_rm_scores writes it
            heads = [f'{{"prompt_id": "{pid}", "response_id": "{rid}{tail}'
                     for pid, rid in zip(pids[start:stop], rids[start:stop])]
            if parts[-1] or parts[:-1:2] != heads:
                return None
            columns.append(np.array(parts[1::2], dtype=np.float64))
            start = stop
        if start != len(pids):
            return None
        return RmScoreTable._from_columns(rm_name, dataset._pair_ids, np.concatenate(columns))
    except (_NotCanonical, RetabenchError):
        return None


def _reject_line(source: str, line: int, key: str, problem: str | None) -> None:
    """MalformedRecord naming ``source``, ``line`` and ``key``, if there is a problem."""
    if problem:
        raise MalformedRecord(source, line, key, problem)


def _req_strs(obj: dict, keys: tuple[str, ...], source: str, line: int) -> list[str]:
    """The values of ``obj``'s string fields ``keys``; raises MalformedRecord
    for the first that breaks ``_str_problem``, which runs only on a value
    that is not a non-empty ASCII string."""
    values = []
    for key in keys:
        value = obj.get(key)
        if not (type(value) is str and value and value.isascii()):
            _reject_line(source, line, key, _str_problem(value, key))
        values.append(value)
    return values


def _rm_name_problem(rm_name: str) -> str | None:
    """Why ``rm_name`` cannot name a score table (it goes into file names), or None."""
    if isinstance(rm_name, str) and "\0" in rm_name:
        return "contains a NUL character"
    return _str_problem(rm_name, "rm_name")


def _req_float(obj: dict, key: str, source: str, line: int) -> float:
    """``obj``'s number field ``key`` as a float; raises MalformedRecord
    when it is missing or breaks ``_number_problem``."""
    value = obj.get(key)
    if type(value) is float:
        return value
    if key not in obj:
        raise MalformedRecord(source, line, key, "required")
    _reject_line(source, line, key, _number_problem(value))
    return float(value)


def _float_array(raw, key: str, source: str, line: int) -> tuple[float, ...]:
    if type(raw) is list and raw and _FLOAT_TYPE.issuperset(map(type, raw)):
        return tuple(raw)
    _reject_line(source, line, key, _numbers_problem(raw))
    return tuple(map(float, raw))


def _embedding(raw, dim: int | None, source: str, line: int,
               unit_norm: bool) -> tuple[float, ...]:
    """The embedding read from ``raw``, checked by ``_embedding_problem``."""
    embedding = _float_array(raw, "embedding", source, line)
    _reject_line(source, line, "embedding", _embedding_problem(embedding, dim, unit_norm))
    return embedding


# The value rules. Each says why a value breaks it, or None; the readers
# raise the problem with the file and line, construction with the dataset
# and the record's id.


def _str_problem(value, key: str) -> str | None:
    """Why ``value`` cannot be the string field ``key`` (an id or ``rm_name``
    must also encode as UTF-8), or None."""
    if not isinstance(value, str) or not value:
        return "required non-empty string"
    if key in _NAME_KEYS and _SURROGATE.search(value):
        return "cannot be encoded as UTF-8"
    return None


def _number_problem(value) -> str | None:
    """Why ``value`` is not a number that fits a float (a bool is not one), or None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    try:
        float(value)
    except OverflowError:
        return "number too large for a float"
    return None


def _numbers_problem(values) -> str | None:
    """Why ``values`` is not a non-empty list or tuple, or the
    ``_number_problem`` of the first of them that has one, or None; values
    that are all floats pass in one pass."""
    if not isinstance(values, (list, tuple)) or not values:
        return "must be a non-empty array"
    if _FLOAT_TYPE.issuperset(map(type, values)):
        return None
    return next(filter(None, map(_number_problem, values)), None)


def _oracle_score_problem(score) -> str | None:
    """Why ``score`` (one oracle score, or an array of them checked in one
    pass) is not positive and finite, or None."""
    if 0.0 < np.min(score) and np.max(score) < math.inf:
        return None
    return "must be positive and finite"


def _oracle_samples_problem(samples: tuple[float, ...], score: float) -> str | None:
    """Why ``samples`` cannot be the judge scores averaged into ``score``, or None."""
    if not all(0.0 < v < math.inf for v in samples):
        return "samples must be positive reals"
    try:
        mean = math.fsum(samples) / len(samples)
    except OverflowError:  # a sum past the float range
        mean = math.inf
    if abs(mean - score) > _ORACLE_SAMPLES_TOL:
        return f"mean {mean!r} does not match oracle_score {score!r}"
    return None


def _embedding_problem(embedding: tuple[float, ...], dim: int | None,
                       unit_norm: bool = True) -> str | None:
    """Why ``embedding`` is not finite, of dimension ``dim`` (None: any) and,
    if ``unit_norm``, of norm 1, or None."""
    if not all(map(math.isfinite, embedding)):
        return "contains non-finite values"
    if dim is not None and len(embedding) != dim:
        return f"dimension {len(embedding)} != {dim}"
    if unit_norm:
        norm = math.hypot(*embedding)
        if abs(norm - 1.0) > _EMBEDDING_NORM_TOL:
            return f"norm {norm!r} not within {_EMBEDDING_NORM_TOL} of 1"
    return None


def _perplexity_problem(perplexity: float) -> str | None:
    """Why ``perplexity`` is not positive and finite, or None."""
    return None if 0.0 < perplexity < math.inf else "must be a positive real"


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
    All prompts must carry the same number of responses, counted against
    the prompt with the smallest id, as construction counts them
    (``_check_shape``). The prompts are read line by line; the responses
    go to the block reader and, if it declines them, line by line into the
    same columns, with no record built.
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
    prompts = _read_prompt_lines(prompts_path, warnings)
    ids = [p.prompt_id for p in prompts]
    columns = (_canonical_responses(responses_path, ids, max_oracle_score)
               or _read_response_lines(responses_path, ids, max_oracle_score, warnings))
    return BenchmarkDataset._from_columns(name or directory.name, prompts, *columns,
                                          load_warnings=warnings)


def _read_prompt_lines(path: Path, warnings: list[ValidationIssue]) -> list[PromptRecord]:
    """The prompts of ``path``, read line by line, in id order; adds each
    unknown key to ``warnings`` and raises at the first bad line."""
    prompts: dict[str, PromptRecord] = {}
    embedding_dim: int | None = None
    source = PROMPTS_FILE
    for line_no, obj in _iter_jsonl(path):
        if not _PROMPT_KEYS.issuperset(obj):
            _warn_unknown_keys(obj, _PROMPT_KEYS, source, line_no, warnings)
        pid, text = _req_strs(obj, ("prompt_id", "text"), source, line_no)
        if pid in prompts:
            raise DuplicateId("prompt", pid)
        embedding = obj.get("embedding")
        if embedding is not None:
            embedding = _embedding(embedding, embedding_dim, source, line_no, unit_norm=True)
            embedding_dim = len(embedding)
        perplexity = obj.get("perplexity")
        if perplexity is not None:
            perplexity = _req_float(obj, "perplexity", source, line_no)
            _reject_line(source, line_no, "perplexity", _perplexity_problem(perplexity))
        prompts[pid] = PromptRecord(pid, text, embedding, perplexity)
    if not prompts:
        raise MalformedRecord(PROMPTS_FILE, None, "-", "no prompt records")
    return [prompts[pid] for pid in sorted(prompts)]


def _read_response_lines(path: Path, ids: list[str], max_oracle_score: float,
                         warnings: list[ValidationIssue]) -> tuple:
    """The response columns ``_from_columns`` takes, read line by line from
    ``path`` for the sorted prompt ``ids``; adds each unknown key to
    ``warnings`` and raises at the first bad line, then for the shape."""
    # each prompt's {response_id: line's position in ``rows``}
    positions: dict[str, dict[str, int]] = {pid: {} for pid in ids}
    rows: list[tuple[float, str | None, tuple[float, ...] | None]] = []
    source = RESPONSES_FILE
    for line_no, obj in _iter_jsonl(path):
        if not _RESPONSE_KEYS.issuperset(obj):
            _warn_unknown_keys(obj, _RESPONSE_KEYS, source, line_no, warnings)
        pid, rid = _req_strs(obj, ("prompt_id", "response_id"), source, line_no)
        by_id = positions.get(pid)
        if by_id is None:
            raise MalformedRecord(source, line_no, "prompt_id", f"unknown prompt {pid!r}")
        if rid in by_id:
            raise DuplicateId("response", f"{pid}/{rid}")
        score = _req_float(obj, "oracle_score", source, line_no)
        if not 0.0 < score <= max_oracle_score:
            if _oracle_score_problem(score):
                raise NonPositiveOracleScore(pid, rid, score)
            raise MalformedRecord(source, line_no, "oracle_score",
                                  f"{score} exceeds configured maximum {max_oracle_score}")
        text = obj.get("text")
        if text is not None and type(text) is not str:
            raise MalformedRecord(source, line_no, "text", "must be a string")
        samples = obj.get("oracle_samples")
        if samples is not None:
            samples = _float_array(samples, "oracle_samples", source, line_no)
            _reject_line(source, line_no, "oracle_samples", _oracle_samples_problem(samples, score))
        by_id[rid] = len(rows)
        rows.append((score, text, samples))

    rids = [sorted(positions[pid]) for pid in ids]
    _check_shape(ids, rids, len(rids[0]))
    pids = [pid for pid, row in zip(ids, rids) for _ in row]
    scores, texts, samples = zip(*[rows[positions[pid][rid]]
                                   for pid, row in zip(ids, rids) for rid in row])
    return (_frozen(np.array(scores).reshape(len(ids), -1)),
            (pids, list(chain.from_iterable(rids))), list(texts),
            list(samples) if any(samples) else None)


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
        [pid] = _req_strs(obj, ("prompt_id",), source, line_no)
        text = obj.get("text", "")
        if pid in seen:
            raise DuplicateId("prompt", pid)
        seen.add(pid)
        if type(text) is not str:
            raise MalformedRecord(source, line_no, "text", "must be a string")
        embedding = obj.get("embedding")
        if embedding is not None:
            embedding = _embedding(embedding, dim, source, line_no, unit_norm=False)
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
    with open(directory / PROMPTS_FILE, "w", encoding="utf-8") as fh:
        for prompt in dataset.prompts:
            line = (f'{{"prompt_id": {_json_value(prompt.prompt_id)}, '
                    f'"text": {_json_value(prompt.text)}')
            if prompt.embedding is not None:
                line += f', "embedding": {_json_list(prompt.embedding)}'
            if prompt.perplexity is not None:
                line += f', "perplexity": {_json_value(prompt.perplexity)}'
            fh.write(line + "}\n")
    with open(directory / RESPONSES_FILE, "w", encoding="utf-8") as fh:
        fh.writelines(_response_lines(dataset))


def _response_lines(dataset: BenchmarkDataset) -> Iterator[str]:
    """The lines of responses.jsonl, from the dataset's columns."""
    pids, rids = dataset._pair_ids
    scores = map(float.__repr__, dataset._oracle_scores.ravel().tolist())
    for pid, rid, score, text, samples in zip(
            map(_json_str, pids), map(_json_str, rids), scores, dataset._response_texts,
            dataset._oracle_samples or repeat(None)):
        line = f'{{"prompt_id": {pid}, "response_id": {rid}, "oracle_score": {score}'
        if text is not None:
            line += f', "text": {_json_str(text)}'
        if samples is not None:
            line += f', "oracle_samples": {_json_list(samples)}'
        yield line + "}\n"


def ingest_rm_scores(dataset: BenchmarkDataset, path: str | Path) -> RmScoreTable:
    """Read an rm_scores.jsonl file covering exactly the dataset's pairs.

    The table's scores are keyed in the dataset's (id) pair order, whatever
    the file's order; a missing score names the smallest missing pair.
    """
    score_path = Path(path)
    if not score_path.is_file():
        raise MalformedRecord(str(score_path), None, "-", "file not found")
    table = _ingest_canonical(dataset, score_path)
    if table is not None:
        return table
    warnings: list[ValidationIssue] = []
    index = dataset._pair_index
    values: list[float | None] = [None] * len(index)
    rm_name: str | None = None
    source = score_path.name
    for line_no, obj in _iter_jsonl(score_path):
        if not _SCORE_KEYS.issuperset(obj):
            _warn_unknown_keys(obj, _SCORE_KEYS, source, line_no, warnings)
        pid, rid, this_rm = _req_strs(obj, ("prompt_id", "response_id", "rm_name"), source,
                                      line_no)
        if this_rm != rm_name:
            if rm_name is not None:
                raise MalformedRecord(source, line_no, "rm_name",
                                      f"mixed rm names in one file: {rm_name!r} vs {this_rm!r}")
            _reject_line(source, line_no, "rm_name", _rm_name_problem(this_rm))
            rm_name = this_rm
        value = _req_float(obj, "score", source, line_no)
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
        raise MissingScore(next(pair for pair, value in zip(index, values) if value is None))
    return RmScoreTable._from_columns(rm_name, dataset._pair_ids, np.array(values), warnings)


def write_rm_scores(table: RmScoreTable, path: str | Path) -> None:
    """Write a score table as rm_scores.jsonl in canonical (sorted) order,
    the order of its columns. Each line is the bytes ``json.dumps`` gives
    for the record's dict; scores are stored as float64, so an int score
    is written as ``3.0``."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    rm_name = _json_value(table.rm_name)
    pids, rids = table._pair_ids
    with open(out, "w", encoding="utf-8") as fh:
        for pid, rid, value in zip(map(_json_str, pids), map(_json_str, rids),
                                   map(float.__repr__, table._values.tolist())):
            fh.write(f'{{"prompt_id": {pid}, "response_id": {rid}, '
                     f'"rm_name": {rm_name}, "score": {value}}}\n')


def oracle_score_table(dataset: BenchmarkDataset, rm_name: str = "oracle") -> RmScoreTable:
    """A score table whose scores equal the oracle scores (the ideal model)."""
    return RmScoreTable._from_columns(rm_name, dataset._pair_ids, dataset._oracle_scores.ravel())


def validate_dataset(dataset: BenchmarkDataset,
                     tables: Sequence[RmScoreTable] = (),
                     *,
                     max_oracle_score: float = DEFAULT_MAX_ORACLE_SCORE) -> ValidationReport:
    """The checks a dataset and its tables cannot make on their own.

    Its errors are oracle scores above ``max_oracle_score``, a repeated
    ``rm_name`` and a table that misses or adds pairs; its warnings are
    the load warnings (unknown keys). The readers raise each of those
    errors first, so for loaded data the report holds only warnings.
    Never mutates; raises only ``InvalidConfig`` for a
    ``max_oracle_score`` that is not positive and finite.
    """
    _check_max_oracle_score(max_oracle_score)
    issues: list[ValidationIssue] = list(dataset.load_warnings)

    pids, rids = dataset._pair_ids
    for i in np.flatnonzero(dataset._oracle_scores > max_oracle_score).tolist():
        issues.append(ValidationIssue("error", f"response:{pids[i]}/{rids[i]}",
                                      f"oracle score exceeds maximum {max_oracle_score}"))

    seen_rm_names: set[str] = set()
    for table in tables:
        loc = f"table:{table.rm_name}"
        issues.extend(table.load_warnings)
        if table.rm_name in seen_rm_names:
            issues.append(ValidationIssue("error", loc, "duplicate rm_name"))
        seen_rm_names.add(table.rm_name)
        if table._pair_ids == dataset._pair_ids:
            continue  # the table holds exactly the dataset's pairs
        expected_pairs = dataset._pair_index.keys()
        pairs = set(zip(*table._pair_ids))
        missing = expected_pairs - pairs
        extra = pairs - expected_pairs
        if missing:
            issues.append(ValidationIssue(
                "error", loc, f"{len(missing)} pairs missing (e.g. {min(missing)!r})"))
        if extra:
            issues.append(ValidationIssue(
                "error", loc, f"{len(extra)} unknown pairs (e.g. {min(extra)!r})"))

    return ValidationReport(issues=issues)
