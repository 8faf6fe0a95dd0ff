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
file or score table in the writers' layout and line order is read as
bytes, in blocks of lines, one ``re.split`` per block
(``_canonical_blocks``); only the columns that become strings are
decoded, and each score line's head must be the one its dataset builds
once for all of its tables (``_score_heads``). Any other such file, and
any file holding an error, goes line by line through the scanner too,
which gives an equal dataset or table and raises or warns with the line
number. The writers format and write a block of lines at a time.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import re
import reprlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
    """A load warning: a reader records each unknown key, and raises every error."""

    location: str
    message: str


class BenchmarkDataset:
    """The frozen evaluation substrate: prompts, responses, oracle scores.

    ``BenchmarkDataset(name, prompts, responses)`` takes ``responses`` as
    one list or tuple of ``ResponseRecord`` in any order, as
    ``responses.jsonl`` holds them. Construction checks the records with
    the per-line reader's own loops (``_read_prompts``,
    ``_read_responses``), in input order, passing each record as the field
    dict its line would hold, labelled ``prompt 'p1'`` or ``response
    'p1/a'``. So it raises what ``load_benchmark`` raises for the first bad
    record, naming the dataset and the label where the reader names the
    file and the line, with no ``max_oracle_score`` bound, which the
    dataset does not know. Like the reader, it counts N,
    ``responses_per_prompt``, against the prompt with the smallest id.
    Before that it checks only what a file cannot express:
    ``MalformedRecord`` for ``prompts`` or ``responses`` that are not a
    list or tuple of ``PromptRecord`` or ``ResponseRecord``, naming the
    item. ``load_warnings`` lists what a reader warned about; a dataset
    built in code has none.

    Construction keeps the columns the loops return (``_store``), not the
    records: prompts by ``prompt_id``, each prompt's responses by
    ``response_id``, embeddings and samples as tuples of floats. Both
    readers and ``gen_synthetic`` call ``_from_columns`` instead.
    ``responses``, each prompt's records by id with float oracle scores,
    is built from the columns on first read; two threads racing that read
    build equal dicts. Equality compares the columns and repr shows the
    shape, so neither builds records.
    """

    def __init__(self, name: str, prompts: Sequence[PromptRecord],
                 responses: Sequence[ResponseRecord]) -> None:
        _reject(name, "prompts", "-", _records_problem(prompts, PromptRecord))
        _reject(name, "responses", "-", _records_problem(responses, ResponseRecord))
        prompts = _read_prompts(((f"prompt {p.prompt_id!r}", vars(p)) for p in prompts), name, [])
        ids = [p.prompt_id for p in prompts]
        objects = ((f"response {f'{r.prompt_id}/{r.response_id}'!r}",
                    {"prompt_id": r.prompt_id, "response_id": r.response_id,
                     "oracle_score": r.oracle_score, "text": r.text,
                     "oracle_samples": r.oracle_samples}) for r in responses)
        self._store(name, prompts, *_read_responses(objects, name, ids, math.inf, []))

    def _store(self, name: str, prompts: list[PromptRecord], oracle: np.ndarray,
               pair_ids: tuple[list[str], list[str]], texts: list[str | None],
               samples: list[tuple[float, ...] | None] | None,
               load_warnings: list[ValidationIssue] | None = None) -> None:
        """Keep the name, the prompts in id order, the reader's warnings and
        the response columns, each in id order: the (prompts, N) read-only
        oracle matrix, the prompt and the response id of each response, the
        texts, and the oracle samples or None when there are none."""
        self.name = name
        self.prompts = prompts
        self.load_warnings = load_warnings or []
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
        dataset._store(name, prompts, oracle, pair_ids, texts, samples, load_warnings)
        return dataset

    @property
    def responses_per_prompt(self) -> int:
        """N, the number of responses of every prompt."""
        return self._oracle_scores.shape[1]

    @cached_property
    def responses(self) -> dict[str, list[ResponseRecord]]:
        """Each prompt's responses in id order, keyed by ``prompt_id`` in id order."""
        size = self.responses_per_prompt
        records = list(map(ResponseRecord, *self._pair_ids, self._oracle_scores.ravel().tolist(),
                           self._response_texts, self._oracle_samples or repeat(None)))
        return {pid: records[i * size:(i + 1) * size] for i, pid in enumerate(self.prompt_ids())}

    def __eq__(self, other) -> bool:
        """Equal name, prompts and response columns, which is what equal
        records mean."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name == other.name and self.prompts == other.prompts
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
        """Whether the writers spell every id as itself between quotes;
        ``load_benchmark`` sets it for a block-read dataset, whose ids are."""
        return bool(_verbatim("".join(chain(*self._pair_ids))))

    @cached_property
    def _score_heads(self) -> bytes | None:
        """Each pair's score line up to the closing quote of its response
        id, as ``write_rm_scores`` writes it, and a newline, in pair order
        in one bytes object, built a prompt at a time, as the pairs run N
        to a prompt, and once for every table the block reader reads
        against the dataset; None when the writers escape an id."""
        if not self._verbatim_ids:
            return None
        rids = self._pair_ids[1]
        size = self.responses_per_prompt
        heads = bytearray()
        for i, pid in enumerate(self.prompt_ids()):
            head = f'{{"prompt_id": "{pid}", "response_id": "'
            heads += (head + f"\n{head}".join(rids[i * size:(i + 1) * size]) + "\n").encode()
        return bytes(heads)

    @cached_property
    def _oracle_ranks(self) -> np.ndarray:
        """(prompts, N) 0-based oracle rank of each response, ties by
        ascending response id; read-only."""
        return _frozen(np.argsort(_rank_orders(self._oracle_scores), axis=1))


# a caller's value as an error shows it: a nested container as [...], and
# an object's repr cut to 120 characters
_brief = reprlib.Repr()
_brief.maxlevel, _brief.maxother = 1, 120


def _records_problem(records, kind: type) -> str | None:
    """Why ``records`` is not a list or tuple of ``kind``, naming the item, or None."""
    if not isinstance(records, (list, tuple)):
        return f"{_brief.repr(records)} is not a list or tuple"
    bad = [record for record in records if not isinstance(record, kind)]
    return f"item {_brief.repr(bad[0])} is not a {kind.__name__}" if bad else None


def _rank_orders(scores: np.ndarray) -> np.ndarray:
    """Row i holds prompt i's response indices by score descending, for every
    prompt in one sort; the sort is stable and responses are stored in id
    order, so exact ties go by ascending response id."""
    return np.argsort(-scores, axis=1, kind="stable")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, init=False, eq=False)
class RmScoreTable:
    """Scalar scores of one tested reward model for every (prompt, response).

    A table holds columns: pair id lists in the dataset's (id) order and a
    read-only float64 score column in that order. Built from a ``scores``
    dict, it raises what ``ingest_rm_scores`` raises for an unusable
    ``rm_name``, a key that is not a pair of ids the reader accepts or a
    score that is not a number (``MalformedRecord``, naming the table and
    the key), or a score that is not finite (``NonFiniteScore``, for the
    smallest such pair), and keeps the sorted columns, not the dict. The
    readers pass the dataset's own pair id lists, and their warnings
    (``load_warnings``), to ``_from_columns``; a table built in code has none.
    ``scores`` is built from the columns on first read; two threads racing
    that read build equal dicts. Equality compares the name and the
    columns; a table is unhashable, and assigning an attribute raises
    ``FrozenInstanceError``.
    """

    rm_name: str
    load_warnings: list[ValidationIssue]

    def __init__(self, rm_name: str, scores: dict[tuple[str, str], float]) -> None:
        source = _score_table_source(rm_name)
        keys = list(scores)
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
        values = list(map(scores.__getitem__, pairs))
        if not _FLOAT_TYPE.issuperset(map(type, values)):
            for pair, problem in zip(pairs, map(_number_problem, values)):
                if problem:
                    raise MalformedRecord(source, None, "score", f"pair {pair!r}: {problem}")
        self._store(rm_name, ([pid for pid, _ in pairs], [rid for _, rid in pairs]),
                    np.array(values, dtype=np.float64))

    def _store(self, rm_name: str, pair_ids: tuple[list[str], list[str]], values: np.ndarray,
               load_warnings: list[ValidationIssue] | None = None) -> None:
        """Keep ``rm_name``, the reader's warnings, ``pair_ids`` and their
        float64 score column ``values``, read-only; raises ``NonFiniteScore``
        for the first pair whose score is not finite."""
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteScore((pair_ids[0][i], pair_ids[1][i]), float(values[i]))
        object.__setattr__(self, "rm_name", rm_name)
        object.__setattr__(self, "load_warnings", load_warnings or [])
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
        table._store(rm_name, pair_ids, values, load_warnings)
        return table

    @cached_property
    def scores(self) -> dict[tuple[str, str], float]:
        """Each pair's score, keyed in pair order."""
        return dict(zip(zip(*self._pair_ids), self._values.tolist()))

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
# the same value and the writers escape. The patterns are bytes patterns
# over the file's raw bytes. A line pattern matches one whole line and no
# group spans a line end, so a block is canonical when its split has one
# match per line and nothing between them. Every separator of the split
# must be empty and every match ends with a newline, so a match can only
# start a line, and the patterns need no '^'.
_VERBATIM = r'[ !#-\[\]-~]+'  # printable ASCII but '"' and '\\': json.dumps keeps it
_verbatim = re.compile(_VERBATIM).fullmatch
_ID = f'"({_VERBATIM})"'
# any bytes but '"', '\\' and controls; the reader decodes the group as UTF-8
_TEXT = r'"([^"\\\x00-\x1f]*)"'
# a JSON number with a fraction or an exponent: json.loads reads it with float()
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
# the text group is None on a line without a text
_RESPONSE_LINE = re.compile((
    r'\{"prompt_id": ' + _ID + r', "response_id": ' + _ID + r', "oracle_score": ' + _FLOAT
    + r'(?:, "text": ' + _TEXT + r')?\}\n').encode())
# a score line's rm_name, read from the table's first line
_RM_NAME = re.compile(f'", "rm_name": "({_VERBATIM})", "score": '.encode())
# about 160 lines: blocks of 1 << 16 read no faster and left the wide_pool
# benchmark's peak RSS 1 MB higher than the per-line reader
_BLOCK_BYTES = 1 << 14
# the writers format this many lines at a time, so memory stays bounded;
# blocks of 1 << 10 lines left the wide_pool benchmark's peak RSS 0.3 MB
# higher
_BLOCK_LINES = 1 << 8


def _line_blocks(count: int) -> Iterator[slice]:
    """The slices of ``count`` lines taken ``_BLOCK_LINES`` at a time."""
    return (slice(start, start + _BLOCK_LINES) for start in range(0, count, _BLOCK_LINES))


def _canonical_blocks(path: Path, pattern: re.Pattern) -> Iterator[list[bytes | None]]:
    """``pattern.split`` of each block of whole lines of ``path``'s bytes,
    so memory stays bounded by the block size and no block is decoded.
    With ``width`` the group count plus one, ``parts[k::width]`` is the
    column of group k; the caller checks the separators ``parts[::width]``
    and decodes the columns it keeps as text."""
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK_BYTES):
            yield pattern.split(block + fh.readline())


def _canonical_responses(path: Path, ids: list[str], max_oracle_score: float) -> tuple | None:
    """The response columns ``_from_columns`` takes (oracle matrix, pair
    ids, texts, no samples) when every line of ``path`` is canonical and
    the lines are a valid dataset's responses to the sorted prompt
    ``ids``, else None; never raises or warns.

    Each check is one operation on whole columns. With N the number of
    responses per prompt, read the id columns as (prompts, N) matrices:
    each matrix column of prompt ids equal to ``ids`` gives each prompt
    one run of N responses, and each column of response ids above the one
    before it puts the pairs in the dataset's order. The prompt ids are
    compared as bytes and kept as ``ids``' own strings; each block's
    response ids are decoded with one call, its texts one by one.
    """
    pids, rids, texts = [], [], []
    scores: list[np.ndarray] = []
    try:
        for parts in _canonical_blocks(path, _RESPONSE_LINE):
            if any(parts[::5]):
                return None
            pids += parts[1::5]
            # the verbatim ids hold no newline
            rids += b"\n".join(parts[2::5]).decode("ascii").split("\n")
            scores.append(np.array(parts[3::5], dtype=np.float64))
            block_texts = parts[4::5]
            if block_texts.count(None) != len(block_texts):
                block_texts = [None if text is None else text.decode("utf-8")
                               for text in block_texts]
            texts += block_texts
    except UnicodeDecodeError:
        return None
    size = len(pids) // len(ids)
    keys = [pid.encode("utf-8") for pid in ids]
    if not (size >= 2 and all(pids[k::size] == keys for k in range(size))
            and all(all(map(operator.lt, rids[k - 1::size], rids[k::size]))
                    for k in range(1, size))):
        return None
    oracle = np.concatenate(scores).reshape(len(ids), size)
    if _oracle_score_problem(oracle) or oracle.max() > max_oracle_score:
        return None
    return _frozen(oracle), ([pid for pid in ids for _ in range(size)], rids), texts, None


def _ingest_canonical(dataset: BenchmarkDataset, path: Path) -> RmScoreTable | None:
    """What ``ingest_rm_scores`` returns for ``path`` when the file is
    canonical and holds one score for each of the dataset's pairs, in its
    pair order, under the ``rm_name`` of its first line, else None; never
    raises or warns. The table's pattern spells that ``rm_name``, so the
    separators its split leaves, each with a newline, must run through
    the dataset's ``_score_heads``. With one separator per pair, they hold
    all of the heads' newlines, so no separator holds one of its own and
    each is its pair's head."""
    heads = dataset._score_heads
    if heads is None:
        return None
    with open(path, "rb") as fh:
        name = _RM_NAME.search(fh.readline())
    if name is None:
        return None
    pattern = re.compile(b'", "rm_name": "' + re.escape(name[1]) + b'", "score": '
                         + _FLOAT.encode() + rb'\}\n')
    columns, lines, position = [], 0, 0
    try:
        for parts in _canonical_blocks(path, pattern):
            block_heads = b"\n".join([*parts[:-1:2], b""])
            if parts[-1] or not heads.startswith(block_heads, position):
                return None
            position += len(block_heads)
            lines += len(parts) // 2
            columns.append(np.array(parts[1::2], dtype=np.float64))
        if lines != len(dataset._response_texts):
            return None
        return RmScoreTable._from_columns(name[1].decode("ascii"), dataset._pair_ids,
                                          np.concatenate(columns))
    except RetabenchError:
        return None


def _reject(source: str, where: int | str, key: str, problem: str | None) -> None:
    """MalformedRecord naming ``source``, then ``where`` (a line number, or
    the label of a record built in code) and ``key``, if there is a problem."""
    if problem:
        if isinstance(where, int):
            raise MalformedRecord(source, where, key, problem)
        raise MalformedRecord(source, None, key, f"{where}: {problem}")


def _req_strs(obj: dict, keys: tuple[str, ...], source: str, where: int | str) -> list[str]:
    """The values of ``obj``'s string fields ``keys``; raises MalformedRecord
    for the first that breaks ``_str_problem``, which runs only on a value
    that is not a non-empty ASCII string."""
    values = []
    for key in keys:
        value = obj.get(key)
        if not (type(value) is str and value and value.isascii()):
            _reject(source, where, key, _str_problem(value, key))
        values.append(value)
    return values


def _rm_name_problem(rm_name: str) -> str | None:
    """Why ``rm_name`` cannot name a score table (it goes into file names), or None."""
    if isinstance(rm_name, str) and "\0" in rm_name:
        return "contains a NUL character"
    return _str_problem(rm_name, "rm_name")


def _req_float(obj: dict, key: str, source: str, where: int | str) -> float:
    """``obj``'s number field ``key`` as a float; raises MalformedRecord
    when it is missing or breaks ``_number_problem``."""
    value = obj.get(key)
    if type(value) is float:
        return value
    _reject(source, where, key, "required" if key not in obj else _number_problem(value))
    return float(value)


def _float_array(raw, key: str, source: str, where: int | str) -> tuple[float, ...]:
    if type(raw) is list and raw and _FLOAT_TYPE.issuperset(map(type, raw)):
        return tuple(raw)
    _reject(source, where, key, _numbers_problem(raw))
    return tuple(map(float, raw))


def _embedding(raw, dim: int | None, source: str, where: int | str,
               unit_norm: bool) -> tuple[float, ...]:
    """The embedding read from ``raw``, checked by ``_embedding_problem``."""
    embedding = _float_array(raw, "embedding", source, where)
    _reject(source, where, "embedding", _embedding_problem(embedding, dim, unit_norm))
    return embedding


# The value rules. Each says why a value breaks it, or None; the readers
# raise the problem with the file and line, construction with the dataset
# and the record's label.


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


def _check_number(value, name: str) -> None:
    """InvalidConfig naming ``name`` unless ``value`` passes ``_number_problem``."""
    problem = _number_problem(value)
    if problem:
        raise InvalidConfig(f"{name} {value!r}: {problem}")


def _check_int(value, name: str) -> None:
    """InvalidConfig unless ``value`` is an int or a numpy integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(f"{name} must be an int, got {value!r}")


def _numbers_problem(values) -> str | None:
    """Why ``values`` is not a non-empty list or tuple, or the
    ``_number_problem`` of the first of them that has one, or None; values
    that are all floats pass in one pass."""
    if not isinstance(values, (list, tuple)) or not values:
        return "must be a non-empty array"
    if _FLOAT_TYPE.issuperset(map(type, values)):
        return None
    return next(filter(None, map(_number_problem, values)), None)


def _oracle_score_problem(scores: np.ndarray) -> str | None:
    """Why the array ``scores``, checked in one pass, is not all positive
    and finite, or None."""
    if 0.0 < np.min(scores) and np.max(scores) < math.inf:
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


def _warn_unknown_keys(obj: dict, known: frozenset[str], source: str, where: int | str,
                       sink: list[ValidationIssue]) -> None:
    for key in sorted(set(obj) - known):
        sink.append(ValidationIssue(f"{source}:{where}", f"unknown key {key!r} ignored"))


def _check_max_oracle_score(value: float) -> None:
    _check_number(value, "max_oracle_score")
    if not 0.0 < value < math.inf:
        raise InvalidConfig(f"max_oracle_score must be positive and finite, got {value}")


def load_benchmark(path: str | Path, *,
                   max_oracle_score: float = DEFAULT_MAX_ORACLE_SCORE) -> BenchmarkDataset:
    """Load a benchmark directory, prompts.jsonl and responses.jsonl, as a dataset named after it.

    Every response must have a strictly positive oracle score no larger
    than ``max_oracle_score`` (scores are judge outputs on a bounded
    scale, and boundedness is required by the estimators downstream).
    All prompts must carry the same number of responses, counted against
    the prompt with the smallest id. The prompts are read line by line;
    the responses go to the block reader and, if it declines them, line by
    line into the same columns, with no record built.
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
    prompts = _read_prompts(_iter_jsonl(prompts_path), PROMPTS_FILE, warnings)
    ids = [p.prompt_id for p in prompts]
    block_read = _canonical_responses(responses_path, ids, max_oracle_score)
    columns = block_read or _read_responses(_iter_jsonl(responses_path), RESPONSES_FILE, ids,
                                            max_oracle_score, warnings)
    dataset = BenchmarkDataset._from_columns(directory.name, prompts, *columns,
                                             load_warnings=warnings)
    if block_read:
        dataset._verbatim_ids = True  # the block reader's id pattern takes no other id
    return dataset


def _read_prompts(objects: Iterable[tuple[int | str, dict]], source: str,
                  warnings: list[ValidationIssue]) -> list[PromptRecord]:
    """The prompts of ``objects``, (line number or label, field dict) pairs,
    in id order; adds each unknown key to ``warnings`` and raises at the
    first bad object, naming ``source`` and its line or label."""
    prompts: dict[str, PromptRecord] = {}
    embedding_dim: int | None = None
    for where, obj in objects:
        if not _PROMPT_KEYS.issuperset(obj):
            _warn_unknown_keys(obj, _PROMPT_KEYS, source, where, warnings)
        pid, text = _req_strs(obj, ("prompt_id", "text"), source, where)
        if pid in prompts:
            raise DuplicateId("prompt", pid)
        embedding = obj.get("embedding")
        if embedding is not None:
            embedding = _embedding(embedding, embedding_dim, source, where, unit_norm=True)
            embedding_dim = len(embedding)
        perplexity = obj.get("perplexity")
        if perplexity is not None:
            perplexity = _req_float(obj, "perplexity", source, where)
            _reject(source, where, "perplexity", _perplexity_problem(perplexity))
        prompts[pid] = PromptRecord(pid, text, embedding, perplexity)
    if not prompts:
        raise MalformedRecord(source, None, "-", "no prompt records")
    return [prompts[pid] for pid in sorted(prompts)]


def _read_responses(objects: Iterable[tuple[int | str, dict]], source: str, ids: list[str],
                    max_oracle_score: float, warnings: list[ValidationIssue]) -> tuple:
    """The response columns ``_from_columns`` takes, from ``objects``
    ((line number or label, field dict) pairs) for the sorted prompt
    ``ids``; adds each unknown key to ``warnings`` and raises at the first
    bad object, naming ``source`` and its line or label, then for a first
    prompt with fewer than 2 responses, or a prompt without as many as it."""
    # each prompt's {response_id: object's position in ``rows``}
    positions: dict[str, dict[str, int]] = {pid: {} for pid in ids}
    rows: list[tuple[float, str | None, tuple[float, ...] | None]] = []
    for where, obj in objects:
        if not _RESPONSE_KEYS.issuperset(obj):
            _warn_unknown_keys(obj, _RESPONSE_KEYS, source, where, warnings)
        pid, rid = _req_strs(obj, ("prompt_id", "response_id"), source, where)
        by_id = positions.get(pid)
        if by_id is None:
            _reject(source, where, "prompt_id", f"unknown prompt {pid!r}")
        if rid in by_id:
            raise DuplicateId("response", f"{pid}/{rid}")
        score = _req_float(obj, "oracle_score", source, where)
        if not 0.0 < score < math.inf:
            raise NonPositiveOracleScore(pid, rid, score)
        if score > max_oracle_score:
            _reject(source, where, "oracle_score",
                    f"{score} exceeds configured maximum {max_oracle_score}")
        text = obj.get("text")
        if text is not None and not isinstance(text, str):
            _reject(source, where, "text", "must be a string")
        samples = obj.get("oracle_samples")
        if samples is not None:
            samples = _float_array(samples, "oracle_samples", source, where)
            _reject(source, where, "oracle_samples", _oracle_samples_problem(samples, score))
        by_id[rid] = len(rows)
        rows.append((score, text, samples))

    rids = [sorted(positions[pid]) for pid in ids]
    size = len(rids[0])
    if size < 2:
        raise NonUniformN(ids[0], size, 2)
    for pid, row in zip(ids, rids):
        if len(row) != size:
            raise NonUniformN(pid, len(row), size)
    pids = [pid for pid in ids for _ in range(size)]
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
    return _read_candidates(_iter_jsonl(source_path), source_path.name)


def _read_candidates(objects: Iterable[tuple[int | str, dict]],
                     source: str) -> list[PromptRecord]:
    """The candidate prompts of ``objects``, (line number or label, field
    dict) pairs, in input order; raises at the first bad object, naming
    ``source`` and its line or label, and when there is no object."""
    prompts: list[PromptRecord] = []
    seen: set[str] = set()
    dim: int | None = None
    for where, obj in objects:
        [pid] = _req_strs(obj, ("prompt_id",), source, where)
        text = obj.get("text", "")
        if pid in seen:
            raise DuplicateId("prompt", pid)
        seen.add(pid)
        if type(text) is not str:
            _reject(source, where, "text", "must be a string")
        embedding = obj.get("embedding")
        if embedding is not None:
            embedding = _embedding(embedding, dim, source, where, unit_norm=False)
            dim = len(embedding)
        prompts.append(PromptRecord(pid, text, embedding))
    if not prompts:
        raise MalformedRecord(source, None, "-", "no candidate prompts")
    return prompts


def _json_list(values: tuple[float, ...]) -> str:
    """``json.dumps(list(values))`` for finite floats, which ``float.__repr__`` spells."""
    return f"[{', '.join(map(float.__repr__, values))}]"


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
            line = (f'{{"prompt_id": {_json_str(prompt.prompt_id)}, '
                    f'"text": {_json_str(prompt.text)}')
            if prompt.embedding is not None:
                line += f', "embedding": {_json_list(prompt.embedding)}'
            if prompt.perplexity is not None:
                line += f', "perplexity": {float.__repr__(prompt.perplexity)}'
            fh.write(line + "}\n")
    with open(directory / RESPONSES_FILE, "w", encoding="utf-8") as fh:
        for block in _response_lines(dataset):
            fh.write(block)


def _response_lines(dataset: BenchmarkDataset) -> Iterator[str]:
    """The lines of responses.jsonl, from the dataset's columns, joined
    ``_BLOCK_LINES`` at a time."""
    pids, rids = dataset._pair_ids
    texts, samples = dataset._response_texts, dataset._oracle_samples
    scores = dataset._oracle_scores.ravel()
    for block in _line_blocks(len(texts)):
        block_texts = texts[block]
        if samples is None and block_texts.count(None) == len(block_texts):
            ends = repeat("}\n")
        else:
            ends = map(_response_end, block_texts, samples[block] if samples else repeat(None))
        yield "".join([f'{{"prompt_id": {pid}, "response_id": {rid}, "oracle_score": {score}{end}'
                       for pid, rid, score, end in zip(
                           map(_json_str, pids[block]), map(_json_str, rids[block]),
                           map(float.__repr__, scores[block].tolist()), ends)])


def _response_end(text: str | None, samples: tuple[float, ...] | None) -> str:
    """A response line after its oracle score: the text and samples it holds."""
    text_field = "" if text is None else f', "text": {_json_str(text)}'
    samples_field = "" if samples is None else f', "oracle_samples": {_json_list(samples)}'
    return f"{text_field}{samples_field}}}\n"


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
            _reject(source, line_no, "rm_name", _rm_name_problem(this_rm))
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
    tail = f', "rm_name": {_json_str(table.rm_name)}, "score": '
    pids, rids = table._pair_ids
    with open(out, "w", encoding="utf-8") as fh:
        for block in _line_blocks(len(pids)):
            fh.write("".join([f'{{"prompt_id": {pid}, "response_id": {rid}{tail}{value}}}\n'
                              for pid, rid, value in zip(
                                  map(_json_str, pids[block]), map(_json_str, rids[block]),
                                  map(float.__repr__, table._values[block].tolist()))]))


def oracle_score_table(dataset: BenchmarkDataset, rm_name: str = "oracle") -> RmScoreTable:
    """A score table whose scores equal the oracle scores (the ideal model)."""
    return RmScoreTable._from_columns(rm_name, dataset._pair_ids, dataset._oracle_scores.ravel())

