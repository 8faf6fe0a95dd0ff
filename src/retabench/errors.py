"""Exception hierarchy.

Two branches matter for callers: ``InputError`` covers anything wrong with
files, configs, or dataset contents (the CLI maps it to exit code 2), and
``ComputationError`` covers failures arising during estimation or sampling
(exit code 3).
"""

from __future__ import annotations


class RetabenchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RetabenchError):
    """Invalid file, record, configuration, or dataset contents."""


class ComputationError(RetabenchError):
    """A computation could not be carried out on otherwise valid inputs."""


# --- dataset / file ingestion -------------------------------------------------

class MalformedRecord(InputError):
    def __init__(self, source: str, line: int | None, field: str, message: str):
        self.source = source
        self.line = line
        self.field = field
        where = f"{source}:{line}" if line is not None else source
        super().__init__(f"{where}: field '{field}': {message}")


class DuplicateId(InputError):
    def __init__(self, kind: str, identifier: str):
        self.kind = kind
        self.identifier = identifier
        super().__init__(f"duplicate {kind} id: {identifier!r}")


class NonUniformN(InputError):
    def __init__(self, prompt_id: str, count: int, expected: int):
        self.prompt_id = prompt_id
        self.count = count
        self.expected = expected
        super().__init__(f"prompt {prompt_id!r} has {count} responses, expected {expected}")


class NonPositiveOracleScore(InputError):
    def __init__(self, prompt_id: str, response_id: str, value: float):
        self.prompt_id = prompt_id
        self.response_id = response_id
        self.value = value
        super().__init__(
            f"oracle score for ({prompt_id!r}, {response_id!r}) is {value}, must be > 0"
        )


class MissingScore(InputError):
    def __init__(self, pair: tuple[str, str]):
        self.pair = pair
        super().__init__(f"no score for pair {pair!r}")


class UnknownPair(InputError):
    def __init__(self, pair: tuple[str, str]):
        self.pair = pair
        super().__init__(f"score for pair {pair!r} not present in the dataset")


class DuplicateScore(InputError):
    def __init__(self, pair: tuple[str, str]):
        self.pair = pair
        super().__init__(f"more than one score for pair {pair!r}")


class NonFiniteScore(InputError):
    def __init__(self, pair: tuple[str, str], value: float):
        self.pair = pair
        self.value = value
        super().__init__(f"score for pair {pair!r} is not finite: {value}")


class InvalidConfig(InputError):
    """A configuration value violates its documented range or type."""


# --- estimation ---------------------------------------------------------------

class DegenerateDenominator(ComputationError):
    """The oracle-score total of a prompt is zero; nothing can be normalized."""


class EmptyNRange(InputError):
    """The subset-size grid is empty after clipping to [1, N]."""


class TooManySubsets(InputError):
    """Full subset enumeration was requested beyond the supported size."""


# --- ranking metrics ----------------------------------------------------------

class EmptyGroundTruth(InputError):
    """The requested quantile selects zero ground-truth responses."""


class NoComparablePairs(ComputationError):
    """All oracle scores of a prompt are equal; pairwise accuracy is undefined."""


class EmptyLabels(InputError):
    """An empty win/draw/loss label list was supplied."""


# --- diverse prompt sampling --------------------------------------------------

class MissingEmbedding(InputError):
    def __init__(self, prompt_id: str):
        self.prompt_id = prompt_id
        super().__init__(f"candidate prompt {prompt_id!r} has no embedding")


class ZeroMatrix(InputError):
    """All candidate embeddings are zero; no kernel can be built."""


class DegenerateInit(ComputationError):
    """No size-k subset has a non-zero determinant (embedding rank below k)."""


# --- synthetic distributions --------------------------------------------------

class UnsupportedSpec(InputError):
    """The distribution kind has no analytic limit implemented."""

