"""Oracle labeler interface.

Benchmarks consume pre-recorded oracle scores; nothing in this package
calls a judge model. The interface below is the extension point for users
who want to plug in a live judge client: implement ``Labeler`` and use it
to produce a responses.jsonl file, then run the pipeline offline as usual.
Exactly one implementation ships here, backed by recorded files.
"""

from __future__ import annotations

import abc
from pathlib import Path

from .dataset import BenchmarkDataset, load_benchmark
from .errors import MissingScore

# Guidance for building a live judge client. Scores must land on a bounded
# positive scale (the default pipeline bound is 10); sampling several
# scores per response and averaging them reduces judge variance. The
# recorded oracle_score must equal the mean of oracle_samples when both
# are stored.
JUDGE_TEMPLATE = """\
You are grading one assistant response to a conversation.

Conversation (context for the final reply):
{prompt}

Response to grade:
{response}

Rate the response's overall quality on an integer scale from 1 (very poor)
to 10 (excellent). Reply with the rating only.
"""

JUDGE_SAMPLES_PER_RESPONSE = 10


class Labeler(abc.ABC):
    """Maps a (prompt, response) pair to an oracle quality score."""

    @abc.abstractmethod
    def oracle_score(self, prompt_id: str, response_id: str) -> float:
        """Score for one recorded pair; raises MissingScore if unknown."""

    @abc.abstractmethod
    def oracle_samples(self, prompt_id: str, response_id: str) -> tuple[float, ...]:
        """The raw sampled scores behind oracle_score (may be a singleton)."""


class OfflineLabeler(Labeler):
    """Scores previously recorded in a benchmark dataset; never calls out."""

    def __init__(self, dataset: BenchmarkDataset):
        self._index = dataset._pair_index
        self._scores = dataset._oracle_scores.ravel().tolist()
        self._samples = dataset._oracle_samples

    @classmethod
    def from_directory(cls, path: str | Path, **load_kwargs) -> "OfflineLabeler":
        return cls(load_benchmark(path, **load_kwargs))

    def _position(self, prompt_id: str, response_id: str) -> int:
        key = (prompt_id, response_id)
        if key not in self._index:
            raise MissingScore(key)
        return self._index[key]

    def oracle_score(self, prompt_id: str, response_id: str) -> float:
        return self._scores[self._position(prompt_id, response_id)]

    def oracle_samples(self, prompt_id: str, response_id: str) -> tuple[float, ...]:
        position = self._position(prompt_id, response_id)
        if self._samples is not None and self._samples[position] is not None:
            return self._samples[position]
        return (self._scores[position],)
