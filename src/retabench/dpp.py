"""Diverse prompt selection via fixed-size determinantal point processes.

The kernel is a scaled Gram matrix ``lam * E @ E.T`` of candidate
embeddings, with the scale chosen so all eigenvalues stay below 1. Its rank
is at most the embedding dimension d, so size-k subsets are drawn exactly
from the spectrum of the d x d dual kernel ``lam * E.T @ E`` (Kulesza &
Taskar 2012, Alg. 8 then Alg. 1): k eigenvectors are picked through the
elementary symmetric polynomials of the eigenvalues, mapped to unit
vectors over the candidates, and the projection DPP they span is sampled
one candidate at a time. The cost is O(N d^2) for the dual kernel plus
O(N k^3) for the projection rounds, with no step count or mixing time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import PromptRecord, _check_int, _check_number, _embedding_problem, _numbers_problem
from .errors import (
    DegenerateInit,
    InvalidConfig,
    MalformedRecord,
    MissingEmbedding,
    ZeroMatrix,
)

_EIGENVALUE_CEILING = 0.99
# dual-kernel eigenvalues at or below this fraction of the largest are
# rounding noise of a rank-deficient Gram matrix, not directions
_SINGULAR_REL_TOL = 1e-12


@dataclass
class DppModel:
    """Candidate embeddings E and the scale ``lam`` of the kernel
    ``lam * E @ E.T``.

    The model keeps O(N d) state: the N x N kernel is never built, as the
    sampler works on the d x d dual kernel ``lam * E.T @ E``.
    """

    embeddings: np.ndarray  # (num_candidates, dim)
    lam: float

    @property
    def num_candidates(self) -> int:
        return self.embeddings.shape[0]


@dataclass(frozen=True)
class DppSampleConfig:
    """Subset size ``k`` and the ``seed`` of the sampler's Philox stream.

    ``epsilon`` and ``max_steps`` have no effect: the sampler is exact and
    takes no steps. They are still validated because the benchmark tracer
    in ``perfbench/tracing.py`` reads both on every traced ``sample_kdpp``
    call; remove them once it no longer does.
    """

    k: int
    seed: int = 0
    epsilon: float = 0.01
    max_steps: int | None = None

    def __post_init__(self) -> None:
        _check_int(self.k, "k")
        _check_int(self.seed, "seed")
        _check_number(self.epsilon, "epsilon")
        if self.max_steps is not None:
            _check_int(self.max_steps, "max_steps")
        if self.k < 1:
            raise InvalidConfig(f"k must be positive, got {self.k}")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidConfig(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.max_steps is not None and self.max_steps < 0:
            raise InvalidConfig("max_steps must be non-negative")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidConfig("seed must fit in 64 unsigned bits")


def build_dpp(prompts: Sequence[PromptRecord], *, checked: bool = False) -> DppModel:
    """Kernel from candidate embeddings, scaled so eigenvalues stay below 1.

    The scale is 0.99 / s_max^2 with s_max the largest singular value of
    the embedding matrix, which makes the kernel invariant to a common
    rescaling of all embeddings. Raises ``MalformedRecord``, naming the
    prompt, for an embedding the candidate reader rejects (empty, with an
    entry that is not a number, or not finite), ``ZeroMatrix`` when every
    embedding is zero, and ``InvalidConfig`` when s_max^2 is not a finite
    normal float (embeddings so small or so large that the scale
    underflows or overflows). ``checked=True`` says that every embedding
    has passed the candidate reader's checks already, as those that
    ``load_candidate_prompts`` returns have, so their entries are not
    type-checked a second time.
    """
    if not prompts:
        raise InvalidConfig("no candidate prompts")
    dim = None
    rows = []
    for prompt in prompts:
        if prompt.embedding is None:
            raise MissingEmbedding(prompt.prompt_id)
        if not checked:
            _reject_embedding(prompt, _numbers_problem(prompt.embedding))
        if dim is None:
            dim = len(prompt.embedding)
        elif len(prompt.embedding) != dim:
            raise InvalidConfig(
                f"embedding dimension mismatch at prompt {prompt.prompt_id!r}")
        rows.append(prompt.embedding)
    embeddings = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(embeddings).all(axis=1)
    if not finite.all():  # the first non-finite row, named as the reader names it
        bad = prompts[int(finite.argmin())]
        _reject_embedding(bad, _embedding_problem(bad.embedding, None, unit_norm=False))
    s_max = float(np.linalg.svd(embeddings, compute_uv=False)[0])
    if s_max == 0.0:
        raise ZeroMatrix("all candidate embeddings are zero")
    s_max_squared = s_max * s_max
    if not sys.float_info.min <= s_max_squared <= sys.float_info.max:
        raise InvalidConfig(f"embedding scale out of range: the largest singular value "
                            f"{s_max!r} squares to {s_max_squared!r}")
    return DppModel(embeddings=embeddings, lam=_EIGENVALUE_CEILING / s_max_squared)


def _reject_embedding(prompt: PromptRecord, problem: str | None) -> None:
    if problem:
        raise MalformedRecord("candidate prompts", None, "embedding",
                              f"prompt {prompt.prompt_id!r}: {problem}")


def _elementary_symmetric(eigenvalues: np.ndarray, k: int) -> np.ndarray:
    """(k+1, d+1) table whose entry [l, n] is e_l of the first n eigenvalues."""
    table = np.zeros((k + 1, len(eigenvalues) + 1))
    table[0] = 1.0
    for n, value in enumerate(eigenvalues, start=1):
        table[1:, n] = table[1:, n - 1] + value * table[:-1, n - 1]
    return table


def sample_kdpp(model: DppModel, config: DppSampleConfig) -> list[int]:
    """An exact size-k sample; sorted candidate indices.

    Deterministic for a given (model, config). Subsets with linearly
    dependent embeddings have zero determinant and are never emitted.
    """
    total = model.num_candidates
    k = config.k
    if k > total:
        raise InvalidConfig(f"k={k} exceeds candidate count {total}")
    embeddings = model.embeddings
    eigenvalues, vectors = np.linalg.eigh(model.lam * (embeddings.T @ embeddings))
    keep = eigenvalues > _SINGULAR_REL_TOL * eigenvalues[-1]
    # descending, so each table column holds the largest eigenvalues and
    # products of many small ones cannot underflow it
    eigenvalues, vectors = eigenvalues[keep][::-1], vectors[:, keep][:, ::-1]
    if k > len(eigenvalues):
        raise DegenerateInit(f"embedding rank {len(eigenvalues)} below k={k}")
    if k == total:
        return list(range(total))

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed])))
    table = _elementary_symmetric(eigenvalues, k)
    chosen = []
    for n in range(len(eigenvalues), 0, -1):
        if len(chosen) == k:
            break
        need = k - len(chosen)
        # keeps eigenvector n with probability lambda_n e_{need-1}^{n-1} / e_need^n,
        # which is exactly 1 once need == n
        if rng.random() * table[need, n] < eigenvalues[n - 1] * table[need - 1, n - 1]:
            chosen.append(n - 1)

    # unit primal eigenvectors E u / |E u|; sample the projection DPP they span
    basis = embeddings @ vectors[:, chosen]
    basis /= np.linalg.norm(basis, axis=0)
    selected: list[int] = []
    while True:
        weights = np.einsum("ij,ij->i", basis, basis)
        weights[selected] = 0.0  # rounding leaves picked rows near, not at, zero
        item = int(rng.choice(total, p=weights / weights.sum()))
        selected.append(item)
        if len(selected) == k:
            return sorted(selected)
        basis = _condition(basis, item)


def _condition(basis: np.ndarray, item: int) -> np.ndarray:
    """Orthonormal basis of the part of span(basis) that vanishes at row ``item``.

    With K = basis @ basis.T the projection kernel, the result spans the
    kernel K - K[:, item] K[item, :] / K[item, item] of the projection DPP
    conditioned on ``item`` having been picked.
    """
    pivot = int(np.argmax(np.abs(basis[item])))
    basis = basis - np.outer(basis[:, pivot] / basis[item, pivot], basis[item])
    basis, _ = np.linalg.qr(np.delete(basis, pivot, axis=1))
    return basis
