"""Kernel construction and exact k-DPP sampling."""

from __future__ import annotations

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from retabench import (
    DppSampleConfig,
    PromptRecord,
    build_dpp,
    sample_kdpp,
)
from retabench.dpp import _condition
from retabench.errors import (
    DegenerateInit,
    InvalidConfig,
    MalformedRecord,
    MissingEmbedding,
    ZeroMatrix,
)


def records(matrix) -> list[PromptRecord]:
    return [PromptRecord(f"c{i:03d}", "text", tuple(float(v) for v in row))
            for i, row in enumerate(matrix)]


def kernel(model) -> np.ndarray:
    return model.lam * (model.embeddings @ model.embeddings.T)


def subset_log_det(model, subset) -> float:
    """log det of the kernel block of ``subset``, built from its rows; -inf if singular."""
    rows = model.embeddings[list(subset)]
    sign, logdet = np.linalg.slogdet(model.lam * (rows @ rows.T))
    return float(logdet) if sign > 0 else -math.inf


def test_build_orthonormal():
    model = build_dpp(records(np.eye(3)))
    assert model.lam == pytest.approx(0.99, abs=1e-12)
    assert np.allclose(kernel(model), 0.99 * np.eye(3), atol=1e-12)


def test_build_scale_cancellation():
    base = build_dpp(records(np.eye(3)))
    scaled = build_dpp(records(2.0 * np.eye(3)))
    assert scaled.lam == pytest.approx(base.lam / 4.0, abs=1e-12)
    assert np.allclose(kernel(scaled), kernel(base), atol=1e-12)


def test_build_missing_embedding():
    prompts = records(np.eye(2)) + [PromptRecord("c999", "text", None)]
    with pytest.raises(MissingEmbedding):
        build_dpp(prompts)


@pytest.mark.parametrize("embedding, message", [
    (("1.0", "0"), "must be a number"),
    (("x", "0"), "must be a number"),
    ((True, 0.0), "must be a number"),
    ((math.nan, 1.0), "contains non-finite values"),
    ((), "must be a non-empty array"),
    (5, "must be a non-empty array"),
    ({1.0: 0.0}, "must be a non-empty array"),
    ({1.0, 0.0}, "must be a non-empty array"),
], ids=["numeric-string", "string", "bool", "nan", "empty", "int", "dict", "set"])
def test_build_rejects_what_the_candidate_reader_rejects(embedding, message):
    # hand-built records get the reader's embedding rule, not a silent
    # conversion or a bare numpy error
    prompts = records(np.eye(2)) + [PromptRecord("bad", "text", embedding)]
    with pytest.raises(MalformedRecord) as raised:
        build_dpp(prompts)
    assert str(raised.value) == f"candidate prompts: field 'embedding': prompt 'bad': {message}"


def test_build_zero_matrix():
    with pytest.raises(ZeroMatrix):
        build_dpp(records(np.zeros((3, 4))))


def test_full_set_shortcut():
    model = build_dpp(records(np.eye(4)))
    assert sample_kdpp(model, DppSampleConfig(k=4, seed=0)) == [0, 1, 2, 3]


def test_rank_deficiency_raises():
    rng = np.random.default_rng(0)
    low_rank = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 6))
    model = build_dpp(records(low_rank))
    with pytest.raises(DegenerateInit):
        sample_kdpp(model, DppSampleConfig(k=5, seed=0))


def test_duplicate_pair_never_sampled():
    matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    model = build_dpp(records(matrix))
    for seed in range(100):
        subset = sample_kdpp(model, DppSampleConfig(k=2, seed=seed))
        assert subset != [0, 1], f"seed {seed} returned the duplicate pair"


def test_seed_determinism():
    rng = np.random.default_rng(9)
    model = build_dpp(records(rng.standard_normal((15, 6))))
    config = DppSampleConfig(k=4, seed=1234)
    assert sample_kdpp(model, config) == sample_kdpp(model, config)
    other = sample_kdpp(model, DppSampleConfig(k=4, seed=5678))
    assert isinstance(other, list) and len(other) == 4


def test_chain_steps_default():
    config = DppSampleConfig(k=3, seed=0)
    assert config.max_steps is None
    for bad in ({"k": 0}, {"epsilon": 1.5}, {"epsilon": "0.5"}, {"epsilon": None},
                {"max_steps": "3"}, {"max_steps": 2.5}, {"max_steps": True}):
        with pytest.raises(InvalidConfig):
            DppSampleConfig(**{"k": 2, "seed": 0, **bad})


def test_sampled_subsets_are_valid():
    rng = np.random.default_rng(11)
    model = build_dpp(records(rng.standard_normal((20, 8))))
    for seed in range(20):
        subset = sample_kdpp(model, DppSampleConfig(k=6, seed=seed))
        assert len(set(subset)) == 6
        assert subset == sorted(subset)
        assert subset_log_det(model, subset) > -math.inf


def test_duplicate_heavy_model_samples():
    # 1000 copies of e1 plus e2 and e3: rank 3, and every size-3 subset
    # with non-zero determinant holds e2, e3 and one copy of e1
    matrix = np.zeros((1002, 3))
    matrix[:1000, 0] = 1.0
    matrix[1000, 1] = matrix[1001, 2] = 1.0
    model = build_dpp(records(matrix))
    for seed in range(20):
        subset = sample_kdpp(model, DppSampleConfig(k=3, seed=seed))
        assert subset[0] < 1000 and subset[1:] == [1000, 1001]


@pytest.mark.parametrize("k", [2, 3])
def test_samples_follow_subset_determinants(k):
    # non-orthogonal: 7 candidates in 4 dimensions, dual eigenvalues 0.12..0.99
    model = build_dpp(records(np.random.default_rng(15).standard_normal((7, 4))))
    subsets = list(itertools.combinations(range(7), k))
    dets = np.array([math.exp(subset_log_det(model, s)) for s in subsets])
    draws = 2000
    expected = draws * dets / dets.sum()
    assert expected.min() >= 5.0
    counts = collections.Counter(
        tuple(sample_kdpp(model, DppSampleConfig(k=k, seed=seed))) for seed in range(draws))
    assert set(counts) <= set(subsets)
    observed = np.array([counts.get(s, 0) for s in subsets])
    chi_stat = float(((observed - expected) ** 2 / expected).sum())
    assert chi_stat <= chi2.isf(6.3e-5, len(subsets) - 1)  # c09's ~4-sigma level


def test_conditioning_spans_the_conditioned_projection_kernel():
    # each projection round of sample_kdpp conditions the basis on its pick;
    # after every round the basis must be orthonormal, vanish at the picked
    # row and span K - K[:, i] K[i, :] / K_ii, so its squared row norms
    # (the next round's weights) are K_jj - K_ij^2 / K_ii
    basis, _ = np.linalg.qr(np.random.default_rng(21).standard_normal((9, 4)))
    for item in (2, 7, 4):
        kernel = basis @ basis.T
        expected = kernel - np.outer(kernel[:, item], kernel[item]) / kernel[item, item]
        basis = _condition(basis, item)
        rank = basis.shape[1]
        assert rank == kernel.trace().round() - 1
        assert np.allclose(basis.T @ basis, np.eye(rank), atol=1e-12)
        assert np.allclose(basis[item], 0.0, atol=1e-12)
        assert np.allclose(np.einsum("ij,ij->i", basis, basis), np.diag(expected), atol=1e-12)
        assert np.allclose(basis @ basis.T, expected, atol=1e-12)


def test_model_and_sampler_keep_no_candidate_by_candidate_matrix():
    # a 2000 x 2000 kernel alone takes 32 MB; the embeddings take 0.26 MB
    prompts = records(np.random.default_rng(21).standard_normal((2000, 16)))
    tracemalloc.start()
    try:
        model = build_dpp(prompts)
        subset = sample_kdpp(model, DppSampleConfig(k=8, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(subset)) == 8
    assert peak < 8 * 2 ** 20
