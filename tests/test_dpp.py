"""Kernel construction and exact k-DPP sampling."""

from __future__ import annotations

import collections
import dataclasses
import inspect
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from retabench import (
    DppSampleConfig,
    PromptRecord,
    build_dpp,
    load_candidate_prompts,
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


_BAD_EMBEDDINGS = {
    "numeric-string": (("1.0", "0"), "must be a number"),
    "string": (("x", "0"), "must be a number"),
    "bool": ((True, 0.0), "must be a number"),
    "nan": ((math.nan, 1.0), "contains non-finite values"),
    "empty": ((), "must be a non-empty array"),
    "int": (5, "must be a non-empty array"),
    "dict": ({1.0: 0.0}, "must be a non-empty array"),
    "set": ({1.0, 0.0}, "must be a non-empty array"),
}


@pytest.mark.parametrize("embedding, message", _BAD_EMBEDDINGS.values(), ids=_BAD_EMBEDDINGS)
def test_build_rejects_what_the_candidate_reader_rejects(embedding, message):
    # hand-built records get the reader's embedding rule, not a silent
    # conversion or a bare numpy error
    prompts = records(np.eye(2)) + [PromptRecord("bad", "text", embedding)]
    with pytest.raises(MalformedRecord) as raised:
        build_dpp(prompts)
    assert str(raised.value) == f"candidate prompts: field 'embedding': prompt 'bad': {message}"


# the cases of test_load_candidate_prompts_rejects_bad_files and of the
# embedding rule above, each as records built in code
_READER_CASES = {
    "repeated-id": [PromptRecord("a", "x", (1.0, 0.0)), PromptRecord("a", "y", (0.0, 1.0))],
    "int-text": [PromptRecord("a", 5, (1.0, 0.0))],
    "blank-lines": [],
    "mixed-dimensions": records(np.eye(2)) + [PromptRecord("wide", "text", (1.0, 0.0, 0.0))],
    **{f"embedding-{name}": records(np.eye(2)) + [PromptRecord("bad", "text", embedding)]
       for name, (embedding, _) in _BAD_EMBEDDINGS.items()},
}


@pytest.mark.parametrize("prompts", _READER_CASES.values(), ids=_READER_CASES)
def test_build_raises_what_the_candidate_reader_raises(tmp_path, prompts):
    # each record written as its line would be; JSON has no set, so a set
    # is written as its repr, a string, which breaks the same rule
    path = tmp_path / "cands.jsonl"
    path.write_text("".join(json.dumps(vars(p), default=repr) + "\n" for p in prompts),
                    encoding="utf-8")
    with pytest.raises(Exception) as read:
        load_candidate_prompts(path)
    with pytest.raises(type(read.value)) as built:
        build_dpp(prompts)
    expected = str(read.value)
    if isinstance(read.value, MalformedRecord):
        # the reader names the file and the line, build_dpp the record
        field = f"field '{read.value.field}': "
        line = read.value.line
        label = "" if line is None else f"prompt {prompts[line - 1].prompt_id!r}: "
        expected = f"candidate prompts: {field}{label}{expected.split(field, 1)[1]}"
    assert str(built.value) == expected


def test_build_takes_one_list_or_tuple_of_prompt_records():
    prompts = records(np.eye(2))
    assert list(inspect.signature(build_dpp).parameters) == ["prompts"]
    assert build_dpp(tuple(prompts)) == build_dpp(prompts)
    with pytest.raises(TypeError):
        build_dpp(prompts, checked=True)
    with pytest.raises(MalformedRecord) as raised:
        build_dpp({"c000": prompts[0]})
    assert str(raised.value) == ("candidate prompts: field '-': prompts: {'c000': "
                                 "PromptRecord(prompt_id='c000', text='text', embedding=(1.0, "
                                 "0.0), perplexity=None)} is not a list or tuple")
    with pytest.raises(MalformedRecord) as raised:
        build_dpp([*prompts, ("c002", "text")])
    assert str(raised.value) == ("candidate prompts: field '-': prompts: "
                                 "item ('c002', 'text') is not a PromptRecord")


def test_models_compare_by_value():
    # two or more candidates: the generated dataclass __eq__ compared the
    # arrays with ==, and bool() of that array raised ValueError
    prompts = records(np.random.default_rng(3).standard_normal((4, 3)))
    model = build_dpp(prompts)
    assert model == build_dpp(prompts) and not model != build_dpp(prompts)
    changed = [*prompts[:-1], dataclasses.replace(prompts[-1], embedding=(1.0, 0.0, 0.0))]
    assert model != build_dpp(changed) and not model == build_dpp(changed)
    assert (model == 1) is False and model != 1
    with pytest.raises(TypeError):
        hash(model)


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


def test_sample_config_keeps_only_k_and_seed():
    assert [field.name for field in dataclasses.fields(DppSampleConfig)] == ["k", "seed"]
    config = DppSampleConfig(k=2)
    assert (config.seed, config.epsilon, config.max_steps) == (0, 0.01, None)
    with pytest.raises(TypeError):
        DppSampleConfig(k=2, epsilon=0.5)
    with pytest.raises(TypeError):
        DppSampleConfig(k=2, max_steps=3)
    for bad in ({"k": 0}, {"k": "2"}, {"k": True}, {"seed": -1}, {"seed": 2 ** 64},
                {"seed": 1.0}):
        with pytest.raises(InvalidConfig):
            DppSampleConfig(**{"k": 2, **bad})


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
