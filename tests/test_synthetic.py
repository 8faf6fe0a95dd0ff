"""Synthetic distributions: generators, closed-form limits, convergence to them."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.stats import norm

from retabench import (
    DistSpec,
    RetaConfig,
    analytic_reta,
    gen_synthetic,
    ingest_rm_scores,
    load_benchmark,
    metric_report,
    reta_estimate,
    write_benchmark,
    write_rm_scores,
)
from retabench.errors import InvalidConfig, UnsupportedSpec


def test_spec_validation():
    with pytest.raises(UnsupportedSpec):
        DistSpec("mystery", {})
    with pytest.raises(InvalidConfig):
        DistSpec.deterministic_uniform(2.0, 1.0)
    with pytest.raises(InvalidConfig):
        DistSpec.noisy_gaussian(1.5, 7.0)
    with pytest.raises(InvalidConfig):
        DistSpec.noisy_gaussian(0.5, 2.0)  # offset too small to keep J > 0
    with pytest.raises(InvalidConfig):
        DistSpec.custom_table([(1.0, -1.0, 1.0)])
    with pytest.raises(InvalidConfig):
        DistSpec.custom_table([(1.0, 1.0, 0.4)])  # probabilities must sum to 1


@pytest.mark.parametrize("call, message", [
    (lambda: DistSpec("custom_table", {"atoms": 5}), "custom_table requires a non-empty atom list"),
    # the probabilities sum to 1, so only the per-atom rule rejects the zero
    (lambda: DistSpec.custom_table([(1.0, 1.0, 1.0), (2.0, 2.0, 0.0)]),
     "atom probability must be positive, got 0.0"),
    (lambda: DistSpec.from_json("[]"), "spec file must hold a JSON object"),
    (lambda: analytic_reta(DistSpec.independent(0.0, 1.0), 1.0),
     "eta must be in (0, 1), got 1.0"),
], ids=["atoms-not-a-list", "zero-probability-atom", "spec-array", "analytic-eta-1"])
def test_spec_and_limit_errors_name_the_rule(call, message):
    with pytest.raises(InvalidConfig) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("kind, params, unknown", [
    ("deterministic_uniform", {"low": 0.0, "high": 1.0, "rho": 0.5}, "['rho']"),
    ("independent", {"low": 0.0, "high": 1.0, "atoms": []}, "['atoms']"),
    ("noisy_gaussian", {"rho": 0.5, "offset": 7.0, "sigma": "x"}, "['sigma']"),
    ("custom_table", {"atoms": [[0.0, 1.0, 1.0]], "low": 0.0, "high": 1.0}, "['high', 'low']"),
])
def test_spec_rejects_params_its_kind_does_not_use(kind, params, unknown):
    text = json.dumps({"kind": kind, "params": params})
    with pytest.raises(InvalidConfig) as raised:
        DistSpec.from_json(text)
    assert str(raised.value) == f"unknown {kind} params: {unknown}"


def test_spec_json_round_trip():
    for spec in (
        DistSpec.deterministic_uniform(0.0, 1.0),
        DistSpec.independent(1.0, 9.0),
        DistSpec.noisy_gaussian(0.7, 7.0),
        DistSpec.custom_table([(0.0, 1.0, 0.5), (1.0, 2.0, 0.5)]),
    ):
        assert DistSpec.from_json(spec.to_json()) == spec
    with pytest.raises(InvalidConfig):
        DistSpec.from_json('{"kind": "independent", "params": {}, "bogus": 1}')


def test_analytic_uniform_values():
    assert analytic_reta(DistSpec.deterministic_uniform(0.0, 1.0), 0.25) == \
        pytest.approx(1.75, abs=1e-15)
    assert analytic_reta(DistSpec.deterministic_uniform(1.0, 2.0), 0.25) == \
        pytest.approx(1.25, abs=1e-15)
    for eta in (0.1, 0.5, 0.9):
        assert analytic_reta(DistSpec.independent(0.0, 1.0), eta) == 1.0


def test_analytic_uniform_against_quadrature():
    # independent numeric check: E[J | J >= quantile] / E[J] for U(a, b)
    low, high = 0.5, 3.5
    spec = DistSpec.deterministic_uniform(low, high)
    for eta in (0.1, 0.25, 0.6):
        threshold = high - eta * (high - low)
        grid = np.linspace(threshold, high, 200001)
        conditional = trapezoid(grid, grid) / (high - threshold)
        expected = conditional / ((low + high) / 2.0)
        assert analytic_reta(spec, eta) == pytest.approx(expected, abs=1e-9)


def test_analytic_gaussian_against_monte_carlo():
    rng = np.random.default_rng(123)
    rho, offset = 0.65, 7.0
    spec = DistSpec.noisy_gaussian(rho, offset)
    z = rng.standard_normal(2_000_000)
    eps = rng.standard_normal(2_000_000)
    y = rho * z + math.sqrt(1 - rho * rho) * eps
    j = offset + z
    for eta in (0.5, 0.25, 0.1):
        threshold = norm.isf(eta)
        estimate = j[y >= threshold].mean() / j.mean()
        assert analytic_reta(spec, eta) == pytest.approx(estimate, abs=0.01)


def test_analytic_gaussian_matches_scipy_reference():
    rho, offset = 0.65, 7.0
    spec = DistSpec.noisy_gaussian(rho, offset)
    for eta in (0.5, 0.1, 2.0 ** -7, 1e-6, 0.999):
        expected = (offset + rho * norm.pdf(norm.isf(eta)) / eta) / offset
        assert analytic_reta(spec, eta) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_analytic_custom_table():
    atoms = [(0.0, 1.0, 0.25), (1.0, 2.0, 0.25), (2.0, 3.0, 0.25), (3.0, 4.0, 0.25)]
    spec = DistSpec.custom_table(atoms)
    # top-eta tail expectation: partial levels drawn proportionally
    assert analytic_reta(spec, 0.2) == pytest.approx((0.2 * 4.0) / 0.2 / 2.5, abs=1e-12)
    assert analytic_reta(spec, 0.4) == pytest.approx(
        (0.25 * 4.0 + 0.15 * 3.0) / 0.4 / 2.5, abs=1e-12)
    assert analytic_reta(spec, 0.6) == pytest.approx(
        (0.25 * 4.0 + 0.25 * 3.0 + 0.1 * 2.0) / 0.6 / 2.5, abs=1e-12)
    # equal-score atoms pool into one level: selection mixes their J values
    mixed = DistSpec.custom_table([(1.0, 2.0, 0.5), (1.0, 6.0, 0.5)])
    assert analytic_reta(mixed, 0.3) == pytest.approx(1.0, abs=1e-12)


def test_custom_table_estimator_converges_to_analytic():
    atoms = [(0.0, 1.0, 0.25), (1.0, 2.0, 0.25), (2.0, 3.0, 0.25), (3.0, 4.0, 0.25)]
    spec = DistSpec.custom_table(atoms)
    from retabench import exhaustive_reta
    from retabench.ranking import oracle_matrix
    from conftest import one_prompt

    eta = 0.4
    limit = analytic_reta(spec, eta)
    errors = []
    for pool in (12, 24, 48):
        per_level = pool // 4
        oracle, rm = [], []
        for y, j, _ in sorted(atoms, reverse=True):
            oracle += [j] * per_level
            rm += [y] * per_level
        [by_rank] = oracle_matrix(*one_prompt(oracle, rm))
        errors.append(abs(exhaustive_reta(by_rank, eta, pool) - limit))
    assert errors[-1] <= errors[0] + 1e-12
    assert errors[-1] <= 0.02


def test_analytic_limits_toward_eta_one():
    for spec in (DistSpec.deterministic_uniform(0.0, 1.0),
                 DistSpec.noisy_gaussian(0.8, 7.0)):
        assert analytic_reta(spec, 0.999) == pytest.approx(1.0, abs=5e-3)


def test_analytic_monotone_in_eta():
    grid = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95]
    for spec in (DistSpec.deterministic_uniform(0.0, 1.0),
                 DistSpec.noisy_gaussian(0.4, 7.0)):
        values = [analytic_reta(spec, eta) for eta in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_generator_determinism_and_validity(tmp_path):
    spec = DistSpec.noisy_gaussian(0.3, 7.0)
    first = gen_synthetic(spec, 4, 16, seed=5)
    second = gen_synthetic(spec, 4, 16, seed=5)
    assert first[0] == second[0]
    assert first[1] == second[1]
    different = gen_synthetic(spec, 4, 16, seed=6)
    assert different[1] != first[1]
    dataset, table = first
    assert dataset.name == "synthetic-noisy_gaussian"
    assert dataset.num_prompts == 4
    assert dataset.responses_per_prompt == 16
    # valid: written, both read back equal, with no load warning
    directory = tmp_path / dataset.name
    write_benchmark(dataset, directory)
    write_rm_scores(table, directory / "rm_scores.jsonl")
    loaded = load_benchmark(directory, max_oracle_score=100.0)
    read = ingest_rm_scores(loaded, directory / "rm_scores.jsonl")
    assert loaded == dataset and read == table
    assert loaded.load_warnings == [] and read.load_warnings == []


def test_deterministic_uniform_rankings_agree():
    spec = DistSpec.deterministic_uniform(0.0, 1.0)
    dataset, table = gen_synthetic(spec, 3, 32, seed=2)
    assert metric_report(dataset, table).pairwise_accuracy == 100.0


def test_noisy_gaussian_high_rho_mostly_agrees():
    spec = DistSpec.noisy_gaussian(0.99, 7.0)
    dataset, table = gen_synthetic(spec, 4, 64, seed=3)
    assert metric_report(dataset, table).pairwise_accuracy > 90.0


def test_independent_zero_correlation_in_expectation():
    spec = DistSpec.independent(1.0, 9.0)
    dataset, table = gen_synthetic(spec, 40, 32, seed=7)
    accuracy = metric_report(dataset, table).pairwise_accuracy
    assert abs(accuracy - 50.0) < 5.0


def test_convergence_error_shrinks_with_pool_size():
    spec = DistSpec.deterministic_uniform(0.0, 1.0)
    config = RetaConfig(n_range_low_coeff=1.0, n_range_high_coeff=2.0, n_exponent=0.5)
    limit = analytic_reta(spec, 0.25)
    mean_errors = []
    for pool in (8, 32):
        errors = []
        for seed in range(10):
            # 12 prompts of pool size N, drawn at seed + N
            dataset, table = gen_synthetic(spec, 12, pool, seed + pool)
            errors.append(abs(reta_estimate(dataset, table, 0.25, config).value - limit))
        mean_errors.append(sum(errors) / len(errors))
    assert mean_errors[1] <= mean_errors[0]


@pytest.mark.parametrize("rm_name", ["", "a\u0000b", "\udcff"], ids=["empty", "nul", "surrogate"])
def test_generator_rejects_rm_names_the_score_reader_rejects(rm_name):
    with pytest.raises(InvalidConfig, match="^rm_name "):
        gen_synthetic(DistSpec.independent(0.0, 1.0), 2, 4, seed=0, rm_name=rm_name)
