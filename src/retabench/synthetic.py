"""Synthetic joint distributions of (RM score, oracle score) with known
large-pool limits.

Each distribution kind has a closed-form value for the limiting
reliability at quantile eta, so the full estimation pipeline can be
validated end to end without any external model: generate a dataset, run
the estimator, and compare against ``analytic_reta``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import (
    BenchmarkDataset,
    PromptRecord,
    RmScoreTable,
    _check_int,
    _check_number,
    _frozen,
    _rm_name_problem,
)
from .errors import InvalidConfig, UnsupportedSpec

# each kind and the params it reads; any other key is an error, not ignored
_PARAM_KEYS = {"deterministic_uniform": {"low", "high"}, "independent": {"low", "high"},
               "noisy_gaussian": {"rho", "offset"}, "custom_table": {"atoms"}}
KINDS = tuple(_PARAM_KEYS)

# Offset >= 6 keeps P(J <= 0) below 1e-9, so the closed-form limit (which
# ignores truncation) is accurate to well under 1e-6.
_MIN_GAUSSIAN_OFFSET = 6.0
_PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class DistSpec:
    """A joint distribution of (rm score Y, oracle score J), J > 0."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise UnsupportedSpec(f"unknown distribution kind {self.kind!r}")
        p = self.params
        if not isinstance(p, dict):
            raise InvalidConfig(f"spec params must be an object, got {p!r}")
        unknown = p.keys() - _PARAM_KEYS[self.kind]
        if unknown:
            raise InvalidConfig(f"unknown {self.kind} params: {sorted(unknown, key=str)}")
        if self.kind in ("deterministic_uniform", "independent"):
            low, high = p.get("low"), p.get("high")
            if low is None or high is None or not (
                    0.0 <= _real("low", low) < _real("high", high)):
                raise InvalidConfig(
                    f"{self.kind} requires 0 <= low < high, got low={low}, high={high}")
        elif self.kind == "noisy_gaussian":
            rho, offset = p.get("rho"), p.get("offset")
            if rho is None or not -1.0 <= _real("rho", rho) <= 1.0:
                raise InvalidConfig(f"noisy_gaussian requires rho in [-1, 1], got {rho}")
            if offset is None or _real("offset", offset) < _MIN_GAUSSIAN_OFFSET:
                raise InvalidConfig(
                    f"noisy_gaussian requires offset >= {_MIN_GAUSSIAN_OFFSET}, got {offset}")
        else:  # custom_table
            atoms = p.get("atoms")
            if not isinstance(atoms, (list, tuple)) or not atoms:
                raise InvalidConfig("custom_table requires a non-empty atom list")
            total = 0.0
            for atom in atoms:
                if not isinstance(atom, (list, tuple)) or len(atom) != 3:
                    raise InvalidConfig("each atom must be (rm_score, oracle_score, prob)")
                y, j, prob = (_real("atom entry", value) for value in atom)
                if not j > 0:
                    raise InvalidConfig(f"atom oracle score must be positive, got {j}")
                if not prob > 0:
                    raise InvalidConfig(f"atom probability must be positive, got {prob}")
                total += prob
            if abs(total - 1.0) > _PROB_SUM_TOL:
                raise InvalidConfig(f"atom probabilities sum to {total!r}, expected 1")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def deterministic_uniform(cls, low: float, high: float) -> DistSpec:
        """Y = J with J uniform on (low, high): a perfectly reliable model."""
        return cls("deterministic_uniform", {"low": float(low), "high": float(high)})

    @classmethod
    def independent(cls, low: float, high: float) -> DistSpec:
        """Y independent of J (J uniform on (low, high)): the random baseline."""
        return cls("independent", {"low": float(low), "high": float(high)})

    @classmethod
    def noisy_gaussian(cls, rho: float, offset: float = 7.0) -> DistSpec:
        """J = offset + Z, Y correlated with Z at level rho (Z, noise standard normal)."""
        return cls("noisy_gaussian", {"rho": float(rho), "offset": float(offset)})

    @classmethod
    def custom_table(cls, atoms: Sequence[tuple[float, float, float]]) -> DistSpec:
        """Finite discrete joint: atoms of (rm_score, oracle_score, probability)."""
        return cls("custom_table", {"atoms": [tuple(map(float, a)) for a in atoms]})

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> DistSpec:
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, or an integer past Python's digit limit
            raise InvalidConfig(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise InvalidConfig("spec file must hold a JSON object")
        unknown = set(obj) - {"kind", "params"}
        if unknown:
            raise InvalidConfig(f"unknown spec keys: {sorted(unknown)}")
        kind = obj.get("kind")
        params = obj.get("params", {})
        if kind == "custom_table" and isinstance(params, dict) and isinstance(
                params.get("atoms"), list):
            params = dict(params, atoms=[tuple(a) if isinstance(a, list) else a
                                         for a in params["atoms"]])
        return cls(kind, params)

    def to_json(self) -> str:
        params = dict(self.params)
        if self.kind == "custom_table":
            params["atoms"] = [list(a) for a in params["atoms"]]
        return json.dumps({"kind": self.kind, "params": params}, sort_keys=True)


def _real(name: str, value) -> float:
    """A spec number as a float; InvalidConfig unless it is a finite real."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise InvalidConfig(f"spec {name} must be a finite number, got {value!r}")


def _draw_pairs(spec: DistSpec, rng: np.random.Generator,
                count: int) -> tuple[np.ndarray, np.ndarray]:
    """(rm scores, oracle scores), oracle strictly positive."""
    p = spec.params
    if spec.kind in ("deterministic_uniform", "independent"):
        j = rng.uniform(p["low"], p["high"], size=count)
        while np.any(j <= 0.0):
            bad = j <= 0.0
            j[bad] = rng.uniform(p["low"], p["high"], size=int(bad.sum()))
        y = j.copy() if spec.kind == "deterministic_uniform" else rng.standard_normal(count)
        return y, j
    if spec.kind == "noisy_gaussian":
        rho = p["rho"]
        z = rng.standard_normal(count)
        eps = rng.standard_normal(count)
        j = p["offset"] + z
        while np.any(j <= 0.0):
            bad = j <= 0.0
            z[bad] = rng.standard_normal(int(bad.sum()))
            eps[bad] = rng.standard_normal(int(bad.sum()))
            j = p["offset"] + z
        y = rho * z + math.sqrt(1.0 - rho * rho) * eps
        return y, j
    atoms = p["atoms"]
    probs = np.asarray([a[2] for a in atoms], dtype=np.float64)
    probs = probs / probs.sum()
    picks = rng.choice(len(atoms), size=count, p=probs)
    y = np.asarray([atoms[i][0] for i in picks], dtype=np.float64)
    j = np.asarray([atoms[i][1] for i in picks], dtype=np.float64)
    return y, j


def gen_synthetic(spec: DistSpec, num_prompts: int, responses_per_prompt: int,
                  seed: int, *,
                  rm_name: str = "synthetic-rm") -> tuple[BenchmarkDataset, RmScoreTable]:
    """Draw a dataset named ``synthetic-<kind>`` plus matching score table from a spec.

    Deterministic: each prompt gets its own counter-based stream keyed by
    (seed, prompt index), so generation order cannot change the data.
    Raises ``InvalidConfig`` for arguments whose files would not load back.
    """
    _check_int(seed, "seed")
    _check_int(num_prompts, "num_prompts")
    _check_int(responses_per_prompt, "responses_per_prompt")
    if seed < 0:
        raise InvalidConfig(f"seed must be non-negative, got {seed}")
    if num_prompts < 1:
        raise InvalidConfig(f"num_prompts must be positive, got {num_prompts}")
    if responses_per_prompt < 2:
        raise InvalidConfig(
            f"responses_per_prompt must be at least 2, got {responses_per_prompt}")
    problem = _rm_name_problem(rm_name)
    if problem:
        raise InvalidConfig(f"rm_name {rm_name!r}: {problem}")
    prompt_width = max(4, len(str(num_prompts - 1)))
    response_width = max(3, len(str(responses_per_prompt - 1)))
    prompt_ids = [f"p{p_idx:0{prompt_width}d}" for p_idx in range(num_prompts)]
    response_ids = [f"r{r_idx:0{response_width}d}" for r_idx in range(responses_per_prompt)]
    draws = [_draw_pairs(spec, np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, p_idx]))), responses_per_prompt)
        for p_idx in range(num_prompts)]
    # each prompt's (rm, oracle) rows, stacked into two (prompts, N) matrices
    rm, oracle = map(np.stack, zip(*draws))
    pair_ids = ([pid for pid in prompt_ids for _ in response_ids],
                response_ids * num_prompts)
    dataset = BenchmarkDataset._from_columns(
        f"synthetic-{spec.kind}",
        [PromptRecord(pid, f"synthetic prompt {p_idx}") for p_idx, pid in enumerate(prompt_ids)],
        _frozen(oracle), pair_ids, [None] * len(response_ids) * num_prompts)
    return dataset, RmScoreTable._from_columns(rm_name, pair_ids, rm.ravel())


def analytic_reta(spec: DistSpec, eta: float) -> float:
    """Closed-form limiting reliability at eta: E[J | Y >= theta(eta)] / E[J]."""
    _check_number(eta, "eta")
    if not 0.0 < eta < 1.0:
        raise InvalidConfig(f"eta must be in (0, 1), got {eta}")
    p = spec.params
    if spec.kind == "deterministic_uniform":
        low, high = p["low"], p["high"]
        return (high - eta * (high - low) / 2.0) / ((low + high) / 2.0)
    if spec.kind == "independent":
        return 1.0
    if spec.kind == "noisy_gaussian":
        # Y is standard normal; E[Z | Y >= z_eta] = rho * pdf(z_eta) / eta.
        from statistics import NormalDist  # here, so no command loads statistics

        z_eta = -NormalDist().inv_cdf(eta)
        return (p["offset"] + p["rho"] * NormalDist().pdf(z_eta) / eta) / p["offset"]
    # custom_table, the one kind left (DistSpec takes no other): the top-eta
    # tail expectation. Walk rm-score levels from the top and, when eta
    # lands inside a level, draw from it proportionally. This is what the
    # top-fraction selection converges to; it agrees with
    # E[J | Y >= threshold] whenever the threshold carries no mass.
    atoms = p["atoms"]
    total = math.fsum(a[2] for a in atoms)
    levels: dict[float, list[float]] = {}
    for y, j, prob in atoms:
        mass_j = levels.setdefault(y, [0.0, 0.0])
        mass_j[0] += prob / total
        mass_j[1] += j * prob / total
    remaining = eta
    numerator = 0.0
    for y in sorted(levels, reverse=True):
        mass, j_mass = levels[y]
        taken = min(remaining, mass)
        numerator += j_mass * (taken / mass)
        remaining -= taken
        if remaining <= 1e-15:
            break
    mean = math.fsum(j * prob for _, j, prob in atoms) / total
    return (numerator / eta) / mean
