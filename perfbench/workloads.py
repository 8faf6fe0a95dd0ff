"""The benchmark's workloads: how each builds its inputs from the workload
seed, the CLI command sequence it times, and the checks on its outputs.

Every command on synthetic data passes ``--max-oracle-score 20``: the
``noisy_gaussian`` oracle score is 7 + N(0, 1), and pools of this size
hold draws above the CLI's default bound of 10.

The references here are written without the package's estimators: RETA
from hypergeometric subset-rank weights built with ``math.comb``, and
rankings, means and determinants from the raw JSON-lines files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_ORACLE_SCORE = "20"
SPEC = {"kind": "noisy_gaussian", "params": {"rho": 0.7, "offset": 7.0}}

# paper_curve: the paper's pool size N = 256 (n grid [121, 201]) and the
# default 15-point eta grid, on fewer prompts than the paper's 100; the
# per-prompt cost is linear, so the layer shares do not depend on the count.
PAPER_PROMPTS = 8
PAPER_RESPONSES = 256
PAPER_BEST_M = 32
PAPER_THREADS = 2
# With 8 prompts the standard error across prompts has 7 degrees of
# freedom. In 300 simulated seeds the worst of the 14 points lay 8.3
# standard errors from the large-pool limit, so the bound leaves room for
# the heavy tail of a small-sample spread and still catches a gross error.
ANALYTIC_SE_BOUND = 12.0
# The Monte Carlo curve averages 200 draws per (prompt, n) over 81 sizes;
# its worst gap to the exact expectation was below 3e-4 on every seed tried.
EXACT_GAP_BOUND = 2e-3

WIDE_PROMPTS = 128
WIDE_RESPONSES = 64
WIDE_BEST_M = 8
WIDE_ETA = 0.25
METRICS_ETA = 0.25  # the metrics command's default ground-truth quantile
RANDOM_PAIRWISE_BOUND = 3.0  # about eight standard errors over 128 prompts

DPP_CANDIDATES = 500
DPP_DIM = 64
DPP_K = 8


@dataclass(frozen=True)
class Command:
    name: str
    argv: list[str]
    out: Path


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# --- shared input readers and references --------------------------------------


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _pools(inputs: Path, scores_file: str) -> dict[str, list[float]]:
    """Oracle scores per prompt, ordered by RM score (ties by response id)."""
    oracle = {(r["prompt_id"], r["response_id"]): r["oracle_score"]
              for r in _jsonl(inputs / "responses.jsonl")}
    rm: dict[str, list[tuple]] = {}
    for row in _jsonl(inputs / scores_file):
        rm.setdefault(row["prompt_id"], []).append((-row["score"], row["response_id"]))
    return {pid: [oracle[(pid, rid)] for _, rid in sorted(rows)]
            for pid, rows in sorted(rm.items())}


def _eta_parts(eta: float, n: int) -> tuple[int, float]:
    x = eta * n
    if abs(x - round(x)) <= 1e-9:
        x = float(round(x))
    return math.floor(x), x - math.floor(x)


def _n_grid(pool: int) -> list[int]:
    scale = pool ** (2.0 / 3.0)
    low = max(1, math.ceil(3.0 * scale - 1e-9))
    high = min(pool, math.floor(5.0 * scale + 1e-9))
    return list(range(low, high + 1))


def exact_reta(pools: dict[str, list[float]], etas: list[float]) -> dict[float, float]:
    """Expected value of the resampling RETA estimator, per eta.

    Pool rank r lands at subset rank k of a uniform n-subset with
    probability C(r-1, k-1) C(N-r, n-k) / C(N, n). The selection total is
    the oracle sum over the top c ranks plus delta^2 at rank c+1 and
    delta(1-delta) at rank c, where eta*n = c + delta.
    """
    pool = len(next(iter(pools.values())))
    comb = np.array([[float(math.comb(a, b)) for b in range(pool + 1)]
                     for a in range(pool + 1)])
    ranks = np.arange(1, pool + 1)
    scores = np.array(list(pools.values()))           # (prompts, N)
    totals = scores.sum(axis=1)
    grid = _n_grid(pool)
    sums = {eta: np.zeros(len(scores)) for eta in etas}
    for n in grid:
        k = np.arange(1, n + 1)[:, None]
        # math.comb(a, b) is 0 for b > a, which zeroes impossible placements
        weights = comb[ranks - 1, k - 1] * comb[pool - ranks, n - k] / comb[pool, n]
        cumulative = np.cumsum(weights, axis=0)
        for eta in etas:
            c, delta = _eta_parts(eta, n)  # eta < 1, so c < n
            coef = delta * delta * weights[c]
            if c >= 1:
                coef = coef + cumulative[c - 1] + delta * (1.0 - delta) * weights[c - 1]
            sums[eta] += pool * (scores @ coef) / ((c + delta) * totals)
    return {eta: float(np.mean(sums[eta] / len(grid))) for eta in etas}


def _mean_oracle(inputs: Path) -> float:
    pools: dict[str, list[float]] = {}
    for row in _jsonl(inputs / "responses.jsonl"):
        pools.setdefault(row["prompt_id"], []).append(row["oracle_score"])
    return math.fsum(math.fsum(p) / len(p) for p in pools.values()) / len(pools)


def _data_args(inputs: Path, scores: list[str]) -> list[str]:
    return ["--dataset", str(inputs), "--rm-scores", *[str(inputs / s) for s in scores],
            "--max-oracle-score", MAX_ORACLE_SCORE]


def _synth(cli, inputs: Path, seed: int, prompts: int, responses: int) -> int:
    inputs.mkdir(parents=True, exist_ok=True)
    spec = inputs.parent / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    return cli.main(["synth", "--spec", str(spec), "--num-prompts", str(prompts),
                     "--num-responses", str(responses), "--seed", str(seed),
                     "--rm-name", "synth", "--output-dir", str(inputs)])


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return Check(name, bool(ok), detail)


# --- paper_curve ----------------------------------------------------------------


class PaperCurve:
    """reta over the default eta grid with two threads, then bon and metrics."""

    name = "paper_curve"
    threads = PAPER_THREADS

    def build(self, seed: int, inputs: Path) -> list[int]:
        from retabench import cli
        return [_synth(cli, inputs, seed, PAPER_PROMPTS, PAPER_RESPONSES)]

    def commands(self, inputs: Path, out: Path, seed: int) -> list[Command]:
        common = _data_args(inputs, ["rm_scores.jsonl"]) + ["--seed", str(seed)]
        return [
            Command("reta", ["reta", *common, "--threads", str(PAPER_THREADS),
                             "--output-dir", str(out / "reta")], out / "reta"),
            Command("bon", ["bon", *common, "--variant", "best_m_of_n", "--best-m",
                            str(PAPER_BEST_M), "--output-dir", str(out / "bon")], out / "bon"),
            Command("metrics", ["metrics", *common, "--output-dir", str(out / "metrics")],
                    out / "metrics"),
        ]

    def check(self, inputs: Path, out: Path, seed: int) -> list[Check]:
        from retabench import DistSpec, analytic_reta

        rows = _csv_rows(out / "reta" / "reta_synth.csv")
        etas = [float(r["eta"]) for r in rows]
        values = {float(r["eta"]): float(r["value"]) for r in rows}
        errors = {float(r["eta"]): float(r["std_error"]) for r in rows}
        checks = [_check("reta_eta_one_exact", values.get(1.0) == 1.0 and errors.get(1.0) == 0.0,
                         f"value={values.get(1.0)!r} std_error={errors.get(1.0)!r}")]

        grid = _n_grid(PAPER_RESPONSES)
        reference = exact_reta(_pools(inputs, "rm_scores.jsonl"), [e for e in etas if e < 1.0])
        gap = max(abs(values[e] - reference[e]) for e in reference)
        grid_ok = all(int(r["n_low"]) == grid[0] and int(r["n_high"]) == grid[-1] for r in rows)
        checks.append(_check("reta_matches_exact_expectation",
                             len(rows) == 15 and grid_ok and gap <= EXACT_GAP_BOUND,
                             f"points={len(rows)} worst_gap={gap:.3g}"))

        spec = DistSpec.from_json(json.dumps(SPEC))
        ratios = [abs(values[e] - analytic_reta(spec, e)) / errors[e] for e in reference]
        checks.append(_check("reta_near_analytic_limit", max(ratios) <= ANALYTIC_SE_BOUND,
                             f"worst={max(ratios):.2f} std errors"))

        bon = {int(r["n"]): float(r["value"]) for r in _csv_rows(
            out / "bon" / f"bon_synth_best_{PAPER_BEST_M}_of_n.csv")}
        mean = _mean_oracle(inputs)
        at_m = bon.get(PAPER_BEST_M, math.nan)
        checks.append(_check("bon_best_m_at_n_equals_m_is_pool_mean",
                             abs(at_m - mean) <= 1e-9 * mean, f"{at_m!r} vs {mean!r}"))

        metric = _csv_rows(out / "metrics" / "metrics.csv")
        ranges_ok = len(metric) == 1 and all(
            0.0 <= float(v) <= 100.0 for k, v in metric[0].items() if k.startswith("hit_rate")
        ) and 0.0 < float(metric[0]["ndcg"]) <= 1.0 and 0.0 < float(metric[0]["mrr"]) <= 1.0 \
            and 50.0 < float(metric[0]["pairwise_accuracy"]) <= 100.0
        checks.append(_check("metrics_in_range", ranges_ok, json.dumps(metric)))
        return checks


# --- wide_pool ------------------------------------------------------------------


class WidePool:
    """Many prompts, small pools, three RM tables: dataset-heavy commands."""

    name = "wide_pool"
    threads = 1
    tables = ["rm_scores.jsonl", "oracle.jsonl", "random.jsonl"]

    def build(self, seed: int, inputs: Path) -> list[int]:
        from retabench import RmScoreTable, cli, load_benchmark, oracle_score_table, \
            write_rm_scores
        rc = _synth(cli, inputs, seed, WIDE_PROMPTS, WIDE_RESPONSES)
        if rc != 0:
            return [rc]
        dataset = load_benchmark(inputs, max_oracle_score=float(MAX_ORACLE_SCORE))
        write_rm_scores(oracle_score_table(dataset, "oracle"), inputs / "oracle.jsonl")
        pairs = sorted(dataset.iter_pairs())
        draws = np.random.default_rng([seed, 1]).standard_normal(len(pairs))
        random_rm = RmScoreTable("random", dict(zip(pairs, (float(x) for x in draws))))
        write_rm_scores(random_rm, inputs / "random.jsonl")
        return [rc]

    def commands(self, inputs: Path, out: Path, seed: int) -> list[Command]:
        every = _data_args(inputs, self.tables)
        seeded = every + ["--seed", str(seed)]

        def cmd(name, argv, data=seeded):
            return Command(name, [argv[0], *data, *argv[1:], "--output-dir", str(out / name)],
                           out / name)

        return [
            cmd("validate", ["validate"], every),
            cmd("metrics", ["metrics"]),
            cmd("bon", ["bon"]),
            cmd("bon_best_m", ["bon", "--variant", "best_m_of_n", "--best-m", str(WIDE_BEST_M)]),
            cmd("reta", ["reta", "--eta", str(WIDE_ETA), "--threads", "1"],
                _data_args(inputs, self.tables[:1]) + ["--seed", str(seed)]),
            cmd("export", ["export"]),
        ]

    def check(self, inputs: Path, out: Path, seed: int) -> list[Check]:
        report = json.loads((out / "validate" / "validation_report.json").read_text())
        checks = [_check("validate_ok", report["ok"] is True and not report["issues"],
                         json.dumps(report)[:200])]

        metric = {r["rm_name"]: r for r in _csv_rows(out / "metrics" / "metrics.csv")}
        oracle = metric.get("oracle", {})
        # a perfect model finds min(K, |truth|) of the oracle's top floor(eta*N)
        truth = math.floor(METRICS_ETA * WIDE_RESPONSES)
        perfect = all(abs(float(v) - 100.0 * min(int(k.rsplit("_", 1)[1]), truth) / truth) <= 1e-9
                      for k, v in oracle.items() if k.startswith("hit_rate")) and all(
            abs(float(oracle[k]) - want) <= 1e-12
            for k, want in (("ndcg", 1.0), ("mrr", 1.0), ("pairwise_accuracy", 100.0)))
        checks.append(_check("oracle_rm_metrics_perfect", perfect, json.dumps(oracle)))
        random_acc = float(metric.get("random", {}).get("pairwise_accuracy", "nan"))
        checks.append(_check("random_rm_pairwise_near_50",
                             abs(random_acc - 50.0) <= RANDOM_PAIRWISE_BOUND, f"{random_acc!r}"))

        mean = _mean_oracle(inputs)
        oracle_best = _csv_rows(out / "bon" / "bon_oracle_best_of_n.csv")
        top = math.fsum(max(p) for p in _pools(inputs, "oracle.jsonl").values()) / WIDE_PROMPTS
        ends_ok = all(
            abs(float(_csv_rows(out / "bon" / f"bon_{name}_best_of_n.csv")[0]["value"]) - mean)
            <= 1e-9 * mean for name in ("synth", "oracle", "random")
        ) and abs(float(oracle_best[-1]["value"]) - top) <= 1e-9 * top
        checks.append(_check("bon_endpoints", ends_ok, f"mean={mean!r} top={top!r}"))

        best_m = {r["rm_name"]: r for name in ("synth", "oracle", "random")
                  for r in _csv_rows(out / "bon_best_m" / f"bon_{name}_best_{WIDE_BEST_M}_of_n.csv")
                  if int(r["n"]) == WIDE_BEST_M}
        checks.append(_check("bon_best_m_at_n_equals_m_is_pool_mean",
                             len(best_m) == 3 and all(abs(float(r["value"]) - mean) <= 1e-9 * mean
                                                      for r in best_m.values()), ""))

        reta = _csv_rows(out / "reta" / "reta_synth.csv")
        reference = exact_reta(_pools(inputs, "rm_scores.jsonl"), [WIDE_ETA])[WIDE_ETA]
        gap = abs(float(reta[0]["value"]) - reference) if len(reta) == 1 else math.inf
        checks.append(_check("reta_matches_exact_expectation", gap <= EXACT_GAP_BOUND,
                             f"gap={gap:.3g}"))

        exported = [("prompts.jsonl", "prompts.jsonl"), ("responses.jsonl", "responses.jsonl")] + [
            (table, f"rm_scores_{name}.jsonl")
            for table, name in zip(self.tables, ("synth", "oracle", "random"))]
        same = all((inputs / src).read_bytes() == (out / "export" / dst).read_bytes()
                   for src, dst in exported)
        checks.append(_check("export_reproduces_inputs", same, ""))
        return checks


# --- dpp_select -----------------------------------------------------------------


class DppSelect:
    """k-DPP prompt selection over unit-norm random embeddings."""

    name = "dpp_select"
    threads = 1

    def build(self, seed: int, inputs: Path) -> list[int]:
        inputs.mkdir(parents=True, exist_ok=True)
        vectors = np.random.default_rng([seed, 2]).standard_normal((DPP_CANDIDATES, DPP_DIM))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        with open(inputs / "candidates.jsonl", "w", encoding="utf-8") as fh:
            for i, row in enumerate(vectors):
                fh.write(json.dumps({"prompt_id": f"c{i:04d}", "text": f"candidate {i}",
                                     "embedding": [float(x) for x in row]}) + "\n")
        return []

    def commands(self, inputs: Path, out: Path, seed: int) -> list[Command]:
        return [Command("sample_prompts", [
            "sample-prompts", "--candidates", str(inputs / "candidates.jsonl"),
            "--k", str(DPP_K), "--seed", str(seed),
            "--output-dir", str(out / "sample_prompts")], out / "sample_prompts")]

    def check(self, inputs: Path, out: Path, seed: int) -> list[Check]:
        candidates = {r["prompt_id"]: r["embedding"]
                      for r in _jsonl(inputs / "candidates.jsonl")}
        selected = (out / "sample_prompts" / "selected_prompts.txt").read_text().split()
        valid = len(selected) == DPP_K and len(set(selected)) == DPP_K and all(
            pid in candidates for pid in selected)
        sign, logdet = 0.0, -math.inf
        if valid:
            # the kernel is a positive multiple of the Gram matrix
            vectors = np.array([candidates[pid] for pid in selected])
            sign, logdet = np.linalg.slogdet(vectors @ vectors.T)
        return [
            _check("selection_is_k_distinct_known_ids", valid, " ".join(selected)),
            _check("kernel_submatrix_positive_determinant", sign > 0 and math.isfinite(logdet),
                   f"logdet={logdet!r}"),
        ]


WORKLOADS = {w.name: w for w in (PaperCurve(), WidePool(), DppSelect())}
