"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import retabench as rb
from retabench.cli import main as cli_main
from retabench.ranking import _eta_parts, oracle_matrix

from conftest import bon_at, build_table, one_prompt, prompt_subset, reta_at, write_jsonl
from test_bon import brute_force_best_m, brute_force_rank_k


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_analytic_limit_convergence():
    spec = rb.DistSpec.deterministic_uniform(0.0, 1.0)
    start = time.monotonic()
    dataset, table = rb.gen_synthetic(spec, 100, 256, seed=12345)
    estimate = rb.reta_estimate(dataset, table, 0.25, rb.RetaConfig())
    elapsed = time.monotonic() - start
    error = abs(estimate.value - 1.75)
    report("criterion 1 (limit convergence)",
           error <= 0.02 and elapsed <= 60.0,
           f"|{estimate.value:.6f} - 1.75| = {error:.6f} <= 0.02, {elapsed:.1f}s <= 60s")


def test_c02_random_baseline():
    spec = rb.DistSpec.independent(1.0, 9.0)
    dataset, table = rb.gen_synthetic(spec, 32, 256, seed=2024)
    gaps = []
    ok = True
    for eta in (0.5, 0.25, 0.125):
        estimate = rb.reta_estimate(dataset, table, eta, rb.RetaConfig())
        gap = abs(estimate.value - 1.0)
        gaps.append(f"eta={eta}: |{estimate.value:.5f}-1| = {gap:.5f} "
                    f"vs 3se = {3 * estimate.std_error:.5f}")
        ok = ok and gap <= 3.0 * estimate.std_error
    report("criterion 2 (random baseline)", ok, "; ".join(gaps))


def test_c03_estimator_exactness():
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    full_pool = empty_floor = 0
    for size in range(2, 9):
        pool = one_prompt(rng.uniform(0.5, 9.5, size=size), rng.standard_normal(size))
        [by_rank] = oracle_matrix(*pool)
        for n in range(1, size + 1):
            for eta in (0.1, 0.2, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0):
                fast = reta_at(*pool, eta, n)
                slow = rb.exhaustive_reta(by_rank, eta, n)
                worst = max(worst, abs(fast - slow))
                checked += 1
                full_pool += n == size
                empty_floor += _eta_parts(eta, n)[0] == 0
    report("criterion 3 (estimator exactness)",
           worst <= 1e-12 and full_pool > 0 and empty_floor > 0,
           f"{checked} (N, n, eta) cases ({full_pool} with n = N, {empty_floor} with "
           f"floor(eta*n) = 0), worst |exact - exhaustive| = {worst:.2e}")


def test_c04_eta_one_identity():
    specs = [
        rb.DistSpec.deterministic_uniform(0.0, 1.0),
        rb.DistSpec.independent(1.0, 9.0),
        rb.DistSpec.noisy_gaussian(0.7, 7.0),
        rb.DistSpec.custom_table([(0.0, 1.0, 0.5), (1.0, 3.0, 0.5)]),
    ]
    ok = True
    for i, spec in enumerate(specs):
        dataset, table = rb.gen_synthetic(spec, 6, 32, seed=40 + i)
        estimate = rb.reta_estimate(dataset, table, 1.0, rb.RetaConfig())
        ok = ok and estimate.value == 1.0 and estimate.std_error == 0.0
    report("criterion 4 (eta=1 identity)", ok,
           f"{len(specs)} datasets: value == 1.0 and std_error == 0.0 exactly")


def test_c05_bon_family_exactness():
    rng = np.random.default_rng(55)
    worst_estimate = 0.0
    worst_weight_sum = 0.0
    worst_vandermonde = 0.0
    for size in (4, 7, 10):
        rm = rng.standard_normal(size)
        pool = one_prompt(rng.uniform(0.5, 9.5, size=size), rm)
        # a pool of equal oracle scores reads each rank-k row's weight sum
        flat = one_prompt(np.ones(size), rm)
        by_rank = oracle_matrix(*pool)[0].tolist()
        for n in range(1, size + 1):
            worst_estimate = max(worst_estimate, abs(
                bon_at(*pool, rb.BonVariant("best_of_n"), n) - brute_force_rank_k(by_rank, 1, n)))
            rank_values = []
            for k in range(1, n + 1):
                rank_values.append(bon_at(*pool, rb.BonVariant("rank_k_of_n", k), n))
                worst_estimate = max(worst_estimate, abs(
                    rank_values[-1] - brute_force_rank_k(by_rank, k, n)))
                worst_weight_sum = max(worst_weight_sum, abs(
                    bon_at(*flat, rb.BonVariant("rank_k_of_n", k), n) - 1.0))
            for m in range(1, n + 1):
                worst_estimate = max(worst_estimate, abs(
                    bon_at(*pool, rb.BonVariant("best_m_of_n", m), n)
                    - brute_force_best_m(by_rank, m, n)))
            # each pool item appears in a uniform n-subset with probability
            # n/N, so the n subset ranks together read n times the pool mean
            worst_vandermonde = max(worst_vandermonde, abs(
                math.fsum(rank_values) - n * math.fsum(by_rank) / size))
    ok = (worst_estimate <= 1e-12 and worst_weight_sum <= 1e-12
          and worst_vandermonde <= 1e-12)
    report("criterion 5 (bon family exactness)", ok,
           f"vs brute force {worst_estimate:.2e}; weight sums {worst_weight_sum:.2e}; "
           f"cover identity {worst_vandermonde:.2e} (all <= 1e-12)")


def test_c06_oracle_metric_anchors():
    spec = rb.DistSpec.deterministic_uniform(0.0, 1.0)
    dataset, _ = rb.gen_synthetic(spec, 6, 256, seed=88)
    oracle = rb.oracle_score_table(dataset)
    rep = rb.metric_report(dataset, oracle, eta=0.25)
    ok = (rep.hit_rate[32] == 50.0 and rep.hit_rate[64] == 100.0
          and rep.hit_rate[128] == 100.0 and rep.ndcg == 1.0 and rep.mrr == 1.0)
    report("criterion 6 (oracle anchors)", ok,
           f"HR@32={rep.hit_rate[32]}, HR@64={rep.hit_rate[64]}, "
           f"HR@128={rep.hit_rate[128]}, NDCG={rep.ndcg}, MRR={rep.mrr}")


def test_c07_monotone_transform_and_scale_invariance():
    spec = rb.DistSpec.noisy_gaussian(0.6, 7.0)
    dataset, table = rb.gen_synthetic(spec, 8, 64, seed=17)
    config = rb.RetaConfig()
    base_reta = rb.reta_estimate(dataset, table, 0.25, config)
    base_bon = [bon_at(*prompt_subset(dataset, table, [pid]), rb.BonVariant("best_of_n"), 8)
                for pid in dataset.prompt_ids()]
    base_metrics = rb.metric_report(dataset, table, eta=0.25)

    bit_identical = True
    for transform in (lambda y: 2.0 * y + 7.0, math.exp, math.atan):
        mapped = build_table({
            pid: [transform(table.scores[(pid, r.response_id)])
                  for r in dataset.responses[pid]]
            for pid in dataset.prompt_ids()
        }, rm_name=table.rm_name)
        moved_reta = rb.reta_estimate(dataset, mapped, 0.25, config)
        bit_identical = bit_identical and (
            moved_reta.value == base_reta.value
            and moved_reta.per_prompt == base_reta.per_prompt
            and moved_reta.std_error == base_reta.std_error)
        moved_bon = [bon_at(*prompt_subset(dataset, mapped, [pid]), rb.BonVariant("best_of_n"), 8)
                     for pid in dataset.prompt_ids()]
        bit_identical = bit_identical and moved_bon == base_bon
        moved_metrics = rb.metric_report(dataset, mapped, eta=0.25)
        bit_identical = bit_identical and (
            moved_metrics.hit_rate == base_metrics.hit_rate
            and moved_metrics.mrr == base_metrics.mrr
            and moved_metrics.ndcg == base_metrics.ndcg
            and moved_metrics.pairwise_accuracy == base_metrics.pairwise_accuracy)

    scale_worst = 0.0
    first = dataset.prompt_ids()[0]
    for c in (0.5, 3.0):
        scaled = rb.BenchmarkDataset(
            name=dataset.name,
            prompts=dataset.prompts,
            responses={
                pid: ([type(r)(r.prompt_id, r.response_id, c * r.oracle_score)
                       for r in rows] if pid == first else rows)
                for pid, rows in dataset.responses.items()
            },
            responses_per_prompt=dataset.responses_per_prompt,
        )
        moved = rb.reta_estimate(scaled, table, 0.25, config)
        scale_worst = max(scale_worst,
                          abs(moved.per_prompt[first] - base_reta.per_prompt[first]))
    ok = bit_identical and scale_worst <= 1e-12
    report("criterion 7 (invariances)", ok,
           f"bit-identical under 2y+7/exp/atan: {bit_identical}; "
           f"normalizer scale drift {scale_worst:.2e} <= 1e-12")


def test_c08_oracle_dominance():
    ok = True
    worst = math.inf
    for rho in (0.3, 0.7, 0.95):
        spec = rb.DistSpec.noisy_gaussian(rho, 7.0)
        dataset, rm_table = rb.gen_synthetic(spec, 16, 64, seed=99)
        oracle = rb.oracle_score_table(dataset)
        for eta in (0.5, 0.25, 0.125):
            config = rb.RetaConfig()
            top = rb.reta_estimate(dataset, oracle, eta, config)
            tested = rb.reta_estimate(dataset, rm_table, eta, config)
            margins = [top.per_prompt[p] - tested.per_prompt[p]
                       for p in dataset.prompt_ids()]
            worst = min(worst, min(margins))
            ok = ok and min(margins) >= 0.0
    report("criterion 8 (oracle dominance)", ok,
           f"min per-prompt (oracle - rm) margin over rho x eta grid = {worst:.5f} >= 0")


def _orthonormal_records(count: int):
    return [rb.PromptRecord(f"o{i}", "t", tuple(1.0 if j == i else 0.0
                                                for j in range(count)))
            for i in range(count)]


def _mean_abs_cosine(model, subset) -> float:
    """Mean |cosine similarity| over the distinct pairs of ``subset``."""
    rows = model.embeddings[sorted(subset)]
    unit = rows / np.linalg.norm(rows, axis=1)[:, None]
    cosine = np.abs(unit @ unit.T)
    return float((cosine.sum() - np.trace(cosine)) / (len(subset) * (len(subset) - 1)))


def test_c09_dpp_properties():
    # duplicate-embedding exclusion over 1000 seeded samples
    dup_model = rb.build_dpp([
        rb.PromptRecord("a", "t", (1.0, 0.0)),
        rb.PromptRecord("b", "t", (1.0, 0.0)),
        rb.PromptRecord("c", "t", (0.0, 1.0)),
    ])
    duplicates = sum(
        1 for seed in range(1000)
        if rb.sample_kdpp(dup_model, rb.DppSampleConfig(k=2, seed=seed)) == [0, 1])

    # uniformity over all 15 pairs of 6 orthonormal candidates, 2000 samples
    orth_model = rb.build_dpp(_orthonormal_records(6))
    counts = collections.Counter(
        tuple(rb.sample_kdpp(orth_model, rb.DppSampleConfig(k=2, seed=seed)))
        for seed in range(2000))
    total_subsets = math.comb(6, 2)
    expected = 2000 / total_subsets
    sigma = math.sqrt(2000 * (1 / total_subsets) * (1 - 1 / total_subsets))
    max_dev = max(abs(counts.get(pair, 0) - expected) / sigma
                  for pair in itertools.combinations(range(6), 2))
    chi_stat = sum((counts.get(pair, 0) - expected) ** 2 / expected
                   for pair in itertools.combinations(range(6), 2))
    chi_bound = float(chi2.isf(6.3e-5, total_subsets - 1))  # ~4-sigma significance

    # diversity against uniform sampling on a 3-cluster embedding set
    rng = np.random.default_rng(404)
    dim, per_cluster = 9, 6
    centers = np.zeros((3, dim))
    centers[0, 0] = centers[1, 1] = centers[2, 2] = 1.0
    matrix = np.vstack([c + 0.08 * rng.standard_normal((per_cluster, dim))
                        for c in centers])
    cluster_model = rb.build_dpp([
        rb.PromptRecord(f"c{i:02d}", "t", tuple(matrix[i])) for i in range(18)])
    dpp_mean = np.mean([
        _mean_abs_cosine(cluster_model,
                         rb.sample_kdpp(cluster_model, rb.DppSampleConfig(k=6, seed=s)))
        for s in range(500)])
    uniform_mean = np.mean([
        _mean_abs_cosine(cluster_model, [
            int(i) for i in np.random.Generator(
                np.random.Philox(np.random.SeedSequence([s, 1]))
            ).choice(18, 6, replace=False)])
        for s in range(500)])

    ok = (duplicates == 0 and max_dev <= 4.0 and chi_stat <= chi_bound
          and dpp_mean <= uniform_mean)
    report("criterion 9 (dpp)", ok,
           f"duplicate pair emitted {duplicates}/1000; uniformity max |dev| "
           f"{max_dev:.2f}sigma <= 4, chi2 {chi_stat:.1f} <= {chi_bound:.1f}; "
           f"diversity {dpp_mean:.4f} <= uniform {uniform_mean:.4f}")


def _run_twice(args: list[str], out_a: Path, out_b: Path) -> bool:
    assert cli_main(args + ["--output-dir", str(out_a)]) == 0
    assert cli_main(args + ["--output-dir", str(out_b)]) == 0
    files_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir()) if p.is_file()}
    files_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir()) if p.is_file()}
    return files_a == files_b


def test_c10_cli_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(rb.DistSpec.deterministic_uniform(0.0, 1.0).to_json())
    data = tmp_path / "data"
    assert cli_main(["synth", "--spec", str(spec_path), "--num-prompts", "6",
                     "--num-responses", "32", "--seed", "3",
                     "--output-dir", str(data)]) == 0
    scores = str(data / "rm_scores.jsonl")

    rng = np.random.default_rng(6)
    emb = rng.standard_normal((30, 8))
    cands = tmp_path / "candidates.jsonl"
    write_jsonl(cands, [
        {"prompt_id": f"c{i:03d}", "text": "x", "embedding": list(emb[i])}
        for i in range(30)
    ])

    checks = {}
    checks["synth"] = _run_twice(
        ["synth", "--spec", str(spec_path), "--num-prompts", "6",
         "--num-responses", "32", "--seed", "3"],
        tmp_path / "s1", tmp_path / "s2")
    checks["sample-prompts"] = _run_twice(
        ["sample-prompts", "--candidates", str(cands), "--k", "5", "--seed", "2"],
        tmp_path / "sp1", tmp_path / "sp2")
    checks["validate"] = _run_twice(
        ["validate", "--dataset", str(data), "--rm-scores", scores],
        tmp_path / "v1", tmp_path / "v2")
    reta_args = ["reta", "--dataset", str(data), "--rm-scores", scores,
                 "--eta", "0.5", "--eta", "0.25", "--seed", "4"]
    checks["reta"] = _run_twice(reta_args, tmp_path / "r1", tmp_path / "r2")
    checks["bon"] = _run_twice(
        ["bon", "--dataset", str(data), "--rm-scores", scores,
         "--variant", "best_m_of_n", "--best-m", "4"],
        tmp_path / "b1", tmp_path / "b2")
    checks["metrics"] = _run_twice(
        ["metrics", "--dataset", str(data), "--rm-scores", scores],
        tmp_path / "m1", tmp_path / "m2")
    checks["export"] = _run_twice(
        ["export", "--dataset", str(data), "--rm-scores", scores],
        tmp_path / "e1", tmp_path / "e2")

    assert cli_main(reta_args + ["--threads", "1", "--output-dir",
                                 str(tmp_path / "th1")]) == 0
    assert cli_main(reta_args + ["--threads", "4", "--output-dir",
                                 str(tmp_path / "th4")]) == 0
    thread_files_equal = all(
        (tmp_path / "th1" / p.name).read_bytes() == p.read_bytes()
        for p in sorted((tmp_path / "th4").iterdir()))
    checks["reta-threads"] = thread_files_equal

    ok = all(checks.values())
    report("criterion 10 (cli determinism)", ok,
           "byte-identical reruns: " + ", ".join(
               f"{name}={'yes' if good else 'NO'}" for name, good in checks.items()))


def test_c11_kl_column(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(rb.DistSpec.deterministic_uniform(0.0, 1.0).to_json())
    data = tmp_path / "data"
    assert cli_main(["synth", "--spec", str(spec_path), "--num-prompts", "3",
                     "--num-responses", "64", "--seed", "1",
                     "--output-dir", str(data)]) == 0
    out = tmp_path / "bon"
    assert cli_main(["bon", "--dataset", str(data),
                     "--rm-scores", str(data / "rm_scores.jsonl"),
                     "--output-dir", str(out)]) == 0
    worst = 0.0
    rows = 0
    for line in (out / "bon_synthetic-rm_best_of_n.csv").read_text().splitlines()[2:]:
        fields = line.split(",")
        n = int(fields[2])
        kl = float(fields[3])
        worst = max(worst, abs(kl - (math.log(n) - (n - 1) / n)))
        rows += 1
    report("criterion 11 (kl column)", rows == 7 and worst <= 1e-12,
           f"{rows} rows, worst |kl - (log n - (n-1)/n)| = {worst:.2e} <= 1e-12")
