"""Command-line behavior: outputs, exit codes, config handling, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from retabench import DistSpec, load_benchmark, ingest_rm_scores
from retabench.cli import main

from conftest import write_jsonl


@pytest.fixture
def synth_dir(tmp_path: Path) -> Path:
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(DistSpec.deterministic_uniform(0.0, 1.0).to_json())
    data = tmp_path / "data"
    code = main(["synth", "--spec", str(spec_path), "--num-prompts", "5",
                 "--num-responses", "32", "--seed", "9", "--output-dir", str(data)])
    assert code == 0
    return data


def candidates_file(path: Path, count: int = 40, dim: int = 8, seed: int = 0) -> Path:
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((count, dim))
    write_jsonl(path, [
        {"prompt_id": f"c{i:03d}", "text": f"candidate {i}", "embedding": list(matrix[i])}
        for i in range(count)
    ])
    return path


def read_all_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def test_synth_output_loads(synth_dir):
    dataset = load_benchmark(synth_dir)
    assert dataset.num_prompts == 5
    assert dataset.responses_per_prompt == 32
    table = ingest_rm_scores(dataset, synth_dir / "rm_scores.jsonl")
    assert table.rm_name == "synthetic-rm"


def test_validate_command(synth_dir, tmp_path, capsys):
    code = main(["validate", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_reta_eta_one_rows(synth_dir, tmp_path):
    out = tmp_path / "out"
    code = main(["reta", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 "--eta", "1.0", "--seed", "9", "--output-dir", str(out)])
    assert code == 0
    lines = (out / "reta_synthetic-rm.csv").read_text().splitlines()
    assert len(lines) == 3  # provenance, header, one row
    fields = lines[2].split(",")
    assert fields[1] == "1.0" and fields[2] == "1.0" and fields[3] == "0.0"


def test_reta_default_grid_and_raw_variant(synth_dir, tmp_path):
    out = tmp_path / "out"
    code = main(["reta", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 "--seed", "9", "--raw-variant",
                 "--output-dir", str(out)])
    assert code == 0
    curve = (out / "reta_synthetic-rm.csv").read_text().splitlines()
    assert len(curve) == 2 + 15
    assert (out / "reta_synthetic-rm_unnormalized.csv").is_file()
    per_prompt = (out / "reta_synthetic-rm_per_prompt.csv").read_text().splitlines()
    assert len(per_prompt) == 2 + 15 * 5


def test_reta_missing_score_exits_2(synth_dir, tmp_path, capsys):
    partial = tmp_path / "partial.jsonl"
    lines = (synth_dir / "rm_scores.jsonl").read_text().splitlines()
    partial.write_text("\n".join(lines[:-1]) + "\n")
    code = main(["reta", "--dataset", str(synth_dir), "--rm-scores", str(partial),
                 "--eta", "1.0", "--output-dir", str(tmp_path / "x")])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "MissingScore"


def test_bon_command(synth_dir, tmp_path):
    out = tmp_path / "out"
    code = main(["bon", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 "--variant", "rank_k_of_n", "--rank-k", "2",
                 "--output-dir", str(out)])
    assert code == 0
    lines = (out / "bon_synthetic-rm_rank_2_of_n.csv").read_text().splitlines()
    assert lines[1] == "rm_name,variant,n,kl,value,std_error"
    assert len(lines) == 2 + 5  # n in {2, 4, 8, 16, 32}


def test_metrics_command_oracle_anchor(synth_dir, tmp_path):
    # the uniform synthetic model scores equal oracle scores
    out = tmp_path / "out"
    code = main(["metrics", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 "--eta", "0.25", "--output-dir", str(out)])
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[2].startswith("synthetic-rm,50.0,100.0,100.0,1.0,1.0,1,100.0")


def test_sample_prompts_command(tmp_path):
    cands = candidates_file(tmp_path / "candidates.jsonl")
    out = tmp_path / "out"
    code = main(["sample-prompts", "--candidates", str(cands), "--k", "5",
                 "--seed", "3", "--output-dir", str(out)])
    assert code == 0
    ids = (out / "selected_prompts.txt").read_text().split()
    assert len(ids) == len(set(ids)) == 5
    provenance = json.loads((out / "sample_provenance.json").read_text())
    assert provenance["seed"] == 3 and provenance["k"] == 5
    assert provenance["lambda"] > 0


def test_sample_prompts_all_candidates(tmp_path):
    cands = candidates_file(tmp_path / "candidates.jsonl", count=12, dim=12)
    out = tmp_path / "out"
    code = main(["sample-prompts", "--candidates", str(cands), "--k", "12",
                 "--seed", "0", "--output-dir", str(out)])
    assert code == 0
    ids = (out / "selected_prompts.txt").read_text().split()
    assert len(ids) == 12


def test_sample_prompts_rank_deficient_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(4)
    matrix = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 9))
    path = tmp_path / "lowrank.jsonl"
    write_jsonl(path, [
        {"prompt_id": f"c{i:03d}", "text": "x", "embedding": list(matrix[i])}
        for i in range(20)
    ])
    code = main(["sample-prompts", "--candidates", str(path), "--k", "10",
                 "--seed", "0", "--output-dir", str(tmp_path / "out")])
    assert code == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "DegenerateInit"


def test_config_file_overrides_flags(synth_dir, tmp_path):
    config_path = tmp_path / "override.json"
    config_path.write_text(json.dumps({"eta": [1.0]}))
    out = tmp_path / "out"
    # flag says 0.5; config file wins with eta = 1.0
    code = main(["reta", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 "--eta", "0.5", "--config", str(config_path),
                 "--output-dir", str(out)])
    assert code == 0
    rows = (out / "reta_synthetic-rm.csv").read_text().splitlines()
    assert rows[2].split(",")[1] == "1.0"
    echoed = json.loads((out / "reta_config.json").read_text())
    assert echoed["eta"] == [1.0]


def test_config_file_unknown_key_exits_2(synth_dir, tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"no_such_option": True}))
    code = main(["reta", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 "--config", str(config_path), "--output-dir", str(tmp_path / "x")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"


def test_export_round_trip(synth_dir, tmp_path):
    out = tmp_path / "exported"
    code = main(["export", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 "--output-dir", str(out)])
    assert code == 0
    original = load_benchmark(synth_dir)
    rewritten = load_benchmark(out, name=original.name)
    assert rewritten == original
    table = ingest_rm_scores(rewritten, out / "rm_scores_synthetic-rm.jsonl")
    assert table == ingest_rm_scores(original, synth_dir / "rm_scores.jsonl")


def test_command_reruns_are_byte_identical(synth_dir, tmp_path):
    args_template = ["reta", "--dataset", str(synth_dir),
                     "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                     "--eta", "0.5", "--eta", "0.25", "--seed", "4"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args_template + ["--output-dir", str(out_a)]) == 0
    assert main(args_template + ["--output-dir", str(out_b)]) == 0
    bytes_a, bytes_b = read_all_bytes(out_a), read_all_bytes(out_b)
    assert set(bytes_a) == set(bytes_b)
    for name in bytes_a:
        assert bytes_a[name] == bytes_b[name], name


def test_threads_do_not_change_output(synth_dir, tmp_path):
    base = ["reta", "--dataset", str(synth_dir),
            "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
            "--eta", "0.25", "--seed", "4"]
    out_1, out_4 = tmp_path / "t1", tmp_path / "t4"
    assert main(base + ["--threads", "1", "--output-dir", str(out_1)]) == 0
    assert main(base + ["--threads", "4", "--output-dir", str(out_4)]) == 0
    assert (out_1 / "reta_synthetic-rm.csv").read_bytes() == \
        (out_4 / "reta_synthetic-rm.csv").read_bytes()


def run_with_config(synth_dir, tmp_path, overrides, command):
    config_path = tmp_path / "override.json"
    config_path.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    code = main([command, "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 "--config", str(config_path), "--output-dir", str(out)])
    return code, out


@pytest.mark.parametrize("command, overrides", [
    ("reta", {"eta": 0.25}),
    ("reta", {"threads": "4"}),
    ("bon", {"best_m": "4"}),
])
def test_config_file_wrong_type_exits_2(synth_dir, tmp_path, capsys, command, overrides):
    code, out = run_with_config(synth_dir, tmp_path, overrides, command)
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--eta", "0.5", "--threads", "0"],
    ["--eta", "0.5", "--eta", "0.9"],  # grid not decreasing
    ["--eta", "0.5", "--n-low-coeff", "nan"],
    ["--eta", "0.5", "--n-high-coeff", "inf"],
], ids=["threads-0", "rising-eta-grid", "nan-low-coeff", "inf-high-coeff"])
def test_bad_reta_flags_exit_2_without_output(synth_dir, tmp_path, capsys, flags):
    out = tmp_path / "out"
    code = main(["reta", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 *flags, "--output-dir", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
    assert not out.exists()


def test_reta_overflowed_n_range(synth_dir, tmp_path, capsys):
    # 1e308 * N**(2/3) overflows to inf: a high end clips to N, a low end
    # leaves no subset sizes
    base = ["reta", "--dataset", str(synth_dir),
            "--rm-scores", str(synth_dir / "rm_scores.jsonl"), "--eta", "0.5"]
    out = tmp_path / "out"
    assert main([*base, "--n-high-coeff", "1e308", "--output-dir", str(out)]) == 0
    row = (out / "reta_synthetic-rm.csv").read_text().splitlines()[2].split(",")
    assert row[5] == "32"  # n_high clipped to N
    empty = tmp_path / "empty"
    code = main([*base, "--n-low-coeff", "1e308", "--n-high-coeff", "1e308",
                 "--output-dir", str(empty)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "EmptyNRange"
    assert not empty.exists()


def test_synth_negative_seed_exits_2_without_output(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(DistSpec.deterministic_uniform(0.0, 1.0).to_json())
    out = tmp_path / "data"
    code = main(["synth", "--spec", str(spec_path), "--num-prompts", "2",
                 "--num-responses", "4", "--seed", "-1", "--output-dir", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
    assert not out.exists()


def test_unwritable_output_dir_exits_2(synth_dir, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code = main(["reta", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 "--eta", "0.5", "--output-dir", str(blocker / "out")])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] in ("FileExistsError", "NotADirectoryError")
    assert str(blocker) in error["message"]


@pytest.mark.parametrize("command", ["validate", "reta", "bon", "metrics", "export"])
def test_bad_max_oracle_score_exits_2_without_output(synth_dir, tmp_path, capsys, command):
    for value in ("nan", "inf", "0"):
        out = tmp_path / f"out-{value}"
        code = main([command, "--dataset", str(synth_dir),
                     "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                     "--max-oracle-score", value, "--output-dir", str(out)])
        assert code == 2, value
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
        assert not out.exists()


def _corrupt_copy(synth_dir: Path, tmp_path: Path, name: str, line: bytes) -> Path:
    """A copy of the synthetic dataset whose file ``name`` gains ``line`` after line 1."""
    data = tmp_path / "corrupt"
    data.mkdir()
    for path in synth_dir.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    first, rest = (data / name).read_bytes().split(b"\n", 1)
    (data / name).write_bytes(first + b"\n" + line + b"\n" + rest)
    return data


@pytest.mark.parametrize("name, line", [
    ("rm_scores.jsonl",
     b'{"prompt_id": "p0000", "response_id": "r001", "rm_name": "synthetic-rm", "score": '
     + b"9" * 401 + b"}"),
    ("responses.jsonl",
     b'{"prompt_id": "p0000", "response_id": "r999", "oracle_score": ' + b"9" * 5001 + b"}"),
    ("prompts.jsonl", b'{"prompt_id": "p\xff", "text": "t"}'),
], ids=["401-digit-score", "5001-digit-oracle-score", "byte-0xff"])
def test_unreadable_input_line_exits_2_without_output(synth_dir, tmp_path, capsys, name, line):
    data = _corrupt_copy(synth_dir, tmp_path, name, line)
    out = tmp_path / "out"
    code = main(["reta", "--dataset", str(data), "--rm-scores", str(data / "rm_scores.jsonl"),
                 "--eta", "0.5", "--output-dir", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "MalformedRecord"
    assert error["message"].startswith(f"{name}:2: ")
    assert not out.exists()


@pytest.mark.parametrize("content", [
    b'{"seed": ' + b"9" * 5001 + b"}",
    b'{"max_oracle_score": ' + b"9" * 401 + b"}",
    b'{"seed": 1}\xff',
], ids=["5001-digit-int", "401-digit-float", "byte-0xff"])
def test_unreadable_config_file_exits_2_without_output(synth_dir, tmp_path, capsys, content):
    config_path = tmp_path / "override.json"
    config_path.write_bytes(content)
    out = tmp_path / "out"
    code = main(["reta", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"), "--eta", "0.5",
                 "--config", str(config_path), "--output-dir", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
    assert not out.exists()


@pytest.mark.parametrize("content", [
    b"{",
    b'{"kind": "noisy_gaussian", "params": 5}',
    b'{"kind": "noisy_gaussian", "params": null}',
    b'{"kind": "noisy_gaussian", "params": {"rho": "x", "offset": 7.0}}',
    b'{"kind": "noisy_gaussian", "params": {"rho": 0.5, "offset": ' + b"9" * 401 + b"}}",
    b'{"kind": "independent", "params": {"low": 0, "high": ' + b"9" * 5001 + b"}}",
    b'{"kind": "independent", "params": {"low": true, "high": 2.0}}',
    b'{"kind": "custom_table", "params": {"atoms": [5]}}',
    b'{"kind": "custom_table", "params": {"atoms": [[1.0, "x", 1.0]]}}',
    b'{"kind": "independent", "params": {"low": 0.0, "high": 1.0}}\xff',
], ids=["truncated", "params-int", "params-null", "rho-string", "offset-401-digits",
        "high-5001-digits", "low-bool", "atom-int", "atom-string", "byte-0xff"])
def test_bad_spec_exits_2_without_output(tmp_path, capsys, content):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(content)
    out = tmp_path / "out"
    code = main(["synth", "--spec", str(spec_path), "--num-prompts", "2",
                 "--num-responses", "4", "--output-dir", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
    assert not out.exists()
