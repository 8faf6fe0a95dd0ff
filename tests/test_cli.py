"""Command-line behavior: outputs, exit codes, config handling, determinism."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retabench
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


@pytest.mark.parametrize("eta", ["nan", "0"])
def test_bad_eta_is_reported_before_the_n_grid(tmp_path, capsys, eta):
    # at N = 16 the default n range [3, 5] * N^(2/3) holds no subset size,
    # so checking the grid first would report EmptyNRange
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(DistSpec.deterministic_uniform(0.0, 1.0).to_json())
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--num-prompts", "4",
                 "--num-responses", "16", "--output-dir", str(data)]) == 0
    out = tmp_path / "out"
    code = main(["reta", "--dataset", str(data), "--rm-scores", str(data / "rm_scores.jsonl"),
                 "--eta", eta, "--output-dir", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "InvalidConfig"
    assert "eta must be in (0, 1]" in error["message"]
    assert not out.exists()


# Runs every command with any import of scipy failing: the package needs
# numpy only, and scipy stays a test dependency.
_WITHOUT_SCIPY = r"""
import json
import math
import sys
from pathlib import Path


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import retabench
from retabench.cli import main

root = Path(sys.argv[1])
spec = root / "spec.json"
spec.write_text(retabench.DistSpec.deterministic_uniform(1.0, 5.0).to_json())
assert retabench.analytic_reta(retabench.DistSpec.noisy_gaussian(0.5), 0.25) > 1.0
data = root / "data"
tables = ["--dataset", str(data), "--rm-scores", str(data / "rm_scores.jsonl")]
with open(root / "candidates.jsonl", "w", encoding="utf-8") as fh:
    for i in range(12):  # unit vectors spiralling over the sphere
        z = (i + 0.5) / 6.0 - 1.0
        r = math.sqrt(1.0 - z * z)
        fh.write(json.dumps({"prompt_id": f"c{i:02d}", "text": "t",
                             "embedding": [r * math.cos(2.4 * i), r * math.sin(2.4 * i), z]})
                 + "\n")
runs = [
    ["synth", "--spec", str(spec), "--num-prompts", "3", "--num-responses", "32",
     "--output-dir", str(data)],
    ["validate", *tables],
    ["reta", *tables, "--raw-variant", "--output-dir", str(root / "reta")],
    ["bon", *tables, "--variant", "best_m_of_n", "--best-m", "4",
     "--output-dir", str(root / "bon")],
    ["metrics", *tables, "--output-dir", str(root / "metrics")],
    ["export", *tables, "--output-dir", str(root / "export")],
    ["sample-prompts", "--candidates", str(root / "candidates.jsonl"), "--k", "3",
     "--output-dir", str(root / "sample")],
]
for argv in runs:
    assert main(argv) == 0, argv
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
print("ok")
"""


def test_commands_run_without_scipy(tmp_path):
    src = str(Path(retabench.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"


def _renamed_scores(synth_dir: Path, path: Path, rm_name: str) -> Path:
    """The synthetic score file with every record's rm_name set to ``rm_name``."""
    records = [json.loads(line) for line in
               (synth_dir / "rm_scores.jsonl").read_text(encoding="utf-8").splitlines()]
    write_jsonl(path, [{**record, "rm_name": rm_name} for record in records])
    return path


def _files_under(root: Path) -> set[Path]:
    return {path for path in root.rglob("*") if path.is_file()}


# per command, the files named after each rm_name; the first one holds the name
_RM_NAME_FILES = {
    "reta": ["reta_{}.csv", "reta_{}_per_prompt.csv"],
    "bon": ["bon_{}_best_of_n.csv"],
    "export": ["rm_scores_{}.jsonl"],
}


def _stored_rm_name(path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix == ".jsonl":
        return json.loads(lines[0])["rm_name"]
    return next(csv.reader(lines[2:]))[0]  # the first row after provenance and header


@pytest.mark.parametrize("command", sorted(_RM_NAME_FILES))
def test_rm_names_stay_inside_output_dir(synth_dir, tmp_path, command):
    names = {"../../../x": "..%2F..%2F..%2Fx", "org/model": "org%2Fmodel",
             "a\\b": "a%5Cb", "50%/x": "50%25%2Fx", "50%2Fx": "50%252Fx",
             "plain-rm": "plain-rm"}
    scores = [str(_renamed_scores(synth_dir, tmp_path / f"scores{i}.jsonl", name))
              for i, name in enumerate(names)]
    before = _files_under(tmp_path)
    out = tmp_path / "a" / "b" / "c" / "out"
    code = main([command, "--dataset", str(synth_dir), "--rm-scores", *scores,
                 "--output-dir", str(out)])
    assert code == 0
    written = _files_under(tmp_path) - before
    assert all(out in path.parents for path in written)
    for name, part in names.items():
        paths = [out / template.format(part) for template in _RM_NAME_FILES[command]]
        assert all(path.parent == out and path.is_file() for path in paths), paths
        assert _stored_rm_name(paths[0]) == name  # the contents keep the raw name


@pytest.mark.parametrize("command", sorted(_RM_NAME_FILES))
def test_nul_in_rm_name_exits_2_without_output(synth_dir, tmp_path, capsys, command):
    scores = _renamed_scores(synth_dir, tmp_path / "scores.jsonl", "a\u0000b")
    before = _files_under(tmp_path)
    out = tmp_path / "out"
    code = main([command, "--dataset", str(synth_dir), "--rm-scores", str(scores),
                 "--output-dir", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "MalformedRecord"
    assert error["message"] == "scores.jsonl:1: field 'rm_name': contains a NUL character"
    assert _files_under(tmp_path) == before and not out.exists()


@pytest.mark.parametrize("embeddings, k", [
    ([[1e-300, 1e-300], [1e-300, -1e-300]], 2),
    ([[1e300, 0.0], [0.0, 1e300]], 1),
], ids=["underflow", "overflow"])
def test_sample_prompts_extreme_scale_exits_2_without_output(tmp_path, capsys, embeddings, k):
    path = tmp_path / "candidates.jsonl"
    write_jsonl(path, [{"prompt_id": f"c{i}", "text": "x", "embedding": row}
                       for i, row in enumerate(embeddings)])
    out = tmp_path / "out"
    code = main(["sample-prompts", "--candidates", str(path), "--k", str(k),
                 "--output-dir", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "InvalidConfig"
    assert error["message"].startswith("embedding scale out of range")
    assert not out.exists()


def _command_argv(command: str, synth_dir: Path, tmp_path: Path) -> list[str]:
    """A run of ``command`` on small inputs, without --output-dir."""
    data = ["--dataset", str(synth_dir), "--rm-scores", str(synth_dir / "rm_scores.jsonl")]
    if command == "sample-prompts":
        cands = candidates_file(tmp_path / "candidates.jsonl", count=12, dim=4)
        return [command, "--candidates", str(cands), "--k", "3"]
    if command == "synth":
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(DistSpec.deterministic_uniform(0.0, 1.0).to_json())
        return [command, "--spec", str(spec_path), "--num-prompts", "2", "--num-responses", "4"]
    return [command, *data, *(["--eta", "0.5"] if command == "reta" else [])]


@pytest.mark.parametrize("command", ["sample-prompts", "synth", "validate", "reta", "bon",
                                     "metrics", "export"])
def test_each_command_commits_its_config_echo_and_no_staging_entry(
        synth_dir, tmp_path, command):
    out = tmp_path / "out"
    assert main([*_command_argv(command, synth_dir, tmp_path), "--output-dir", str(out)]) == 0
    names = sorted(path.name for path in out.iterdir())
    echo = f"{command.replace('-', '_')}_config.json"
    assert echo in names and not [name for name in names if name.startswith(".")], names
    assert "output_dir" not in json.loads((out / echo).read_text())


def test_validate_commits_a_failing_report(synth_dir, tmp_path, monkeypatch):
    failing = retabench.ValidationReport([retabench.ValidationIssue("error", "here", "bad")])
    monkeypatch.setattr("retabench.cli.validate_dataset", lambda *args, **kwargs: failing)
    out = tmp_path / "out"
    assert main([*_command_argv("validate", synth_dir, tmp_path), "--output-dir", str(out)]) == 2
    assert json.loads((out / "validation_report.json").read_text())["ok"] is False
    assert sorted(path.name for path in out.iterdir()) == [
        "validate_config.json", "validation_report.json"]


@pytest.mark.parametrize("command", sorted(_RM_NAME_FILES))
def test_failed_write_leaves_output_dir_as_it_was(synth_dir, tmp_path, capsys, command):
    # a 300-character rm_name is a file name past the usual 255-byte limit,
    # so the command fails after it has written some files
    scores = _renamed_scores(synth_dir, tmp_path / "scores.jsonl", "x" * 300)
    argv = [command, "--dataset", str(synth_dir), "--rm-scores", str(scores)]
    fresh = tmp_path / "fresh" / "out"
    assert main([*argv, "--output-dir", str(fresh)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "OSError"
    assert not (tmp_path / "fresh").exists()

    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "notes.txt").write_text("kept\n")
    assert main([*argv, "--output-dir", str(existing)]) == 2
    assert [path.name for path in existing.iterdir()] == ["notes.txt"]
    assert (existing / "notes.txt").read_text() == "kept\n"
