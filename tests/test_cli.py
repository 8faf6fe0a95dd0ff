"""Command-line behavior: outputs, exit codes, config handling, determinism."""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retabench
from retabench import (
    BenchmarkDataset,
    DistSpec,
    PromptRecord,
    ResponseRecord,
    RmScoreTable,
    ingest_rm_scores,
    load_benchmark,
    oracle_score_table,
    write_benchmark,
    write_rm_scores,
)
from retabench import bon as bon_module
from retabench import dataset as dataset_module
from retabench import reta as reta_module
from retabench.cli import build_parser, main
from retabench.errors import ComputationError

from conftest import write_dataset_dir, write_jsonl


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


COMMANDS = ["sample-prompts", "synth", "validate", "reta", "bon", "metrics", "export"]


def parser_exit(parser, argv, capsys):
    """(exit code, stdout, stderr) of ``parser`` on ``argv``, which must end it."""
    with pytest.raises(SystemExit) as exited:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exited.value.code, captured.out, captured.err


def subparsers(parser):
    """The command names ``parser`` holds, each with its subparser."""
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", COMMANDS)
def test_invoked_command_parser_speaks_as_the_full_parser(command, capsys, monkeypatch):
    # only the invoked command's subparser is built, and its help and its
    # missing-flag error are the full parser's, byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    assert list(subparsers(build_parser([command]))) == [command]
    for argv, expected_code in (([command, "--help"], 0), ([command], 2)):
        code, out, err = parser_exit(build_parser(argv), argv, capsys)
        assert (code, out, err) == parser_exit(build_parser(), argv, capsys), argv
        assert code == expected_code
        assert (err if code else out).startswith(f"usage: retabench {command} [-h]"), argv


@pytest.mark.parametrize("command", COMMANDS)
def test_invoked_command_parser_has_the_full_parsers_flags(command):
    # a --config file is checked against these actions, so they must match
    def flags(parser):
        return [(a.dest, a.option_strings, a.type, a.nargs, a.default, a.required, a.choices)
                for a in subparsers(parser)[command]._actions]
    assert flags(build_parser([command])) == flags(build_parser())


@pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["nope"]])
def test_top_level_parser_holds_every_command(argv, capsys):
    parser = build_parser(argv)
    assert list(subparsers(parser)) == COMMANDS
    if argv == ["--help"]:
        help_text = parser_exit(parser, argv, capsys)[1]
        assert all(f"\n    {command} " in help_text for command in COMMANDS), help_text


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
    ("bon", {"n_values": [2, "4"]}),
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
    b'{"kind": "noisy_gaussian", "params": {"rho": 0.5, "offset": 7.0, "sigma": "x"}}',
], ids=["truncated", "params-int", "params-null", "rho-string", "offset-401-digits",
        "high-5001-digits", "low-bool", "atom-int", "atom-string", "byte-0xff",
        "unknown-param"])
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


# A numpy-only install, the runtime pyproject.toml declares: from start-up
# on, the interpreter refuses every top-level import outside the standard
# library, numpy and the package. What site's .pth hooks loaded before this
# file runs stays allowed, and so does usercustomize, which site imports next.
# At exit it writes, as the last line of stderr, the retabench modules loaded.
_NUMPY_ONLY = """\
import atexit
import sys

ALLOWED = (set(sys.stdlib_module_names) | {"numpy", "retabench", "usercustomize"}
           | {name.partition(".")[0] for name in sys.modules})


class NumpyOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in ALLOWED:
            raise ModuleNotFoundError(f"{top} is not in a numpy-only install", name=top)
        return None


sys.meta_path.insert(0, NumpyOnly())
atexit.register(lambda: sys.stderr.write("retabench modules: " + " ".join(sorted(
    name for name in sys.modules if name.partition(".")[0] == "retabench")) + "\\n"))
"""


@pytest.fixture
def numpy_only(tmp_path):
    """Runs ``python *argv`` for each argv it is given, all started at once in
    tmp_path under the numpy-only rule, and gives (exit code, stdout, stderr)
    of each."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(_NUMPY_ONLY, encoding="utf-8")
    src = str(Path(retabench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(site), src, os.environ.get("PYTHONPATH")]))}

    def run(*argvs: list[str]) -> list[tuple[int, str, str]]:
        children = [subprocess.Popen([sys.executable, *argv], env=env, cwd=tmp_path,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                    for argv in argvs]
        results = []
        for child in children:
            out, err = child.communicate(timeout=120)
            results.append((child.returncode, out, err))
        return results
    return run


_CLI = ["-m", "retabench.cli"]
_TABLES = ["--dataset", "data", "--rm-scores", "data/rm_scores.jsonl",
           "--max-oracle-score", "20"]


def _loaded(stderr: str) -> set[str]:
    """The retabench modules a ``numpy_only`` child had loaded at exit."""
    *_, last = stderr.splitlines()
    assert last.startswith("retabench modules:"), stderr
    return set(last.split()[2:])


def _loads(*modules: str) -> set[str]:
    """What a command loads: the package, the cli's own imports and ``modules``.
    ``python -m`` runs the cli module itself as ``__main__``."""
    return {"retabench", "retabench.dataset", "retabench.errors",
            *(f"retabench.{module}" for module in modules)}


def _synth(tmp_path: Path, run) -> set[str]:
    """synth's 2 x 64 dataset in tmp_path/data, made under ``run``; gives the
    modules synth loaded."""
    (tmp_path / "spec.json").write_text(DistSpec.noisy_gaussian(0.5, 7.0).to_json())
    [(code, _, err)] = run([*_CLI, "synth", "--spec", "spec.json", "--num-prompts", "2",
                            "--num-responses", "64", "--output-dir", "data"])
    assert code == 0, err
    return _loaded(err)


# The package's public names, by the module that defines them.
_PUBLIC = {
    "bon": ["BonCurve", "BonPoint", "BonVariant", "bon_curve", "default_n_grid",
            "kl_best_of_n", "write_bon_csv"],
    "dataset": ["BenchmarkDataset", "DEFAULT_MAX_ORACLE_SCORE", "PromptRecord",
                "ResponseRecord", "RmScoreTable", "ValidationIssue", "ingest_rm_scores",
                "load_benchmark", "load_candidate_prompts", "oracle_score_table",
                "write_benchmark", "write_rm_scores"],
    "dpp": ["DppModel", "DppSampleConfig", "build_dpp", "sample_kdpp"],
    "metrics": ["MetricReport", "default_hit_rate_cutoffs", "load_win_labels", "metric_report",
                "write_metrics_csv"],
    "reta": ["RetaConfig", "RetaCurve", "RetaEstimate", "default_eta_grid", "exhaustive_reta",
             "resample_sizes", "reta_curve", "reta_curve_pair", "reta_estimate",
             "write_curve_csv", "write_per_prompt_csv"],
    "synthetic": ["DistSpec", "analytic_reta", "gen_synthetic"],
}


def test_package_serves_each_public_name_from_its_module():
    names = [name for module_names in _PUBLIC.values() for name in module_names]
    assert sorted(retabench.__all__) == sorted(names)
    for module, module_names in _PUBLIC.items():
        home = importlib.import_module(f"retabench.{module}")
        for name in module_names:
            assert getattr(retabench, name) is getattr(home, name), name
    assert set(names) | {"__version__"} <= set(dir(retabench))
    with pytest.raises(AttributeError, match="module 'retabench' has no attribute 'reta_curv'"):
        retabench.reta_curv
    assert not hasattr(retabench, "_cmd_reta")
    star: dict = {}
    exec("from retabench import *", star)
    assert star.keys() - {"__builtins__"} == set(names)


def test_readme_examples_use_only_public_names():
    # every rb.<name> in README's Python blocks resolves, so a retired name
    # cannot leave a dead example behind
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    names = {name for block in blocks for name in re.findall(r"\brb\.(\w+)", block)}
    assert names and sorted(names - set(retabench.__all__)) == []


def test_cli_module_runs_with_a_sitecustomize_that_refuses_scipy(tmp_path, numpy_only):
    # the interpreter refuses scipy, pytest and every other test dependency
    # from start-up on, and the package runs through ``python -m``;
    # analytic_reta, which no command calls, runs too, and then scipy is refused;
    # each command loads only the modules it runs, and the package none
    assert _synth(tmp_path, numpy_only) == _loads("synthetic")
    candidates_file(tmp_path / "candidates.jsonl", count=12, dim=4)
    probe, bare, version, top_help, sample, reta = numpy_only(
        ["-c", "import retabench as rb; print(rb.analytic_reta("
               "rb.DistSpec.noisy_gaussian(0.5), 0.25)); import scipy"],
        ["-c", "import retabench"],
        [*_CLI, "--version"], [*_CLI, "--help"],
        [*_CLI, "sample-prompts", "--candidates", "candidates.jsonl", "--k", "3",
         "--output-dir", "sample"],
        [*_CLI, "reta", *_TABLES, "--raw-variant", "--output-dir", "reta"])
    assert float(probe[1]) > 1.0
    assert probe[0] != 0 and "scipy is not in a numpy-only install" in probe[2]
    for code, _, err in (bare, version, top_help, sample, reta):
        assert code == 0, err
    assert _loaded(bare[2]) == {"retabench"}
    assert _loaded(version[2]) == _loaded(top_help[2]) == _loads()
    assert _loaded(sample[2]) == _loads("dpp")
    assert _loaded(reta[2]) == _loads("ranking", "reta")
    assert version[1] == f"retabench {retabench.__version__}\n"
    assert all(f"\n    {command} " in top_help[1] for command in COMMANDS), top_help
    assert len((tmp_path / "sample" / "selected_prompts.txt").read_text().split()) == 3
    assert len((tmp_path / "reta" / "reta_synthetic-rm.csv").read_text().splitlines()) == 17


def test_commands_run_without_scipy(tmp_path, numpy_only):
    # the commands the test above leaves out, under the same numpy-only rule;
    # a --config file sets a command's own flags, and the variant names the file
    _synth(tmp_path, numpy_only)
    (tmp_path / "bon.json").write_text(json.dumps({"variant": "rank_k_of_n", "rank_k": 2}))
    runs = numpy_only(
        [*_CLI, "validate", *_TABLES],
        [*_CLI, "bon", *_TABLES, "--config", "bon.json", "--output-dir", "bon"],
        [*_CLI, "metrics", *_TABLES, "--output-dir", "metrics"],
        [*_CLI, "export", *_TABLES, "--output-dir", "export"])
    for (code, _, err), loads in zip(runs, [_loads(), _loads("bon", "ranking"),
                                            _loads("metrics", "ranking"), _loads()]):
        assert code == 0, err
        assert _loaded(err) == loads
    assert (tmp_path / "bon" / "bon_synthetic-rm_rank_2_of_n.csv").is_file()
    assert (tmp_path / "metrics" / "metrics.csv").is_file()
    # export rewrites the dataset and table canonically: synth's bytes
    for name, source in (("prompts.jsonl", "prompts.jsonl"),
                         ("responses.jsonl", "responses.jsonl"),
                         ("rm_scores_synthetic-rm.jsonl", "rm_scores.jsonl")):
        assert (tmp_path / "export" / name).read_bytes() == \
            (tmp_path / "data" / source).read_bytes(), name


# Run in a child after numpy is loaded: it prints, on one line, the modules
# that importing the cli and running validate, export and --help load beyond
# numpy's own, then, on the next, those that synth and sample-prompts load.
_LOADED_BEYOND_NUMPY = """\
import contextlib
import sys

import numpy

seen = set(sys.modules)


def loaded(*argvs):
    from retabench.cli import main

    for argv in argvs:
        with contextlib.redirect_stdout(None), contextlib.suppress(SystemExit):
            assert main(argv) == 0, argv
    print(*sorted(set(sys.modules) - seen))
    seen.update(sys.modules)


loaded(["validate", "--dataset", "data", "--rm-scores", "data/rm_scores.jsonl",
        "--max-oracle-score", "20", "--output-dir", "validate"],
       ["export", "--dataset", "data", "--max-oracle-score", "20", "--output-dir", "export"],
       ["--help"])
loaded(["synth", "--spec", "spec.json", "--num-prompts", "2", "--num-responses", "16",
        "--output-dir", "synth"],
       ["sample-prompts", "--candidates", "candidates.jsonl", "--k", "3",
        "--output-dir", "sample"])
"""


def test_commands_without_provenance_load_neither_hashlib_nor_statistics(tmp_path):
    # hashlib (with OpenSSL) serves only the provenance hash of reta, bon and
    # metrics, and statistics only analytic_reta, which no command calls.
    # synth and sample-prompts draw from numpy.random, which loads hashlib
    # (through secrets) on any numpy, so for them only statistics is checked.
    spec = tmp_path / "spec.json"
    spec.write_text(DistSpec.noisy_gaussian(0.5, 7.0).to_json())
    assert main(["synth", "--spec", str(spec), "--num-prompts", "2", "--num-responses", "16",
                 "--output-dir", str(tmp_path / "data")]) == 0
    candidates_file(tmp_path / "candidates.jsonl", count=12, dim=4)
    src = str(Path(retabench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _LOADED_BEYOND_NUMPY], env=env,
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    reading, drawing = (set(line.split()) for line in child.stdout.splitlines())
    assert "retabench.cli" in reading
    assert "retabench.synthetic" in drawing and "retabench.dpp" in drawing
    assert not reading & {"hashlib", "_hashlib", "statistics"}, sorted(reading)
    assert "statistics" not in drawing, sorted(drawing)
    assert (tmp_path / "export" / "prompts.jsonl").is_file()
    assert (tmp_path / "sample" / "selected_prompts.txt").is_file()


def test_a_k_table_command_builds_each_bank_once_and_writes_each_table_as_alone(
        tmp_path, monkeypatch):
    # reta --raw-variant and bon best_m_of_n over three tables (synth's, the
    # oracle's and a seeded random one) build the uncached bank once, as a
    # one-table run does, and write each table's files as its one-table run
    # does, past the provenance line, whose config hash names the score files
    spec = tmp_path / "spec.json"
    spec.write_text(DistSpec.noisy_gaussian(0.5, 7.0).to_json())
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--num-prompts", "4", "--num-responses", "64",
                 "--output-dir", str(data)]) == 0
    dataset = load_benchmark(data, max_oracle_score=20.0)
    write_rm_scores(oracle_score_table(dataset), data / "oracle.jsonl")
    random = np.random.default_rng(5).standard_normal(4 * 64).tolist()
    write_rm_scores(RmScoreTable("random", dict(zip(dataset.iter_pairs(), random))),
                    data / "random.jsonl")
    tables = ["rm_scores.jsonl", "oracle.jsonl", "random.jsonl"]
    builds = []

    def counted(builder):
        def build(*args):
            builds.append(builder.__name__)
            return builder(*args)
        return build
    monkeypatch.setattr(reta_module, "_coefficients", counted(reta_module._coefficients))
    monkeypatch.setattr(bon_module.BonVariant, "_weights",
                        counted(bon_module.BonVariant._weights))
    monkeypatch.chdir(data)

    def run(command: list[str], scores: list[str], out: str) -> dict[str, list[bytes]]:
        reta_module._bank.cache_clear()
        bon_module._bank.cache_clear()
        builds.clear()
        assert main([*command, "--dataset", ".", "--rm-scores", *scores,
                     "--max-oracle-score", "20", "--output-dir", str(tmp_path / out)]) == 0
        assert builds == [{"reta": "_coefficients", "bon": "_weights"}[command[0]]]
        return {name: content.splitlines(keepends=True)[1:]
                for name, content in read_all_bytes(tmp_path / out).items()
                if name.endswith(".csv")}

    for command in (["reta", "--raw-variant"], ["bon", "--variant", "best_m_of_n"]):
        together = run(command, tables, f"{command[0]}-all")
        alone = {}
        for i, scores in enumerate(tables):
            files = run(command, [scores], f"{command[0]}-{i}")
            assert not files.keys() & alone.keys()
            alone.update(files)
        assert len(together) == 3 * (3 if command[0] == "reta" else 1)
        assert together == alone, command


def test_validate_reports_load_warnings_and_exits_2_on_invalid_input(tmp_path, capsys):
    # loads, plus warnings: an unknown key is a warning in an ok report, and
    # an oracle score above --max-oracle-score is an input error raised
    # before any report exists
    data = write_dataset_dir(
        tmp_path / "data", [{"prompt_id": "p", "text": "t", "extra": 1}],
        [{"prompt_id": "p", "response_id": "a", "oracle_score": 2.0},
         {"prompt_id": "p", "response_id": "b", "oracle_score": 15.0}])
    out = tmp_path / "out"
    assert main(["validate", "--dataset", str(data), "--max-oracle-score", "20",
                 "--output-dir", str(out)]) == 0
    assert json.loads((out / "validation_report.json").read_text()) == {"ok": True, "issues": [
        {"severity": "warning", "location": "prompts.jsonl:1",
         "message": "unknown key 'extra' ignored"}]}
    bounded = tmp_path / "bounded"
    assert main(["validate", "--dataset", str(data), "--max-oracle-score", "10",
                 "--output-dir", str(bounded)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "MalformedRecord", "message": (
        "responses.jsonl:2: field 'oracle_score': 15.0 exceeds configured maximum 10.0")}
    assert not bounded.exists()


def test_validate_report_bytes_list_dataset_then_table_warnings(tmp_path, capsys):
    data = write_dataset_dir(
        tmp_path / "data", [{"prompt_id": "p", "text": "t", "extra": 1}],
        [{"prompt_id": "p", "response_id": "a", "oracle_score": 2.0},
         {"prompt_id": "p", "response_id": "b", "oracle_score": 3.0}])
    scores = tmp_path / "scores.jsonl"
    write_jsonl(scores, [{"prompt_id": "p", "response_id": "a", "rm_name": "rm", "score": 0.5},
                         {"prompt_id": "p", "response_id": "b", "rm_name": "rm", "score": 0.25,
                          "note": "x"}])
    expected = (
        '{\n'
        '  "issues": [\n'
        '    {\n'
        '      "location": "prompts.jsonl:1",\n'
        '      "message": "unknown key \'extra\' ignored",\n'
        '      "severity": "warning"\n'
        '    },\n'
        '    {\n'
        '      "location": "scores.jsonl:2",\n'
        '      "message": "unknown key \'note\' ignored",\n'
        '      "severity": "warning"\n'
        '    }\n'
        '  ],\n'
        '  "ok": true\n'
        '}\n')
    argv = ["validate", "--dataset", str(data), "--rm-scores", str(scores)]
    out = tmp_path / "out"
    assert main([*argv, "--output-dir", str(out)]) == 0
    assert (out / "validation_report.json").read_bytes() == expected.encode("utf-8")
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def _csv_rows(path: Path) -> list[dict]:
    """The rows of a CSV the commands write, after its provenance comment."""
    return list(csv.DictReader(path.read_text().splitlines()[1:]))


def test_a_1024_response_pool_stays_finite_and_exact(tmp_path):
    # at N = 1024 the subset-rank weights underflow to exact zeros at deep
    # ranks: every value stays finite, eta = 1 reads exactly 1.0, best-of-1
    # and best-64-of-64 are the pool mean, and pairwise accuracy is, to the
    # last bit, the mean of each prompt's N x N sign-matrix count
    spec = tmp_path / "spec.json"
    spec.write_text(DistSpec.noisy_gaussian(0.5, 7.0).to_json())
    data = tmp_path / "large"
    assert main(["synth", "--spec", str(spec), "--num-prompts", "2", "--num-responses", "1024",
                 "--output-dir", str(data)]) == 0
    common = ["--dataset", str(data), "--rm-scores", str(data / "rm_scores.jsonl"),
              "--max-oracle-score", "20"]
    runs = {"reta": ["reta", "--raw-variant"],
            "bon": ["bon", "--variant", "best_m_of_n", "--best-m", "64"],
            "best": ["bon"],
            "rank": ["bon", "--variant", "rank_k_of_n", "--rank-k", "2"],
            "metrics": ["metrics"]}
    for name, argv in runs.items():
        assert main([*argv, *common, "--output-dir", str(tmp_path / name)]) == 0, name
    tables = {path.relative_to(tmp_path).as_posix(): _csv_rows(path)
              for name in runs for path in (tmp_path / name).glob("*.csv")}
    assert len(tables) == 7, sorted(tables)
    for path, rows in tables.items():
        for row in rows:
            assert all(math.isfinite(float(row[key])) for key in ("value", "std_error")
                       if key in row), (path, row)
    top = tables["reta/reta_synthetic-rm.csv"][0]
    assert (top["eta"], top["value"]) == ("1.0", "1.0"), top
    def column(name: str, key: str) -> np.ndarray:
        # both files list the pairs in one order, by prompt and response id
        lines = (data / name).read_text().splitlines()
        return np.array([json.loads(line)[key] for line in lines]).reshape(2, -1)
    oracle_scores = column("responses.jsonl", "oracle_score")
    pool_mean = math.fsum(oracle_scores.ravel().tolist()) / oracle_scores.size
    best_m = tables["bon/bon_synthetic-rm_best_64_of_n.csv"][0]
    best_1 = tables["best/bon_synthetic-rm_best_of_n.csv"][0]
    assert (best_m["n"], best_1["n"]) == ("64", "1")
    assert abs(float(best_m["value"]) - pool_mean) <= 1e-9, best_m
    assert abs(float(best_1["value"]) - pool_mean) <= 1e-9, best_1
    per_prompt = []
    for oracle, rm in zip(oracle_scores, column("rm_scores.jsonl", "score")):
        oracle_sign = np.sign(oracle[:, None] - oracle[None, :])
        rm_sign = np.sign(rm[:, None] - rm[None, :])
        comparable = np.triu(oracle_sign != 0, k=1)
        agree = int((comparable & (rm_sign == oracle_sign)).sum())
        rm_ties = int((comparable & (rm_sign == 0)).sum())
        per_prompt.append(100.0 * (agree + 0.5 * rm_ties) / int(comparable.sum()))
    [metrics] = tables["metrics/metrics.csv"]
    assert metrics["pairwise_accuracy"] == repr(math.fsum(per_prompt) / len(per_prompt))


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


def _with_unencodable_id(command: str, synth_dir: Path, tmp_path: Path) -> tuple[list, str]:
    """argv for ``command`` on inputs whose first record holds a lone
    surrogate (JSON "\\ud800") in an id that reaches an output file, and the
    error message expected for it."""
    if command == "sample-prompts":
        path = candidates_file(tmp_path / "candidates.jsonl", count=12, dim=4)
        path.write_text(path.read_text().replace('"c000"', '"c\\ud800"'))
        return ([command, "--candidates", str(path), "--k", "3"],
                "candidates.jsonl:1: field 'prompt_id': cannot be encoded as UTF-8")
    if command == "reta":  # prompt ids go into the per-prompt CSV
        data = tmp_path / "unencodable"
        data.mkdir()
        for path in synth_dir.iterdir():
            (data / path.name).write_text(path.read_text().replace('"p0000"', '"p\\ud800"'))
        return ([command, "--dataset", str(data), "--rm-scores", str(data / "rm_scores.jsonl"),
                 "--eta", "0.5"], "prompts.jsonl:1: field 'prompt_id': cannot be encoded as UTF-8")
    scores = _renamed_scores(synth_dir, tmp_path / "scores.jsonl", "m\ud800")
    return ([command, "--dataset", str(synth_dir), "--rm-scores", str(scores)],
            "scores.jsonl:1: field 'rm_name': cannot be encoded as UTF-8")


@pytest.mark.parametrize("command", ["reta", "bon", "metrics", "sample-prompts"])
def test_unencodable_id_exits_2_without_output(synth_dir, tmp_path, capsys, command):
    argv, message = _with_unencodable_id(command, synth_dir, tmp_path)
    out = tmp_path / "out"
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "MalformedRecord", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("rm_name, via", [
    ("", "flag"),
    ("a\u0000b", "config"),
    ("\udcff", "flag"),  # how a byte that is not UTF-8 in argv reaches Python
], ids=["empty", "nul", "surrogate"])
def test_synth_rejects_rm_names_its_readers_reject(tmp_path, capsys, rm_name, via):
    argv = _command_argv("synth", tmp_path, tmp_path)  # synth reads no dataset
    if via == "flag":
        argv += ["--rm-name", rm_name]
    else:
        (tmp_path / "config.json").write_text(json.dumps({"rm_name": rm_name}))
        argv += ["--config", str(tmp_path / "config.json")]
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    for out in (tmp_path / "out", blocker / "sub"):  # checked before --output-dir is made
        assert main([*argv, "--output-dir", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "InvalidConfig"
        assert error["message"].startswith(f"rm_name {rm_name!r}: ")
    assert not (tmp_path / "out").exists()


def test_write_error_names_the_final_path(synth_dir, tmp_path, capsys):
    scores = _renamed_scores(synth_dir, tmp_path / "scores.jsonl", "x" * 300)
    out = tmp_path / "out"
    argv = ["bon", "--dataset", str(synth_dir), "--rm-scores", str(scores),
            "--output-dir", str(out)]
    errors = []
    for _ in range(2):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and ".staging-" not in errors[0]
    assert str(out / f"bon_{'x' * 300}_best_of_n.csv") in json.loads(errors[0])["message"]


_ECHO_KEYS = {
    "sample-prompts": {"candidates", "k", "seed"},
    "synth": {"num_prompts", "num_responses", "rm_name", "seed", "spec"},
    "validate": {"dataset", "max_oracle_score", "rm_scores"},
    "reta": {"dataset", "eta", "max_oracle_score", "n_exponent", "n_high_coeff",
             "n_low_coeff", "raw_variant", "rm_scores", "seed"},
    "bon": {"best_m", "dataset", "max_oracle_score", "n_values", "rank_k", "rm_scores",
            "seed", "variant"},
    "metrics": {"dataset", "eta", "max_oracle_score", "rm_scores", "seed", "selection_rank",
                "win_labels"},
    "export": {"dataset", "max_oracle_score", "rm_scores", "seed"},
}


@pytest.mark.parametrize("command", sorted(_ECHO_KEYS))
def test_config_echo_keys(synth_dir, tmp_path, command):
    out = tmp_path / "out"
    assert main([*_command_argv(command, synth_dir, tmp_path), "--output-dir", str(out)]) == 0
    echo = json.loads((out / f"{command.replace('-', '_')}_config.json").read_text())
    assert set(echo) == _ECHO_KEYS[command]


def _candidates_with(tmp_path: Path, records: list[dict]) -> list[str]:
    path = tmp_path / "bad-candidates.jsonl"
    write_jsonl(path, records)
    return ["--candidates", str(path)]


def _missing(flag: str):
    return lambda tmp_path: [flag, str(tmp_path / "missing")]


def _equal_oracle_scores(tmp_path: Path) -> list[str]:
    """A one-prompt dataset whose oracle scores are all equal, and its table."""
    flat = tmp_path / "flat"
    ids = ["a", "b", "c", "d"]
    write_benchmark(BenchmarkDataset("flat", [PromptRecord("p", "x")], {
        "p": [ResponseRecord("p", rid, 1.0) for rid in ids]}, len(ids)), flat)
    write_rm_scores(RmScoreTable("rm", {("p", rid): float(i) for i, rid in enumerate(ids)}),
                    flat / "rm_scores.jsonl")
    return ["--dataset", str(flat), "--rm-scores", str(flat / "rm_scores.jsonl")]


# case id: (command, flags added to its small run, the error they raise). A
# command's own name reads a missing input file; most other cases set a flag
# or input whose check needs the pool size N or the candidate set. The last
# two give inputs the computation itself fails on (exit 3).
_INPUT_ERRORS = {
    "bon": ("bon", _missing("--dataset"), "MalformedRecord"),
    "export": ("export", _missing("--dataset"), "MalformedRecord"),
    "metrics": ("metrics", _missing("--dataset"), "MalformedRecord"),
    "reta": ("reta", _missing("--dataset"), "MalformedRecord"),
    "sample-prompts": ("sample-prompts", _missing("--candidates"), "MalformedRecord"),
    "synth": ("synth", _missing("--spec"), "InvalidConfig"),
    "validate": ("validate", _missing("--dataset"), "MalformedRecord"),
    "metrics-eta-2": ("metrics", lambda tmp_path: ["--eta", "2"], "InvalidConfig"),
    "metrics-selection-rank-0": ("metrics", lambda tmp_path: ["--selection-rank", "0"],
                                 "InvalidConfig"),
    "bon-n-values-0": ("bon", lambda tmp_path: ["--n-values", "0"], "InvalidConfig"),
    "reta-empty-n-range": ("reta", lambda tmp_path: ["--n-low-coeff", "100",
                                                     "--n-high-coeff", "100"], "EmptyNRange"),
    "sample-prompts-k-0": ("sample-prompts", lambda tmp_path: ["--k", "0"], "InvalidConfig"),
    "sample-prompts-k-above-candidates": ("sample-prompts", lambda tmp_path: [
        "--k", "5", *_candidates_with(tmp_path, [
            {"prompt_id": "a", "text": "x", "embedding": [1.0, 0.0]},
            {"prompt_id": "b", "text": "y", "embedding": [0.0, 1.0]}])], "InvalidConfig"),
    "sample-prompts-seed-minus-1": ("sample-prompts", lambda tmp_path: ["--seed", "-1"],
                                    "InvalidConfig"),
    "sample-prompts-no-embedding": ("sample-prompts", lambda tmp_path: _candidates_with(
        tmp_path, [{"prompt_id": "a", "text": "x", "embedding": [1.0, 0.0]},
                   {"prompt_id": "b", "text": "y"}]), "MissingEmbedding"),
    "sample-prompts-rank-1-k-2": ("sample-prompts", lambda tmp_path: [
        "--k", "2", *_candidates_with(tmp_path, [
            {"prompt_id": pid, "text": "x", "embedding": [scale, 0.0]}
            for pid, scale in (("a", 1.0), ("b", 2.0), ("c", 3.0))])], "DegenerateInit"),
    "metrics-equal-oracle-scores": ("metrics", _equal_oracle_scores, "NoComparablePairs"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS))
def test_input_errors_come_before_output_dir_errors(synth_dir, tmp_path, capsys, case):
    command, flags, expected = _INPUT_ERRORS[case]
    code = 3 if issubclass(getattr(retabench.errors, expected), ComputationError) else 2
    # a flag given twice takes its last value
    argv = [*_command_argv(command, synth_dir, tmp_path), *flags(tmp_path)]
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    for out in (blocker, blocker / "sub"):
        assert main([*argv, "--output-dir", str(out)]) == code
        assert json.loads(capsys.readouterr().err)["error"] == expected
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command", sorted(_ECHO_KEYS))
def test_config_file_sets_seed_and_output_dir(synth_dir, tmp_path, command):
    out = tmp_path / "from-config"
    overrides = {"output_dir": str(out), **({} if command == "validate" else {"seed": 7})}
    (tmp_path / "config.json").write_text(json.dumps(overrides))
    flag_out = tmp_path / "from-flag"
    assert main([*_command_argv(command, synth_dir, tmp_path),
                 "--config", str(tmp_path / "config.json"), "--output-dir", str(flag_out)]) == 0
    assert not flag_out.exists()
    echo = json.loads((out / f"{command.replace('-', '_')}_config.json").read_text())
    assert echo.get("seed") == overrides.get("seed")


def _win_labels(synth_dir: Path, path: Path, pair: tuple[str, str] | None) -> Path:
    """A label file for the dataset's first pair, plus a line for ``pair``."""
    first = next(iter(load_benchmark(synth_dir).iter_pairs()))
    pairs = [first] if pair is None else [first, pair]
    write_jsonl(path, [{"prompt_id": pid, "response_id": rid, "outcome": "win"}
                       for pid, rid in pairs])
    return path


@pytest.mark.parametrize("labels, message", [
    ("unknown-pair", "labels.jsonl:2: field 'prompt_id': unknown prompt 'nope'"),
    ("missing-file", "field '-': file not found"),
], ids=["unknown-pair", "missing-file"])
def test_bad_win_labels_exit_2_without_output(synth_dir, tmp_path, capsys, labels, message):
    path = tmp_path / "labels.jsonl"
    if labels == "unknown-pair":
        _win_labels(synth_dir, path, ("nope", "zz"))
    out = tmp_path / "out"
    code = main(["metrics", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                 "--win-labels", str(path), "--output-dir", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "MalformedRecord" and error["message"].endswith(message)
    assert not out.exists()


def test_win_rate_pools_every_label_for_every_table(synth_dir, tmp_path):
    out = tmp_path / "out"
    oracle = tmp_path / "oracle.jsonl"
    write_rm_scores(oracle_score_table(load_benchmark(synth_dir)), oracle)
    labels = _win_labels(synth_dir, tmp_path / "labels.jsonl", None)
    assert main(["metrics", "--dataset", str(synth_dir),
                 "--rm-scores", str(synth_dir / "rm_scores.jsonl"), str(oracle),
                 "--win-labels", str(labels), "--output-dir", str(out)]) == 0
    with open(out / "metrics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [row["win_rate"] for row in rows] == ["100.0", "100.0"]


@pytest.mark.parametrize("flags", [
    ["bon", "--variant", "rank_k_of_n", "--rank-k", "0"],
    ["reta", "--eta", "0.5", "--threads", "0"],
    ["reta", "--eta", "0.5", "--n-low-coeff", "nan"],
    ["reta", "--eta", "0.5", "--eta", "0.9"],
], ids=["bon-rank-k-0", "reta-threads-0", "reta-nan-low-coeff", "reta-rising-eta-grid"])
def test_flag_errors_come_before_output_dir_errors(synth_dir, tmp_path, capsys, flags):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    for out in (blocker, blocker / "sub"):
        assert main([*flags, "--dataset", str(synth_dir),
                     "--rm-scores", str(synth_dir / "rm_scores.jsonl"),
                     "--output-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
    assert blocker.read_text() == "kept\n"


def _copy_with_lines(source: Path, target: Path, edit) -> Path:
    """A copy of a dataset directory and its score table whose lines are
    ``edit(lines)`` in each file."""
    target.mkdir()
    for name in ("prompts.jsonl", "responses.jsonl", "rm_scores.jsonl"):
        lines = (source / name).read_text(encoding="utf-8").splitlines(keepends=True)
        (target / name).write_text("".join(edit(lines)), encoding="utf-8")
    return target


def _run_inside(monkeypatch, directory: Path, command: str, out: Path) -> dict[str, bytes]:
    """``command`` on the dataset and table of ``directory``, run from inside
    it so that every copy's provenance line names the same paths; returns
    the output files' bytes."""
    monkeypatch.chdir(directory)
    assert main([command, "--dataset", ".", "--rm-scores", "rm_scores.jsonl",
                 "--max-oracle-score", "20", "--output-dir", str(out)]) == 0
    return read_all_bytes(out)


def test_per_line_and_block_readers_give_the_same_output_bytes(tmp_path, monkeypatch):
    # a dataset with oracle samples, non-ASCII texts and ids holding '"' goes
    # to the per-line scanner, and so does its score table, whose ids the
    # writers escape; export writes every line as json.dumps writes its record
    odd = tmp_path / "odd"
    odd.mkdir()
    prompts = [{"prompt_id": 'q"1', "text": "café"}, {"prompt_id": "q2", "text": "t"}]
    responses = [dict(prompt_id=p["prompt_id"], response_id=rid, oracle_score=score, **extra)
                 for p in prompts
                 for rid, score, extra in (("a", 2.5, {"text": "naïve \x7f"}),
                                           ('b"', 3.0, {"oracle_samples": [2.0, 4.0]}))]
    scores = [dict(prompt_id=r["prompt_id"], response_id=r["response_id"], rm_name="odd-rm",
                   score=score) for r, score in zip(responses, (0.5, -1.25, 3.0, 1e-07))]
    for name, records in (("prompts.jsonl", prompts), ("responses.jsonl", responses),
                          ("rm_scores.jsonl", scores)):
        write_jsonl(odd / name, records)
    exported = _run_inside(monkeypatch, odd, "export", tmp_path / "odd-export")
    for name, source in (("prompts.jsonl", "prompts.jsonl"),
                         ("responses.jsonl", "responses.jsonl"),
                         ("rm_scores_odd-rm.jsonl", "rm_scores.jsonl")):
        assert exported[name] == (odd / source).read_bytes(), name
    # with its lines in reverse order, the per-line reader puts the texts,
    # samples and escaped ids back in the dataset's order
    odd_reversed = _copy_with_lines(odd, tmp_path / "odd-reversed", lambda lines: lines[::-1])
    assert _run_inside(monkeypatch, odd_reversed, "export",
                       tmp_path / "odd-reversed-export") == exported

    # synth's files take the block reader; copies with each record's keys in
    # reverse order, or with the lines in reverse order, take the per-line
    # scanner, and every command that reads a table writes the same bytes
    spec = tmp_path / "spec.json"
    spec.write_text(DistSpec.noisy_gaussian(0.5, 7.0).to_json())
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--num-prompts", "4", "--num-responses", "64",
                 "--output-dir", str(data)]) == 0
    keys_reversed = _copy_with_lines(data, tmp_path / "keys-reversed", lambda lines: [
        json.dumps(dict(reversed(json.loads(line).items()))) + "\n" for line in lines])
    lines_reversed = _copy_with_lines(data, tmp_path / "lines-reversed", lambda lines: lines[::-1])
    ids = load_benchmark(data, max_oracle_score=20.0).prompt_ids()
    for copy in (data, keys_reversed, lines_reversed):
        block_read = dataset_module._canonical_responses(copy / "responses.jsonl", ids, 20.0)
        assert (block_read is not None) == (copy == data), copy.name
    for command in ("reta", "bon", "metrics", "export"):
        expected = _run_inside(monkeypatch, data, command, tmp_path / f"data-{command}")
        assert expected
        for copy in (keys_reversed, lines_reversed):
            assert _run_inside(monkeypatch, copy, command,
                               tmp_path / f"{copy.name}-{command}") == expected, (copy, command)

    # a per-prompt value depends on its prompt alone: a copy holding only
    # p0000 gives that prompt's per-prompt rows byte for byte
    one_prompt = _copy_with_lines(data, tmp_path / "one-prompt", lambda lines: [
        line for line in lines if json.loads(line)["prompt_id"] == "p0000"])
    per_prompt = "reta_synthetic-rm_per_prompt.csv"
    lines = (tmp_path / "data-reta" / per_prompt).read_bytes().splitlines(keepends=True)
    expected = b"".join(lines[:2] + [line for line in lines if line.startswith(b"p0000,")])
    assert len(expected.splitlines()) == 2 + 15
    assert _run_inside(monkeypatch, one_prompt, "reta",
                       tmp_path / "one-prompt-reta")[per_prompt] == expected
