"""Command-line pipeline: prompt sampling, synthetic generation, validation,
metric computation, and curve export.

Exit codes: 0 success, 2 input/validation error (a file that cannot be
read or written counts as one), 3 computation error. Failures emit a
machine-readable JSON object on stderr. Every command computes before it
writes: ``main`` applies ``--config``, then the command reads its inputs
and computes its results without touching a file, and returns a step
that writes them. So any error, in an input file, a flag value or the
computation, is reported as itself and never touches ``--output-dir``.
Only then is the write step run, into a hidden staging directory inside
``--output-dir``; its files move into place only once it returns, so a
failed write leaves ``--output-dir`` as it was (and removes it if the
run created it).
All randomness in the results flows from the ``--seed`` flag; no result
depends on the clock, the environment, or OS entropy (only the staging
directory's name is random, and no output names it), so reruns with the
same arguments produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .dataset import (
    DEFAULT_MAX_ORACLE_SCORE,
    load_benchmark,
    load_candidate_prompts,
    ingest_rm_scores,
    write_benchmark,
    write_rm_scores,
)
from .errors import InputError, InvalidConfig, RetabenchError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3

# A command's write step: writes its computed results into a directory (None:
# ``validate`` prints its report).
Write = Callable[[Path | None], None]

# Keys that exist on the namespace but are not part of a command's tunable
# config (and so are not overridable from a config file).
_NON_CONFIG_KEYS = {"command", "func", "config", "parser"}

# JSON types a config-file value may take for each argparse ``type``; a
# flag without a type takes a string, a store_true switch a boolean.
_JSON_TYPES = {int: (int,), float: (int, float), None: (str,)}

# Operational knobs that cannot change results; excluded from the canonical
# config echo and hash so outputs stay byte-identical across thread counts
# and destination directories.
_OPERATIONAL_KEYS = {"output_dir", "threads"}


def _canonical_config(args: argparse.Namespace) -> dict:
    return {key: value for key, value in sorted(vars(args).items())
            if key not in _NON_CONFIG_KEYS and key not in _OPERATIONAL_KEYS}


def _apply_config_file(args: argparse.Namespace) -> None:
    """Values from --config take precedence over command-line flags."""
    if not args.config:
        return
    try:
        overrides = json.loads(_read_text(args.config, "config"))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, or an integer past Python's digit limit
        raise InvalidConfig(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise InvalidConfig("config file must hold a JSON object")
    known = set(vars(args)) - _NON_CONFIG_KEYS
    unknown = set(overrides) - known
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    actions = {action.dest: action for action in args.parser._actions}
    for key, value in overrides.items():
        setattr(args, key, _config_value(actions[key], value))


def _read_text(path: str, what: str) -> str:
    """A ``--config`` or ``--spec`` file's text; InvalidConfig if missing or not UTF-8."""
    if not Path(path).is_file():
        raise InvalidConfig(f"{what} file not found: {path}")
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{what} file is not valid UTF-8: {exc}") from exc


def _config_value(action: argparse.Action, value):
    """A config-file value, checked and converted as its flag's argument would be."""
    if value is None and action.default is None and not action.required:
        return None
    many = action.nargs in ("+", "*") or isinstance(action, argparse._AppendAction)
    items = value if many and isinstance(value, list) else [value]
    expected = (bool,) if action.nargs == 0 else _JSON_TYPES[action.type]
    if (many and not isinstance(value, list)) or (action.nargs == "+" and not items) or any(
            isinstance(item, bool) != (bool in expected) or not isinstance(item, expected)
            for item in items):
        raise InvalidConfig(f"config value for {action.dest} has the wrong type: {value!r}")
    if action.type is not None:
        try:
            items = [action.type(item) for item in items]
        except OverflowError as exc:  # an integer beyond the float range
            raise InvalidConfig(f"config value for {action.dest} is out of range") from exc
    if action.choices is not None and any(item not in action.choices for item in items):
        raise InvalidConfig(f"config value for {action.dest} must be one of "
                            f"{list(action.choices)}, got {value!r}")
    return items if many else items[0]


def _config_hash(config: dict) -> str:
    import hashlib  # here, so only the commands that write provenance load OpenSSL

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _provenance(args: argparse.Namespace) -> str:
    config = _canonical_config(args)
    seed = config.get("seed", "")
    return f"retabench={__version__} seed={seed} config={_config_hash(config)}"


def _json_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def _file_part(rm_name: str) -> str:
    """``rm_name`` for use in a file name inside ``--output-dir``.

    ``%``, ``/`` and ``\\`` are percent-encoded, ``%`` first so that distinct
    names keep distinct file names; a name without them is unchanged.
    """
    return rm_name.replace("%", "%25").replace("/", "%2F").replace("\\", "%5C")


# --- subcommands: each reads its inputs and computes its results without
# touching a file, then returns the step that writes them into a directory --
# Each imports the modules that only it uses when it runs, so a command loads
# only what it runs.


def _read_dataset(args: argparse.Namespace) -> tuple:
    dataset = load_benchmark(args.dataset, max_oracle_score=args.max_oracle_score)
    tables = [ingest_rm_scores(dataset, path) for path in args.rm_scores]
    names = [t.rm_name for t in tables]
    if len(set(names)) != len(names):
        raise InvalidConfig(f"duplicate rm_name among score files: {names}")
    return dataset, tables


def _cmd_sample_prompts(args: argparse.Namespace) -> Write:
    from .dpp import DppSampleConfig, _model, sample_kdpp

    prompts = load_candidate_prompts(args.candidates)
    model = _model(prompts)  # build_dpp's last step: the reader has checked each prompt
    selected = sample_kdpp(model, DppSampleConfig(k=args.k, seed=args.seed))
    ids = [prompts[i].prompt_id for i in selected]
    provenance = {
        "seed": args.seed,
        "lambda": model.lam,
        "k": args.k,
        "num_candidates": model.num_candidates,
    }

    def write(out_dir: Path) -> None:
        (out_dir / "selected_prompts.txt").write_text(
            "".join(f"{pid}\n" for pid in ids), encoding="utf-8")
        (out_dir / "sample_provenance.json").write_text(_json_text(provenance),
                                                        encoding="utf-8")
    return write


def _cmd_synth(args: argparse.Namespace) -> Write:
    from .synthetic import DistSpec, gen_synthetic

    spec = DistSpec.from_json(_read_text(args.spec, "spec"))
    dataset, table = gen_synthetic(
        spec, args.num_prompts, args.num_responses, args.seed, rm_name=args.rm_name)

    def write(out_dir: Path) -> None:
        write_benchmark(dataset, out_dir)
        write_rm_scores(table, out_dir / "rm_scores.jsonl")
    return write


def _cmd_validate(args: argparse.Namespace) -> Write:
    """Loads, plus warnings: any invalid input (a value, a shape, an oracle
    score above ``--max-oracle-score``, a repeated ``rm_name``) is raised
    by the readers, so it exits 2 with a JSON error before a report
    exists; the report lists the load warnings (unknown keys), the
    dataset's and then each table's, and is always ``ok``."""
    dataset, tables = _read_dataset(args)
    warnings = dataset.load_warnings + [w for t in tables for w in t.load_warnings]
    text = _json_text({"ok": True, "issues": [asdict(w) for w in warnings]})

    def write(out_dir: Path | None) -> None:
        if out_dir is None:
            sys.stdout.write(text)
        else:
            (out_dir / "validation_report.json").write_text(text, encoding="utf-8")
    return write


def _cmd_reta(args: argparse.Namespace) -> Write:
    from .reta import (
        RetaConfig,
        reta_curve,
        reta_curve_pair,
        write_curve_csv,
        write_per_prompt_csv,
    )

    dataset, tables = _read_dataset(args)
    if args.threads < 1:
        raise InvalidConfig(f"--threads must be at least 1, got {args.threads}")
    config = RetaConfig(n_range_low_coeff=args.n_low_coeff,
                        n_range_high_coeff=args.n_high_coeff,
                        n_exponent=args.n_exponent)
    etas = args.eta or None  # no --eta, or [] in --config: reta's default grid
    if args.raw_variant:
        curves, raws = zip(*(reta_curve_pair(dataset, table, etas, config) for table in tables))
    else:
        curves, raws = [reta_curve(dataset, table, etas, config) for table in tables], []
    provenance = _provenance(args)

    def write(out_dir: Path) -> None:
        for curve in curves:
            stem = f"reta_{_file_part(curve.rm_name)}"
            write_curve_csv(curve, out_dir / f"{stem}.csv", provenance)
            write_per_prompt_csv(curve, dataset, out_dir / f"{stem}_per_prompt.csv", provenance)
        for raw in raws:
            write_curve_csv(raw, out_dir / f"reta_{_file_part(raw.rm_name)}_unnormalized.csv",
                            provenance)
    return write


def _cmd_bon(args: argparse.Namespace) -> Write:
    from .bon import BonVariant, bon_curve, write_bon_csv

    dataset, tables = _read_dataset(args)
    param = {"rank_k_of_n": args.rank_k, "best_m_of_n": args.best_m}.get(args.variant)
    variant = BonVariant(args.variant, param)
    curves = [bon_curve(dataset, table, variant, args.n_values or None) for table in tables]
    provenance = _provenance(args)

    def write(out_dir: Path) -> None:
        for curve in curves:
            write_bon_csv(curve, out_dir / f"bon_{_file_part(curve.rm_name)}_{variant.label}.csv",
                          provenance)
    return write


def _cmd_metrics(args: argparse.Namespace) -> Write:
    from .metrics import load_win_labels, metric_report, write_metrics_csv

    dataset, tables = _read_dataset(args)
    win_labels = load_win_labels(args.win_labels, dataset) if args.win_labels else None
    reports = [
        metric_report(dataset, table, eta=args.eta, selection_rank=args.selection_rank,
                      win_labels=win_labels)
        for table in tables
    ]

    def write(out_dir: Path) -> None:
        write_metrics_csv(reports, out_dir / "metrics.csv", _provenance(args))
    return write


def _cmd_export(args: argparse.Namespace) -> Write:
    dataset, tables = _read_dataset(args)

    def write(out_dir: Path) -> None:
        write_benchmark(dataset, out_dir)
        for table in tables:
            write_rm_scores(table, out_dir / f"rm_scores_{_file_part(table.rm_name)}.jsonl")
    return write


# --- parser ----------------------------------------------------------------------


def _add_dataset_flags(parser: argparse.ArgumentParser, scores_required: bool = True) -> None:
    parser.add_argument("--dataset", required=True, help="benchmark directory")
    parser.add_argument("--rm-scores", dest="rm_scores", nargs="+" if scores_required else "*",
                        default=None if scores_required else [],
                        required=scores_required, help="rm_scores.jsonl files")
    parser.add_argument("--max-oracle-score", dest="max_oracle_score", type=float,
                        default=DEFAULT_MAX_ORACLE_SCORE,
                        help="upper bound accepted for oracle scores")


def _sample_prompts_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--candidates", required=True, help="prompts.jsonl with embeddings")
    parser.add_argument("--k", type=int, required=True, help="number of prompts to select")


def _synth_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", required=True, help="distribution spec JSON file")
    parser.add_argument("--num-prompts", dest="num_prompts", type=int, required=True)
    parser.add_argument("--num-responses", dest="num_responses", type=int, required=True)
    parser.add_argument("--rm-name", dest="rm_name", default="synthetic-rm")


def _reta_flags(parser: argparse.ArgumentParser) -> None:
    _add_dataset_flags(parser)
    parser.add_argument("--eta", type=float, action="append", default=None,
                        help="curve point (repeatable, strictly decreasing); "
                             "default: 15-point log grid from 1 to 1/128")
    parser.add_argument("--n-low-coeff", dest="n_low_coeff", type=float, default=3.0)
    parser.add_argument("--n-high-coeff", dest="n_high_coeff", type=float, default=5.0)
    parser.add_argument("--n-exponent", dest="n_exponent", type=float, default=2.0 / 3.0)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect, since the "
                             "estimate is exact and computed in one thread")
    parser.add_argument("--raw-variant", dest="raw_variant", action="store_true",
                        help="also emit the curve without the per-prompt normalizer")


def _bon_flags(parser: argparse.ArgumentParser) -> None:
    _add_dataset_flags(parser)
    parser.add_argument("--variant", choices=["best_of_n", "rank_k_of_n", "best_m_of_n"],
                        default="best_of_n")
    parser.add_argument("--rank-k", dest="rank_k", type=int, default=2,
                        help="k for rank_k_of_n")
    parser.add_argument("--best-m", dest="best_m", type=int, default=32,
                        help="m for best_m_of_n")
    parser.add_argument("--n-values", dest="n_values", type=int, nargs="*", default=None,
                        help="explicit n grid; default: powers of two up to N")


def _metrics_flags(parser: argparse.ArgumentParser) -> None:
    _add_dataset_flags(parser)
    parser.add_argument("--eta", type=float, default=0.25,
                        help="ground-truth quantile for hit rates")
    parser.add_argument("--selection-rank", dest="selection_rank", type=int, default=1,
                        help="which RM pick NDCG/MRR evaluate (1 = best)")
    parser.add_argument("--win-labels", dest="win_labels", default=None,
                        help="JSONL win/draw/loss labels")


def _optional_scores_flags(parser: argparse.ArgumentParser) -> None:
    _add_dataset_flags(parser, scores_required=False)


# Each command's help line and the flags it adds before the shared ones, in
# the order the help lists the commands.
_COMMANDS = {
    "sample-prompts": ("select a diverse prompt subset", _sample_prompts_flags),
    "synth": ("generate a synthetic benchmark", _synth_flags),
    "validate": ("load a dataset and score tables; invalid input exits 2, "
                 "the report lists load warnings", _optional_scores_flags),
    "reta": ("reliability curves over an eta grid", _reta_flags),
    "bon": ("best-of-n style curves with KL column", _bon_flags),
    "metrics": ("hit rate / NDCG / MRR / pairwise table", _metrics_flags),
    "export": ("rewrite a dataset and tables canonically", _optional_scores_flags),
}


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser for ``argv``. When its first item names a
    command, only that command's subparser is built, which parses, helps
    and fails exactly as in the full parser; otherwise (no arguments,
    ``--help``, ``--version``, an unknown command) every command's is, so
    the top-level help, usage and errors list them all."""
    parser = argparse.ArgumentParser(
        prog="retabench",
        description="Reliability benchmarking for reward models.")
    parser.add_argument("--version", action="version", version=f"retabench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_text, add_flags = _COMMANDS[command]
        p = sub.add_parser(command, help=help_text)
        add_flags(p)
        if command != "validate":  # no randomness, and it can print its report instead
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output-dir", dest="output_dir", required=command != "validate")
        p.add_argument("--config", default=None, help="JSON config overriding flags")
        # looked up by name now, so a wrapper installed over a ``_cmd_*``
        # function (a tracer's, a test's) is what runs
        p.set_defaults(func=globals()[f"_cmd_{command.replace('-', '_')}"], parser=p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        _apply_config_file(args)
        write = args.func(args)
        if args.output_dir:
            _run_staged(args, Path(args.output_dir), write)
        else:
            write(None)
        return EXIT_OK
    except (InputError, OSError) as exc:
        _emit_error(exc)
        return EXIT_INPUT
    except RetabenchError as exc:  # a ComputationError
        _emit_error(exc)
        return EXIT_COMPUTE


def _run_staged(args: argparse.Namespace, out_dir: Path, write: Write) -> None:
    """Run the command's write step into a hidden staging directory inside ``out_dir``,
    add its config echo, then move every file into ``out_dir``.

    If the write step raises, the staging directory goes, and so does every
    directory this run created on the way to ``out_dir``. An ``OSError`` names
    the file's place in ``out_dir``, since the staging name is random.
    """
    created = next((d for d in reversed([out_dir, *out_dir.parents]) if not d.exists()), None)
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    try:
        write(staging)
        echo = staging / f"{args.command.replace('-', '_')}_config.json"
        echo.write_text(_json_text(_canonical_config(args)), encoding="utf-8")
        for entry in staging.iterdir():
            os.replace(entry, out_dir / entry.name)
    except BaseException as exc:
        shutil.rmtree(created or staging, ignore_errors=True)
        if isinstance(exc, OSError) and str(exc.filename).startswith(str(staging)):
            exc.filename = str(out_dir) + str(exc.filename)[len(str(staging)):]
        raise
    staging.rmdir()


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
