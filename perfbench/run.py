"""retabench benchmark: end-to-end and per-layer timings of the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload paper_curve --seed 1 --seconds 30 --trace 0

The workloads (``paper_curve``, ``wide_pool``, ``dpp_select``) are
defined in ``workloads.py``; BENCHMARK.json says why each exists. Every
phase runs in a fresh child process (``worker.py``) with the BLAS pool
pinned to one thread, so the only parallelism is the ``--threads`` of the
commands themselves.

``--trace 0`` builds the inputs ``SETUP_REPEATS`` times, each in its own
process, then times the command sequence untraced and reports
``wall_s``, ``setup_s`` and ``peak_rss_mb``. ``--trace 1`` reports the
per-layer metrics of ``tracing.py`` instead. The last line of standard
output is the result as JSON; the line before it records the code and
library versions. Full records, with every check and output digest and
the spans of a traced pass, go to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def git_sha(root: Path) -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "retabench").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_child(phase: str, args, deadline: float, result: Path, **extra) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), phase, "--workload", args.workload,
            "--seed", str(args.seed), "--result", str(result)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for the {phase} phase")
    proc = subprocess.run(argv, env={**os.environ, **BLAS_ENV}, timeout=remaining,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not result.is_file():
        raise ChildFailed(f"{phase} phase exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "retabench" / "__init__.py").is_file():
        print("perfbench: src/retabench not found; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # Paths stay relative to the root: the commands echo their input paths
    # into their outputs, and the digests must not depend on where the
    # checkout lives or on the trace setting.
    work = Path(".perfbench_work") / f"{args.workload}-{args.seed}"
    inputs = work / "inputs"
    runs = root / ".perfbench_runs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runs.mkdir(exist_ok=True)
    try:
        setups = []
        for i in range(0 if args.trace else SETUP_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            setups.append(run_child("setup", args, deadline, work / f"setup{i}.json",
                                    inputs=inputs))
        measured = run_child("measure", args, deadline, work / "measure.json", inputs=inputs,
                             out=work / "out", seconds=args.seconds, trace=args.trace)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    codes = [code for s in setups for code in s["codes"]]
    checks = measured["checks"]
    attempted = measured["attempted"] + len(codes)
    failed = measured["failed"] + sum(c != 0 for c in codes)
    if setups:
        same = all(s["digest"] == setups[0]["digest"] for s in setups)
        checks.append({"name": "inputs_identical_across_setups", "ok": same, "detail": ""})
        attempted += 1
        failed += not same

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(measured["layers"].items())}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(measured["wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "git_sha": git_sha(root), "source_sha256": source_digest(root),
            "nproc": os.cpu_count(), "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
            "os_threads_at_start": measured["threads_at_start"], **measured["versions"],
            "outputs_sha256": hashlib.sha256(
                json.dumps(measured["digests"], sort_keys=True).encode()).hexdigest()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {"info": info, "result": result, "checks": checks,
              "wall_s_passes": measured["wall_s"], "raw_wall_s_passes": measured["raw_wall_s"],
              "setup_s_repeats": [s["setup_s"] for s in setups],
              "raw_setup_s_repeats": [s["raw_setup_s"] for s in setups],
              "output_digests": measured["digests"]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if "trace" in measured:
        (runs / f"{stem}-spans.json").write_text(json.dumps(measured["trace"]),
                                                 encoding="utf-8")
    print(json.dumps({"perfbench_info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def unit_of(name: str) -> str:
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("fraction") or name.endswith("ratio"):
        return "ratio"
    if name == "write.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
