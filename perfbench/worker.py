"""Child process of the benchmark; ``run.py`` starts it, one phase at a time.

``setup`` builds one workload's inputs and reports the seconds from just
before ``import retabench`` until the inputs are on disk.

``measure`` runs the workload's command sequence through
``retabench.cli.main`` in passes until the time budget is spent, then
checks the first pass's outputs and compares the files of every pass by
digest. With ``--trace 1`` it builds the inputs itself under tracing and
alternates untraced and traced passes, so the traced passes give the
per-layer numbers and their ratio to the untraced passes gives the
tracing overhead. Either phase writes one JSON object to ``--result``.

Times are reported at a reference machine speed. The 2-vCPU machine the
bounds were set on runs the same code up to 40% slower for stretches of
seconds to minutes, because of load from outside the process; wall and
CPU time move together, so neither escapes it. A fixed interpreter loop
(``calibrate``) is timed before and after every CLI command, and each
command's time is scaled by ``REFERENCE_CALIBRATION_S`` over the mean of
the two loop times around it. Raw times are kept in the run record.
"""

import time

CALIBRATION_LOOPS = 400_000
CALIBRATION_DRAWS = 40
# Calibration time in the machine's fast state (2-vCPU Intel Xeon VM), by
# the number of threads the workload's commands run.
REFERENCE_CALIBRATION_S = {1: 0.035, 2: 0.055}


def calibrate(threads: int = 1) -> float:
    """Seconds for a fixed stretch of work on ``threads`` threads.

    One thread runs an interpreter loop. More threads each draw and
    partition random (200, 256) blocks, the numpy work of RETA resampling
    that runs outside the interpreter lock, so the loop sees every core
    the workload's thread pool uses.
    """
    start = time.perf_counter()
    if threads == 1:
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_draw_and_partition, range(threads)))
    return time.perf_counter() - start


def _draw_and_partition(stream: int) -> None:
    import numpy as np

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([stream])))
    for _ in range(CALIBRATION_DRAWS):
        np.argpartition(rng.random((200, 256)), 100, axis=1)


CALIBRATION_AT_START = calibrate()
STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402


def speed_scale(before: float, after: float, threads: int = 1) -> float:
    """Factor that takes a time measured between two calibrations to reference speed."""
    return REFERENCE_CALIBRATION_S[threads] / ((before + after) / 2.0)


def tree_digest(directory: Path) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def os_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return -1


def versions() -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            info = config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception:  # older releases print instead of returning a dict
            return "unknown"

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy.show_config),
            "scipy_blas": blas(scipy.show_config)}


def run_command(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        return -1


def run_pass(cli, workload, inputs: Path, out: Path, seed: int, tracer=None) -> dict:
    """One pass of the command sequence: raw and reference-speed wall time."""
    commands = workload.commands(inputs, out, seed)
    gc.collect()
    codes, raw, scales = [], [], []
    with tracer.installed() if tracer else nullcontext():
        calibration = calibrate(workload.threads)
        for index, command in enumerate(commands):
            if tracer:
                tracer.command = index
            start = time.perf_counter()
            codes.append(run_command(cli, command.argv))
            raw.append(time.perf_counter() - start)
            after = calibrate(workload.threads)
            scales.append(speed_scale(calibration, after, workload.threads))
            calibration = after
    result = {
        "wall_s": sum(t * s for t, s in zip(raw, scales)),
        "raw_wall_s": sum(raw),
        "codes": codes,
        "digests": {c.name: tree_digest(c.out) if c.out.is_dir() else {} for c in commands},
    }
    if tracer:
        names = [c.argv[0] for c in commands]
        result["layers"] = layer_metrics(tracer.spans, names, scales)
        first = min((s[2] for s in tracer.spans), default=0.0)
        result["spans"] = [[s[0], f"{s[1][1]}.{s[1][2]}", s[2] - first, s[3] - first, s[4], s[5]]
                           for s in sorted(tracer.spans)]
        result["commands"] = names
    return result


def setup(args) -> dict:
    import retabench  # noqa: F401  (its import time is part of set-up)

    codes = WORKLOADS[args.workload].build(args.seed, args.inputs)
    elapsed = time.perf_counter() - STARTED
    scale = speed_scale(CALIBRATION_AT_START, calibrate())
    return {"setup_s": elapsed * scale, "raw_setup_s": elapsed, "codes": codes,
            "digest": tree_digest(args.inputs)}


def measure(args) -> dict:
    from retabench import cli

    workload = WORKLOADS[args.workload]
    build_codes, gen_s = [], 0.0
    if args.trace:
        tracer = Tracer()
        tracer.command = 0
        with tracer.installed():
            before = calibrate()
            build_codes = workload.build(args.seed, args.inputs)
            scale = speed_scale(before, calibrate())
        gen_s = layer_metrics(tracer.spans, ["synth"], [scale])["synthetic.gen_s"]
    threads_at_start = os_threads()

    passes = []
    unit = 2 if args.trace else 1  # trace runs alternate untraced and traced passes
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        for _ in range(unit):
            index = len(passes)
            out = args.out / f"pass{index}"
            traced = args.trace and index % 2 == 1
            passes.append(run_pass(cli, workload, args.inputs, out, args.seed,
                                   Tracer() if traced else None))
            if index > 0:
                shutil.rmtree(out, ignore_errors=True)
        unit_s = time.perf_counter() - unit_start
        if time.perf_counter() - start + unit_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        checks = workload.check(args.inputs, args.out / "pass0", args.seed)
    except Exception as exc:  # unreadable or missing outputs fail the run's checks
        traceback.print_exc()
        checks = [Check("outputs_readable", False, repr(exc))]
    checks.append(Check("outputs_identical_across_passes",
                        all(p["digests"] == passes[0]["digests"] for p in passes), ""))

    plain = [p for p in passes if "layers" not in p]
    result = {
        "wall_s": [p["wall_s"] for p in plain],
        "raw_wall_s": [p["raw_wall_s"] for p in plain],
        "peak_rss_mb": peak_rss_mb,
        "digests": passes[0]["digests"],
        "threads_at_start": threads_at_start,
        "versions": versions(),
    }
    traced = [p for p in passes if "layers" in p]
    if traced:
        counts = [{k: v for k, v in p["layers"].items() if not k.endswith("_s")} for p in traced]
        checks.append(Check("trace_counts_repeat", all(c == counts[0] for c in counts), ""))
        result["layers"] = summarize_layers(traced, statistics.median(result["wall_s"]), gen_s)
        result["trace"] = {"commands": traced[0]["commands"], "spans": traced[0]["spans"]}
    codes = build_codes + [code for p in passes for code in p["codes"]]
    result["checks"] = [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks]
    result["attempted"] = len(codes) + len(checks)
    result["failed"] = sum(code != 0 for code in codes) + sum(not c.ok for c in checks)
    return result


def summarize_layers(traced: list[dict], untraced_wall: float, gen_s: float) -> dict:
    """Median of each per-layer value over the traced passes."""
    keys = traced[0]["layers"].keys() - {"trace.accounted_s"}
    layers = {k: statistics.median(p["layers"][k] for p in traced) for k in keys}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    layers["synthetic.gen_s"] = gen_s
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_ratio"] = traced_wall / untraced_wall
    layers["trace.accounted_fraction"] = statistics.median(
        p["layers"]["trace.accounted_s"] / p["wall_s"] for p in traced)
    return layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=["setup", "measure"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    result = setup(args) if args.phase == "setup" else measure(args)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
