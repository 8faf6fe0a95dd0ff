"""Span tracing around retabench's public functions, and the per-layer
metrics derived from the spans.

The benchmark wraps the package's public functions from outside; nothing
in ``src/`` knows about tracing. Modules import each other with
``from .x import y``, so a function is replaced in every ``retabench.*``
namespace that holds it, not only in the module that defines it.

A span is (id, name, start, end, parent id, command index, note). The
note is a small tuple taken from the call's arguments or result, from
which the counts below are derived after the run. Spans live in memory
until the caller writes them out.

Self time partitions wall-clock time: at each instant the time goes to
the spans that are open and have no open child, shared equally when
several threads each have one. The self times of all spans therefore add
up to the time covered by the root spans, even when a thread pool runs
spans side by side.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _args(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _point_note(a, result):
    config = a["config"]
    return (a["eta"] < 1.0, a["ranked_all"].prompt_id, a["n"], config.resamples)


def _file_size(a, result):
    return (os.path.getsize(a["path"]),)


def _dataset_records(a, result):
    return (result.num_prompts + sum(len(r) for r in result.responses.values()),)


def _written_records(a, result):
    dataset = a["dataset"]
    return (dataset.num_prompts + sum(len(r) for r in dataset.responses.values()),)


def _chain_steps(a, result):
    config = a["config"]
    if config.max_steps is not None:
        return (config.max_steps,)
    num = a["model"].num_candidates
    return (math.ceil(num * config.k * math.log(1.0 / config.epsilon)),)


# (module, function, self-time bucket, note taken from the bound arguments
# and the result). Missing functions are skipped, so the benchmark keeps
# running when a later version of the package renames or removes one.
TRACED = [
    ("cli", "main", "cli.self_s", None),
    ("cli", "_cmd_sample_prompts", "cli.self_s", None),
    ("cli", "_cmd_synth", "cli.self_s", None),
    ("cli", "_cmd_validate", "cli.self_s", None),
    ("cli", "_cmd_reta", "cli.self_s", None),
    ("cli", "_cmd_bon", "cli.self_s", None),
    ("cli", "_cmd_metrics", "cli.self_s", None),
    ("cli", "_cmd_export", "cli.self_s", None),
    ("dataset", "load_benchmark", "dataset.load_s", _dataset_records),
    ("dataset", "load_candidate_prompts", "dataset.load_s", lambda a, r: (len(r),)),
    ("dataset", "ingest_rm_scores", "dataset.ingest_s", lambda a, r: (len(r.scores),)),
    ("dataset", "validate_dataset", "dataset.validate_s", None),
    ("dataset", "write_benchmark", "dataset.write_s", _written_records),
    ("dataset", "write_rm_scores", "dataset.write_s", lambda a, r: (len(a["table"].scores),)),
    ("ranking", "rank_by_table", "ranking.rank_s",
     lambda a, r: (("table", a["table"].rm_name), a["prompt_id"])),
    ("ranking", "rank_by_oracle", "ranking.rank_s", lambda a, r: (("oracle",), a["prompt_id"])),
    ("reta", "reta_point_estimate", "reta.point_s", _point_note),
    ("reta", "reta_estimate", "reta.curve_s", None),
    ("reta", "reta_curve", "reta.curve_s", None),
    ("bon", "subset_rank_weights", "bon.weights_s",
     lambda a, r: (a["pool_size"], a["n"], a["k"])),
    ("bon", "bon_estimate", "bon.curve_s", None),
    ("bon", "rank_k_of_n_estimate", "bon.curve_s", None),
    ("bon", "best_m_of_n_estimate", "bon.curve_s", None),
    ("bon", "bon_curve", "bon.curve_s", None),
    ("metrics", "metric_report", "metrics.report_s", None),
    ("metrics", "hit_rate", "metrics.report_s", None),
    ("metrics", "mrr_at_selection", "metrics.report_s", None),
    ("metrics", "ndcg_at_selection", "metrics.report_s", None),
    ("metrics", "pairwise_accuracy", "metrics.pairwise_s", None),
    ("dpp", "build_dpp", "dpp.build_s", None),
    ("dpp", "sample_kdpp", "dpp.sample_s", _chain_steps),
    ("synthetic", "gen_synthetic", "synthetic.gen_s", None),
    ("reta", "write_curve_csv", "write.csv_s", _file_size),
    ("reta", "write_per_prompt_csv", "write.csv_s", _file_size),
    ("bon", "write_bon_csv", "write.csv_s", _file_size),
    ("metrics", "write_metrics_csv", "write.csv_s", _file_size),
]

COMMANDS = ("sample-prompts", "validate", "reta", "bon", "metrics", "export")


class Tracer:
    """Collects spans from wrapped functions while ``installed`` is active."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.command = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name, note):
        sig = inspect.signature(func)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A pool worker's first span was caused by whatever the
            # installing thread is running, which waits on the pool.
            parent = stack[-1] if stack else (
                tracer._root_stack[-1] if tracer._root_stack else -1)
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            completed = False
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                completed = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = note(_args(sig, args, kwargs), result) if note and completed else None
                tracer.spans.append((span_id, name, start, end, parent, tracer.command, info))

        return traced

    @contextmanager
    def installed(self):
        """Replace the traced functions in every loaded retabench module."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "retabench" or key.startswith("retabench.")]
        patches = []
        for module_name, func_name, bucket, note in TRACED:
            home = sys.modules.get(f"retabench.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, (bucket, module_name, func_name), note)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)
                    patches.append((module, func_name, original))
        try:
            yield self
        finally:
            for module, func_name, original in patches:
                setattr(module, func_name, original)


def self_times(spans) -> dict[int, float]:
    """Each span's share of wall-clock time as the innermost open span."""
    parent = {s[0]: s[4] for s in spans}
    events = sorted([(s[2], 1, s[0]) for s in spans] + [(s[3], 0, s[0]) for s in spans])
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    innermost: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    last = None
    for when, is_start, span_id in events:
        if innermost:
            share = (when - last) / len(innermost)
            for inner in innermost:
                own[inner] += share
        last = when
        up = parent[span_id]
        if is_start:
            active.add(span_id)
            innermost.add(span_id)
            if up in active:
                open_children[up] += 1
                innermost.discard(up)
        else:
            active.discard(span_id)
            innermost.discard(span_id)
            if up in active:
                open_children[up] -= 1
                if open_children[up] == 0:
                    innermost.add(up)
    return own


TIME_BUCKETS = sorted({bucket for _, _, bucket, _ in TRACED})


def layer_metrics(spans, commands: list[str], scales: list[float]) -> dict[str, float]:
    """Per-layer self times, counts and waste ratios of one traced pass.

    ``commands`` and ``scales`` give, for a span's command index, the CLI
    command name and the factor that takes its times to reference machine
    speed. Distinct-work fractions are counted per command, because
    separate CLI invocations cannot share work.
    """
    own = self_times(spans)
    out = {bucket: 0.0 for bucket in TIME_BUCKETS}
    for span in spans:
        out[span[1][0]] += own.get(span[0], 0.0) * scales[span[5]]
    out["trace.accounted_s"] = sum(own.get(s[0], 0.0) * scales[s[5]] for s in spans)
    for command in (*COMMANDS, *commands):
        out[f"cli.{command}_s"] = 0.0

    by_func = defaultdict(list)
    for span in spans:
        by_func[span[1][2]].append(span)
    for span in by_func["main"]:
        out[f"cli.{commands[span[5]]}_s"] += (span[3] - span[2]) * scales[span[5]]

    draws = [s for s in by_func["reta_point_estimate"] if s[6] and s[6][0]]
    out["reta.point_calls"] = len(by_func["reta_point_estimate"])
    out["reta.subset_draws"] = sum(s[6][3] for s in draws)
    out["reta.distinct_draw_fraction"] = _fraction(
        {(s[5], s[6][1], s[6][2], s[6][3]) for s in draws}, len(draws))

    ranks = by_func["rank_by_table"] + by_func["rank_by_oracle"]
    out["ranking.rank_calls"] = len(ranks)
    out["ranking.distinct_fraction"] = _fraction({(s[5],) + s[6] for s in ranks}, len(ranks))

    weights = by_func["subset_rank_weights"]
    out["bon.weights_calls"] = len(weights)
    out["bon.distinct_weight_fraction"] = _fraction(
        {(s[5],) + s[6] for s in weights}, len(weights))

    out["dataset.load_records"] = _note_sum(by_func, "load_benchmark", "load_candidate_prompts")
    out["dataset.ingest_records"] = _note_sum(by_func, "ingest_rm_scores")
    out["dataset.write_records"] = _note_sum(by_func, "write_benchmark", "write_rm_scores")
    out["write.bytes"] = _note_sum(by_func, "write_curve_csv", "write_per_prompt_csv",
                                   "write_bon_csv", "write_metrics_csv")

    out["dpp.chain_steps"] = _note_sum(by_func, "sample_kdpp")
    sample_s = out["dpp.sample_s"]
    out["dpp.steps_per_s"] = out["dpp.chain_steps"] / sample_s if sample_s > 0 else 0.0
    return out


def _fraction(distinct: set, total: int) -> float:
    return len(distinct) / total if total else 0.0


def _note_sum(by_func, *names: str) -> int:
    return sum(s[6][0] for name in names for s in by_func[name] if s[6])
