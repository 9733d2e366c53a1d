"""Thread-safe tracer that wraps the public functions of each subshift layer.

Sweep cells run on the harness's worker threads, so every thread keeps its
own stack of open frames and its own call tallies; finished spans go into
one list under a lock. Each frame accumulates the wall time of its
children, which gives self time as duration minus children.

Two kinds of wrapper:

* spans, for calls made a few hundred times per pass: one record each, with
  wall time, thread-CPU time and the parent span;
* tallies, for the nnet functions that run ~100k times per sweep: a call
  count and a self-time sum per thread, no per-call object.

Each function is patched where its caller looks it up (see ``PATCHES``):
names that ``harness`` imported with ``from ... import`` are replaced in
``harness``; functions reached as module attributes are replaced on their
module, which also covers calls from inside that module.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

from subshift import harness, mitigation, nnet, reweight_opt

SPAN = "span"
TALLY = "tally"

# (module, attribute, traced name, kind). The traced name says which layer
# does the work, independent of where the caller imported it from.
PATCHES = (
    (harness, "run_sweep", "harness.run_sweep", SPAN),
    (harness, "write_run_outputs", "harness.write_run_outputs", SPAN),
    (harness, "correlate_results", "harness.correlate_results", SPAN),
    (harness, "make_splits", "synth_data.make_splits", SPAN),
    (harness, "annotate_samples", "grouping.annotate_samples", SPAN),
    (harness, "evaluate", "metrics.evaluate", SPAN),
    (harness, "auc", "metrics.auc", SPAN),
    (harness, "min_kl_table", "reweight_opt.min_kl_table", SPAN),
    (reweight_opt, "min_kl_table", "reweight_opt.min_kl_table", SPAN),
    (mitigation, "train", "mitigation.train", SPAN),
    (reweight_opt, "optimal_weights", "reweight_opt.optimal_weights", TALLY),
    (nnet, "bce_loss_and_grad", "nnet.bce_loss_and_grad", TALLY),
    (nnet, "sgd_adam_step", "nnet.sgd_adam_step", TALLY),
    (nnet, "per_sample_losses", "nnet.per_sample_losses", TALLY),
    (nnet, "cfair_loss_and_grad", "nnet.cfair_loss_and_grad", TALLY),
    (nnet, "forward", "nnet.forward", TALLY),
)

SWEEPS = frozenset({"sweep_default", "sweep_model_based"})
ALL = SWEEPS | {"kl_bias_grid"}

# Which workloads must reach each traced name; the self-test fails a traced
# run when a name fires outside this set or stays silent inside it.
REACHED_BY = {
    "harness.run_sweep": SWEEPS,
    "harness.write_run_outputs": SWEEPS,
    "harness.correlate_results": SWEEPS,
    "synth_data.make_splits": SWEEPS,
    "grouping.annotate_samples": SWEEPS,
    "metrics.evaluate": SWEEPS,
    "metrics.auc": SWEEPS,
    "reweight_opt.min_kl_table": ALL,
    "reweight_opt.optimal_weights": ALL,
    "mitigation.train": SWEEPS,
    "nnet.bce_loss_and_grad": SWEEPS,
    "nnet.sgd_adam_step": SWEEPS,
    "nnet.per_sample_losses": frozenset({"sweep_default"}),
    "nnet.cfair_loss_and_grad": frozenset({"sweep_model_based"}),
    "nnet.forward": SWEEPS,
}

METHODS = ("erm", "gdro", "resampling", "domain_ind", "cfair", "jtt")
NNET_FUNCTIONS = ("bce_loss_and_grad", "sgd_adam_step", "per_sample_losses", "cfair_loss_and_grad", "forward")


def per_layer_declarations() -> list:
    """Every per-layer metric a traced run reports, as BENCHMARK.json lists them."""
    out = []
    for fn in NNET_FUNCTIONS:
        out.append((f"nnet.{fn}.calls", "count", "lower"))
        out.append((f"nnet.{fn}.self_us_per_call", "us", "lower"))
    for m in METHODS:
        out.append((f"mitigation.train.{m}.cells", "count", "higher"))
        out.append((f"mitigation.train.{m}.cpu_s", "s", "lower"))
        out.append((f"mitigation.train.{m}.cell_s_p50", "s", "lower"))
        out.append((f"mitigation.train.{m}.cell_s_p90", "s", "lower"))
    out += [
        ("mitigation.train.wait_s", "s", "lower"),
        ("reweight_opt.optimal_weights.calls", "count", "lower"),
        ("reweight_opt.optimal_weights.iterations_hard", "count", "lower"),
        ("reweight_opt.optimal_weights.iterations_soft", "count", "lower"),
        ("reweight_opt.optimal_weights.self_us_per_call", "us", "lower"),
        ("reweight_opt.optimal_weights.unconverged", "count", "lower"),
        ("reweight_opt.min_kl_table.wall_s", "s", "lower"),
        ("synth_data.make_splits.wall_s", "s", "lower"),
        ("grouping.annotate_samples.wall_s", "s", "lower"),
        ("metrics.evaluate.wall_s", "s", "lower"),
        ("harness.run_sweep.wall_s", "s", "lower"),
        ("harness.pool_workers", "count", "lower"),
        ("harness.write_run_outputs.wall_s", "s", "lower"),
        ("harness.correlate_results.wall_s", "s", "lower"),
        ("workload.wall_s", "s", "lower"),
        ("workload.items_per_s", "1/s", "higher"),
        ("tracing.traced_wall_s", "s", "lower"),
        ("tracing.overhead_share", "share", "lower"),
    ]
    return out


class Span:
    __slots__ = ("name", "id", "parent", "thread", "start", "end", "cpu", "frame", "attrs")

    @property
    def wall(self) -> float:
        return self.end - self.start

    def to_json(self, origin: float) -> dict:
        """Times in seconds from origin; self time is duration minus children."""
        return {
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "thread": self.thread,
            "start_s": self.start - origin,
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "self_wall_s": self.wall - self.frame[0],
            "self_cpu_s": self.cpu - self.frame[1],
            **self.attrs,
        }


class Tracer:
    """Collects spans and tallies for one pass; create one per traced pass.

    A frame on a thread's stack is [child wall s, child thread-CPU s, span or
    None]; closing a frame adds its own wall and CPU time to its parent's.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._tallies = []  # one dict per thread that ran a wrapped call
        self.spans = []
        self.root = None  # parent for spans opened on a thread with no open span

    def _state(self):
        local = self._local
        try:
            return local.stack, local.tally
        except AttributeError:
            local.stack, local.tally = [], {}
            with self._lock:
                self._tallies.append(local.tally)
            return local.stack, local.tally

    @contextmanager
    def span(self, name: str, **attrs):
        stack, _ = self._state()
        span = Span()
        span.name, span.attrs = name, attrs
        span.id = next(self._ids)
        span.parent = next((f[2].id for f in reversed(stack) if f[2] is not None), self.root)
        span.thread = threading.get_ident()
        span.frame = [0.0, 0.0, span]
        stack.append(span.frame)
        cpu0 = time.thread_time()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.cpu = time.thread_time() - cpu0
            stack.pop()
            if stack:
                stack[-1][0] += span.wall
                stack[-1][1] += span.cpu
            with self._lock:
                self.spans.append(span)

    def wrap_span(self, name: str, fn):
        def traced(*args, **kwargs):
            attrs = {"method": args[0]} if name == "mitigation.train" else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def wrap_tally(self, name: str, fn, on_result=None):
        def counted(*args, **kwargs):
            stack, tally = self._state()
            frame = [0.0, 0.0, None]
            stack.append(frame)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.thread_time() - cpu0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                entry = tally.get(name)
                if entry is None:
                    entry = tally[name] = {"calls": 0, "self_s": 0.0, "self_cpu_s": 0.0}
                entry["calls"] += 1
                entry["self_s"] += wall - frame[0]
                entry["self_cpu_s"] += cpu - frame[1]
            if on_result is not None:
                on_result(entry, args, kwargs, result)
            return result

        return counted

    def tallies(self) -> dict:
        merged = {}
        with self._lock:
            per_thread = list(self._tallies)
        for tally in per_thread:
            for name, entry in tally.items():
                into = merged.setdefault(name, {})
                for key, value in entry.items():
                    into[key] = into.get(key, 0) + value
        return merged

    def fired(self) -> set:
        return {s.name for s in self.spans} | set(self.tallies())


def _record_solve(entry, args, kwargs, result) -> None:
    grouping = args[1] if len(args) > 1 else kwargs["grouping"]
    key = "iterations_hard" if grouping.is_hard else "iterations_soft"
    entry[key] = entry.get(key, 0) + int(result.iterations)
    entry["unconverged"] = entry.get("unconverged", 0) + (not result.converged)


@contextmanager
def installed(tracer: Tracer):
    """Patch every function in PATCHES that exists; restore on exit.

    Yields the traced names that could not be patched because the program
    no longer has that attribute.
    """
    saved, absent = [], set()
    for module, attr, name, kind in PATCHES:
        original = getattr(module, attr, None)
        if original is None:
            absent.add(name)
            continue
        if kind == SPAN:
            wrapper = tracer.wrap_span(name, original)
        else:
            hook = _record_solve if name == "reweight_opt.optimal_weights" else None
            wrapper = tracer.wrap_tally(name, original, hook)
        saved.append((module, attr, original))
        setattr(module, attr, wrapper)
    try:
        yield absent
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_test(workload: str, tracer: Tracer, absent: set) -> list:
    """Names that fired where they should not, or stayed silent where they should fire."""
    fired = tracer.fired()
    problems = []
    for name, reached_by in REACHED_BY.items():
        if name in absent:
            continue
        expected = workload in reached_by
        if expected and name not in fired:
            problems.append(f"traced name {name} never fired on {workload}")
        if not expected and name in fired:
            problems.append(f"traced name {name} fired on {workload}, which should not reach it")
    return problems


def _us_per_call(entry: dict) -> float:
    """Self thread-CPU time per call: what a call costs while it runs, without
    the time its thread waited for the interpreter lock."""
    calls = entry.get("calls", 0)
    return 1e6 * entry["self_cpu_s"] / calls if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass; layers the pass never reached read 0."""
    tallies = tracer.tallies()
    out = {}
    for fn in NNET_FUNCTIONS:
        entry = tallies.get(f"nnet.{fn}", {})
        out[f"nnet.{fn}.calls"] = entry.get("calls", 0)
        out[f"nnet.{fn}.self_us_per_call"] = _us_per_call(entry)

    train = [s for s in tracer.spans if s.name == "mitigation.train"]
    for m in METHODS:
        cells = [s for s in train if s.attrs.get("method") == m]
        walls = [s.wall for s in cells]
        out[f"mitigation.train.{m}.cells"] = len(cells)
        out[f"mitigation.train.{m}.cpu_s"] = sum(s.cpu for s in cells)
        out[f"mitigation.train.{m}.cell_s_p50"] = float(np.percentile(walls, 50)) if walls else 0.0
        out[f"mitigation.train.{m}.cell_s_p90"] = float(np.percentile(walls, 90)) if walls else 0.0
    out["mitigation.train.wait_s"] = sum(s.wall - s.cpu for s in train)

    solves = tallies.get("reweight_opt.optimal_weights", {})
    calls = solves.get("calls", 0)
    out["reweight_opt.optimal_weights.calls"] = calls
    out["reweight_opt.optimal_weights.iterations_hard"] = solves.get("iterations_hard", 0)
    out["reweight_opt.optimal_weights.iterations_soft"] = solves.get("iterations_soft", 0)
    out["reweight_opt.optimal_weights.self_us_per_call"] = _us_per_call(solves)
    out["reweight_opt.optimal_weights.unconverged"] = solves.get("unconverged", 0)

    def wall(name):
        return sum(s.wall for s in tracer.spans if s.name == name)

    for name in (
        "reweight_opt.min_kl_table",
        "synth_data.make_splits",
        "grouping.annotate_samples",
        "metrics.evaluate",
        "harness.run_sweep",
        "harness.write_run_outputs",
        "harness.correlate_results",
    ):
        out[f"{name}.wall_s"] = wall(name)
    out["harness.pool_workers"] = len({s.thread for s in train})
    return out


def median_layers(per_pass: list) -> dict:
    """Median of each per-layer number over the traced passes of a run."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
