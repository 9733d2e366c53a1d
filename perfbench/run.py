"""subshift benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the src/ tree next to this
directory. --trace 0 prints the end-to-end metrics, measured with no
instrumentation. --trace 1 alternates untraced and traced passes and prints
the per-layer metrics of the traced ones, plus the tracing overhead as the
difference between the two. Either way every pass is checked, a full record
goes to perfbench/_out/results/, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
# Wall time is printed and recorded, and reported per layer by --trace 1, but
# it is no bounded end-to-end metric. On a shared 2-vCPU x86_64 virtual
# machine, single-core speed swung by up to 2x within seconds (a fixed numpy
# loop read 0.32-0.67 s with no steal time), and the wall times of ten runs
# minutes apart spread by 6-18% (interquartile range over median). A bound
# must sit well above the spread, and no bound may exceed 25%.
SETUP_SAMPLES = 3
MIN_PASSES = 2
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "kl_ref_max_dev": "nats",
}
TIME_UNITS = {"wall_s": "s", "items_per_s": "1/s"}


def environment() -> dict:
    """Machine and toolchain facts; results are only comparable when these match."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}; {blas.get('openblas configuration', '')}".strip("; ")
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_desc,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("SSL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def time_setup(workload: str, seed: int) -> list:
    """Wall time of fresh interpreters that import subshift and build the inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=checkout.ROOT, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


class Pass:
    __slots__ = ("traced", "wall", "cpu", "result", "layers", "self_test", "spans", "tallies")


def one_pass(wl, traced: bool) -> Pass:
    import tracer
    import workloads

    p = Pass()
    p.traced, p.layers, p.self_test, p.spans, p.tallies = traced, None, [], [], {}
    tr = tracer.Tracer() if traced else None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if traced:
            with tracer.installed(tr) as absent, tr.span("perfbench.pass") as root:
                tr.root = root.id
                c0, t0 = time.process_time(), time.perf_counter()
                outcome = wl.run_pass()
                p.wall, p.cpu = time.perf_counter() - t0, time.process_time() - c0
        else:
            outcome = wl.run_pass()
            p.wall, p.cpu = time.perf_counter() - t0, time.process_time() - c0
        p.result = wl.check(outcome)
    except Exception as exc:  # noqa: BLE001 - a crashing pass is reported as failed, not hidden
        p.wall, p.cpu = time.perf_counter() - t0, time.process_time() - c0
        p.result = workloads.PassResult(wl.items)
        p.result.fail(wl.items, f"pass raised {type(exc).__name__}: {exc}")
        p.result.problems.append(traceback.format_exc(limit=8))
        return p
    if traced:
        p.layers = tracer.layer_metrics(tr)
        p.self_test = tracer.self_test(wl.name, tr, absent)
        origin = min(s.start for s in tr.spans)
        p.spans = [s.to_json(origin) for s in sorted(tr.spans, key=lambda s: s.start)]
        p.tallies = tr.tallies()
    return p


def run_passes(wl, seconds: float, trace: bool) -> list:
    """Passes back to back until the next one would overrun the budget; at least MIN_PASSES."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(wl, trace and len(passes) % 2 == 1))
        first = passes[0].result.digests
        last = passes[-1].result
        if len(passes) > 1 and last.digests != first:
            last.fail(wl.items, f"output digests differ from the first pass: {last.digests} vs {first}")
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("sweep_default", "sweep_model_based", "kl_bias_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        checkout.use_checkout_source()
    except checkout.NoSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    from subshift import harness

    wl = workloads.make(args.workload, args.seed, checkout.OUT / "work")
    setup = [] if args.trace else time_setup(args.workload, args.seed)
    passes = run_passes(wl, args.seconds, bool(args.trace))

    attempted = wl.items * len(passes)
    failed = sum(p.result.failed_items for p in passes)
    self_test = sorted({msg for p in passes for msg in p.self_test})
    correct = failed == 0 and not self_test
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    quality = passes[0].result.quality
    wall = statistics.median(p.wall for p in untraced)
    end_to_end = {
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / attempted,
        "kl_ref_max_dev": quality.get("kl_ref_max_dev", float("nan")),
    }
    times = {"wall_s": wall, "items_per_s": wl.items / wall}
    if args.trace:
        per_layer = tracer.median_layers([p.layers for p in traced])
        per_layer["workload.wall_s"] = wall
        per_layer["workload.items_per_s"] = wl.items / wall
        per_layer["tracing.traced_wall_s"] = statistics.median(p.wall for p in traced)
        per_layer["tracing.overhead_share"] = per_layer["tracing.traced_wall_s"] / wall - 1.0
        units = {name: unit for name, unit, _ in tracer.per_layer_declarations()}
        metrics = {name: {"value": per_layer[name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    pool = getattr(harness, "_pool_size", None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "program": {"pool_size": pool() if pool else None, **wl.describe()},
        "finished_unix": time.time(),
        "setup_samples_s": setup,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu, "failed": p.result.failed_items}
            for p in passes
        ],
        "digests": passes[0].result.digests,
        "quality": quality,
        "spans_of_last_traced_pass": next((p.spans for p in reversed(passes) if p.traced), []),
        "tallies_of_last_traced_pass": next((p.tallies for p in reversed(passes) if p.traced), {}),
        "end_to_end": end_to_end,
        "times": times,
        "problems": [msg for p in passes for msg in p.result.problems] + self_test,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = checkout.OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes of {wl.items} items")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in sorted(quality.items()):
            if name not in metrics:
                print(f"  {name:48s} {value:.6g} (output quality, checked not bounded)")
        for name, value in times.items():
            print(f"  {name:48s} {value:.6g} {TIME_UNITS[name]} (median pass, not bounded)")
    for name, digest in sorted(record["digests"].items()):
        print(f"  sha256 {name} {digest}")
    for msg in record["problems"]:
        print(f"  CHECK FAILED: {msg}", file=sys.stderr)
    print(f"  record: {path.relative_to(checkout.ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
