"""Summarise benchmark records and compare two sets of them.

    python3 perfbench/report.py summarize DIR_OR_FILES... [--out FILE]
    python3 perfbench/report.py compare BASE NEW

A record is one JSON file that run.py wrote to perfbench/_out/results/. A
summary gives, per workload: each end-to-end metric's median, quartiles and
spread (interquartile range over median) across the untraced runs; the same
for the unbounded wall time and throughput; the median of each per-layer
metric across the traced runs; the output digests per seed; and the
environment. BASE and NEW may each be a summary file or a set of records.
compare refuses (exit 2) when the two environments differ, prints every
metric with its median change against the bound in BENCHMARK.json, and says
whether the output digests of shared seeds match.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(paths) -> list:
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    return [json.loads(f.read_text()) for f in files]


def _stats(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "values": values,
    }


def summarize(records) -> dict:
    envs = {json.dumps(r["env"], sort_keys=True) for r in records}
    if len(envs) > 1:
        raise SystemExit("error: these records come from different environments; summarise them apart")
    out = {"env": records[0]["env"], "workloads": {}}
    for name in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == name]
        plain = [r for r in runs if r["trace"] == 0]
        traced = [r for r in runs if r["trace"] == 1]
        entry = {
            "program": runs[0]["program"],
            "runs": {"untraced": len(plain), "traced": len(traced)},
            "all_correct": all(r["correct"] for r in runs),
            "seeds": sorted({r["seed"] for r in runs}),
            "digests": {str(r["seed"]): r["digests"] for r in runs},
            "digests_stable": all(
                r["digests"] == s["digests"] for r in runs for s in runs if r["seed"] == s["seed"]
            ),
        }
        if plain:
            names = plain[0]["metrics"]
            entry["end_to_end"] = {
                m: {"unit": plain[0]["metrics"][m]["unit"], **_stats([r["metrics"][m]["value"] for r in plain])}
                for m in names
            }
            entry["quality"] = {
                q: _stats([r["quality"][q] for r in plain if q in r["quality"]]) for q in plain[0]["quality"]
            }
            entry["times"] = {t: _stats([r["times"][t] for r in plain]) for t in plain[0]["times"]}
        if traced:
            names = traced[0]["metrics"]
            entry["per_layer"] = {
                m: {
                    "unit": traced[0]["metrics"][m]["unit"],
                    "median": statistics.median(r["metrics"][m]["value"] for r in traced),
                }
                for m in names
            }
        out["workloads"][name] = entry
    return out


def _load_side(arg: str) -> dict:
    path = Path(arg)
    if path.is_file():
        data = json.loads(path.read_text())
        if "workloads" in data:
            return data
    return summarize(load_records([arg]))


def compare(base: dict, new: dict) -> int:
    if base["env"] != new["env"]:
        print("refusing to compare: the environments differ", file=sys.stderr)
        for key in sorted(set(base["env"]) | set(new["env"])):
            if base["env"].get(key) != new["env"].get(key):
                print(f"  {key}: {base['env'].get(key)!r} vs {new['env'].get(key)!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    status = 0
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][name], new["workloads"][name]
        print(f"{name}: base {b['runs']} runs, new {n['runs']} runs")
        for key in ("spec_hash", "pool_size"):
            if b["program"].get(key) != n["program"].get(key):
                print(f"  note: program {key} changed: {b['program'].get(key)} -> {n['program'].get(key)}")
        for metric, (bound, better) in bounds.items():
            if metric not in b.get("end_to_end", {}) or metric not in n.get("end_to_end", {}):
                continue
            bm, nm = b["end_to_end"][metric], n["end_to_end"][metric]
            change = (nm["median"] - bm["median"]) / abs(bm["median"]) if bm["median"] else 0.0
            worse = change if better == "lower" else -change
            verdict = "ok"
            if worse > bound:
                verdict, status = "WORSE than bound", 1
            elif max(bm["spread"], nm["spread"]) > bound:
                verdict = "unresolved (spread above bound)"
            print(
                f"  {metric:16s} {bm['median']:.6g} -> {nm['median']:.6g} {bm['unit']}"
                f"  change {change:+.2%} (bound {bound:.0%}, {better} is better)  {verdict}"
            )
        for metric in sorted(set(b.get("times", {})) & set(n.get("times", {}))):
            bm, nm = b["times"][metric], n["times"][metric]
            print(
                f"  {metric:16s} {bm['median']:.6g} -> {nm['median']:.6g}"
                f"  (not bounded; spreads {bm['spread']:.2f} and {nm['spread']:.2f})"
            )
        shared = set(b["digests"]) & set(n["digests"])
        same = [s for s in sorted(shared) if b["digests"][s] == n["digests"][s]]
        print(f"  output digests identical on {len(same)} of {len(shared)} shared seeds")
        if not (b["all_correct"] and n["all_correct"]):
            print("  some runs failed their output checks")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser("summarize")
    p_sum.add_argument("paths", nargs="+")
    p_sum.add_argument("--out")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("base")
    p_cmp.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "summarize":
        text = json.dumps(summarize(load_records(args.paths)), indent=1, sort_keys=True) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
        return 0
    return compare(_load_side(args.base), _load_side(args.new))


if __name__ == "__main__":
    sys.exit(main())
