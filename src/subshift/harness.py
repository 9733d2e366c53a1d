"""Experiment CLI: divergence tables, mitigation sweeps, correlations, ablations.

Subcommands
    analyze-kl   per-scheme minimum divergence table; --check asserts the
                 frozen reference values
    run          (method, scheme, seed) sweep with CSV outputs
    correlate    per-method Pearson correlation of min divergence vs AUC
    ablate       rerun the sweep under weaker bias and a smaller train set

Reproducibility: every cell derives its RNG seed from
hash(master_seed, method, scheme, seed index), so extending the scheme list
never perturbs existing cells, and a repeated run writes byte-identical
CSVs. Timestamps live only in manifest.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import mitigation
from .dist_core import Distribution, biased_distribution, uniform_distribution
from .errors import (
    InsufficientSchemes,
    InvalidConfig,
    OutOfRange,
    SubshiftError,
    YBasedGrouping,
)
from .grouping import GroupingScheme, annotate_samples, atom_grouping, is_y_free, reweighting_schemes
from .metrics import auc, evaluate, pearson
from .mitigation import TrainConfig
from .reweight_opt import min_kl_table, table_to_csv
from .synth_data import FeatureConfig, make_splits

__all__ = [
    "ExperimentSpec",
    "RunRecord",
    "REFERENCE_TABLE",
    "spec_hash",
    "run_sweep",
    "write_run_outputs",
    "correlate_results",
    "cmd_analyze_kl",
    "cmd_run",
    "cmd_correlate",
    "cmd_ablate",
    "main",
]

TOOL_VERSION = "0.1.0"

DEFAULT_SCHEMES = tuple(s.name for s in reweighting_schemes())

# Published minimum-divergence values (three decimals) for the default bias
# levels (0.95, 0.8); --check asserts against these, never regenerates them.
REFERENCE_TABLE = (
    ("A", 0.527, 0.527),
    ("Y", 0.527, 0.527),
    ("S", 0.527, 0.527),
    ("AY", 0.113, 0.113),
    ("SY", 0.527, 0.527),
    ("YSA", 0.000, 0.000),
    ("SC_noSC", 0.113, 0.113),
    ("AY_8", 0.113, 0.113),
    ("SY_8", 0.527, 0.527),
    ("Random", 0.527, 0.527),
    ("Noisy_AY_0.01", 0.113, 0.113),
    ("Noisy_AY_0.05", 0.113, 0.114),
    ("Noisy_AY_0.10", 0.113, 0.116),
    ("Noisy_AY_0.25", 0.114, 0.131),
    ("Noisy_AY_0.50", 0.118, 0.189),
)

CHECK_TOLERANCE = 5e-3
DEFAULT_P_S0 = 0.95
DEFAULT_P_S1 = 0.8

RESULT_COLUMNS = (
    "method",
    "grouping",
    "seed",
    "val_auc",
    "test_auc",
    "min_acc_A",
    "gap_A",
    "min_acc_S",
    "gap_S",
    "min_kl_gdro",
    "min_kl_resampling",
)


@dataclass(frozen=True)
class ExperimentSpec:
    methods: tuple = ("erm", "gdro", "resampling")
    schemes: tuple = DEFAULT_SCHEMES
    seeds: tuple = (0, 1, 2)
    p_s0: float = DEFAULT_P_S0
    p_s1: float = DEFAULT_P_S1
    n_train: int = 8000
    n_val: int = 2000
    n_test: int = 8000
    feature: FeatureConfig = FeatureConfig()
    train: TrainConfig = TrainConfig()
    master_seed: int = 0

    def __post_init__(self):
        # Reject a spec the sweep cannot run before any table or data is built.
        if len(self.seeds) == 0:
            raise OutOfRange("at least one seed is required")
        unknown = [m for m in self.methods if m not in mitigation.METHODS]
        if unknown:
            raise InvalidConfig(
                f"unknown method {unknown[0]!r}; choose from {', '.join(mitigation.METHODS)}"
            )
        schemes = [GroupingScheme.from_name(name) for name in self.schemes]
        for field_name in ("methods", "schemes", "seeds"):
            values = getattr(self, field_name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise InvalidConfig(f"{field_name} lists {repeated[0]!r} more than once")
        y_based = [s.name for s in schemes if not is_y_free(s)]
        for method in mitigation.NEEDS_Y_FREE:
            if method in self.methods and y_based:
                raise YBasedGrouping(
                    f"{method} needs y-free groups, but {y_based[0]} groups are a function of y"
                )
        for field_name in ("n_train", "n_val", "n_test"):
            if getattr(self, field_name) < 1:
                raise OutOfRange(f"{field_name} must be >= 1, got {getattr(self, field_name)}")


@dataclass(frozen=True)
class RunRecord:
    spec_hash: str
    rows: tuple
    kl_rows: tuple
    errors: tuple
    started: str
    finished: str
    version: str


def spec_hash(spec: ExperimentSpec) -> str:
    payload = json.dumps(asdict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def compute_kl_rows(scheme_names, p_s0: float, p_s1: float) -> list:
    p_train = biased_distribution(p_s0, p_s1)
    return min_kl_table([GroupingScheme.from_name(n) for n in scheme_names], p_train, uniform_distribution())


def run_sweep(spec: ExperimentSpec) -> RunRecord:
    """Train and evaluate every (method, scheme, seed) cell.

    The sweep runs seed by seed. Each seed draws its splits, trains ERM once
    (ERM ignores the grouping, so its row is replicated across schemes), then
    annotates train and val with one scheme at a time just before that
    scheme's cells. Only one seed's splits and one scheme's annotation are
    alive at a time, so memory does not grow with the number of seeds or
    schemes. Cells run one after another: the work is Python and numpy
    dispatch that holds the interpreter lock, so threads would not overlap
    it. A cell that raises a SubshiftError is recorded as an error row and
    skipped; any other exception is a bug and propagates. Error rows come
    out in spec order (method, then scheme, then seed), not run order.
    """
    started = _now()
    p_train = biased_distribution(spec.p_s0, spec.p_s1)
    kl_rows = compute_kl_rows(spec.schemes, spec.p_s0, spec.p_s1)
    kl_by_scheme = {r.scheme: r for r in kl_rows}

    for name in spec.schemes:
        k = atom_grouping(GroupingScheme.from_name(name), p_train).k
        if spec.n_train < 8 * k:
            warnings.warn(
                f"n_train={spec.n_train} risks empty groups for {name} (k={k})"
            )

    rows = []
    errors = []  # (spec position, error row)
    grouped = [(m, method) for m, method in enumerate(spec.methods) if method != "erm"]

    def run_cell(position, method, name, seed, train, val, test):
        cfg = replace(spec.train, seed=_derive_seed(spec.master_seed, method, name or "-", seed))
        ok, payload = _guarded(_train_and_score, method, cfg, train, val, test)
        if not ok:
            errors.append((position, {"method": method, "grouping": name or "-", "seed": seed, "error": payload}))
            return
        for scheme_name in spec.schemes if name is None else (name,):
            kl = kl_by_scheme[scheme_name]
            rows.append(
                {
                    "method": method,
                    "seed": seed,
                    **payload,
                    "grouping": scheme_name,
                    "min_kl_gdro": kl.kl_gdro,
                    "min_kl_resampling": kl.kl_resampling,
                }
            )

    def run_seed(i, seed):
        train, val, test = make_splits(
            spec.feature,
            spec.n_train,
            spec.n_val,
            spec.n_test,
            spec.p_s0,
            spec.p_s1,
            seed=_derive_seed(spec.master_seed, "data", seed),
        )
        for m, method in enumerate(spec.methods):
            if method == "erm":
                run_cell((m, 0, i), method, None, seed, train, val, test)
        if not grouped:
            return
        for j, name in enumerate(spec.schemes):
            scheme = GroupingScheme.from_name(name)
            ann_train = annotate_samples(
                train, scheme, _derive_seed(spec.master_seed, "annot", name, seed, "train"), p_train
            )
            ann_val = annotate_samples(
                val, scheme, _derive_seed(spec.master_seed, "annot", name, seed, "val"), p_train
            )
            for m, method in grouped:
                run_cell((m, j, i), method, name, seed, ann_train, ann_val, test)
            del ann_train, ann_val  # before the next scheme annotates

    for i, seed in enumerate(spec.seeds):
        run_seed(i, seed)

    rows.sort(key=lambda r: (r["method"], r["grouping"], r["seed"]))
    errors.sort(key=lambda e: e[0])
    return RunRecord(
        spec_hash=spec_hash(spec),
        rows=tuple(rows),
        kl_rows=tuple(kl_rows),
        errors=tuple(e for _, e in errors),
        started=started,
        finished=_now(),
        version=TOOL_VERSION,
    )


def _train_and_score(method, cfg, train, val, test) -> dict:
    model = mitigation.train(method, train, cfg, val=val)
    val_auc = auc(model.predict_scores(val.features), val.y)
    report = evaluate(model, test)
    return {
        "val_auc": val_auc,
        "test_auc": report.overall_auc,
        "min_acc_A": report.min_acc_A,
        "gap_A": report.gap_A,
        "min_acc_S": report.min_acc_S,
        "gap_S": report.gap_S,
    }


def _guarded(fn, *args):
    try:
        return True, fn(*args)
    except SubshiftError as exc:
        return False, f"{type(exc).__name__}: {exc}"


def results_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(RESULT_COLUMNS) + "\n")
    for r in rows:
        cells = []
        for col in RESULT_COLUMNS:
            v = r[col]
            cells.append(f"{v:.6f}" if isinstance(v, float) else str(v))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def _aggregate(rows, key_fields, value_field):
    agg = {}
    for r in rows:
        agg.setdefault(tuple(r[k] for k in key_fields), []).append(r[value_field])
    return {k: (float(np.mean(v)), float(np.std(v))) for k, v in agg.items()}


def relative_auc_csv(rows) -> str:
    by_cell = _aggregate(rows, ("method", "grouping"), "test_auc")
    erm_mean = {g: m for (meth, g), (m, _) in by_cell.items() if meth == "erm"}
    buf = io.StringIO()
    buf.write("method,grouping,mean_test_auc,sd_test_auc,delta_auc_vs_erm\n")
    for (method, grouping) in sorted(by_cell):
        mean, sd = by_cell[(method, grouping)]
        delta = mean - erm_mean.get(grouping, mean)
        buf.write(f"{method},{grouping},{mean:.6f},{sd:.6f},{delta:.6f}\n")
    return buf.getvalue()


def disparity_csv(rows) -> str:
    min_s = _aggregate(rows, ("method", "grouping"), "min_acc_S")
    gap_s = _aggregate(rows, ("method", "grouping"), "gap_S")
    buf = io.StringIO()
    buf.write("method,grouping,mean_min_acc_S,sd_min_acc_S,mean_gap_S,sd_gap_S\n")
    for key in sorted(min_s):
        m1, s1 = min_s[key]
        m2, s2 = gap_s[key]
        buf.write(f"{key[0]},{key[1]},{m1:.6f},{s1:.6f},{m2:.6f},{s2:.6f}\n")
    return buf.getvalue()


def write_run_outputs(record: RunRecord, spec: ExperimentSpec, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(results_csv(record.rows))
    (out / "relative_auc.csv").write_text(relative_auc_csv(record.rows))
    (out / "disparity.csv").write_text(disparity_csv(record.rows))
    manifest = {
        "spec": asdict(spec),
        "spec_hash": record.spec_hash,
        "version": record.version,
        "started": record.started,
        "finished": record.finished,
        "n_rows": len(record.rows),
        "errors": list(record.errors),
        "outputs": ["results.csv", "relative_auc.csv", "disparity.csv"],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_results_csv(path):
    rows = []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            row = dict(raw)
            row["seed"] = int(raw["seed"])
            for col in RESULT_COLUMNS[3:]:
                row[col] = float(raw[col])
            rows.append(row)
    return rows


def correlate_results(rows):
    """Per-method Pearson r between scheme min divergence and mean test AUC.

    gdro pairs with its optimal-weight divergence, resampling with the
    uniform-weight one; any other non-baseline method uses the optimal one.
    """
    methods = sorted({r["method"] for r in rows} - {"erm"})
    report = {}
    for method in methods:
        kl_field = "min_kl_resampling" if method == "resampling" else "min_kl_gdro"
        per_scheme = {}
        for r in rows:
            if r["method"] == method:
                per_scheme.setdefault(r["grouping"], {"kl": r[kl_field], "aucs": []})
                per_scheme[r["grouping"]]["aucs"].append(r["test_auc"])
        if len(per_scheme) < 3:
            raise InsufficientSchemes(
                f"{method}: need at least 3 schemes, have {len(per_scheme)}"
            )
        names = sorted(per_scheme)
        x = [per_scheme[n]["kl"] for n in names]
        y = [float(np.mean(per_scheme[n]["aucs"])) for n in names]
        sd = [float(np.std(per_scheme[n]["aucs"])) for n in names]
        r_val, p_val = pearson(x, y)
        report[method] = {
            "r": r_val,
            "p": p_val,
            "schemes": names,
            "min_kl": x,
            "mean_auc": y,
            "sd_auc": sd,
        }
    return report


def write_correlation_outputs(report, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    buf.write("method,n_schemes,pearson_r,p_value\n")
    for method in sorted(report):
        entry = report[method]
        buf.write(f"{method},{len(entry['schemes'])},{entry['r']:.6f},{entry['p']:.6g}\n")
    (out / "correlation.csv").write_text(buf.getvalue())
    for method in sorted(report):
        entry = report[method]
        buf = io.StringIO()
        buf.write("scheme,min_kl,mean_test_auc,sd_test_auc\n")
        for name, kl, mean, sd in zip(
            entry["schemes"], entry["min_kl"], entry["mean_auc"], entry["sd_auc"]
        ):
            buf.write(f"{name},{kl:.6f},{mean:.6f},{sd:.6f}\n")
        (out / f"scatter_{method}.csv").write_text(buf.getvalue())


def cmd_analyze_kl(args) -> int:
    spec = _spec_from_args(args)
    schemes = args.scheme or list(spec.schemes)
    if args.check and (spec.p_s0 != DEFAULT_P_S0 or spec.p_s1 != DEFAULT_P_S1):
        print("error: --check only applies at the default bias levels", file=sys.stderr)
        return 2
    rows = compute_kl_rows(schemes, spec.p_s0, spec.p_s1)
    text = table_to_csv(rows)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "kl_table.csv").write_text(text)
    print(text, end="")
    if not args.check:
        return 0
    reference = {name: (g, r) for name, g, r in REFERENCE_TABLE}
    failures = 0
    for row in rows:
        if row.scheme not in reference:
            print(f"{row.scheme}: no reference value", file=sys.stderr)
            failures += 1
            continue
        ref_g, ref_r = reference[row.scheme]
        dev = max(abs(row.kl_gdro - ref_g), abs(row.kl_resampling - ref_r))
        status = "ok" if dev <= CHECK_TOLERANCE else "DEVIATION"
        print(f"check {row.scheme}: max deviation {dev:.2e} {status}")
        if dev > CHECK_TOLERANCE:
            failures += 1
    return 1 if failures else 0


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    record = run_sweep(spec)
    out = args.out or "out"
    write_run_outputs(record, spec, out)
    print(f"{len(record.rows)} rows -> {out}/results.csv")
    for err in record.errors:
        print(f"cell failed: {err}", file=sys.stderr)
    return 0 if not record.errors else 1


def cmd_correlate(args) -> int:
    out = args.out or "out"
    results = Path(out) / "results.csv"
    if not results.exists():
        print(f"error: {results} not found; run the sweep first", file=sys.stderr)
        return 2
    rows = read_results_csv(results)
    try:
        report = correlate_results(rows)
    except SubshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_correlation_outputs(report, out)
    for method in sorted(report):
        entry = report[method]
        print(f"{method}: r={entry['r']:.3f} p={entry['p']:.3g} over {len(entry['schemes'])} schemes")
    return 0


def cmd_ablate(args) -> int:
    spec = _spec_from_args(args)
    out = Path(args.out or "out")
    variants = [
        ("baseline", spec),
        ("weak_shift", replace(spec, p_s0=0.85, p_s1=0.70)),
        ("small_n", replace(spec, n_train=max(spec.n_train // 8, 8))),
    ]
    summaries = {}
    for name, variant_spec in variants:
        sub = out / name
        record = run_sweep(variant_spec)
        write_run_outputs(record, variant_spec, sub)
        report = correlate_results(record.rows)
        write_correlation_outputs(report, sub)
        erm_rows = [r for r in record.rows if r["method"] == "erm"]
        erm_drop = (
            float(np.mean([r["val_auc"] - r["test_auc"] for r in erm_rows])) if erm_rows else float("nan")
        )
        summaries[name] = {"report": report, "erm_drop": erm_drop}
        print(f"{name}: done ({len(record.rows)} rows)")
    base = summaries["baseline"]["report"]
    buf = io.StringIO()
    buf.write("variant,method,pearson_r,p_value,baseline_r,sign_preserved,erm_val_test_auc_drop\n")
    for name in ("baseline", "weak_shift", "small_n"):
        entry = summaries[name]
        for method in sorted(entry["report"]):
            r_val = entry["report"][method]["r"]
            p_val = entry["report"][method]["p"]
            base_r = base[method]["r"]
            preserved = int(np.sign(r_val) == np.sign(base_r))
            buf.write(
                f"{name},{method},{r_val:.6f},{p_val:.6g},{base_r:.6f},{preserved},{entry['erm_drop']:.6f}\n"
            )
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation_summary.csv").write_text(buf.getvalue())
    print(f"summary -> {out}/ablation_summary.csv")
    return 0


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON and text
        raise InvalidConfig(f"cannot read --config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidConfig(f"--config {path} must hold a JSON object")
    return data


def _fits(value, default) -> bool:
    """Whether a JSON value can stand in for a config field with this default."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if isinstance(value, bool):
        return False
    if default is None:  # the optional JTT overrides are numbers
        return value is None or isinstance(value, (int, float))
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _from_config(cls, data, section: str):
    """Build cls from one --config section, refusing unknown keys and mistyped values."""
    if not isinstance(data, dict):
        raise InvalidConfig(f"{section} section of --config must be a JSON object")
    defaults = {f.name: f.default for f in fields(cls)}
    for key, value in data.items():
        if key not in defaults:
            raise InvalidConfig(f"unknown {section} key {key!r} in --config")
        if not _fits(value, defaults[key]):
            raise InvalidConfig(f"{section} key {key!r} in --config has the wrong type: {value!r}")
    return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in data.items()})


def _spec_from_args(args) -> ExperimentSpec:
    data = _load_config(args.config) if args.config else {}
    feature = _from_config(FeatureConfig, data.pop("feature", {}), "feature")
    train = _from_config(TrainConfig, data.pop("train", {}), "train")
    spec = _from_config(ExperimentSpec, dict(data, feature=feature, train=train), "top-level")

    overrides = {}
    for name in ("seeds", "methods", "schemes", "p_s0", "p_s1", "n_train", "master_seed"):
        value = getattr(args, name, None)  # analyze-kl has only the bias flags
        if value in (None, ""):
            continue
        overrides[name] = tuple(value.split(",")) if isinstance(value, str) else value
    if "seeds" in overrides:
        try:
            overrides["seeds"] = tuple(int(s) for s in overrides["seeds"])
        except ValueError:
            raise InvalidConfig(f"--seeds takes comma-separated integers, got {args.seeds!r}") from None
    return replace(spec, **overrides) if overrides else spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subshift",
        description="Subgroup-shift analysis: divergence tables and mitigation sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--p-s0", dest="p_s0", type=float, help="aligned-pair rate P(a=y|y,s=0)")
        p.add_argument("--p-s1", dest="p_s1", type=float, help="aligned-pair rate P(a=y|y,s=1)")

    p_kl = sub.add_parser("analyze-kl", help="minimum-divergence table per scheme")
    common(p_kl)
    p_kl.add_argument("--scheme", action="append", help="restrict to a scheme (repeatable)")
    p_kl.add_argument("--check", action="store_true", help="assert against the frozen reference")

    for name in ("run", "ablate"):
        p = sub.add_parser(name, help=f"{name} sweep")
        common(p)
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--methods", help="comma-separated methods")
        p.add_argument("--schemes", help="comma-separated scheme names")
        p.add_argument("--n-train", dest="n_train", type=int)
        p.add_argument("--master-seed", dest="master_seed", type=int)

    p_corr = sub.add_parser("correlate", help="correlate min divergence with AUC")
    p_corr.add_argument("--out", help="directory holding results.csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "analyze-kl": cmd_analyze_kl,
        "run": cmd_run,
        "correlate": cmd_correlate,
        "ablate": cmd_ablate,
    }
    try:
        return handlers[args.command](args)
    except SubshiftError as exc:
        # bad scheme names, out-of-range bias levels and the like are user
        # input problems, not crashes
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
