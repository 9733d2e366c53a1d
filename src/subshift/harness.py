"""Experiment CLI: divergence tables, mitigation sweeps, correlations, ablations.

Subcommands
    analyze-kl   per-scheme minimum divergence table; --check asserts the
                 frozen reference values
    run          (method, scheme, seed) sweep with CSV outputs
    correlate    per-method Pearson correlation of min divergence vs AUC
    ablate       rerun the sweep under weaker bias and a smaller train set

A sweep's plan lists every (method, scheme, seed) cell with its RNG seed,
hash(master_seed, method, scheme, seed): the seed's value rather than its
position in the list, so extending the scheme or seed list never perturbs
existing cells, and a repeated run writes byte-identical CSVs. ERM ignores
the grouping, so its scheme is "-" and its row is copied to every scheme.
Error rows come out in plan order: method, then scheme, then seed.
Timestamps live only in manifest.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__, mitigation
from .dist_core import Distribution, biased_distribution, uniform_distribution
from .errors import (
    DegenerateInput,
    InsufficientSchemes,
    InvalidConfig,
    OutOfRange,
    SubshiftError,
    check_fields,
)
from .grouping import GroupingScheme, annotate_samples, atom_grouping, model_based_schemes, reweighting_schemes
from .metrics import _positives, _require_cells, auc, evaluate, pearson
from .mitigation import TrainConfig
from .reweight_opt import min_kl_table, table_to_csv
from .synth_data import FeatureConfig, _scored_labels, make_splits, make_test_split

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
    n_train: int = field(default=8000, metadata={"min": 1})
    n_val: int = field(default=2000, metadata={"min": 1})
    n_test: int = field(default=8000, metadata={"min": 1})
    feature: FeatureConfig = FeatureConfig()
    train: TrainConfig = TrainConfig()
    master_seed: int = 0

    def __post_init__(self):
        # Reject, field by field, a spec the sweep cannot run before any table or data is built.
        # Pairing methods with schemes is left to run_sweep, since analyze-kl reads no methods.
        check_fields(self)
        unknown = [m for m in self.methods if m not in mitigation.METHODS]
        if unknown:
            raise InvalidConfig(
                f"unknown method {unknown[0]!r}; choose from {', '.join(mitigation.METHODS)}"
            )
        for name in self.schemes:
            GroupingScheme(name)  # refuses an unknown or non-canonical name
        for field_name in ("methods", "schemes", "seeds"):
            values = getattr(self, field_name)
            if not values:
                raise OutOfRange(f"at least one {field_name[:-1]} is required")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise InvalidConfig(f"{field_name} lists {repeated[0]!r} more than once")


@dataclass(frozen=True)
class RunRecord:
    rows: tuple
    kl_rows: tuple
    errors: tuple
    started: str
    finished: str


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
    return min_kl_table([GroupingScheme(n) for n in scheme_names], p_train, uniform_distribution())


def _doom(spec: ExperimentSpec, data_seed: int):
    """(split size field, SubshiftError) that every cell of a data seed meets when scored, else None."""
    (y_val, _, _), (y_test, s_test, a_test) = _scored_labels(spec.n_val, spec.n_test, spec.p_s0, spec.p_s1, data_seed)
    try:
        _positives(y_val)
    except SubshiftError as exc:  # val AUC is scored first, so its failure wins
        return "n_val", exc
    try:
        _require_cells(a_test, s_test)
        _positives(y_test)
    except SubshiftError as exc:
        return "n_test", exc
    return None


def _plan_sweep(spec: ExperimentSpec):
    """Every decision a sweep makes before it builds a table or draws features: (seeds, cells).

    seeds holds each (seed, data_seed, doom). cells holds every (method, scheme, seed, cell_seed) in
    error-row order: method, then scheme, then seed. ERM's one scheme is "-".
    """
    for method in spec.methods:
        for name in spec.schemes:
            mitigation.refuse_y_based(method, GroupingScheme(name))
    # Each split's features are one (n, feature.dim) float64 array, the
    # encoder's weights one (feature.dim, train.hidden) array and, with
    # resampling, a batch's features one (train.batch_size, feature.dim) array.
    # Only the allocator knows whether it can hold one, so ask it for each,
    # untouched, before any table is built or data drawn.
    arrays = [(size, "feature.dim", "features") for size in ("n_train", "n_val", "n_test")]
    arrays.append(("feature.dim", "train.hidden", "encoder weights"))
    if "resampling" in spec.methods:
        arrays.append(("train.batch_size", "feature.dim", "batch features"))
    for rows, cols, what in arrays:
        shape = attrgetter(rows, cols)(spec)
        try:
            np.empty(shape)
        except (MemoryError, ValueError) as exc:  # ValueError: a size numpy cannot even index
            raise InvalidConfig(f"{rows}={shape[0]} rows of {cols}={shape[1]} {what}: {exc}") from None
    p_train = biased_distribution(spec.p_s0, spec.p_s1)

    # Train group g draws each sample with probability pi_g, so the expected
    # number of empty groups, sum_g (1 - pi_g)^n_train, bounds the chance
    # that any is empty; above 1% the sweep warns. A warning, not an error:
    # an empty group only fails the cells it reaches, as error rows.
    for name in spec.schemes:
        grouping = atom_grouping(GroupingScheme(name), p_train)
        empty = float(np.sum((1.0 - p_train.probs @ grouping.assign) ** spec.n_train))
        if empty > 0.01:
            warnings.warn(
                f"n_train={spec.n_train} risks empty groups for {name} (k={grouping.k}): "
                f"{empty:.2g} expected empty train groups"
            )

    data_seeds = [_derive_seed(spec.master_seed, "data", seed) for seed in spec.seeds]
    seeds = tuple((seed, data_seed, _doom(spec, data_seed)) for seed, data_seed in zip(spec.seeds, data_seeds))
    if all(doom is not None for _, _, doom in seeds):
        seed, _, (size, exc) = seeds[0]
        raise type(exc)(f"no seed can be scored: seed {seed}'s {size[2:]} split ({size}={getattr(spec, size)}): {exc}")
    cells = [
        (m, name, seed) for m in spec.methods for name in (("-",) if m == "erm" else spec.schemes) for seed in spec.seeds
    ]
    return seeds, tuple((*cell, _derive_seed(spec.master_seed, *cell)) for cell in cells)


def run_sweep(spec: ExperimentSpec) -> RunRecord:
    """Train and evaluate every (method, scheme, seed) cell.

    The sweep is planned before any features are drawn: every (method, scheme)
    pair goes through mitigation.refuse_y_based, an array the spec sizes (a
    split's features, the encoder's weights, a resampling batch's features)
    that the allocator refuses raises InvalidConfig, each seed's val and test
    labels are checked, and every cell is listed with its seed. ERM's one cell
    per seed has the scheme "-", and its row is copied to every scheme. A seed
    whose cells must all fail when scored trains nothing: each of its cells is
    an error row with that failure, or, when no seed can be scored, the first
    seed's failure is raised. Only then is the min-KL table built. Seeds then
    run one by one, each in two phases. Fit draws the seed's train and val
    splits, trains ERM, then annotates train and val with one scheme at a time
    just before that scheme's cells, and records each model's validation AUC.
    Score releases train, val and the last annotation, draws the seed's test
    split and evaluates every fitted model on it, then releases it. So memory
    does not grow with the number of seeds or schemes. Cells run one after
    another: the work is Python and numpy dispatch that holds the interpreter
    lock, so threads would not overlap it. A cell whose training, validation
    AUC or evaluation raises a SubshiftError is one error row and is skipped;
    any other exception is a bug and propagates. Error rows come out in plan
    order (method, then scheme, then seed), not run order.
    """
    plan = _plan_sweep(spec)
    return _run_plan(spec, compute_kl_rows(spec.schemes, spec.p_s0, spec.p_s1), plan)


def _run_plan(spec: ExperimentSpec, kl_rows, plan) -> RunRecord:
    """Run the cells of a _plan_sweep plan against its min-KL table, as run_sweep describes."""
    started = _now()
    seeds, cells = plan
    p_train = biased_distribution(spec.p_s0, spec.p_s1)
    kl_by_scheme = {r.scheme: r for r in kl_rows}

    rows = []
    errors = {}  # cell -> its error row
    for seed, data_seed, doom in seeds:
        planned = [cell for cell in cells if cell[2] == seed]
        if doom is not None:
            errors.update((cell, _error_row(cell, doom[1])) for cell in planned)
            continue
        fitted = []  # (cell, model, val AUC)
        train, val = make_splits(spec.feature, spec.n_train, spec.n_val, spec.p_s0, spec.p_s1, seed=data_seed)
        for name in ("-", *spec.schemes):
            todo = [cell for cell in planned if cell[1] == name]
            cell_train, cell_val = train, val
            if todo and name != "-":  # a sweep without a grouped method annotates nothing
                scheme = GroupingScheme(name)
                cell_train, cell_val = (
                    annotate_samples(split, scheme, _derive_seed(spec.master_seed, "annot", name, seed, part), p_train)
                    for split, part in ((train, "train"), (val, "val"))
                )
            for cell in todo:
                method, _, _, cell_seed = cell
                try:
                    model = mitigation.train(method, cell_train, spec.train, cell_seed, val=cell_val)
                    fitted.append((cell, model, auc(model.predict_scores(cell_val.features), cell_val.y)))
                except SubshiftError as exc:
                    errors[cell] = _error_row(cell, exc)
            del cell_train, cell_val  # before the next scheme annotates
        del train, val  # before the test split is drawn

        test = make_test_split(spec.feature, spec.n_test, seed=data_seed)
        for cell, model, val_auc in fitted:
            method, name, _, _ = cell
            try:
                report = evaluate(model, test)
            except SubshiftError as exc:
                errors[cell] = _error_row(cell, exc)
                continue
            scores = (val_auc, report.overall_auc, report.min_acc_A, report.gap_A, report.min_acc_S, report.gap_S)
            for grouping in spec.schemes if name == "-" else (name,):
                kl = kl_by_scheme[grouping]
                rows.append(dict(zip(RESULT_COLUMNS, (method, grouping, seed, *scores, kl.kl_gdro, kl.kl_resampling))))
        del test  # before the next seed draws its splits

    rows.sort(key=lambda r: (r["method"], r["grouping"], r["seed"]))
    ordered = tuple(errors[cell] for cell in cells if cell in errors)
    return RunRecord(rows=tuple(rows), kl_rows=tuple(kl_rows), errors=ordered, started=started, finished=_now())


def _error_row(cell, exc) -> dict:
    method, name, seed, _ = cell
    return {"method": method, "grouping": name, "seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def _csv(header: str, rows) -> str:
    """CSV text: floats (numpy's included) at six decimals, anything else as str."""
    lines = [header]
    lines += [",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def results_csv(rows) -> str:
    return _csv(",".join(RESULT_COLUMNS), ([r[col] for col in RESULT_COLUMNS] for r in rows))


def _aggregate(rows, field):
    """Mean and SD of one field per (method, grouping), in sorted key order, averaged in row order."""
    agg = {}
    for r in rows:
        agg.setdefault((r["method"], r["grouping"]), []).append(r[field])
    return {key: (float(np.mean(agg[key])), float(np.std(agg[key]))) for key in sorted(agg)}


def relative_auc_csv(rows) -> str:
    by_cell = _aggregate(rows, "test_auc")
    erm_mean = {g: m for (meth, g), (m, _) in by_cell.items() if meth == "erm"}
    return _csv(
        "method,grouping,mean_test_auc,sd_test_auc,delta_auc_vs_erm",
        ((*key, mean, sd, mean - erm_mean.get(key[1], float("nan"))) for key, (mean, sd) in by_cell.items()),
    )


def disparity_csv(rows) -> str:
    min_s = _aggregate(rows, "min_acc_S")
    gap_s = _aggregate(rows, "gap_S")
    return _csv(
        "method,grouping,mean_min_acc_S,sd_min_acc_S,mean_gap_S,sd_gap_S",
        ((*key, *min_s[key], *gap_s[key]) for key in min_s),
    )


# The CSV files of a run, each with the function that writes it from the rows; then every file a run writes.
RUN_CSVS = {"results.csv": results_csv, "relative_auc.csv": relative_auc_csv, "disparity.csv": disparity_csv}
_MANIFEST = "manifest.json"
RUN_FILES = (*RUN_CSVS, _MANIFEST)


def write_run_outputs(record: RunRecord, spec: ExperimentSpec, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, to_csv in RUN_CSVS.items():
        (out / name).write_text(to_csv(record.rows))
    manifest = {
        "spec": asdict(spec),
        "spec_hash": spec_hash(spec),
        "version": __version__,
        "started": record.started,
        "finished": record.finished,
        "n_rows": len(record.rows),
        "errors": list(record.errors),
        "outputs": list(RUN_CSVS),
    }
    (out / _MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_results_csv(path):
    """The typed rows of a results.csv; an unreadable file, a missing column or a bad value raises InvalidConfig."""
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [col for col in RESULT_COLUMNS if col not in (reader.fieldnames or ())]
            if missing:
                raise InvalidConfig(f"{path} line 1: no column {', '.join(missing)}")
            for raw in reader:
                row = dict(raw)
                for col in RESULT_COLUMNS[2:]:
                    try:
                        row[col] = (int if col == "seed" else float)(raw[col])
                    except (TypeError, ValueError):
                        raise InvalidConfig(f"{path} line {reader.line_num}: cannot read {col} from {raw[col]!r}") from None
                rows.append(row)
    except (OSError, UnicodeDecodeError) as exc:  # e.g. a directory, or bytes that are not text
        raise InvalidConfig(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    return rows


def _kl_field(method: str) -> str:
    """The min-KL column a method's correlation reads."""
    return "min_kl_resampling" if method == "resampling" else "min_kl_gdro"


def _require_correlatable(method: str, values, where: str = "") -> None:
    """Refuse a min-KL column that cannot be correlated: under 3 schemes, or one distinct value."""
    if len(values) < 3:
        raise InsufficientSchemes(f"{method}: need at least 3 schemes, have {len(values)}")
    if len(set(values)) < 2:
        raise DegenerateInput(
            f"{method}: every scheme has the same {_kl_field(method)} ({values[0]:.6f}){where}, "
            "so its correlation is undefined"
        )


def correlate_results(rows):
    """Per-method Pearson r between scheme min divergence and mean test AUC.

    gdro pairs with its optimal-weight divergence, resampling with the
    uniform-weight one; any other non-baseline method uses the optimal one.
    """
    by_cell = _aggregate(rows, "test_auc")
    report = {}
    for method in sorted({m for m, _ in by_cell} - {"erm"}):
        kl = {r["grouping"]: r[_kl_field(method)] for r in rows if r["method"] == method}
        names = sorted(kl)
        x = [kl[n] for n in names]
        _require_correlatable(method, x)
        y = [by_cell[method, n][0] for n in names]
        try:
            r_val, p_val = pearson(x, y)
        except DegenerateInput as exc:
            raise DegenerateInput(f"{method}: {exc}") from None
        report[method] = {
            "r": r_val,
            "p": p_val,
            "schemes": names,
            "min_kl": x,
            "mean_auc": y,
            "sd_auc": [by_cell[method, n][1] for n in names],
        }
    return report


def _correlation_files(methods) -> list:
    """The files write_correlation_outputs writes for these methods: the table, then one scatter file each."""
    return ["correlation.csv", *(f"scatter_{m}.csv" for m in sorted(methods))]


def write_correlation_outputs(report, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = sorted(report.items())
    table, *scatters = _correlation_files(report)
    corr = [(method, len(e["schemes"]), e["r"], f"{e['p']:.6g}") for method, e in entries]
    (out / table).write_text(_csv("method,n_schemes,pearson_r,p_value", corr))
    for name, (method, e) in zip(scatters, entries):
        scatter = zip(e["schemes"], e["min_kl"], e["mean_auc"], e["sd_auc"])
        (out / name).write_text(_csv("scheme,min_kl,mean_test_auc,sd_test_auc", scatter))


def _refuse_blocked(out, names) -> None:
    """Refuse, before any work, a file to write under --out that is blocked: a file stands where
    one of its directories would go, or a directory stands where it would go."""
    for name in names:
        path = Path(out, name)
        existing = next(p for p in (path, *path.parents) if p.exists())  # the parents end at "." or "/"
        if existing != path and not existing.is_dir():
            raise InvalidConfig(f"--out {out}: {existing} is not a directory")
        if existing == path and path.is_dir():
            raise InvalidConfig(f"--out {out}: {path} is a directory")


def _correlate_dir(out) -> dict:
    """Correlate out/results.csv, as written at six decimals, and write the correlation files beside it."""
    _refuse_blocked(out, _correlation_files([]))  # before results.csv is read, so a file at out is named
    report = correlate_results(read_results_csv(Path(out) / "results.csv"))
    _refuse_blocked(out, _correlation_files(report))  # the scatter files are named after the methods read
    write_correlation_outputs(report, out)
    return report


def cmd_analyze_kl(args) -> int:
    spec = _spec_from_args(args)
    if args.check and (spec.p_s0 != DEFAULT_P_S0 or spec.p_s1 != DEFAULT_P_S1):
        print("error: --check only applies at the default bias levels", file=sys.stderr)
        return 2
    table = None if args.out is None else Path(args.out, "kl_table.csv")
    if table is not None:
        _refuse_blocked(args.out, [table.name])
    rows = compute_kl_rows(spec.schemes, spec.p_s0, spec.p_s1)
    text = table_to_csv(rows)
    if table is not None:
        table.parent.mkdir(parents=True, exist_ok=True)
        table.write_text(text)
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


def _write_and_report(record: RunRecord, spec: ExperimentSpec, out) -> RunRecord:
    """Write a sweep's outputs to out, and report every failed cell."""
    write_run_outputs(record, spec, out)
    print(f"{len(record.rows)} rows -> {out}/results.csv")
    for err in record.errors:
        print(f"cell failed: {err}", file=sys.stderr)
    return record


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    _refuse_blocked(args.out, RUN_FILES)
    return 1 if _write_and_report(run_sweep(spec), spec, args.out).errors else 0


def cmd_correlate(args) -> int:
    report = _correlate_dir(args.out)
    for method in sorted(report):
        entry = report[method]
        print(f"{method}: r={entry['r']:.3f} p={entry['p']:.3g} over {len(entry['schemes'])} schemes")
    return 0


def cmd_ablate(args) -> int:
    spec = _spec_from_args(args)
    out = Path(args.out)
    variants = [
        ("baseline", spec),
        ("weak_shift", replace(spec, p_s0=0.85, p_s1=0.70)),
        ("small_n", replace(spec, n_train=max(spec.n_train // 8, 8))),
    ]
    correlated = _correlation_files(m for m in spec.methods if m != "erm")
    summary_csv = "ablation_summary.csv"
    _refuse_blocked(args.out, [Path(name, f) for name, _ in variants for f in (*RUN_FILES, *correlated)] + [summary_csv])
    # Plan every variant and build one table per distinct bias, then refuse, before any features
    # are drawn, a variant whose correlation is undefined by its spec alone, judged on the
    # six-decimal min KL that results.csv holds.
    plans = [_plan_sweep(variant_spec) for _, variant_spec in variants]
    keys = [(v.schemes, v.p_s0, v.p_s1) for _, v in variants]
    built = {key: compute_kl_rows(*key) for key in dict.fromkeys(keys)}
    tables = [built[key] for key in keys]
    for (name, variant_spec), kl_rows in zip(variants, tables):
        columns = {"min_kl_gdro": [r.kl_gdro for r in kl_rows], "min_kl_resampling": [r.kl_resampling for r in kl_rows]}
        where = f" in the {name} variant (p_s0={variant_spec.p_s0}, p_s1={variant_spec.p_s1})"
        for method in [m for m in variant_spec.methods if m != "erm"]:
            _require_correlatable(method, [round(v, 6) for v in columns[_kl_field(method)]], where)
    base = None
    failed = False
    summary = []
    for (name, variant_spec), kl_rows, plan in zip(variants, tables, plans):
        record = _write_and_report(_run_plan(variant_spec, kl_rows, plan), variant_spec, out / name)
        failed = failed or bool(record.errors)
        try:
            report = _correlate_dir(out / name)
        except SubshiftError as exc:  # e.g. failed cells left a method under 3 schemes
            print(f"{name}: correlation failed: {exc}", file=sys.stderr)
            failed = True
            report = {}
        if base is None:  # the baseline runs first
            base = report
        erm_drops = [r["val_auc"] - r["test_auc"] for r in record.rows if r["method"] == "erm"]
        erm_drop = float(np.mean(erm_drops)) if erm_drops else float("nan")
        for method, e in sorted(report.items()):
            # nan when every baseline cell of the method failed; nan's sign matches nothing
            base_r = base[method]["r"] if method in base else float("nan")
            preserved = int(np.sign(e["r"]) == np.sign(base_r))
            summary.append((name, method, e["r"], f"{e['p']:.6g}", base_r, preserved, erm_drop))
    (out / summary_csv).write_text(
        _csv("variant,method,pearson_r,p_value,baseline_r,sign_preserved,erm_val_test_auc_drop", summary)
    )
    print(f"summary -> {out / summary_csv}")
    return 1 if failed else 0


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON and text
        raise InvalidConfig(f"cannot read --config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidConfig(f"--config {path} must hold a JSON object")
    return data


def _from_config(cls, data, section: str):
    """Build cls from one --config section, refusing unknown keys; cls checks the values."""
    if not isinstance(data, dict):
        raise InvalidConfig(f"{section} section of --config must be a JSON object")
    unknown = [key for key in data if key not in {f.name for f in fields(cls)}]
    if unknown:
        raise InvalidConfig(f"unknown {section} key {unknown[0]!r} in --config")
    return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in data.items()})


def _spec_from_args(args) -> ExperimentSpec:
    """Lay the command-line flags over the --config dict, then build and check the spec once."""
    data = _load_config(args.config) if args.config else {}
    for name in ("seeds", "methods", "schemes", "p_s0", "p_s1", "n_train", "master_seed"):
        value = getattr(args, name, None)  # analyze-kl has only the bias flags and --scheme
        if value is None:  # a blank list flag is kept, and refused as the list [""]
            continue
        data[name] = value.split(",") if isinstance(value, str) else value  # --seeds, --methods, --schemes
    if getattr(args, "seeds", None) is not None:
        try:
            data["seeds"] = [int(s) for s in data["seeds"]]
        except ValueError:
            raise InvalidConfig(f"--seeds takes comma-separated integers, got {args.seeds!r}") from None
    # A sweep with a method that needs y-free groups, and no scheme list, takes the y-free list.
    methods = data.get("methods", [])
    if args.command != "analyze-kl" and "schemes" not in data and isinstance(methods, list):
        if any(m in mitigation.NEEDS_Y_FREE for m in methods):
            data["schemes"] = [s.name for s in model_based_schemes()]
    feature = _from_config(FeatureConfig, data.pop("feature", {}), "feature")
    train = _from_config(TrainConfig, data.pop("train", {}), "train")
    return _from_config(ExperimentSpec, dict(data, feature=feature, train=train), "top-level")


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
    p_kl.add_argument("--scheme", dest="schemes", action="append", help="restrict to a scheme (repeatable)")
    p_kl.add_argument("--check", action="store_true", help="assert against the frozen reference")

    for name in ("run", "ablate"):
        p = sub.add_parser(name, help=f"{name} sweep")
        common(p)
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--methods", help="comma-separated methods")
        p.add_argument("--schemes", help="comma-separated scheme names")
        p.add_argument("--n-train", dest="n_train", type=int)
        p.add_argument("--master-seed", dest="master_seed", type=int)
        p.set_defaults(out="out")

    p_corr = sub.add_parser("correlate", help="correlate min divergence with AUC")
    p_corr.add_argument("--out", default="out", help="directory holding results.csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "analyze-kl": cmd_analyze_kl,
        "run": cmd_run,
        "correlate": cmd_correlate,
        "ablate": cmd_ablate,
    }
    try:  # each command refuses a blocked output, through _refuse_blocked, before any work
        return handlers[args.command](args)
    except SubshiftError as exc:
        # bad scheme names, out-of-range bias levels and the like are user
        # input problems, not crashes
        print(f"error: {exc}", file=sys.stderr)
        return 2
