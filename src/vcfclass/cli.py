"""Batch command-line front end.

Subcommands stage the pipeline through files: ``phantom`` writes a synthetic
cohort, ``extract`` turns a cohort into a feature table, ``cv`` runs k-fold
cross-validation per feature-set condition and writes report files, ``report``
re-emits reports from saved predictions, and ``paper-check`` recomputes the
published reference statistics. Every file-producing run writes a
``run_config.json`` snapshot with all resolved settings.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .committee import CommitteeConfig, SelectionConfig
from .crossval import (cross_validate_conditions, load_predictions, outer_folds,
                       predictions_path, save_predictions, single_class_folds)
from .evaluation import ComparisonReport, accuracy, compare, emit_report
from .features import (CONDITIONS, FIRST_STUDY_POLICIES, assemble_from_path,
                       load_table, save_table)
from .phantom import CohortSpec, generate_cohort
from .published import check_reference_arithmetic
from .svm import SvmParams

OUT_ROOT_ENV = "VCFCLASS_OUT"


class UsageError(ValueError):
    """Bad invocation (missing inputs, invalid flag values); exits with 2."""


def _default_out(name: str) -> Path:
    return Path(os.environ.get(OUT_ROOT_ENV, ".")) / name


def _write_config(out: Path, command: str, settings: dict) -> None:
    doc = {"tool": "vcfclass", "version": __version__, "command": command,
           "settings": settings}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcfclass",
        description="Vertebral compression fracture classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic longitudinal cohort")
    p.add_argument("--patients", type=int, default=CohortSpec.n_patients)
    p.add_argument("--studies", type=int, default=CohortSpec.studies_per_patient,
                   help="studies per patient")
    p.add_argument("--studies-max", type=int, default=None,
                   help="upper bound for a per-patient study-count range")
    p.add_argument("--interval", type=float, default=CohortSpec.study_interval,
                   help="nominal years between studies")
    p.add_argument("--fraction-neoplastic", type=float,
                   default=CohortSpec.fraction_neoplastic)
    p.add_argument("--vertebrae", type=int, default=CohortSpec.vertebrae_per_patient)
    p.add_argument("--spacing", type=float, nargs=3, metavar=("SX", "SY", "SZ"),
                   default=list(CohortSpec.spacing))
    p.add_argument("--noise", type=float, default=CohortSpec.noise_sd,
                   help="HU noise standard deviation")
    p.add_argument("--seed", type=int, default=CohortSpec.seed)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("extract", help="measure features over a cohort manifest")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--policy", choices=FIRST_STUDY_POLICIES, default="zero",
                   help="first-study handling for longitudinal rates")
    p.add_argument("--out", type=Path, default=None, help="output CSV path")

    p = sub.add_parser("cv", help="cross-validate feature-set conditions")
    p.add_argument("--table", type=Path, required=True, help="feature CSV from extract")
    p.add_argument("--conditions", default="measured,longitudinal,combined",
                   help="comma-separated subset of: " + ",".join(CONDITIONS))
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--members", type=int, default=5)
    p.add_argument("--max-features", type=int, default=4)
    p.add_argument("--inner-folds", type=int, default=2)
    p.add_argument("--c", type=float, default=1.0, dest="c_value")
    p.add_argument("--gamma", type=float, default=None,
                   help="RBF gamma; default 1/d for d selected features")
    p.add_argument("--group-by-patient", action="store_true",
                   help="keep each patient's instances in one fold")
    p.add_argument("--shuffle-labels", action="store_true",
                   help="permutation control: shuffle truth labels before CV")
    p.add_argument("--out", type=Path, default=None, help="output directory")

    p = sub.add_parser("report", help="re-emit report files from saved predictions")
    p.add_argument("--results", type=Path, required=True,
                   help="directory holding predictions_*.csv")
    p.add_argument("--out", type=Path, default=None,
                   help="output directory; default <results>/report")

    p = sub.add_parser("paper-check",
                       help="recompute the published reference statistics")
    p.add_argument("--out", type=Path, default=None,
                   help="optional directory for the check report")
    return parser


def cmd_phantom(args) -> int:
    studies = (args.studies if args.studies_max is None
               else (args.studies, args.studies_max))
    try:
        spec = CohortSpec(
            n_patients=args.patients, studies_per_patient=studies,
            study_interval=args.interval, fraction_neoplastic=args.fraction_neoplastic,
            vertebrae_per_patient=args.vertebrae, spacing=tuple(args.spacing),
            seed=args.seed, noise_sd=args.noise)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = args.out or _default_out("cohort")
    manifest = generate_cohort(spec, out)
    _write_config(out / "run_config.json", "phantom", {
        "patients": spec.n_patients, "studies": list(studies) if isinstance(studies, tuple) else studies,
        "interval_years": spec.study_interval,
        "fraction_neoplastic": spec.fraction_neoplastic,
        "vertebrae": spec.vertebrae_per_patient, "spacing": list(spec.spacing),
        "noise_sd": spec.noise_sd, "seed": spec.seed})
    print(f"wrote cohort: {manifest.study_count()} studies, "
          f"{manifest.fractured_instance_count()} fractured instances -> {out}")
    return 0


def cmd_extract(args) -> int:
    if not args.manifest.is_file():
        raise UsageError(f"no such manifest: {args.manifest}")
    out = args.out or _default_out("features.csv")
    table = assemble_from_path(args.manifest, policy=args.policy)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_table(table, out)
    _write_config(out.with_suffix(out.suffix + ".run_config.json"), "extract", {
        "manifest": str(args.manifest), "policy": args.policy})
    print(f"wrote {len(table)} instances x 36 features -> {out}")
    return 0


def _report(results, out) -> ComparisonReport:
    """The report step of `cv` and `report`: compare the conditions, in the
    order given, and write the report files."""
    report = compare(results)
    emit_report(report, out)
    return report


def cmd_cv(args) -> int:
    if not args.table.is_file():
        raise UsageError(f"no such feature table: {args.table}")
    conditions = [c.strip() for c in args.conditions.split(",") if c.strip()]
    unknown = [c for c in conditions if c not in CONDITIONS]
    if not conditions or unknown:
        raise UsageError(f"bad --conditions {args.conditions!r}; "
                         f"choose from {','.join(CONDITIONS)}")
    repeated = sorted({c for c in conditions if conditions.count(c) > 1})
    if repeated:
        raise UsageError(f"--conditions names {','.join(repeated)} more than once")
    conditions = [c for c in CONDITIONS if c in conditions]
    try:
        cfg = CommitteeConfig(
            n_members=args.members,
            member_params=SvmParams(gamma=args.gamma, C=args.c_value),
            selection=SelectionConfig(max_features=args.max_features,
                                      inner_folds=args.inner_folds),
            seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    table = load_table(args.table)
    if args.k < 2 or args.k > len(table):
        raise UsageError(f"--k {args.k} invalid for {len(table)} instances")
    if args.shuffle_labels:
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xD15C]))
        table = replace(table, truth=table.truth[rng.permutation(len(table))])
    if args.group_by_patient:
        n_patients = len(set(table.patient_ids.tolist()))
        if args.k > n_patients:
            raise UsageError(f"--k {args.k} exceeds the {n_patients} patients "
                             f"that --group-by-patient assigns to folds")
    folds = outer_folds(table, args.k, args.seed, args.group_by_patient)
    smallest = len(table) - int(np.bincount(folds).max())
    if args.inner_folds > smallest:
        raise UsageError(f"--inner-folds {args.inner_folds} exceeds the "
                         f"{smallest} instances of the smallest outer "
                         f"training split")
    if len(single_class_folds(table.truth, folds, args.k)) == args.k:
        raise UsageError(f"--k {args.k}: every outer training split holds a "
                         f"single class, so no fold can be evaluated")

    out = args.out or _default_out("results")
    out.mkdir(parents=True, exist_ok=True)
    results = cross_validate_conditions(table, conditions, cfg, k=args.k,
                                        seed=args.seed,
                                        group_by_patient=args.group_by_patient)
    # Another run's predictions left in `out` would be reported with this one's.
    for cond in CONDITIONS:
        stale = predictions_path(out, cond)
        if cond not in conditions and stale.is_file():
            stale.unlink()
            print(f"removed stale {stale}")
    for cond, res in zip(conditions, results):
        save_predictions(res, predictions_path(out, cond))

    report = _report(results, out)
    for cond, cm in report.confusions.items():
        print(f"{cond}: accuracy {accuracy(cm):.3f} "
              f"({cm.misclassified} misclassified of {cm.grand_total})")
    for pair in report.pairs:
        print(f"fisher {pair.condition_a} vs {pair.condition_b}: p = {pair.p_value:.6g}")
    _write_config(out / "run_config.json", "cv", {
        "table": str(args.table), "conditions": conditions, "k": args.k,
        "seed": args.seed, "members": args.members,
        "max_features": args.max_features, "inner_folds": args.inner_folds,
        "C": args.c_value, "gamma": "1/d" if args.gamma is None else args.gamma,
        "group_by_patient": args.group_by_patient,
        "shuffle_labels": args.shuffle_labels})
    print(f"reports -> {out}")
    return 0


def cmd_report(args) -> int:
    if not args.results.is_dir():
        raise UsageError(f"no such results directory: {args.results}")
    results, paths = [], []
    for cond in CONDITIONS:
        path = predictions_path(args.results, cond)
        if path.is_file():
            results.append(load_predictions(path, cond))
            paths.append(path)
            if results[-1].ids != results[0].ids:
                raise ValueError(f"instance sets differ between {paths[0]} and {path}")
            if not np.array_equal(results[-1].fold_assignment, results[0].fold_assignment):
                raise ValueError(f"folds differ between {paths[0]} and {path}")
    if not results:
        raise UsageError(f"no predictions_*.csv files under {args.results}")
    out = args.out or args.results / "report"
    _report(results, out)
    _write_config(Path(out) / "run_config.json", "report", {
        "results": str(args.results)})
    print(f"reports -> {out}")
    return 0


def cmd_paper_check(args) -> int:
    check = check_reference_arithmetic()
    text = "\n".join(check.lines)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "paper_check.txt").write_text(text + "\n", encoding="utf-8")
        _write_config(args.out / "run_config.json", "paper-check", {})
    return 0 if check.ok else 1


_DISPATCH = {
    "phantom": cmd_phantom,
    "extract": cmd_extract,
    "cv": cmd_cv,
    "report": cmd_report,
    "paper-check": cmd_paper_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:           # argparse prints its own usage message
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:            # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
