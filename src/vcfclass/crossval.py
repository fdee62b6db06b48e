"""Outer cross-validation over the feature-set conditions.

Everything fitted to data (imputation constants, standardization, feature
selection, SVM training) uses the training fold only; the test fold is
imputed with training constants and predicted once. The outer fold is the
unit of work: one task per fold imputes its rows over every column and
trains each condition on that condition's columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .committee import CommitteeConfig, ProbeMemo, train_committee
from .features import (ALL_COLUMNS, CONTRAST_COLUMNS, FeatureTable,
                       condition_columns, optional_float, read_csv_rows,
                       truth_cell)
from .folds import kfold_split
from .parallel import pmap


@dataclass
class CvResult:
    condition: str
    ids: list[tuple[str, str, int]]
    truth: np.ndarray              # 'O' / 'N' per instance
    decision: np.ndarray           # NaN for instances in skipped folds
    fold_assignment: np.ndarray

    @property
    def predictions(self) -> np.ndarray:    # 'O' / 'N'; '' in skipped folds
        return np.where(np.isnan(self.decision), "",
                        np.where(self.decision > 0, "N", "O"))

    @property
    def evaluated(self) -> np.ndarray:
        return ~np.isnan(self.decision)

    @property
    def k(self) -> int:
        return int(self.fold_assignment.max()) + 1    # every fold is nonempty

    @property
    def skipped_folds(self) -> list[int]:
        return sorted(set(self.fold_assignment[~self.evaluated].tolist()))


def imputation_constants(values: np.ndarray) -> np.ndarray:
    """Per-column fill values of a table of ``ALL_COLUMNS`` from training
    data only: contrasts fall back to 1.0, rates to 0.0, everything else to
    the training mean of non-NaN entries."""
    fill = np.zeros(len(ALL_COLUMNS))
    for j, col in enumerate(ALL_COLUMNS):
        if col in CONTRAST_COLUMNS:
            fill[j] = 1.0
        elif col.startswith("R_"):
            fill[j] = 0.0
        else:
            observed = values[~np.isnan(values[:, j]), j]
            fill[j] = float(observed.mean()) if observed.size else 0.0
    return fill


def impute(values: np.ndarray, fill: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(values), fill, values)


def outer_folds(table: FeatureTable, k: int, seed: int,
                group_by_patient: bool) -> np.ndarray:
    """Outer fold index per instance: stratified by truth or, with
    ``group_by_patient``, each patient's instances in one (unstratified) fold."""
    return kfold_split(table.truth, k=k, seed=seed,
                       group_by=table.patient_ids if group_by_patient else None)


def single_class_folds(truth: np.ndarray, folds: np.ndarray, k: int) -> list[int]:
    """Outer folds whose training split holds a single class; cross-validation
    skips them."""
    return [f for f in range(k) if len(set(truth[folds != f].tolist())) < 2]


def _fold_task(values: np.ndarray, y: np.ndarray, column_sets, cfg: CommitteeConfig,
               seed: int, folds: np.ndarray, f: int):
    """Impute outer fold ``f``'s training and test rows, then train and test
    each condition's column set in turn on them; return each condition's
    test-fold decision values. The conditions share the fold's probe memo."""
    tr = folds != f
    fill = imputation_constants(values[tr])
    train, test = impute(values[tr], fill), impute(values[~tr], fill)
    cfg = replace(cfg, seed=int(np.random.SeedSequence([seed, f]).generate_state(1)[0]))
    probes = ProbeMemo()
    return [train_committee(train, y[tr], cfg, columns, probes=probes)
            .decision_values(test) for columns in column_sets]


def cross_validate_conditions(table: FeatureTable, conditions,
                              cfg: CommitteeConfig = CommitteeConfig(),
                              k: int = 10, seed: int = 0,
                              group_by_patient: bool = False) -> list[CvResult]:
    """Stratified k-fold evaluation of each feature-set condition, in the
    order given, on the same outer folds.

    The folds run through ``parallel.pmap``, one task per fold. A task
    trains the conditions, as ``ALL_COLUMNS`` index sets of one imputed
    table, one after another with one probe memo (see
    ``committee.greedy_forward_select``), so a probe they have in common is
    scored once. Folds never share a memo, so results equal those of a fresh
    memo per condition."""
    folds = outer_folds(table, k, seed, group_by_patient)
    skipped = single_class_folds(table.truth, folds, k)
    for f in skipped:
        warnings.warn(f"fold {f}: training split has a single class; skipped",
                      stacklevel=2)
    run = [f for f in range(k) if f not in skipped]
    y = np.where(table.truth == "N", 1.0, -1.0)
    column_sets = [[ALL_COLUMNS.index(c) for c in condition_columns(condition)]
                   for condition in conditions]
    outcomes = pmap(partial(_fold_task, table.matrix, y, column_sets, cfg, seed,
                            folds), run)
    decisions = np.full((len(conditions), len(table)), np.nan)
    for f, fold in zip(run, outcomes):
        decisions[:, folds == f] = fold
    return [CvResult(condition=condition, ids=table.instance_ids, truth=table.truth,
                     decision=decision, fold_assignment=folds)
            for condition, decision in zip(conditions, decisions)]


def cross_validate(table: FeatureTable, condition: str,
                   cfg: CommitteeConfig = CommitteeConfig(), k: int = 10,
                   seed: int = 0, group_by_patient: bool = False) -> CvResult:
    """Stratified k-fold evaluation of one feature-set condition."""
    return cross_validate_conditions(table, [condition], cfg, k, seed,
                                     group_by_patient)[0]


# ---------------------------------------------------------------------------
# prediction files

PREDICTIONS_COLUMNS = [("patient_id", str), ("study_id", str), ("vertebra", int),
                       ("truth", truth_cell), ("prediction", str),
                       ("decision", optional_float), ("fold", int)]
PREDICTIONS_HEADER = ",".join(name for name, _ in PREDICTIONS_COLUMNS)


def predictions_path(out_dir: Path, condition: str) -> Path:
    return out_dir / f"predictions_{condition}.csv"


def save_predictions(res: CvResult, path: Path) -> None:
    lines = [PREDICTIONS_HEADER]
    for (pid, sid, vert), truth, pred, dec, fold in zip(
            res.ids, res.truth, res.predictions, res.decision, res.fold_assignment):
        dec = "" if np.isnan(dec) else repr(float(dec))
        lines.append(f"{pid},{sid},{vert},{truth},{pred},{dec},{fold}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_predictions(path: Path, condition: str) -> CvResult:
    """The ``CvResult`` a ``save_predictions`` file holds; the folds whose
    rows have no prediction are its skipped folds. Each instance appears
    once, and each prediction is the one its decision gives: empty for an
    empty decision, else ``N`` exactly when the decision is positive."""
    rows = read_csv_rows(path, PREDICTIONS_COLUMNS)
    if not rows:
        raise ValueError(f"{path}: no prediction rows")
    seen = set()
    for n, (pid, sid, vert, _, pred, dec, _) in enumerate(rows, start=2):
        if (pid, sid, vert) in seen:
            raise ValueError(f"{path}:{n}: duplicate instance id {(pid, sid, vert)}")
        seen.add((pid, sid, vert))
        want = "" if np.isnan(dec) else "N" if dec > 0 else "O"
        if pred != want:
            raise ValueError(f"{path}:{n}: column prediction: {pred!r} disagrees "
                             f"with decision {dec!r}, which gives {want!r}")
    pid, sid, vert, truth, _, decision, folds = zip(*rows)
    return CvResult(condition=condition, ids=list(zip(pid, sid, vert)),
                    truth=np.array(truth), decision=np.array(decision),
                    fold_assignment=np.array(folds))
