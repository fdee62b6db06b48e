"""Outer cross-validation over the feature-set conditions.

Everything fitted to data (imputation constants, standardization, feature
selection, SVM training) uses the training fold only; the test fold is
imputed with training constants and predicted once. The outer fold is the
unit of work: one task per fold trains every condition on that fold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .committee import CommitteeConfig, train_committee
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
    predictions: np.ndarray        # 'O' / 'N'; '' for instances in skipped folds
    decision: np.ndarray
    fold_assignment: np.ndarray
    k: int
    skipped_folds: list[int] = field(default_factory=list)

    @property
    def evaluated(self) -> np.ndarray:
        return self.predictions != ""


def imputation_constants(values: np.ndarray, columns: list[str]) -> np.ndarray:
    """Per-feature fill values from training data only: contrasts fall back to
    1.0, rates to 0.0, everything else to the training mean of non-NaN
    entries."""
    fill = np.zeros(len(columns))
    for j, col in enumerate(columns):
        if col in CONTRAST_COLUMNS:
            fill[j] = 1.0
        elif col.startswith("R_"):
            fill[j] = 0.0
        else:
            observed = values[:, j]
            observed = observed[~np.isnan(observed)]
            fill[j] = float(observed.mean()) if observed.size else 0.0
    return fill


def impute(values: np.ndarray, fill: np.ndarray) -> np.ndarray:
    out = values.copy()
    use = np.isnan(out)
    out[use] = np.broadcast_to(fill, out.shape)[use]
    return out


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


def _fold_task(values: np.ndarray, y: np.ndarray, conditions, cfg: CommitteeConfig,
               seed: int, folds: np.ndarray, f: int):
    """Train and test outer fold ``f`` for each condition in turn; return
    each condition's test-fold decision values. The conditions share the
    fold's probe memo."""
    tr = folds != f
    train, test = values[tr], values[~tr]
    fill = imputation_constants(train, ALL_COLUMNS)
    fold_seed = int(np.random.SeedSequence([seed, f]).generate_state(1)[0])
    probes: dict = {}
    decisions = []
    for condition in conditions:
        idx = [ALL_COLUMNS.index(c) for c in condition_columns(condition)]
        committee = train_committee(impute(train[:, idx], fill[idx]), y[tr],
                                    replace(cfg, seed=fold_seed), probes=probes)
        decisions.append(committee.decision_values(impute(test[:, idx], fill[idx])))
    return decisions


def cross_validate_conditions(table: FeatureTable, conditions,
                              cfg: CommitteeConfig = CommitteeConfig(),
                              k: int = 10, seed: int = 0,
                              group_by_patient: bool = False) -> list[CvResult]:
    """Stratified k-fold evaluation of each feature-set condition, in the
    order given, on the same outer folds.

    The folds run through ``parallel.pmap``, one task per fold. A task
    trains the conditions one after another with one probe memo (see
    ``committee.greedy_forward_select``), so a probe they have in common is
    scored once. Folds never share a memo entry (their member seeds
    differ), so results equal those of a fresh memo per condition."""
    folds = outer_folds(table, k, seed, group_by_patient)
    skipped = single_class_folds(table.truth, folds, k)
    for f in skipped:
        warnings.warn(f"fold {f}: training split has a single class; skipped",
                      stacklevel=2)
    run = [f for f in range(k) if f not in skipped]
    y = np.where(table.truth == "N", 1.0, -1.0)
    outcomes = pmap(partial(_fold_task, table.matrix, y, conditions, cfg, seed,
                            folds), run)
    results = []
    for c, condition in enumerate(conditions):
        decision = np.full(len(table), np.nan)
        for f, fold in zip(run, outcomes):
            decision[folds == f] = fold[c]
        results.append(CvResult(
            condition=condition, ids=table.instance_ids, truth=table.truth,
            predictions=np.where(np.isin(folds, run),
                                 np.where(decision > 0, "N", "O"), ""),
            decision=decision, fold_assignment=folds, k=k, skipped_folds=skipped))
    return results


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
    for i, (pid, sid, vert) in enumerate(res.ids):
        dec = "" if np.isnan(res.decision[i]) else repr(float(res.decision[i]))
        lines.append(f"{pid},{sid},{vert},{res.truth[i]},{res.predictions[i]},"
                     f"{dec},{res.fold_assignment[i]}")
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
    pid, sid, vert, truth, preds, decision, folds = zip(*rows)
    fold_arr, preds = np.array(folds), np.array(preds)
    return CvResult(condition=condition, ids=list(zip(pid, sid, vert)),
                    truth=np.array(truth), predictions=preds,
                    decision=np.array(decision), fold_assignment=fold_arr,
                    k=int(fold_arr.max()) + 1,
                    skipped_folds=sorted(set(fold_arr[preds == ""].tolist())))
