"""Outer cross-validation over the feature-set conditions.

Everything fitted to data (imputation constants, standardization, feature
selection, SVM training) uses the training fold only; the test fold is
imputed with training constants and predicted once.
"""

from __future__ import annotations

import warnings
from collections import ChainMap
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .committee import Committee, CommitteeConfig, train_committee
from .features import (ALL_COLUMNS, CONTRAST_COLUMNS, FeatureTable,
                       condition_columns, optional_float, read_csv_rows)
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
    fold_models: list[Committee] = field(default_factory=list, repr=False)
    fold_imputation: list[np.ndarray] = field(default_factory=list, repr=False)

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


def _truth_to_signs(truth: np.ndarray) -> np.ndarray:
    return np.where(truth == "N", 1.0, -1.0)


def outer_folds(table: FeatureTable, k: int, seed: int,
                group_by_patient: bool) -> np.ndarray:
    """Outer fold index per instance: stratified by truth or, with
    ``group_by_patient``, each patient's instances in one (unstratified) fold."""
    return kfold_split(len(table), k=k, seed=seed, stratify_by=table.truth,
                       group_by=table.patient_ids if group_by_patient else None)


def single_class_folds(truth: np.ndarray, folds: np.ndarray, k: int) -> list[int]:
    """Outer folds whose training split holds a single class; cross-validation
    skips them."""
    return [f for f in range(k) if len(set(truth[folds != f].tolist())) < 2]


def _fold_task(values: np.ndarray, y: np.ndarray, columns: list[str],
               cfg: CommitteeConfig, seed: int, folds: np.ndarray,
               probes: dict, f: int):
    """Train and test outer fold ``f``: its imputation constants, committee
    and test-fold decision values, plus the probe-memo entries it added or
    changed (it reads ``probes`` and leaves it untouched)."""
    tr = folds != f
    fill = imputation_constants(values[tr], columns)
    fold_seed = int(np.random.SeedSequence([seed, f]).generate_state(1)[0])
    memo = ChainMap({}, probes)
    committee = train_committee(impute(values[tr], fill), y[tr],
                                replace(cfg, seed=fold_seed),
                                feature_names=columns, probes=memo)
    decision = committee.decision_values(impute(values[folds == f], fill))
    return committee, fill, decision, memo.maps[0]


def cross_validate(table: FeatureTable, condition: str,
                   cfg: CommitteeConfig = CommitteeConfig(), k: int = 10,
                   seed: int = 0, group_by_patient: bool = False,
                   probes: dict | None = None) -> CvResult:
    """Stratified k-fold evaluation of one feature-set condition.

    ``probes`` memoises greedy-selection probe accuracies by content (see
    ``committee.greedy_forward_select``). Conditions cross-validated on one
    table with the same ``cfg``, ``k``, ``seed`` and grouping share outer
    folds, per-column imputation and member seeds, so passing one dict to
    all of them scores a probe the conditions have in common once; results
    are identical to those with a fresh dict per call (``None``).

    The outer folds run through ``parallel.pmap``. Each starts from the memo
    as it was before the call, and the entries the folds add are merged in
    fold order afterwards. Folds never share an entry (their member seeds
    differ), so the memo ends as a fold-by-fold loop would leave it."""
    columns = condition_columns(condition)
    col_idx = [ALL_COLUMNS.index(c) for c in columns]
    values = table.matrix[:, col_idx]
    truth = table.truth
    y = _truth_to_signs(truth)
    n = len(table)
    probes = {} if probes is None else probes

    folds = outer_folds(table, k, seed, group_by_patient)

    predictions = np.full(n, "", dtype=object)
    decision = np.full(n, np.nan)
    skipped = single_class_folds(truth, folds, k)
    for f in skipped:
        warnings.warn(f"fold {f}: training split has a single class; skipped",
                      stacklevel=2)
    run = [f for f in range(k) if f not in skipped]
    outcomes = pmap(partial(_fold_task, values, y, columns, cfg, seed, folds,
                            probes), run)
    models: list[Committee] = []
    fills: list[np.ndarray] = []
    for f, (committee, fill, dv, added) in zip(run, outcomes):
        te = folds == f
        decision[te] = dv
        predictions[te] = np.where(dv > 0, "N", "O")
        models.append(committee)
        fills.append(fill)
        probes.update(added)

    return CvResult(condition=condition, ids=table.instance_ids, truth=truth,
                    predictions=predictions.astype(str), decision=decision,
                    fold_assignment=folds, k=k, skipped_folds=skipped,
                    fold_models=models, fold_imputation=fills)


# ---------------------------------------------------------------------------
# prediction files

PREDICTIONS_COLUMNS = [("patient_id", str), ("study_id", str), ("vertebra", int),
                       ("truth", str), ("prediction", str),
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
    rows = read_csv_rows(path, PREDICTIONS_COLUMNS)
    if not rows:
        raise ValueError(f"{path}: no prediction rows")
    pid, sid, vert, truth, preds, decision, folds = zip(*rows)
    fold_arr = np.array(folds)
    return CvResult(condition=condition, ids=list(zip(pid, sid, vert)),
                    truth=np.array(truth), predictions=np.array(preds),
                    decision=np.array(decision), fold_assignment=fold_arr,
                    k=int(fold_arr.max()) + 1)
