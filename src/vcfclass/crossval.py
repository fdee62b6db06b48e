"""Outer cross-validation over the feature-set conditions.

Everything fitted to data (imputation constants, standardization, feature
selection, SVM training) uses the training fold only; the test fold is
imputed with training constants and predicted once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .committee import Committee, CommitteeConfig, train_committee
from .features import (ALL_COLUMNS, CONTRAST_COLUMNS, FeatureTable,
                       condition_columns)
from .folds import kfold_split


@dataclass
class CvResult:
    condition: str
    ids: list[tuple[str, str, int]]
    truth: np.ndarray              # 'O' / 'N' per instance
    predictions: np.ndarray        # 'O' / 'N'; '' for instances in skipped folds
    decision: np.ndarray
    fold_assignment: np.ndarray
    k: int
    seed: int
    skipped_folds: list[int] = field(default_factory=list)
    fold_models: list[Committee] = field(default_factory=list, repr=False)
    fold_imputation: list[np.ndarray] = field(default_factory=list, repr=False)

    @property
    def evaluated(self) -> np.ndarray:
        return self.predictions != ""

    @property
    def n_evaluated(self) -> int:
        return int(self.evaluated.sum())

    def accuracy(self) -> float:
        sel = self.evaluated
        if not sel.any():
            raise ValueError("no evaluated instances")
        return float((self.predictions[sel] == self.truth[sel]).mean())

    def misclassifications(self) -> int:
        sel = self.evaluated
        return int((self.predictions[sel] != self.truth[sel]).sum())

    def correct_incorrect(self) -> tuple[int, int]:
        wrong = self.misclassifications()
        return self.n_evaluated - wrong, wrong


def imputation_constants(values: np.ndarray, mask: np.ndarray,
                         columns: list[str]) -> np.ndarray:
    """Per-feature fill values from training data only: contrasts fall back to
    1.0, rates to 0.0, everything else to the training mean of observed
    entries."""
    fill = np.zeros(len(columns))
    for j, col in enumerate(columns):
        if col in CONTRAST_COLUMNS:
            fill[j] = 1.0
        elif col.startswith("R_"):
            fill[j] = 0.0
        else:
            observed = values[~mask[:, j], j]
            observed = observed[~np.isnan(observed)]
            fill[j] = float(observed.mean()) if observed.size else 0.0
    return fill


def impute(values: np.ndarray, mask: np.ndarray, fill: np.ndarray) -> np.ndarray:
    out = values.copy()
    use = mask | np.isnan(out)
    out[use] = np.broadcast_to(fill, out.shape)[use]
    return out


def _truth_to_signs(truth: np.ndarray) -> np.ndarray:
    return np.where(truth == "N", 1.0, -1.0)


def cross_validate(table: FeatureTable, condition: str,
                   cfg: CommitteeConfig = CommitteeConfig(), k: int = 10,
                   seed: int = 0, group_by_patient: bool = False) -> CvResult:
    """Stratified k-fold evaluation of one feature-set condition."""
    columns = condition_columns(condition)
    col_idx = [ALL_COLUMNS.index(c) for c in columns]
    values = table.matrix[:, col_idx]
    mask = table.mask[:, col_idx]
    truth = table.truth
    y = _truth_to_signs(truth)
    n = len(table)

    folds = kfold_split(
        n, k=k, seed=seed, stratify_by=truth,
        group_by=table.patient_ids if group_by_patient else None)

    predictions = np.full(n, "", dtype=object)
    decision = np.full(n, np.nan)
    skipped: list[int] = []
    models: list[Committee] = []
    fills: list[np.ndarray] = []
    for f in range(k):
        tr = folds != f
        te = folds == f
        if np.unique(y[tr]).size < 2:
            warnings.warn(f"fold {f}: training split has a single class; skipped",
                          stacklevel=2)
            skipped.append(f)
            continue
        fill = imputation_constants(values[tr], mask[tr], columns)
        Xtr = impute(values[tr], mask[tr], fill)
        Xte = impute(values[te], mask[te], fill)
        fold_seed = int(np.random.SeedSequence([seed, f]).generate_state(1)[0])
        fold_cfg = CommitteeConfig(n_members=cfg.n_members,
                                   member_params=cfg.member_params,
                                   selection=cfg.selection, seed=fold_seed)
        committee = train_committee(Xtr, y[tr], fold_cfg, feature_names=columns)
        dv = committee.decision_values(Xte)
        decision[te] = dv
        predictions[te] = np.where(dv > 0, "N", "O")
        models.append(committee)
        fills.append(fill)

    return CvResult(condition=condition, ids=table.instance_ids, truth=truth,
                    predictions=predictions.astype(str), decision=decision,
                    fold_assignment=folds, k=k, seed=seed, skipped_folds=skipped,
                    fold_models=models, fold_imputation=fills)
