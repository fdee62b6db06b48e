"""SVM committee: per-member greedy forward feature selection, mean-decision
aggregation, and a JSON model format that reloads to bit-identical decisions."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .folds import kfold_split
from .svm import SvmModel, SvmParams, train_svm

SELECTION_METHODS = ("none", "greedy_forward")
MIN_IMPROVEMENT = 1e-4
# Inner selection models are throwaway accuracy probes; they get a lower
# sweep cap than the final members (which train to full KKT convergence).
SELECTION_MAX_PASSES = 40


@dataclass(frozen=True)
class SelectionConfig:
    method: str = "greedy_forward"
    max_features: int = 4
    inner_folds: int = 2

    def __post_init__(self):
        if self.method not in SELECTION_METHODS:
            raise ValueError(f"unknown selection method {self.method!r}")
        if self.max_features < 1 or self.inner_folds < 2:
            raise ValueError("need max_features >= 1 and inner_folds >= 2")


@dataclass(frozen=True)
class CommitteeConfig:
    n_members: int = 5
    member_params: SvmParams = SvmParams()
    selection: SelectionConfig = SelectionConfig()
    seed: int = 0

    def __post_init__(self):
        if self.n_members < 1:
            raise ValueError("n_members must be >= 1")


def _inner_cv_accuracy(X, y, feature_subset, inner_folds, params, seed) -> float:
    folds = kfold_split(len(y), k=inner_folds, seed=seed, stratify_by=y)
    probe = replace(params, max_passes=min(params.max_passes, SELECTION_MAX_PASSES))
    correct = evaluated = 0
    for f in range(inner_folds):
        tr = folds != f
        te = folds == f
        if np.unique(y[tr]).size < 2:
            continue                       # a skipped fold's rows are not scored
        model = train_svm(X[tr], y[tr], probe, feature_indices=feature_subset)
        correct += int((model.predict(X[te]) == y[te]).sum())
        evaluated += int(te.sum())
    return correct / evaluated if evaluated else 0.0


def greedy_forward_select(X: np.ndarray, y: np.ndarray, candidates,
                          inner_folds: int, params: SvmParams,
                          max_features: int = 4, seed: int = 0) -> list[int]:
    """Wrapper selection: grow the subset by the candidate maximizing inner
    k-fold accuracy, stopping when no addition beats the current score by more
    than 1e-4 (the majority-class fraction seeds the score). Ties fall to the
    lower feature index."""
    candidates = [int(c) for c in candidates]
    if len(candidates) < 2:
        raise ValueError("need at least two candidate features")
    if np.unique(y).size < 2:
        raise ValueError("selection requires both classes")
    subset: list[int] = []
    counts = np.unique(y, return_counts=True)[1]
    best = counts.max() / counts.sum()     # majority baseline
    while len(subset) < max_features:
        round_best, round_feat = best, None
        for c in candidates:
            if c in subset:
                continue
            acc = _inner_cv_accuracy(X, y, subset + [c], inner_folds, params, seed)
            if acc > round_best + MIN_IMPROVEMENT:
                round_best, round_feat = acc, c
        if round_feat is None:
            break
        subset.append(round_feat)
        best = round_best
    return subset


@dataclass
class Committee:
    members: list[SvmModel]
    feature_names: list[str]
    config: CommitteeConfig

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """Mean of the member decision values."""
        return np.mean([m.decision_values(X) for m in self.members], axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.decision_values(X) > 0, 1, -1)


def train_committee(X: np.ndarray, y: np.ndarray, cfg: CommitteeConfig,
                    feature_names=None) -> Committee:
    """Train ``n_members`` SVMs, each on its own (seeded) selected subset."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(X.shape[1])]
    members = []
    for m_idx in range(cfg.n_members):
        member_seed = int(np.random.SeedSequence([cfg.seed, m_idx]).generate_state(1)[0])
        params = replace(cfg.member_params, seed=member_seed)
        if cfg.selection.method == "greedy_forward" and X.shape[1] >= 2:
            subset = greedy_forward_select(
                X, y, range(X.shape[1]), cfg.selection.inner_folds, params,
                max_features=cfg.selection.max_features, seed=member_seed)
            if not subset:
                subset = list(range(X.shape[1]))
        else:
            subset = list(range(X.shape[1]))
        members.append(train_svm(X, y, params, feature_indices=subset))
    return Committee(members=members, feature_names=list(feature_names), config=cfg)


# ---------------------------------------------------------------------------
# model file

def _model_to_json(m: SvmModel) -> dict:
    return {
        "kernel": m.kernel,
        "gamma": m.gamma,
        "C": m.C,
        "tol": m.tol,
        "feature_indices": list(m.feature_indices),
        "mean": m.mean.tolist(),
        "std": m.std.tolist(),
        "support_vectors": m.support_vectors.tolist(),
        "dual_coef": m.dual_coef.tolist(),
        "bias": m.bias,
    }


def _model_from_json(doc: dict) -> SvmModel:
    return SvmModel(
        kernel=doc["kernel"], gamma=doc["gamma"], C=doc["C"], tol=doc["tol"],
        feature_indices=tuple(doc["feature_indices"]),
        mean=np.array(doc["mean"]), std=np.array(doc["std"]),
        support_vectors=np.array(doc["support_vectors"], dtype=np.float64).reshape(
            len(doc["dual_coef"]), -1),
        dual_coef=np.array(doc["dual_coef"]), bias=doc["bias"])


def save_committee(committee: Committee, path) -> None:
    doc = {
        "format": "vcfclass-committee",
        "version": 1,
        "feature_names": committee.feature_names,
        "seed": committee.config.seed,
        "n_members": committee.config.n_members,
        "selection": {
            "method": committee.config.selection.method,
            "max_features": committee.config.selection.max_features,
            "inner_folds": committee.config.selection.inner_folds,
        },
        "member_params": asdict(committee.config.member_params),
        "members": [_model_to_json(m) for m in committee.members],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_committee(path) -> Committee:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != "vcfclass-committee":
        raise ValueError(f"{path}: not a committee model file")
    params = dict(doc.get("member_params", {}))   # absent in older files: defaults
    if params.get("class_weights") is not None:
        params["class_weights"] = tuple(params["class_weights"])
    cfg = CommitteeConfig(
        n_members=doc["n_members"],
        member_params=SvmParams(**params),
        selection=SelectionConfig(**doc["selection"]),
        seed=doc["seed"])
    members = [_model_from_json(d) for d in doc["members"]]
    return Committee(members=members, feature_names=doc["feature_names"], config=cfg)
