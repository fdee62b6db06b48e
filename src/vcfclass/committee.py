"""SVM committee: per-member greedy forward feature selection and
mean-decision aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .folds import check_seed, kfold_split
from .svm import SvmModel, SvmParams, train_svm

MIN_IMPROVEMENT = 1e-4


@dataclass(frozen=True)
class SelectionConfig:
    max_features: int = 4
    inner_folds: int = 2

    def __post_init__(self):
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
        check_seed(self.seed)


def _inner_cv_accuracy(X, y, feature_subset, scored, params: SvmParams,
                       bar: float) -> tuple[float, bool]:
    """Inner k-fold accuracy of one probe as ``(score, exact)`` over the test
    masks in ``scored``, each fold trained under ``params``. Before each fit,
    if even every unscored row right could not lift the accuracy above
    ``bar``, the probe stops and returns that upper bound with ``exact`` False."""
    evaluated = unscored = sum(int(te.sum()) for te in scored)
    if not evaluated:
        return 0.0, True
    correct = 0
    for te in scored:
        if (correct + unscored) / evaluated <= bar:
            return (correct + unscored) / evaluated, False
        model = train_svm(X[~te], y[~te], params, feature_indices=feature_subset)
        correct += int((model.predict(X[te]) == y[te]).sum())
        unscored -= int(te.sum())
    return correct / evaluated, True


def _fingerprint(a: np.ndarray) -> tuple:
    """Shape, dtype and a 16-byte digest of an array's values in C order."""
    # hashlib maps OpenSSL, about 3.7 MB resident, which extraction never uses.
    import hashlib
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype.str, hashlib.blake2b(a, digest_size=16).digest()


def greedy_forward_select(X: np.ndarray, y: np.ndarray, candidates,
                          inner_folds: int, params: SvmParams,
                          max_features: int = 4, seed: int = 0,
                          probes: dict | None = None) -> list[int]:
    """Wrapper selection: grow the subset by the candidate maximizing inner
    k-fold accuracy, stopping when no addition beats the current score by more
    than 1e-4 (the majority-class fraction seeds the score). Ties fall to the
    lower feature index.

    A candidate is taken only if its accuracy beats ``bar``, the round's best
    plus 1e-4, so a probe stops as soon as an upper bound on its accuracy
    falls to ``bar``: before its first fit once ``bar`` reaches 1.0, else
    after the fold that settles it. The subset is the one exhaustive scoring
    picks.

    ``probes`` memoises probes by content as ``(score, exact)``: the key holds
    a digest of the subset's columns, of ``y``, the inner folds, ``params``
    and ``seed``, which is all a probe reads. An entry that is only a bound
    is scored again when a later bar lies below it. Callers sharing one dict
    across tables (conditions over the same rows) score each distinct probe
    once; ``None`` uses a fresh dict."""
    candidates = [int(c) for c in candidates]
    if len(candidates) < 2:
        raise ValueError("need at least two candidate features")
    n_pos = int((y > 0).sum())
    if not 0 < n_pos < y.size:
        raise ValueError("selection requires both classes")
    probes = {} if probes is None else probes
    setting = (_fingerprint(y), inner_folds, params, seed)
    # Fixed for the whole selection: the inner folds and the test masks of
    # those whose training rows hold both classes.
    folds = kfold_split(y, k=inner_folds, seed=seed)
    scored = [te for te in (folds == f for f in range(inner_folds))
              if y[~te].min() < y[~te].max()]
    subset: list[int] = []
    best = max(n_pos, y.size - n_pos) / y.size     # majority baseline
    while len(subset) < max_features:
        round_best, round_feat = best, None
        for c in candidates:
            if c in subset:
                continue
            bar = round_best + MIN_IMPROVEMENT
            key = (_fingerprint(X[:, subset + [c]]), *setting)
            score, exact = probes.get(key, (np.inf, False))
            if not exact and score > bar:
                score, exact = probes[key] = _inner_cv_accuracy(
                    X, y, subset + [c], scored, params, bar)
            if score > bar:
                round_best, round_feat = score, c
        if round_feat is None:
            break
        subset.append(round_feat)
        best = round_best
    return subset


@dataclass
class Committee:
    members: list[SvmModel]

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """Mean of the member decision values."""
        return np.mean([m.decision_values(X) for m in self.members], axis=0)


def train_committee(X: np.ndarray, y: np.ndarray, cfg: CommitteeConfig,
                    probes: dict | None = None) -> Committee:
    """Train ``n_members`` SVMs, each on its own (seeded) greedy-selected
    subset, or on every column when the table has one column or selection
    keeps none; ``probes`` is the selection memo (see
    ``greedy_forward_select``)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    members, fitted = [], {}
    for m_idx in range(cfg.n_members):
        member_seed = int(np.random.SeedSequence([cfg.seed, m_idx]).generate_state(1)[0])
        subset = list(range(X.shape[1]))
        if len(subset) >= 2:
            subset = greedy_forward_select(
                X, y, subset, cfg.selection.inner_folds, cfg.member_params,
                max_features=cfg.selection.max_features, seed=member_seed,
                probes=probes) or subset
        if tuple(subset) not in fitted:    # train_svm is deterministic
            fitted[tuple(subset)] = train_svm(X, y, cfg.member_params,
                                              feature_indices=subset)
        members.append(fitted[tuple(subset)])
    return Committee(members=members)

