"""Deterministic k-fold assignment with stratification and optional grouping."""

from __future__ import annotations

import warnings

import numpy as np


def check_seed(value, field: str = "seed") -> None:
    """Raise ValueError naming ``field`` unless ``value`` is a non-negative
    integer, the entropy ``np.random.SeedSequence`` accepts."""
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{field} must be a non-negative integer, got {value!r}")


def kfold_split(stratify_by, k: int = 10, seed: int = 0, *,
                group_by=None) -> np.ndarray:
    """Fold index (0..k-1) per instance, one instance per class label in
    ``stratify_by``.

    Each class has its (seeded-shuffled) instances dealt round-robin with a
    running fold pointer, so fold sizes stay within 1 of n/k and each fold's
    class counts within 1 of the global ratio. With ``group_by`` (one group
    per instance) set, whole groups go to the currently smallest fold and the
    classes are not read, so grouped folds are not stratified; a group
    larger than n/k draws a warning, not an error.
    """
    strata = np.asarray(stratify_by)
    n = len(strata)
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} instances available")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    folds = np.full(n, -1, dtype=np.int64)

    if group_by is not None:
        groups = np.asarray(group_by)
        if len(groups) != n:
            raise ValueError(f"group_by has {len(groups)} entries for the "
                             f"{n} instances of stratify_by")
        uniq, sizes = np.unique(groups, return_counts=True)
        if uniq.size < k:
            raise ValueError(f"only {uniq.size} groups for k={k} folds")
        if sizes.max() > n / k:
            warnings.warn(
                f"largest group has {sizes.max()} instances (> n/k = {n / k:.1f}); "
                f"balanced grouped folds are infeasible", stacklevel=2)
        order = rng.permutation(uniq.size)
        by_size = order[np.argsort(-sizes[order], kind="stable")]
        fold_load = np.zeros(k, dtype=np.int64)
        for gi in by_size:
            target = int(np.argmin(fold_load))
            sel = groups == uniq[gi]
            folds[sel] = target
            fold_load[target] += int(sel.sum())
        return folds

    pointer = 0
    for value in sorted(set(strata.tolist())):
        idx = np.flatnonzero(strata == value)
        idx = idx[rng.permutation(idx.size)]
        folds[idx] = (pointer + np.arange(idx.size)) % k
        pointer = (pointer + idx.size) % k
    return folds
