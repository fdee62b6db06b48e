"""The accuracy bound in greedy selection is exact: probes stopped once they
cannot beat the round's bar pick the subsets the exhaustive wrapper picks
(``helpers.reference_greedy_forward_select``), with no more SVM fits."""

import numpy as np
import pytest

import helpers
import vcfclass.committee as committee_mod
from helpers import (inner_folds_scored, reference_greedy_forward_select,
                     reference_inner_cv_accuracy)
from vcfclass.committee import ProbeMemo, _inner_cv_accuracy, greedy_forward_select
from vcfclass.folds import kfold_split
from vcfclass.svm import SvmParams

PARAMS = SvmParams()


def problem(kind, seed=0):
    """``(X, y)`` with six features. ``saturating``: column 2 is the label;
    ``graded``: the label follows two noisy columns; ``chance``: labels
    independent of the features; ``one_positive``: a single positive, so the
    inner fold holding it trains on one class and is skipped."""
    rng = np.random.default_rng(seed)
    n = 13 if kind == "one_positive" else 40
    X = rng.normal(size=(n, 6))
    if kind == "saturating":
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        X[:, 2] = y
    elif kind == "graded":
        y = np.where(X[:, 1] + X[:, 4] + rng.normal(scale=0.7, size=n) > 0, 1.0, -1.0)
    elif kind == "chance":
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    else:
        y = -np.ones(n)
        y[5] = 1.0
        X[5, 0] = 4.0
    return X, y


KINDS = ("saturating", "graded", "chance", "one_positive")


def count_fits(monkeypatch):
    """Count ``train_svm`` calls of the bounded and of the reference wrapper."""
    calls = {"bounded": 0, "reference": 0}
    for module, name in ((committee_mod, "bounded"), (helpers, "reference")):
        real = module.train_svm

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "train_svm", counted)
    return calls


@pytest.mark.parametrize("inner_folds", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", KINDS)
def test_same_subsets_with_no_more_fits(kind, inner_folds, monkeypatch):
    calls = count_fits(monkeypatch)
    for seed in (0, 1):
        X, y = problem(kind, seed)
        for max_features in (1, 2, 3, 4):
            args = (X, y, range(X.shape[1]), inner_folds, PARAMS)
            kwargs = dict(max_features=max_features, seed=seed)
            assert (greedy_forward_select(*args, **kwargs)
                    == reference_greedy_forward_select(*args, **kwargs))
    assert calls["bounded"] <= calls["reference"]
    if kind == "saturating":
        assert calls["bounded"] < calls["reference"]


@pytest.mark.parametrize("kind", KINDS)
def test_inner_folds_built_once_per_selection(kind, monkeypatch):
    # The inner folds are fixed for a whole selection, so each call splits
    # once however many probes it scores, and still selects as the
    # exhaustive wrapper does.
    splits = []
    real = committee_mod.kfold_split

    def counted(*args, **kwargs):
        splits.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(committee_mod, "kfold_split", counted)
    for seed in (0, 1):
        X, y = problem(kind, seed)
        for inner_folds in (2, 3):
            for max_features in (1, 3):
                args = (X, y, range(X.shape[1]), inner_folds, PARAMS)
                kwargs = dict(max_features=max_features, seed=seed)
                before = len(splits)
                got = greedy_forward_select(*args, **kwargs)
                assert len(splits) - before == 1
                assert got == reference_greedy_forward_select(*args, **kwargs)


def test_one_positive_problem_skips_a_fold():
    # The premise of the ``one_positive`` cases: exactly one inner fold is
    # skipped, and a probe that scores no fold is 0.0.
    X, y = problem("one_positive")
    for inner_folds in (2, 3, 4, 5):
        folds = kfold_split(y, k=inner_folds, seed=0)
        assert [np.unique(y[folds != f]).size for f in range(inner_folds)].count(1) == 1
        acc, exact = _inner_cv_accuracy(X, y, [0], inner_folds_scored(
            y, inner_folds, seed=0), PARAMS, bar=0.0)
        assert exact and acc == reference_inner_cv_accuracy(X, y, [0], inner_folds,
                                                            PARAMS, seed=0)
    pair = [4, 5]                           # one row of each class: both folds skipped
    assert _inner_cv_accuracy(X[pair], y[pair], [0], inner_folds_scored(
        y[pair], 2, seed=0), PARAMS, bar=-1.0) == (0.0, True)


def test_memo_shared_across_conditions_matches_reference(monkeypatch):
    # Three candidate column sets of one table, as the three conditions are,
    # and two member seeds, all through one memo.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(44, 9))
    y = np.where(X[:, 1] - X[:, 6] + rng.normal(scale=0.6, size=44) > 0, 1.0, -1.0)
    X[:, 4] = y * (rng.random(44) < 0.9) - 0.5
    conditions = ([0, 1, 2, 3, 4, 7, 8], [5, 6, 7, 8], list(range(9)))
    calls = count_fits(monkeypatch)
    shared, reference = ProbeMemo(), {}
    for seed in (0, 5):
        for cols in conditions:
            args = (X, y, cols, 2, PARAMS)
            got = greedy_forward_select(*args, max_features=3, seed=seed, probes=shared)
            want = reference_greedy_forward_select(*args, max_features=3, seed=seed,
                                                   probes=reference)
            assert got == want
    assert calls["bounded"] < calls["reference"]
    exact = {key: score for key, (score, is_exact) in shared.items() if is_exact}
    assert exact and all(reference[key] == score for key, score in exact.items())


def test_no_fit_once_the_bar_reaches_one(monkeypatch):
    X, y = problem("graded", seed=2)
    X[:, 0] = y                            # the first candidate scores 1.0
    calls = count_fits(monkeypatch)
    probes = ProbeMemo()
    assert greedy_forward_select(X, y, range(6), 3, PARAMS, max_features=1,
                                 probes=probes) == [0]
    assert calls["bounded"] == 3           # candidate 0's inner folds only
    assert sorted(probes.values()) == [(1.0, False)] * 5 + [(1.0, True)]


def test_bound_only_entry_is_rescored_under_a_lower_bar():
    X, y = problem("graded", seed=2)
    want = reference_inner_cv_accuracy(X, y, [1], 3, PARAMS, seed=0)
    bound, exact = _inner_cv_accuracy(X, y, [1], inner_folds_scored(
        y, 3, seed=0), PARAMS, bar=0.999)
    assert not exact and want < bound < 1.0    # stopped after a fold
    # Candidate 0 is column 1; candidate 1 is constant and never wins.
    Xc = np.column_stack([X[:, 1], np.ones(len(y))])
    probes = ProbeMemo()
    greedy_forward_select(Xc, y, range(2), 3, PARAMS, max_features=1, probes=probes)
    key = (0, 0)                           # seed 0, no subset, candidate 0
    assert probes[key] == (want, True)
    probes[key] = (bound, False)           # as if stored under a higher bar
    assert greedy_forward_select(Xc, y, range(2), 3, PARAMS, max_features=1,
                                 probes=probes) == [0]
    assert probes[key] == (want, True)
