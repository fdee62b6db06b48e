import numpy as np
import pytest

import vcfclass.committee as committee_mod
from helpers import inner_folds_scored
from vcfclass.committee import (Committee, CommitteeConfig, SelectionConfig,
                                _inner_cv_accuracy, greedy_forward_select,
                                train_committee)
from vcfclass.svm import SvmParams, train_svm


def labeled_noise(n=60, d=6, seed=0):
    """Feature 0 equals the label; the rest is noise."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    X = rng.normal(size=(n, d))
    X[:, 0] = y
    return X, y


def test_perfect_feature_selected_first():
    X, y = labeled_noise()
    subset = greedy_forward_select(X, y, range(X.shape[1]), inner_folds=2,
                                   params=SvmParams(), max_features=3, seed=1)
    assert subset and subset[0] == 0


def test_constant_features_select_nothing():
    rng = np.random.default_rng(2)
    X = np.ones((40, 4))
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    if np.unique(y).size < 2:
        y[0] *= -1
    subset = greedy_forward_select(X, y, range(4), inner_folds=2,
                                   params=SvmParams(), seed=0)
    assert subset == []


def test_duplicate_predictive_features_take_lower_index():
    X, y = labeled_noise(d=4, seed=3)
    X[:, 2] = X[:, 0]   # duplicate the oracle feature at a higher index
    subset = greedy_forward_select(X, y, range(4), inner_folds=2,
                                   params=SvmParams(), max_features=1, seed=1)
    assert subset == [0]


def test_selection_needs_two_candidates():
    X, y = labeled_noise(d=2)
    with pytest.raises(ValueError, match="two candidate"):
        greedy_forward_select(X, y, [0], inner_folds=2, params=SvmParams())


def test_single_member_no_selection_equals_plain_svm():
    # A one-column table skips selection: the member trains on that column.
    X, y = labeled_noise(d=1, seed=5)
    cfg = CommitteeConfig(n_members=1, seed=4)
    committee = train_committee(X, y, cfg)
    single = train_svm(X, y, SvmParams())
    probe = np.random.default_rng(0).normal(size=(10, 1))
    assert np.array_equal(committee.decision_values(probe),
                          single.decision_values(probe))


def test_equal_members_average_to_member_value():
    X, y = labeled_noise(seed=6)
    member = train_svm(X, y, SvmParams())
    trio = Committee(members=[member, member, member])
    probe = np.random.default_rng(1).normal(size=(8, X.shape[1]))
    assert np.allclose(trio.decision_values(probe), member.decision_values(probe),
                       rtol=0, atol=1e-15)


def test_committee_training_accuracy_on_separated_data():
    X, y = labeled_noise(n=80, seed=7)
    committee = train_committee(X, y, CommitteeConfig(seed=3))
    assert float(((committee.decision_values(X) > 0) == (y > 0)).mean()) >= 0.95


def test_every_probe_trains_under_the_given_params(monkeypatch):
    X, y = labeled_noise(n=40, d=5, seed=8)
    params = SvmParams(kernel="rbf", gamma=0.3, C=2.0, class_weights=(1.5, 1.0))
    seen = []

    def recorder(X, y, params, feature_indices=None):
        seen.append(params)
        return train_svm(X, y, params, feature_indices=feature_indices)
    monkeypatch.setattr(committee_mod, "train_svm", recorder)
    greedy_forward_select(X, y, range(5), inner_folds=3, params=params,
                          max_features=3, seed=2)
    assert seen and all(p is params for p in seen)


def test_inner_accuracy_scores_only_evaluated_rows():
    # One positive: the inner fold holding it trains on negatives alone and
    # is skipped; the other fold's rows are all predicted right.
    X, y = labeled_noise(n=11, d=2, seed=10)
    y[:] = -1.0
    y[4] = 1.0
    X[:, 0] = y
    scored = inner_folds_scored(y, 2, seed=0)
    acc, exact = _inner_cv_accuracy(X, y, [0], scored, SvmParams(), bar=0.0)
    assert acc == 1.0 and exact


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_config_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        CommitteeConfig(seed=seed)


def test_config_validation():
    with pytest.raises(ValueError, match="n_members"):
        CommitteeConfig(n_members=0)
    with pytest.raises(ValueError, match="max_features"):
        SelectionConfig(max_features=0)
