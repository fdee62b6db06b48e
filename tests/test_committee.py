import json
from dataclasses import replace

import numpy as np
import pytest

from helpers import inner_folds_scored
from vcfclass.committee import (Committee, CommitteeConfig, SelectionConfig,
                                _inner_cv_accuracy, greedy_forward_select,
                                load_committee, save_committee, train_committee)
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
    X, y = labeled_noise(seed=5)
    cfg = CommitteeConfig(n_members=1, selection=SelectionConfig(method="none"),
                          seed=4)
    committee = train_committee(X, y, cfg)
    single = train_svm(X, y, SvmParams())
    probe = np.random.default_rng(0).normal(size=(10, X.shape[1]))
    probe[:, 0] = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
    assert np.array_equal(committee.decision_values(probe),
                          single.decision_values(probe))


def test_equal_members_average_to_member_value():
    X, y = labeled_noise(seed=6)
    cfg = CommitteeConfig(n_members=1, selection=SelectionConfig(method="none"), seed=9)
    one = train_committee(X, y, cfg)
    member = one.members[0]
    trio = Committee(members=[member, member, member],
                     feature_names=one.feature_names, config=one.config)
    probe = np.random.default_rng(1).normal(size=(8, X.shape[1]))
    assert np.allclose(trio.decision_values(probe), member.decision_values(probe),
                       rtol=0, atol=1e-15)


def test_committee_training_accuracy_on_separated_data():
    X, y = labeled_noise(n=80, seed=7)
    committee = train_committee(X, y, CommitteeConfig(seed=3))
    assert float((committee.predict(X) == y).mean()) >= 0.95


def test_save_load_bit_identical_decisions(tmp_path):
    X, y = labeled_noise(n=50, d=5, seed=8)
    params = SvmParams(C=2.0, max_passes=300, class_weights=(1.5, 1.0))
    committee = train_committee(X, y, CommitteeConfig(n_members=3, member_params=params,
                                                      seed=2))
    path = tmp_path / "committee.json"
    save_committee(committee, path)
    again = load_committee(path)
    assert again.config == committee.config
    probe = np.random.default_rng(3).normal(size=(20, 5))
    a = committee.decision_values(probe)
    b = again.decision_values(probe)
    assert np.array_equal(a, b)
    # identical bytes when re-saved
    save_committee(again, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_file_without_member_params_loads_defaults(tmp_path):
    X, y = labeled_noise(n=40, d=3, seed=9)
    cfg = CommitteeConfig(n_members=1, member_params=SvmParams(C=3.0), seed=1)
    path = tmp_path / "committee.json"
    save_committee(train_committee(X, y, cfg), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["member_params"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_committee(path).config == replace(cfg, member_params=SvmParams())


def test_file_with_member_seed_loads_same_config(tmp_path):
    # Older files wrote a per-member solver seed under member_params; the
    # solver no longer reads one, so loading drops it and saving omits it.
    X, y = labeled_noise(n=40, d=3, seed=11)
    cfg = CommitteeConfig(n_members=2, member_params=SvmParams(C=2.0), seed=5)
    committee = train_committee(X, y, cfg)
    path = tmp_path / "committee.json"
    save_committee(committee, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert "seed" not in doc["member_params"]
    doc["member_params"]["seed"] = 123
    path.write_text(json.dumps(doc), encoding="utf-8")
    old = load_committee(path)
    assert old.config == cfg
    probe = np.random.default_rng(4).normal(size=(15, 3))
    assert np.array_equal(old.decision_values(probe), committee.decision_values(probe))


def _member0(doc):
    return doc["members"][0]


def _truncated(text):
    return text[:len(text) // 2]


# (mutation of the parsed file or of its text, the end of the error message)
COMMITTEE_MUTATIONS = {
    "no-members": (lambda d: d.pop("members"),
                   "missing required key 'members' (at members in {})"),
    "members-object": (lambda d: d.update(members={"0": {}}),
                       "expected an array, got an object (at members in {})"),
    "no-dual-coef": (lambda d: _member0(d).pop("dual_coef"),
                     "missing required key 'dual_coef' (at members[0].dual_coef in {})"),
    "string-support-vectors": (
        lambda d: _member0(d).update(support_vectors="0.5"),
        "expected an array, got a string (at members[0].support_vectors in {})"),
    "unknown-selection-key": (lambda d: d["selection"].update(foo=1),
                              "unknown key 'foo' (at selection.foo in {})"),
    "truncated": (_truncated, "(in {})"),
}


@pytest.mark.parametrize("mutation", sorted(COMMITTEE_MUTATIONS))
def test_load_committee_names_file_and_field(tmp_path, mutation):
    mutate, ending = COMMITTEE_MUTATIONS[mutation]
    X, y = labeled_noise(n=40, d=3, seed=12)
    path = tmp_path / "committee.json"
    save_committee(train_committee(X, y, CommitteeConfig(n_members=2, seed=1)), path)
    text = path.read_text(encoding="utf-8")
    if mutate is _truncated:
        text = mutate(text)
    else:
        doc = json.loads(text)
        mutate(doc)
        text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_committee(path)
    assert type(info.value) is ValueError
    assert str(info.value).endswith(ending.format(path))


def test_inner_accuracy_scores_only_evaluated_rows():
    # One positive: the inner fold holding it trains on negatives alone and
    # is skipped; the other fold's rows are all predicted right.
    X, y = labeled_noise(n=11, d=2, seed=10)
    y[:] = -1.0
    y[4] = 1.0
    X[:, 0] = y
    scored, probe = inner_folds_scored(y, 2, SvmParams(), seed=0)
    acc, exact = _inner_cv_accuracy(X, y, [0], scored, probe, bar=0.0)
    assert acc == 1.0 and exact


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_config_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        CommitteeConfig(seed=seed)


def test_config_validation():
    with pytest.raises(ValueError, match="n_members"):
        CommitteeConfig(n_members=0)
    with pytest.raises(ValueError, match="selection"):
        SelectionConfig(method="pca")
    with pytest.raises(ValueError, match="max_features"):
        SelectionConfig(max_features=0)
