import numpy as np
import pytest

from helpers import replay_fold
from vcfclass.committee import CommitteeConfig, SelectionConfig
from vcfclass.crossval import (cross_validate, imputation_constants, impute,
                               load_predictions, outer_folds, save_predictions,
                               single_class_folds)
from vcfclass.evaluation import accuracy, confusion_from_result
from vcfclass.features import ALL_COLUMNS, FeatureTable, condition_columns
from vcfclass.folds import kfold_split
from vcfclass.svm import SvmParams


def test_ten_of_ten_singleton_folds():
    folds = kfold_split(np.zeros(10), k=10, seed=0)
    assert sorted(folds.tolist()) == list(range(10))


def test_paper_shaped_stratification():
    truth = np.array(["O"] * 490 + ["N"] * 205)
    folds = kfold_split(truth, k=10, seed=1)
    for f in range(10):
        sel = folds == f
        assert int((truth[sel] == "O").sum()) == 49
        assert int((truth[sel] == "N").sum()) in (20, 21)
        assert int(sel.sum()) in (69, 70)


def test_fold_partition_properties():
    rng = np.random.default_rng(2)
    for n in (20, 695):
        truth = np.where(rng.random(n) < 0.3, "N", "O")
        folds = kfold_split(truth, k=10, seed=3)
        assert folds.min() >= 0 and folds.max() <= 9
        sizes = np.bincount(folds, minlength=10)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == n
        # per-class fold counts within 1 of each other
        for cls in ("O", "N"):
            counts = np.bincount(folds[truth == cls], minlength=10)
            assert counts.max() - counts.min() <= 1


def test_kfold_deterministic():
    truth = np.where(np.arange(100) % 3 == 0, "N", "O")
    a = kfold_split(truth, k=10, seed=5)
    b = kfold_split(truth, k=10, seed=5)
    assert np.array_equal(a, b)
    c = kfold_split(truth, k=10, seed=6)
    assert not np.array_equal(a, c)


def test_kfold_validation():
    with pytest.raises(ValueError, match="exceeds"):
        kfold_split(np.zeros(5), k=10, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        kfold_split(np.zeros(5), k=1, seed=0)


def test_grouped_folds_keep_groups_whole():
    groups = np.repeat(np.arange(20), 5)    # 20 patients x 5 instances
    folds = kfold_split(np.zeros(100), k=10, seed=0, group_by=groups)
    for g in range(20):
        assert np.unique(folds[groups == g]).size == 1
    sizes = np.bincount(folds, minlength=10)
    assert sizes.sum() == 100 and sizes.max() - sizes.min() == 0


def test_oversized_group_warns():
    groups = np.array([0] * 30 + list(range(1, 71)))
    with pytest.warns(UserWarning, match="largest group"):
        kfold_split(np.zeros(100), k=10, seed=0, group_by=groups)


def test_group_by_of_another_length_rejected():
    # group_by must name one group per instance of stratify_by.
    with pytest.raises(ValueError, match="group_by has 5 entries for the 10 instances"):
        kfold_split(np.zeros(10), k=2, seed=0, group_by=np.arange(5))
    with pytest.raises(ValueError, match="group_by has 12 entries for the 10 instances"):
        kfold_split(np.zeros(10), k=2, seed=0, group_by=np.arange(12))


# ---------------------------------------------------------------------------
# synthetic feature tables for cross_validate

def synthetic_table(n=60, seed=0, oracle=True):
    """Table whose meanTrab column equals the class sign when oracle=True."""
    rng = np.random.default_rng(seed)
    truth = np.where(rng.random(n) < 0.5, "N", "O")
    values = rng.normal(size=(n, 36))
    if oracle:
        values[:, ALL_COLUMNS.index("meanTrab")] = np.where(truth == "N", 1.0, -1.0)
    ids = [(f"P{i % 12:03d}", f"P{i % 12:03d}-S{i // 12:02d}", (i % 3) + 1)
           for i in range(n)]
    return FeatureTable(instance_ids=ids, matrix=values, truth=truth)


FAST_CFG = CommitteeConfig(n_members=2,
                           selection=SelectionConfig(max_features=2, inner_folds=2),
                           member_params=SvmParams())


def test_oracle_feature_reaches_perfect_accuracy():
    table = synthetic_table(seed=1)
    for condition in ("measured", "combined"):
        res = cross_validate(table, condition, FAST_CFG, k=5, seed=2)
        cm = confusion_from_result(res)
        assert accuracy(cm) == 1.0
        assert cm.misclassified == 0


def test_fold_partition_in_result():
    table = synthetic_table(seed=3)
    res = cross_validate(table, "measured", FAST_CFG, k=5, seed=4)
    assert res.fold_assignment.shape == (len(table),)
    assert np.all(res.evaluated)
    assert res.evaluated.sum() == len(table)
    assert confusion_from_result(res).grand_total == len(table)


def test_leakage_guard_standardization_from_training_fold_only():
    table = synthetic_table(seed=5)
    res = cross_validate(table, "measured", FAST_CFG, k=5, seed=6)
    col_idx = [ALL_COLUMNS.index(c) for c in condition_columns("measured")]
    fold_ids = [f for f in range(5) if f not in res.skipped_folds]
    for f in fold_ids:
        fill, committee = replay_fold(table, res, FAST_CFG, 6, f)
        tr = res.fold_assignment != f
        Xtr = impute(table.matrix[tr], fill)
        assert np.array_equal(fill, imputation_constants(table.matrix[tr]))
        for member in committee.members:
            sel = list(member.feature_indices)
            assert set(sel) <= set(col_idx)    # the condition's columns only
            assert np.allclose(member.mean, Xtr[:, sel].mean(axis=0), atol=0, rtol=0)
            expected_std = Xtr[:, sel].std(axis=0)
            expected_std[expected_std == 0] = 1.0
            assert np.allclose(member.std, expected_std, atol=0, rtol=0)


def test_imputation_rules():
    idx = [ALL_COLUMNS.index(c) for c in ("contrastP", "R_h_c", "h_c")]
    values = np.ones((3, len(ALL_COLUMNS)))
    values[:, idx] = [[np.nan, np.nan, 10.0],
                      [2.0, 1.0, np.nan],
                      [3.0, 2.0, 30.0]]
    fill = imputation_constants(values)[idx]
    assert fill[0] == 1.0          # contrast fallback
    assert fill[1] == 0.0          # rate fallback
    assert fill[2] == 20.0         # training mean of observed
    out = impute(values, imputation_constants(values))[:, idx]
    assert out[0, 0] == 1.0 and out[0, 1] == 0.0 and out[1, 2] == 20.0
    assert not np.isnan(out).any()


def test_single_class_fold_skipped_with_warning():
    table = synthetic_table(n=24, seed=7)
    # A single minority instance lands in exactly one test fold, leaving that
    # fold's training split single-class.
    from dataclasses import replace
    skew = replace(table, truth=["N"] + ["O"] * (len(table) - 1))
    with pytest.warns(UserWarning, match="single class"):
        res = cross_validate(skew, "measured", FAST_CFG, k=12, seed=1)
    assert res.skipped_folds
    folds = outer_folds(skew, 12, 1, group_by_patient=False)
    assert res.skipped_folds == single_class_folds(skew.truth, folds, 12)
    assert not res.evaluated[np.isin(folds, res.skipped_folds)].any()
    assert res.evaluated.sum() < len(skew)
    assert confusion_from_result(res).grand_total == res.evaluated.sum()


def grouped_skew_table(k: int, seed: int, n_patients=12, per_patient=4):
    """Patients whose instances are neoplastic exactly when the patient lands
    in grouped fold 0 of ``outer_folds(..., k, seed, True)``, so that fold is
    the one skipped. meanTrab and R_meanTrab follow the class with noise, so
    what a committee selects depends on its seed."""
    rng = np.random.default_rng(seed)
    n = n_patients * per_patient
    ids = [(f"P{i % n_patients:03d}", f"S{i // n_patients}", 1) for i in range(n)]
    unlabelled = FeatureTable(instance_ids=ids, matrix=np.zeros((n, 36)),
                              truth=np.full(n, "O"))
    truth = np.where(outer_folds(unlabelled, k, seed, True) == 0, "N", "O")
    sign = np.where(truth == "N", 1.0, -1.0)
    values = rng.normal(size=(n, 36))
    values[:, ALL_COLUMNS.index("meanTrab")] = sign + rng.normal(scale=0.8, size=n)
    values[:, ALL_COLUMNS.index("R_meanTrab")] = sign + rng.normal(scale=1.5, size=n)
    return FeatureTable(instance_ids=ids, matrix=values, truth=truth)


def test_result_with_a_skipped_fold_replays_and_reloads(tmp_path):
    # Fold 0 is skipped, so each fold that runs sits one place before its own
    # index among the folds run; its committee must come from the fold seed
    # of that index, and no other fold seed reproduces it.
    from dataclasses import fields
    table = grouped_skew_table(k=3, seed=3)
    with pytest.warns(UserWarning, match="single class"):
        res = cross_validate(table, "combined", FAST_CFG, k=3, seed=3,
                             group_by_patient=True)
    assert res.skipped_folds == [0]
    for f in (1, 2):
        replay_fold(table, res, FAST_CFG, 3, f)
        with pytest.raises(AssertionError):
            replay_fold(table, res, FAST_CFG, 4, f)
    # The predictions file holds the whole result.
    save_predictions(res, tmp_path / "predictions_combined.csv")
    again = load_predictions(tmp_path / "predictions_combined.csv", "combined")
    for name in (f.name for f in fields(res)):
        a, b = getattr(res, name), getattr(again, name)
        if isinstance(a, np.ndarray):
            assert a.dtype.kind == b.dtype.kind, name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        else:
            assert a == b, name


def test_deterministic_cv():
    table = synthetic_table(seed=8)
    a = cross_validate(table, "combined", FAST_CFG, k=5, seed=9)
    b = cross_validate(table, "combined", FAST_CFG, k=5, seed=9)
    assert np.array_equal(a.decision, b.decision)
    assert np.array_equal(a.predictions, b.predictions)


def test_grouped_cv_keeps_patients_together():
    table = synthetic_table(n=60, seed=10)
    res = cross_validate(table, "measured", FAST_CFG, k=5, seed=11,
                         group_by_patient=True)
    pids = table.patient_ids
    for pid in np.unique(pids):
        assert np.unique(res.fold_assignment[pids == pid]).size == 1
