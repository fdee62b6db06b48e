"""The greedy-selection probe memo: one dict shared by the conditions of an
outer fold gives the same results as a fresh dict per condition, with fewer
fits, and probes on different data never share an entry."""

import numpy as np
import pytest

import vcfclass.committee as committee_mod
from vcfclass import parallel
from vcfclass.committee import CommitteeConfig, SelectionConfig, greedy_forward_select
from vcfclass.crossval import cross_validate, cross_validate_conditions
from vcfclass.features import ALL_COLUMNS, FeatureTable, assemble
from vcfclass.svm import SvmParams

CONDITIONS = ("measured", "longitudinal", "combined")
CFG = CommitteeConfig(n_members=2,
                      selection=SelectionConfig(max_features=3, inner_folds=2),
                      member_params=SvmParams(), seed=0)


def synthetic_table(n=48, seed=0):
    """meanTrab follows the class sign with noise, one rate column carries a
    weaker signal, and a few entries are missing (NaN) so imputation runs."""
    rng = np.random.default_rng(seed)
    truth = np.where(rng.random(n) < 0.5, "N", "O")
    sign = np.where(truth == "N", 1.0, -1.0)
    values = rng.normal(size=(n, len(ALL_COLUMNS)))
    values[:, ALL_COLUMNS.index("meanTrab")] = sign + rng.normal(scale=0.8, size=n)
    values[:, ALL_COLUMNS.index("R_meanTrab")] = sign + rng.normal(scale=1.5, size=n)
    values[rng.random(values.shape) < 0.05] = np.nan
    ids = [(f"P{i % 12:03d}", f"P{i % 12:03d}-S{i // 12}", i % 3 + 1) for i in range(n)]
    return FeatureTable(instance_ids=ids, matrix=values, truth=truth)


@pytest.fixture(scope="module")
def phantom_table(tmp_path_factory):
    from vcfclass.phantom import CohortSpec, generate_cohort
    out = tmp_path_factory.mktemp("memo_cohort")
    manifest = generate_cohort(CohortSpec(n_patients=4, studies_per_patient=3,
                                          seed=11), out)
    return assemble(manifest, out, policy="zero")


def count_fits(monkeypatch):
    """Count ``train_svm`` calls made by the committee module. Fits made in
    pool workers would not reach this process's counter, so the outer folds
    run in this process."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    calls = []
    real = committee_mod.train_svm

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(committee_mod, "train_svm", counted)
    return calls


def run_conditions(table, shared, k):
    if shared:
        return cross_validate_conditions(table, CONDITIONS, CFG, k=k, seed=3)
    return [cross_validate(table, cond, CFG, k=k, seed=3) for cond in CONDITIONS]


def selected_subsets(res):
    return [[m.feature_indices for m in c.members] for c in res.fold_models]


@pytest.mark.parametrize("source", ["phantom", "synthetic"])
def test_shared_memo_matches_fresh_memo_with_fewer_fits(source, phantom_table,
                                                        monkeypatch):
    table = phantom_table if source == "phantom" else synthetic_table(seed=5)
    k = 3 if source == "phantom" else 4
    calls = count_fits(monkeypatch)
    fresh = run_conditions(table, shared=False, k=k)
    fresh_fits = len(calls)
    calls.clear()
    shared = run_conditions(table, shared=True, k=k)
    for a, b in zip(fresh, shared):
        assert np.array_equal(a.decision, b.decision)
        assert np.array_equal(a.predictions, b.predictions)
        assert selected_subsets(a) == selected_subsets(b)
    # combined = measured + longitudinal: most of its probes repeat theirs
    assert len(calls) < fresh_fits


def labeled(n=40, seed=0):
    """Two independent label vectors; column 0 equals y1, column 1 equals y2."""
    rng = np.random.default_rng(seed)
    y1 = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y2 = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    X = rng.normal(size=(n, 4))
    X[:, 0] = y1
    X[:, 1] = y2
    return X, y1, y2


def select(X, y, probes, seed=1, params=SvmParams(), inner_folds=2):
    return greedy_forward_select(X, y, range(X.shape[1]), inner_folds, params,
                                 max_features=2, seed=seed, probes=probes)


def other_values(X, y1, y2):
    """Same shape as ``X``, no column equal to one of ``X``'s, and column 1
    now tracks ``y1``: on labels ``y1`` it selects column 1, ``X`` column 0."""
    X2 = X + 1.0
    X2[:, 0] = -y2
    X2[:, 1] = -y1
    return X2


# Pairs of probes over the same column indices that differ in one input.
CASES = {
    "values": lambda X, y1, y2: ((X, y1, {}), (other_values(X, y1, y2), y1, {})),
    "labels": lambda X, y1, y2: ((X, y1, {}), (X, y2, {})),
    "seed": lambda X, y1, y2: ((X, y1, {}), (X, y1, {"seed": 2})),
    "params": lambda X, y1, y2: ((X, y1, {}), (X, y1, {"params": SvmParams(C=0.5)})),
    "inner_folds": lambda X, y1, y2: ((X, y1, {}), (X, y1, {"inner_folds": 3})),
}


@pytest.mark.parametrize("differs_in", sorted(CASES))
def test_probes_on_different_inputs_share_no_entry(differs_in):
    X, y1, y2 = labeled(seed=4)
    (Xa, ya, ka), (Xb, yb, kb) = CASES[differs_in](X, y1, y2)
    fresh_a, fresh_b, shared = {}, {}, {}
    first = select(Xa, ya, fresh_a, **ka)
    second = select(Xb, yb, fresh_b, **kb)
    assert select(Xa, ya, shared, **ka) == first
    assert select(Xb, yb, shared, **kb) == second
    assert len(shared) == len(fresh_a) + len(fresh_b)


def test_selection_follows_the_data_not_the_indices():
    # A key on column indices alone would hand the second table the first
    # table's accuracies and pick column 0 again.
    X, y1, y2 = labeled(seed=6)
    probes = {}
    assert select(X, y1, probes)[0] == 0
    assert select(other_values(X, y1, y2), y1, probes)[0] == 1


def test_equal_columns_at_other_indices_share_entries(monkeypatch):
    X, y1, _ = labeled(seed=7)
    probes = {}
    subset = select(X, y1, probes)
    entries, before = len(probes), dict(probes)
    calls = count_fits(monkeypatch)
    perm = [3, 2, 1, 0]
    again = select(X[:, perm], y1, probes)
    assert [perm[i] for i in again] == subset
    assert len(probes) == entries                   # every probe found its entry
    # Reordered columns meet lower bars; a fit only completes an entry that
    # held just a bound (two inner folds each).
    completed = [key for key in probes if probes[key] != before[key]]
    assert all(not before[key][1] and probes[key][1] for key in completed)
    assert len(calls) <= 2 * len(completed)
