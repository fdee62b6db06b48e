from dataclasses import fields

import numpy as np
import pytest

from helpers import (dual_objective, kkt_count, linear_gram_fit, qp_dual_oracle,
                     reference_kkt_violations, reference_rbf_kernel,
                     reference_smo, replay_training)
from vcfclass import svm
from vcfclass.svm import TOL, SvmParams, _smo, kernel_matrix, train_svm


def test_two_point_separable_midpoint_boundary():
    X = np.array([[0.0], [1.0]])
    y = np.array([-1, 1])
    m = train_svm(X, y, SvmParams(C=10.0))
    assert list(m.predict(X)) == [-1, 1]
    assert abs(float(m.decision_values([[0.5]])[0])) <= 0.05
    assert m.kkt_violations() == 0


def test_xor_rbf_zero_training_error():
    X = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
    y = np.array([1, 1, -1, -1])
    m = train_svm(X, y, SvmParams(gamma=1.0, C=10.0))
    assert np.array_equal(m.predict(X), y)
    assert m.kkt_violations() == 0


def test_dual_matches_projected_gradient_oracle():
    rng = np.random.default_rng(0)
    done = 0
    while done < 12:
        n = int(rng.integers(6, 21))
        d = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        w = rng.normal(size=d)
        y = np.where(X @ w + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
        if np.unique(y).size < 2:
            continue
        if done % 2:
            params = SvmParams(gamma=0.7, C=2.0)
            m = train_svm(X, y, params)
            Xs, alpha, _ = replay_training(X, y, params, m)
            K = kernel_matrix(Xs, Xs, m.gamma)
            violations = m.kkt_violations()
        else:
            _, K, alpha, _, _, _, violations = linear_gram_fit(X, y, np.full(n, 2.0))
        obj = dual_objective(alpha, y, K)
        oracle = dual_objective(qp_dual_oracle(K, y, 2.0), y, K)
        assert abs(obj - oracle) <= 1e-3 * max(1.0, abs(oracle)), done
        assert violations == 0
        done += 1


def test_interior_support_vectors_sit_on_margin():
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(loc=(-2, 0), scale=0.6, size=(20, 2)),
                   rng.normal(loc=(2, 0), scale=0.6, size=(20, 2))])
    y = np.array([-1.0] * 20 + [1.0] * 20)
    params = SvmParams(C=1.0)
    m = train_svm(X, y, params)
    Xs, alpha, Cv = replay_training(X, y, params, m)
    u = (kernel_matrix(Xs, m.support_vectors, m.gamma)
         @ m.dual_coef + m.bias)
    interior = (alpha > 1e-8) & (alpha < Cv - 1e-8)
    assert interior.any()
    assert np.all(np.abs(y[interior] * u[interior] - 1.0) <= TOL)


def test_deterministic_training():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    p = SvmParams()
    m1, m2 = train_svm(X, y, p), train_svm(X, y, p)
    assert np.array_equal(replay_training(X, y, p, m1)[1],
                          replay_training(X, y, p, m2)[1])
    assert m1.bias == m2.bias
    x = rng.normal(size=(5, 3))
    assert np.array_equal(m1.decision_values(x), m2.decision_values(x))


def test_duplicate_point_keeps_training_labels():
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(loc=(-2, 0), size=(12, 2)),
                   rng.normal(loc=(2, 0), size=(12, 2))])
    y = np.array([-1.0] * 12 + [1.0] * 12)
    p = SvmParams(C=100.0)
    base = train_svm(X, y, p)
    X2 = np.vstack([X, X[3]])
    y2 = np.append(y, y[3])
    dup = train_svm(X2, y2, p)
    assert np.array_equal(dup.predict(X), base.predict(X))
    assert np.array_equal(base.predict(X), y)


def test_standardization_absorbs_column_scale():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 4))
    y = np.where(X[:, 1] + 0.5 * X[:, 2] > 0, 1.0, -1.0)
    p = SvmParams()
    base = train_svm(X, y, p)
    scaled = X.copy()
    scaled[:, 1] *= 1000.0
    m = train_svm(scaled, y, p)
    test = rng.normal(size=(30, 4))
    test_scaled = test.copy()
    test_scaled[:, 1] *= 1000.0
    assert np.array_equal(base.predict(test), m.predict(test_scaled))


def test_single_class_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="single class"):
        train_svm(X, np.ones(4), SvmParams())


def test_non_finite_rejected():
    X = np.array([[0.0, np.nan], [1.0, 2.0]])
    with pytest.raises(ValueError, match="finite"):
        train_svm(X, np.array([-1.0, 1.0]), SvmParams())


def test_param_validation():
    with pytest.raises(ValueError, match="C"):
        SvmParams(C=0.0)
    with pytest.raises(ValueError, match="gamma"):
        SvmParams(gamma=-1.0)


INVALID_PARAMS = [
    ("C", float("nan")), ("C", float("inf")), ("C", -1.0),
    ("gamma", float("nan")), ("gamma", float("inf")),
    ("C", float("-inf")), ("gamma", float("-inf")), ("gamma", 0.0),
    ("class_weights", (1.0,)), ("class_weights", (1.0, 2.0, 3.0)),
    ("class_weights", (1.0, 0.0)), ("class_weights", (-1.0, 1.0)),
    ("class_weights", (float("nan"), 1.0)), ("class_weights", (1.0, float("inf"))),
]


# Ids come from the case itself, so adding or deleting a case renames no other.
@pytest.mark.parametrize("field, value", INVALID_PARAMS, ids=[
    f"{field}-{value}".replace(" ", "") for field, value in INVALID_PARAMS])
def test_invalid_params_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SvmParams(**{field: value})


def test_params_hold_only_what_a_run_sets():
    assert [f.name for f in fields(SvmParams)] == ["gamma", "C", "class_weights"]


def test_default_gamma_is_one_over_d():
    # Columns 2 and 3 are constant: half of the full subset has zero variance
    # after standardizing, where the old median-variance rule gave 2/d.
    # Gamma counts every selected column.
    rng = np.random.default_rng(26)
    X = rng.normal(size=(30, 4))
    X[:, 2] = 5.0
    X[:, 3] = 7.0
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    for subset in ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)):
        m = train_svm(X, y, SvmParams(), feature_indices=subset)
        assert m.gamma == 1.0 / len(subset), subset
    assert train_svm(X, y, SvmParams(gamma=0.25)).gamma == 0.25


def test_class_weights_stored_as_tuple():
    params = SvmParams(class_weights=[2.0, 0.5])
    assert params.class_weights == (2.0, 0.5)
    assert hash(params) == hash(SvmParams(class_weights=(2.0, 0.5)))


def test_class_weights_scale_box():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 2))
    y = np.where(X[:, 0] > -0.5, 1.0, -1.0)
    if np.unique(y).size < 2:
        y[0] = -1.0
    params = SvmParams(C=1.0, class_weights=(3.0, 1.0))
    m = train_svm(X, y, params)
    alpha = replay_training(X, y, params, m)[1]
    neg = y < 0
    assert np.all(alpha[neg] <= 3.0 + 1e-9)
    assert np.all(alpha[~neg] <= 1.0 + 1e-9)
    assert m.kkt_violations() == 0


def test_dual_equality_constraint_holds():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(25, 3))
    y = np.where(X @ np.array([1.0, -1.0, 0.5]) > 0, 1.0, -1.0)
    m = train_svm(X, y, SvmParams())
    alpha = replay_training(X, y, SvmParams(), m)[1]
    assert abs(float(alpha @ y)) <= TOL


def test_unsorted_full_width_subset_reorders_columns():
    # A subset naming every column in another order must still be read by
    # index, not taken as already-selected input of the same width.
    rng = np.random.default_rng(17)
    X = rng.normal(size=(50, 3))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1.0, -1.0)
    order = (2, 0, 1)
    m = train_svm(X, y, SvmParams(), feature_indices=order)
    ref = train_svm(X[:, list(order)], y, SvmParams())
    assert np.array_equal(m.decision_values(X),
                          ref.decision_values(X[:, list(order)]))


def test_too_narrow_input_names_both_widths():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(30, 4))
    y = np.where(X[:, 3] > 0, 1.0, -1.0)
    m = train_svm(X, y, SvmParams(), feature_indices=(3, 1))
    with pytest.raises(ValueError, match="got 2 columns.*4-wide"):
        m.decision_values(X[:, [3, 1]])


def _per_row_cv(params, y):
    """The per-row box construction ``train_svm`` used before vectorizing."""
    def weight(label):
        if params.class_weights is None:
            return 1.0
        return params.class_weights[0] if label < 0 else params.class_weights[1]
    return np.array([params.C * weight(int(t)) for t in y])


def _seeded(seed):
    return np.random.default_rng(np.random.SeedSequence([seed]))


def _kkt_gap(errors, y, Cv, alpha):
    """max E over I_low minus min E over I_up; the solver stops at <= 2*tol."""
    up = np.where(y > 0, alpha < Cv, alpha > 0)
    low = np.where(y > 0, alpha > 0, alpha < Cv)
    return float(errors[low].max() - errors[up].min())


def test_second_order_solver_certifies_against_reference(monkeypatch):
    # Every problem is solved to convergence by both solvers: the
    # second-order one must certify KKT, reach the first-order reference's
    # dual objective and take at most 0.6x its pair updates. Even problems
    # train RBF models; odd ones run ``_smo`` on the linear Gram of the same
    # z-scored rows, which is rank-deficient when n > d. Every sixth problem
    # is first fitted with a one-pass budget to report the exhausted budget.
    # The KKT count of every fit must equal the rebuild from its support
    # vectors that models used to make; some one-pass counts are nonzero.
    rng = np.random.default_rng(21)
    steps = ref_steps = exhausted = nonzero = 0
    for p in range(240):
        n = int(rng.integers(12, 61))
        discrete = p % 4 >= 2
        if discrete:
            # Few distinct rows, so duplicates (often with opposite labels)
            # give flat pair directions (eta == 0).
            X = rng.integers(0, 3, size=(n, 2)).astype(float)
        else:
            X = rng.normal(size=(n, int(rng.integers(1, 5))))
        y = np.where(X[:, 0] + rng.normal(size=n) > 0.3, 1.0, -1.0)
        y[:2] = (-1.0, 1.0)
        params = SvmParams(C=(0.1, 1.0, 10.0)[p // 2 % 3],
                           class_weights=(2.0, 0.5) if p % 5 == 0 else None)
        Cv = _per_row_cv(params, y)
        fits = []           # (K, alpha, steps, exhausted, violations)
        for passes in ((1, 500) if p % 6 == 5 else (500,)):
            if p % 2:
                Xs, K, alpha, bias, *run = linear_gram_fit(X, y, Cv, passes)
                sv = alpha > 0
                u = (Xs @ Xs[sv].T) @ (alpha[sv] * y[sv]) + bias
                assert run[2] == kkt_count(u, y, alpha, Cv), p
            else:
                monkeypatch.setattr(svm, "MAX_PASSES", passes)
                m = train_svm(X, y, params)
                Xs, alpha, m_C = replay_training(X, y, params, m)
                assert np.array_equal(m_C, Cv), p
                K = kernel_matrix(Xs, Xs, m.gamma)
                run = [m.train_steps, m.train_exhausted, m.kkt_violations()]
                assert run[2] == reference_kkt_violations(m, Xs, y, alpha, Cv), p
            fits.append((K, alpha, *run))
        if len(fits) == 2:
            (*_, one_exhausted, one_violations), full = fits
            nonzero += one_violations > 0
            # The one-pass run follows the full run's path until its budget.
            assert one_exhausted == (full[2] >= max(n, 8)), p
            exhausted += one_exhausted
        K, m_alpha, m_steps, m_exhausted, m_violations = fits[-1]
        alpha, _, ref = reference_smo(K, y, Cv, TOL, 500, _seeded(p))
        assert ref < 500 * max(n, 8), p           # the reference converges
        assert not m_exhausted, p
        assert m_violations == 0, p
        obj, ref_obj = dual_objective(m_alpha, y, K), dual_objective(alpha, y, K)
        assert abs(obj - ref_obj) <= 1e-3 * max(1.0, abs(ref_obj)), p
        steps += m_steps
        ref_steps += ref
    assert steps <= 0.6 * ref_steps, (steps, ref_steps)
    assert exhausted > 0       # some one-pass budgets ran out before KKT
    assert nonzero > 0


def test_pinched_boxes_certify():
    # Example 0 starts as the I_up minimum with a box 1e-13 wide; in the
    # second problem every box is that narrow. The floored step still moves
    # such pairs, so both problems certify KKT over the full set.
    pts = np.random.default_rng(22).normal(size=(7, 2))
    K = kernel_matrix(pts, pts, 0.5)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
    partly, every = np.array([1e-13, 1, 1, 1, 1, 1, 1.0]), np.full(7, 1e-13)
    for Cv in (partly, every):
        alpha, _, steps, exhausted, _ = _smo(K, y, Cv, 1e-3, 500)
        assert steps > 0 and not exhausted
        errors = K @ (alpha * y) - y
        assert _kkt_gap(errors, y, Cv, alpha) <= 2e-3
        ref, _, _ = reference_smo(K, y, Cv, 1e-3, 500, _seeded(0))
        obj, ref_obj = dual_objective(alpha, y, K), dual_objective(ref, y, K)
        assert obj >= ref_obj
        assert obj - ref_obj <= 1e-3


def test_tiny_box_fit_certifies():
    rng = np.random.default_rng(25)
    X = rng.normal(size=(40, 3))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=40) > 0, 1.0, -1.0)
    m = train_svm(X, y, SvmParams(C=1e-13))
    assert m.train_steps > 0 and not m.train_exhausted
    assert m.kkt_violations() == 0


@pytest.mark.parametrize("same", [True, False], ids=["Y is X", "Y is not X"])
def test_rbf_kernel_matrix_equals_reference_expression(same):
    rng = np.random.default_rng(23)
    X = rng.normal(size=(37, 4))
    Y = X if same else rng.normal(size=(23, 4))
    for gamma in (0.05, 0.7, 3.0):
        assert np.array_equal(kernel_matrix(X, Y, gamma),
                              reference_rbf_kernel(X, Y, gamma))


def test_step_readout_is_training_state_only(monkeypatch):
    rng = np.random.default_rng(24)
    X = rng.normal(size=(40, 3))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=40) > 0, 1.0, -1.0)
    m = train_svm(X, y, SvmParams())
    assert m.train_steps > 0 and m.train_exhausted is False
    assert m.train_violations == m.kkt_violations() == 0
    assert m.train_steps > 40              # so one pass (40 steps) runs out
    monkeypatch.setattr(svm, "MAX_PASSES", 1)
    short = train_svm(X, y, SvmParams())
    assert short.train_steps == 40 and short.train_exhausted is True
