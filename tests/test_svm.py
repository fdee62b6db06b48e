import numpy as np
import pytest

from helpers import qp_dual_oracle, reference_smo
from vcfclass.svm import (SvmParams, _smo, dual_objective, kernel_matrix,
                          train_svm)


def test_two_point_separable_midpoint_boundary():
    X = np.array([[0.0], [1.0]])
    y = np.array([-1, 1])
    m = train_svm(X, y, SvmParams(kernel="linear", C=10.0))
    assert list(m.predict(X)) == [-1, 1]
    assert abs(float(m.decision_values([[0.5]])[0])) <= 0.05
    assert m.kkt_violations() == 0


def test_xor_rbf_zero_training_error():
    X = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
    y = np.array([1, 1, -1, -1])
    m = train_svm(X, y, SvmParams(kernel="rbf", gamma=1.0, C=10.0))
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
        kernel = "rbf" if done % 2 else "linear"
        params = SvmParams(kernel=kernel, gamma=0.7 if kernel == "rbf" else None,
                           C=2.0, seed=done)
        m = train_svm(X, y, params)
        K = kernel_matrix(m.train_X, m.train_X, kernel, m.gamma)
        obj = dual_objective(m.train_alpha, y, K)
        oracle = dual_objective(qp_dual_oracle(K, y, 2.0), y, K)
        assert abs(obj - oracle) <= 1e-3 * max(1.0, abs(oracle)), done
        assert m.kkt_violations() == 0
        done += 1


def test_interior_support_vectors_sit_on_margin():
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(loc=(-2, 0), scale=0.6, size=(20, 2)),
                   rng.normal(loc=(2, 0), scale=0.6, size=(20, 2))])
    y = np.array([-1.0] * 20 + [1.0] * 20)
    m = train_svm(X, y, SvmParams(kernel="linear", C=1.0))
    u = (kernel_matrix(m.train_X, m.support_vectors, m.kernel, m.gamma)
         @ m.dual_coef + m.bias)
    interior = (m.train_alpha > 1e-8) & (m.train_alpha < m.train_C - 1e-8)
    assert interior.any()
    assert np.all(np.abs(m.train_y[interior] * u[interior] - 1.0) <= m.tol)


def test_deterministic_training():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    p = SvmParams(seed=9)
    m1, m2 = train_svm(X, y, p), train_svm(X, y, p)
    assert np.array_equal(m1.train_alpha, m2.train_alpha)
    assert m1.bias == m2.bias
    x = rng.normal(size=(5, 3))
    assert np.array_equal(m1.decision_values(x), m2.decision_values(x))


def test_duplicate_point_keeps_training_labels():
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(loc=(-2, 0), size=(12, 2)),
                   rng.normal(loc=(2, 0), size=(12, 2))])
    y = np.array([-1.0] * 12 + [1.0] * 12)
    p = SvmParams(kernel="linear", C=100.0)
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
    p = SvmParams(seed=2)
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
    with pytest.raises(ValueError, match="kernel"):
        SvmParams(kernel="poly")
    with pytest.raises(ValueError, match="C"):
        SvmParams(C=0.0)
    with pytest.raises(ValueError, match="gamma"):
        SvmParams(gamma=-1.0)


def test_class_weights_scale_box():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 2))
    y = np.where(X[:, 0] > -0.5, 1.0, -1.0)
    if np.unique(y).size < 2:
        y[0] = -1.0
    m = train_svm(X, y, SvmParams(kernel="linear", C=1.0, class_weights=(3.0, 1.0)))
    neg = m.train_y < 0
    assert np.all(m.train_alpha[neg] <= 3.0 + 1e-9)
    assert np.all(m.train_alpha[~neg] <= 1.0 + 1e-9)
    assert m.kkt_violations() == 0


def test_dual_equality_constraint_holds():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(25, 3))
    y = np.where(X @ np.array([1.0, -1.0, 0.5]) > 0, 1.0, -1.0)
    m = train_svm(X, y, SvmParams(seed=1))
    assert abs(float(m.train_alpha @ m.train_y)) <= m.tol


def test_unsorted_full_width_subset_reorders_columns():
    # A subset naming every column in another order must still be read by
    # index, not taken as already-selected input of the same width.
    rng = np.random.default_rng(17)
    X = rng.normal(size=(50, 3))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1.0, -1.0)
    order = (2, 0, 1)
    m = train_svm(X, y, SvmParams(seed=3), feature_indices=order)
    ref = train_svm(X[:, list(order)], y, SvmParams(seed=3))
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


def test_solver_bit_identical_to_reference():
    rng = np.random.default_rng(21)
    exhausted = 0
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
        params = SvmParams(kernel=("rbf", "linear")[p % 2],
                           C=(0.1, 1.0, 10.0)[p // 2 % 3],
                           max_passes=1 if p % 6 == 5 else 500,
                           class_weights=(2.0, 0.5) if p % 5 == 0 else None,
                           seed=p)
        m = train_svm(X, y, params)
        Cv = _per_row_cv(params, y)
        assert np.array_equal(m.train_C, Cv), p
        K = kernel_matrix(m.train_X, m.train_X, params.kernel, m.gamma)
        alpha, bias = reference_smo(K, y, Cv, params.tol, params.max_passes,
                                    _seeded(p))
        assert np.array_equal(m.train_alpha, alpha), p
        assert m.bias == bias, p
        if params.max_passes == 1:
            full, _ = reference_smo(K, y, Cv, params.tol, 500, _seeded(p))
            exhausted += not np.array_equal(alpha, full)
    assert exhausted > 0       # some one-pass budgets ran out before KKT


def test_fallback_scan_bit_identical_to_reference():
    # Example 0 starts as the maximal I_up member but its box is 1e-13 wide,
    # so the maximal pair's step is refused and the seeded scan looks for a
    # partner. With every box that narrow the scan finds none.
    pts = np.random.default_rng(22).normal(size=(7, 2))
    K = kernel_matrix(pts, pts, "rbf", 0.5)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
    for Cv in (np.array([1e-13, 1, 1, 1, 1, 1, 1.0]), np.full(7, 1e-13)):
        for seed in range(5):
            rng = _seeded(seed)
            alpha, bias = _smo(K, y, Cv, 1e-3, 500, rng)
            ref_alpha, ref_bias = reference_smo(K, y, Cv, 1e-3, 500, _seeded(seed))
            assert rng.bit_generator.state != _seeded(seed).bit_generator.state
            assert np.array_equal(alpha, ref_alpha)
            assert bias == ref_bias
