"""Soft-margin RBF-kernel SVM trained by sequential minimal optimization.

The solver pairs the maximal KKT violator with the partner that second-order
working-set selection picks and moves that pair by one curvature-floored
step, so training is deterministic and needs no seed. Features are z-scored
with training statistics stored on the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_BOUND_EPS = 1e-8
_TAU = 1e-12            # curvature floor, as in LIBSVM
TOL = 1e-3              # KKT tolerance of every fit
MAX_PASSES = 500        # step budget of every fit, in sweep-equivalents


@dataclass(frozen=True)
class SvmParams:
    """What a run can set; ``TOL`` and ``MAX_PASSES`` hold for every fit."""
    gamma: float | None = None      # None: 1 / d (LIBSVM's default)
    C: float = 1.0                  # the box of every training example

    def __post_init__(self):
        if not _finite_positive(self.C):
            raise ValueError(f"C must be finite and positive, got {self.C!r}")
        if self.gamma is not None and not _finite_positive(self.gamma):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma!r}")


def _finite_positive(v) -> bool:
    return math.isfinite(v) and v > 0


def kernel_matrix(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """RBF kernel exp(-gamma * |x - y|^2) between the rows of X and Y."""
    g = X @ Y.T
    g *= 2.0
    xx = np.sum(X * X, axis=1)
    sq = np.add.outer(xx, xx if Y is X else np.sum(Y * Y, axis=1))
    sq -= g
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


@dataclass
class SvmModel:
    gamma: float
    feature_indices: tuple[int, ...]
    mean: np.ndarray                 # per-feature training mean (selected columns)
    std: np.ndarray
    support_vectors: np.ndarray      # standardized rows
    dual_coef: np.ndarray            # alpha_i * y_i over support vectors
    bias: float
    # Training readouts, which prediction never reads.
    train_steps: int = field(repr=False)            # SMO pair updates
    train_exhausted: bool = field(repr=False)       # step budget ran out
    train_violations: int = field(repr=False)       # KKT violators at TOL

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        """Pick the model's columns out of full-width rows and z-score them."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        width = max(self.feature_indices, default=-1) + 1
        if X.shape[1] < width:
            raise ValueError(
                f"feature dimension mismatch: got {X.shape[1]} columns, "
                f"model reads columns of a {width}-wide table")
        return (X[:, list(self.feature_indices)] - self.mean) / self.std

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """Signed decision value per row of the full training-width table;
        > 0 classifies as the +1 class."""
        Xs = self._standardize(X)
        K = kernel_matrix(Xs, self.support_vectors, self.gamma)
        return K @ self.dual_coef + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        """±1 labels; a decision value of exactly 0 falls to the -1 class."""
        return np.where(self.decision_values(X) > 0, 1, -1)

    def kkt_violations(self) -> int:
        """Number of training examples violating the KKT conditions."""
        return self.train_violations


def train_svm(X: np.ndarray, y: np.ndarray, params: SvmParams = SvmParams(),
              feature_indices=None) -> SvmModel:
    """Fit the dual soft-margin problem with SMO.

    ``X`` is raw (already imputed) data; ``y`` holds ±1 labels with both
    classes present. Training is deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n, d) with one label per row")
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature values; impute before training")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if (y > 0).all() or (y < 0).all():
        raise ValueError("training data contains a single class")

    if feature_indices is None:
        feature_indices = tuple(range(X.shape[1]))
    else:
        feature_indices = tuple(int(i) for i in feature_indices)
    Xsel = X[:, list(feature_indices)]
    mean = Xsel.mean(axis=0)
    std = Xsel.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Xs = (Xsel - mean) / std

    gamma = params.gamma if params.gamma is not None else 1.0 / Xs.shape[1]
    K = kernel_matrix(Xs, Xs, gamma)
    alpha, bias, steps, exhausted, violations = _smo(K, y, params.C, TOL, MAX_PASSES)

    sv = alpha > 0
    return SvmModel(gamma=gamma, feature_indices=feature_indices, mean=mean, std=std,
                    support_vectors=Xs[sv], dual_coef=alpha[sv] * y[sv], bias=bias,
                    train_steps=steps, train_exhausted=exhausted,
                    train_violations=violations)


def _smo(K: np.ndarray, y: np.ndarray, C: float, tol: float, max_passes: int):
    """SMO with second-order working-set selection (WSS2: Fan, Chen & Lin,
    JMLR 2005). Returns ``(alpha, bias, steps, exhausted, violations)``: the
    pair updates made, whether the step budget ran out, and the examples that
    break their KKT condition at ``tol`` under the fitted threshold.

    E_i = u_i - y_i with u = K (alpha*y) and no threshold; pairwise updates
    depend only on error differences, so the threshold is fitted once at
    termination from the KKT interval. The stopping rule (violation gap
    <= 2*tol) is exactly the per-example KKT certificate for that threshold.
    The step budget is ``max_passes`` sweep-equivalents (n steps each);
    ``train_svm`` passes ``TOL`` and ``MAX_PASSES`` for every fit.

    Every example shares the box [0, C] with C > 0. Row 0 of ``E`` holds
    E_i inside I_up (+inf outside), row 1 inside I_low (-inf outside); every
    example is in one set or both, and E_i is whichever entry is finite. A
    step adds one ``d1*K[i] + d2*K[j]`` row to both rows and re-derives
    membership at the two moved examples only. i is the I_up minimum; its partner j in I_low
    maximizes (E_j - E_i)^2 / a_ij over E_j > E_i, with the curvature
    a_ij = K_ii + K_jj - 2 K_ij floored at ``_TAU``. Over E_j > E_i that is
    the maximum of (E_j - E_i) * a_ij^(-1/2), scored against a matrix of
    a_ij^(-1/2) built once per fit; every other entry scores <= 0 (-inf
    outside I_low), so j always lies in I_low and j != i.

    Every pair takes the same step, alpha_j += y_j (E_i - E_j) / a_ij clipped
    to the pair's segment [L, H]. Snapping keeps I_up and I_low membership
    exact, so i and j each have room to move and the segment is never empty;
    a flat direction (a_ij = tau) gets a step of at least 2*tol/tau, which the
    clip turns into the segment end the linear objective favours. No step is
    refused, so the loop ends only on the KKT certificate or the budget. The
    pair arithmetic runs on Python floats.
    """
    n = y.size
    alpha = [0.0] * n
    ys = y.tolist()
    C = float(C)
    snap_zero, snap_c = _BOUND_EPS * C, C * (1.0 - _BOUND_EPS)
    diag = K.diagonal()
    dg = diag.tolist()
    rsqrt_curv = np.add.outer(diag, diag)
    rsqrt_curv -= 2.0 * K
    np.maximum(rsqrt_curv, _TAU, out=rsqrt_curv)
    np.sqrt(rsqrt_curv, out=rsqrt_curv)
    np.divide(1.0, rsqrt_curv, out=rsqrt_curv)

    # At alpha = 0, u - y = -y, I_up = {y > 0} and I_low = {y < 0}.
    E = np.where([y > 0, y < 0], -y, [[math.inf], [-math.inf]])
    e_up, e_low = E
    delta, score = np.empty(n), np.empty(n)

    max_steps = max_passes * max(n, 8)
    steps = 0
    while steps < max_steps:
        i = int(e_up.argmin())
        lo, hi = e_up.item(i), e_low.item(e_low.argmax())
        if lo == math.inf or hi == -math.inf:
            break                          # an index set is empty (errors are finite)
        if hi - lo <= 2.0 * tol:
            break                          # KKT holds within tol for all
        np.subtract(e_low, lo, out=score)  # -inf outside I_low
        np.multiply(score, rsqrt_curv[i], out=score)
        j = int(score.argmax())
        ej = e_low.item(j)
        a1o, a2o = alpha[i], alpha[j]
        y1, y2 = ys[i], ys[j]
        s = y1 * y2
        if s < 0:
            L = max(0.0, a2o - a1o)
            H = min(C, C + a2o - a1o)
        else:
            L = max(0.0, a1o + a2o - C)
            H = min(C, a1o + a2o)
        curv = max(dg[i] + dg[j] - 2.0 * K.item(i, j), _TAU)
        a2 = min(max(a2o + y2 * (lo - ej) / curv, L), H)
        a1 = a1o + s * (a2o - a2)
        # Snap grime at the box boundary to exact bounds.
        if a1 < snap_zero:
            a1 = 0.0
        elif a1 > snap_c:
            a1 = C
        if a2 < snap_zero:
            a2 = 0.0
        elif a2 > snap_c:
            a2 = C
        np.multiply(K[i], y1 * (a1 - a1o), out=delta)
        np.multiply(K[j], y2 * (a2 - a2o), out=score)   # scores are spent
        np.add(delta, score, out=delta)
        np.add(E, delta, out=E)            # +-inf entries stay infinite
        alpha[i] = a1
        alpha[j] = a2
        for k, a, e in ((i, a1, lo + delta.item(i)), (j, a2, ej + delta.item(j))):
            if ys[k] > 0:
                in_up, in_low = a < C, a > 0
            else:
                in_up, in_low = a > 0, a < C
            e_up[k] = e if in_up else math.inf
            e_low[k] = e if in_low else -math.inf
        steps += 1
    alpha = np.array(alpha, dtype=np.float64)
    # Recompute errors before fitting the threshold; incremental updates
    # accumulate a little dust over thousands of steps.
    errors = K @ (alpha * y) - y
    up = np.where(y > 0, alpha < C, alpha > 0)      # I_up: alpha may grow
    low = np.where(y > 0, alpha > 0, alpha < C)     # I_low: alpha may shrink
    if up.any() and low.any():
        bias = -0.5 * (float(errors[up].min()) + float(errors[low].max()))
    elif up.any():
        bias = -float(errors[up].min())
    elif low.any():
        bias = -float(errors[low].max())
    else:
        bias = 0.0
    r = y * (errors + bias)                          # y * u - 1
    at_zero = alpha <= snap_zero
    at_c = alpha >= snap_c
    interior = ~at_zero & ~at_c
    bad = ((at_zero & (r < -tol))
           | (interior & (np.abs(r) > tol))
           | (at_c & (r > tol)))
    return alpha, bias, steps, steps == max_steps, int(bad.sum())
