"""Soft-margin kernel SVM trained by sequential minimal optimization.

The solver pairs the maximal KKT violator with the partner that second-order
working-set selection picks, and falls back to a seeded scan when that pair
is pinched against the box, so training is deterministic. Features are
z-scored with training statistics stored on the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .folds import check_seed

KERNELS = ("linear", "rbf")

_BOUND_EPS = 1e-8
_STEP_EPS = 1e-12
_TAU = 1e-12            # curvature floor in pair selection, as in LIBSVM


@dataclass(frozen=True)
class SvmParams:
    kernel: str = "rbf"
    gamma: float | None = None      # None: 1 / (d * median standardized feature variance)
    C: float = 1.0
    tol: float = 1e-3               # KKT tolerance
    max_passes: int = 500           # sweep-equivalent step budget
    class_weights: tuple[float, float] | None = None   # (C multiplier for -1, for +1)
    seed: int = 0

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not _finite_positive(self.C):
            raise ValueError(f"C must be finite and positive, got {self.C!r}")
        if self.gamma is not None and not _finite_positive(self.gamma):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma!r}")
        if not _finite_positive(self.tol):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if not isinstance(self.max_passes, (int, np.integer)) or self.max_passes < 1:
            raise ValueError(f"max_passes must be an integer >= 1, got {self.max_passes!r}")
        check_seed(self.seed)
        if self.class_weights is not None:
            weights = tuple(self.class_weights)    # a tuple keeps params hashable
            if len(weights) != 2 or not all(map(_finite_positive, weights)):
                raise ValueError("class_weights must be two finite positive "
                                 f"numbers, got {self.class_weights!r}")
            object.__setattr__(self, "class_weights", weights)


def _finite_positive(v) -> bool:
    return math.isfinite(v) and v > 0


def kernel_matrix(X: np.ndarray, Y: np.ndarray, kernel: str, gamma: float | None) -> np.ndarray:
    if kernel == "linear":
        return X @ Y.T
    g = X @ Y.T
    g *= 2.0
    xx = np.sum(X * X, axis=1)
    sq = np.add.outer(xx, xx if Y is X else np.sum(Y * Y, axis=1))
    sq -= g
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


def dual_objective(alpha: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


@dataclass
class SvmModel:
    kernel: str
    gamma: float | None
    C: float
    tol: float
    feature_indices: tuple[int, ...]
    mean: np.ndarray                 # per-feature training mean (selected columns)
    std: np.ndarray
    support_vectors: np.ndarray      # standardized rows
    dual_coef: np.ndarray            # alpha_i * y_i over support vectors
    bias: float
    # Full training state, kept for KKT certification; not serialized.
    train_X: np.ndarray | None = field(default=None, repr=False)
    train_y: np.ndarray | None = field(default=None, repr=False)
    train_alpha: np.ndarray | None = field(default=None, repr=False)
    train_C: np.ndarray | None = field(default=None, repr=False)
    train_steps: int | None = field(default=None, repr=False)        # SMO pair updates
    train_exhausted: bool | None = field(default=None, repr=False)   # step budget ran out

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
        K = kernel_matrix(Xs, self.support_vectors, self.kernel, self.gamma)
        return K @ self.dual_coef + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        """±1 labels; a decision value of exactly 0 falls to the -1 class."""
        return np.where(self.decision_values(X) > 0, 1, -1)

    def kkt_violations(self, tol: float | None = None) -> int:
        """Number of training examples violating the KKT conditions."""
        if self.train_X is None:
            raise ValueError("model was loaded without its training state")
        tol = self.tol if tol is None else tol
        u = (kernel_matrix(self.train_X, self.support_vectors, self.kernel, self.gamma)
             @ self.dual_coef + self.bias)
        r = self.train_y * u - 1.0
        a = self.train_alpha
        C = self.train_C
        at_zero = a <= _BOUND_EPS * C
        at_c = a >= C * (1.0 - _BOUND_EPS)
        interior = ~at_zero & ~at_c
        bad = ((at_zero & (r < -tol))
               | (interior & (np.abs(r) > tol))
               | (at_c & (r > tol)))
        return int(bad.sum())


def _resolve_gamma(params: SvmParams, Xs: np.ndarray) -> float | None:
    if params.kernel != "rbf":
        return None
    if params.gamma is not None:
        return params.gamma
    variances = Xs.var(axis=0)
    med = float(np.median(variances))
    if med <= 0:
        med = 1.0
    return 1.0 / (Xs.shape[1] * med)


def train_svm(X: np.ndarray, y: np.ndarray, params: SvmParams = SvmParams(),
              feature_indices=None) -> SvmModel:
    """Fit the dual soft-margin problem with SMO.

    ``X`` is raw (already imputed) data; ``y`` holds ±1 labels with both
    classes present. Deterministic for a given ``params.seed``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n, d) with one label per row")
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature values; impute before training")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.unique(y).size < 2:
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

    gamma = _resolve_gamma(params, Xs)
    K = kernel_matrix(Xs, Xs, params.kernel, gamma)
    w_neg, w_pos = params.class_weights or (1.0, 1.0)
    Cv = params.C * np.where(y < 0, w_neg, w_pos)

    alpha, bias, steps, exhausted = _smo(
        K, y, Cv, params.tol, params.max_passes,
        np.random.default_rng(np.random.SeedSequence([params.seed])))

    sv = alpha > 0
    return SvmModel(kernel=params.kernel, gamma=gamma, C=params.C, tol=params.tol,
                    feature_indices=feature_indices, mean=mean, std=std,
                    support_vectors=Xs[sv], dual_coef=alpha[sv] * y[sv], bias=bias,
                    train_X=Xs, train_y=y, train_alpha=alpha, train_C=Cv,
                    train_steps=steps, train_exhausted=exhausted)


def _smo(K: np.ndarray, y: np.ndarray, Cv: np.ndarray, tol: float,
         max_passes: int, rng: np.random.Generator):
    """SMO with second-order working-set selection (WSS2: Fan, Chen & Lin,
    JMLR 2005). Returns ``(alpha, bias, steps, exhausted)``: ``steps`` counts
    the pair updates made, and ``exhausted`` says the step budget ran out.

    E_i = u_i - y_i with u = K (alpha*y) and no threshold; pairwise updates
    depend only on error differences, so the threshold is fitted once at
    termination from the KKT interval. The stopping rule (violation gap
    <= 2*tol) is exactly the per-example KKT certificate for that threshold.
    The step budget is ``max_passes`` sweep-equivalents (n steps each).

    Row 0 of ``E`` holds E_i inside I_up (+inf outside), row 1 inside I_low
    (-inf outside). Every box has C_i > 0, so every example is in one set or
    both, and E_i is whichever entry is finite. A step adds one
    ``d1*K[i1] + d2*K[i2]`` row to both rows and re-derives membership at the
    two moved examples only. i is the I_up minimum; its partner j in I_low
    maximizes (E_j - E_i)^2 / a_ij over E_j > E_i, with the curvature
    a_ij = K_ii + K_jj - 2 K_ij built once and floored at ``_TAU``; the floor
    also keeps 0/0 out of the scores, so j always lies in I_low. The pair
    arithmetic runs on Python floats.
    """
    n = y.size
    alpha = [0.0] * n
    ys = y.tolist()
    Cs = Cv.tolist()
    diag = K.diagonal()
    kdiag = diag.tolist()
    curv = np.add.outer(diag, diag)
    curv -= 2.0 * K
    np.maximum(curv, _TAU, out=curv)

    # At alpha = 0, u - y = -y, I_up = {y > 0} and I_low = {y < 0}.
    E = np.where([y > 0, y < 0], -y, [[math.inf], [-math.inf]])
    e_up, e_low = E
    delta, row, score = np.empty(n), np.empty(n), np.empty(n)

    def error(i: int) -> float:
        e = e_up.item(i)
        return e_low.item(i) if e == math.inf else e

    def take_step(i1: int, i2: int, e1: float, e2: float) -> bool:
        if i1 == i2:
            return False
        a1o, a2o = alpha[i1], alpha[i2]
        y1, y2 = ys[i1], ys[i2]
        s = y1 * y2
        if s < 0:
            L = max(0.0, a2o - a1o)
            H = min(Cs[i2], Cs[i1] + a2o - a1o)
        else:
            L = max(0.0, a1o + a2o - Cs[i1])
            H = min(Cs[i2], a1o + a2o)
        if L >= H - _STEP_EPS:
            return False
        eta = kdiag[i1] + kdiag[i2] - 2.0 * K.item(i1, i2)
        if eta > _STEP_EPS:
            a2 = a2o + y2 * (e1 - e2) / eta
            a2 = min(max(a2, L), H)
        else:
            # Flat or numerically indefinite direction: the 1-D dual is not
            # strictly concave, so the maximum sits at a segment end.
            v = y2 * (e1 - e2)
            dl, dh = L - a2o, H - a2o
            obj_l = v * dl - 0.5 * eta * dl * dl
            obj_h = v * dh - 0.5 * eta * dh * dh
            if obj_l > obj_h + _STEP_EPS:
                a2 = L
            elif obj_h > obj_l + _STEP_EPS:
                a2 = H
            else:
                return False
        if abs(a2 - a2o) < _STEP_EPS * (a2 + a2o + _STEP_EPS):
            return False
        a1 = a1o + s * (a2o - a2)
        # Snap grime at the box boundary to exact bounds.
        if a1 < _BOUND_EPS * Cs[i1]:
            a1 = 0.0
        elif a1 > Cs[i1] * (1.0 - _BOUND_EPS):
            a1 = Cs[i1]
        if a2 < _BOUND_EPS * Cs[i2]:
            a2 = 0.0
        elif a2 > Cs[i2] * (1.0 - _BOUND_EPS):
            a2 = Cs[i2]
        np.multiply(K[i1], y1 * (a1 - a1o), out=delta)
        np.multiply(K[i2], y2 * (a2 - a2o), out=row)
        np.add(delta, row, out=delta)
        np.add(E, delta, out=E)            # +-inf entries stay infinite
        alpha[i1] = a1
        alpha[i2] = a2
        for i, a, e in ((i1, a1, e1 + delta.item(i1)),
                        (i2, a2, e2 + delta.item(i2))):
            if ys[i] > 0:
                in_up, in_low = a < Cs[i], a > 0
            else:
                in_up, in_low = a > 0, a < Cs[i]
            e_up[i] = e if in_up else math.inf
            e_low[i] = e if in_low else -math.inf
        return True

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
        np.maximum(score, 0.0, out=score)
        np.multiply(score, score, out=score)
        np.divide(score, curv[i], out=score)
        j = int(score.argmax())
        ej = e_low.item(j)
        if not take_step(i, j, lo, ej):
            # Chosen pair pinched against the box: scan for any productive
            # partner, seeded so training stays deterministic.
            start = int(rng.integers(n))
            for m in range(n):
                k = (start + m) % n
                ek = error(k)
                if take_step(k, j, ek, ej) or take_step(i, k, lo, ek):
                    break
            else:
                break                      # no pair admits progress
        steps += 1
    alpha = np.array(alpha, dtype=np.float64)
    # Recompute errors before fitting the threshold; incremental updates
    # accumulate a little dust over thousands of steps.
    errors = K @ (alpha * y) - y
    up = np.where(y > 0, alpha < Cv, alpha > 0)     # I_up: alpha may grow
    low = np.where(y > 0, alpha > 0, alpha < Cv)    # I_low: alpha may shrink
    if up.any() and low.any():
        bias = -0.5 * (float(errors[up].min()) + float(errors[low].max()))
    elif up.any():
        bias = -float(errors[up].min())
    elif low.any():
        bias = -float(errors[low].max())
    else:
        bias = 0.0
    return alpha, bias, steps, steps == max_steps
