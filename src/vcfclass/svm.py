"""Soft-margin kernel SVM trained by sequential minimal optimization.

The solver follows Platt's working-pair scheme: an outer loop alternating
full sweeps with non-bound sweeps, a second-choice heuristic maximizing the
error gap, and seeded scan offsets so training is deterministic. Features are
z-scored with training statistics stored on the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KERNELS = ("linear", "rbf")

_BOUND_EPS = 1e-8
_STEP_EPS = 1e-12


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
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def kernel_matrix(X: np.ndarray, Y: np.ndarray, kernel: str, gamma: float | None) -> np.ndarray:
    if kernel == "linear":
        return X @ Y.T
    sq = (np.sum(X * X, axis=1)[:, None] + np.sum(Y * Y, axis=1)[None, :]
          - 2.0 * (X @ Y.T))
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


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

    alpha, bias = _smo(K, y, Cv, params.tol, params.max_passes,
                       np.random.default_rng(np.random.SeedSequence([params.seed])))

    sv = alpha > 0
    return SvmModel(kernel=params.kernel, gamma=gamma, C=params.C, tol=params.tol,
                    feature_indices=feature_indices, mean=mean, std=std,
                    support_vectors=Xs[sv], dual_coef=alpha[sv] * y[sv], bias=bias,
                    train_X=Xs, train_y=y, train_alpha=alpha, train_C=Cv)


def _smo(K: np.ndarray, y: np.ndarray, Cv: np.ndarray, tol: float,
         max_passes: int, rng: np.random.Generator):
    """Maximal-violating-pair SMO.

    ``errors`` caches E_i = u_i - y_i with u = K (alpha*y) and no threshold;
    pairwise updates depend only on error differences, so the threshold is
    fitted once at termination from the KKT interval. The stopping rule
    (violation gap <= 2*tol) is exactly the per-example KKT certificate for
    that threshold. The pair budget is ``max_passes`` sweep-equivalents
    (n steps each).

    ``e_up``/``e_low`` copy ``errors`` inside I_up/I_low and hold +inf/-inf
    outside. They take the same update as ``errors`` and change membership
    only at the two examples a step moves, so choosing the pair is one
    argmin and one argmax. The pair arithmetic runs on Python floats.
    """
    n = y.size
    errors = -y.copy()                    # u - y with all-zero alpha
    alpha = [0.0] * n
    ys = y.tolist()
    Cs = Cv.tolist()

    # I_up: alpha may grow (raises y*u); I_low: alpha may shrink.
    def in_up(i: int) -> bool:
        return alpha[i] < Cs[i] if ys[i] > 0 else alpha[i] > 0

    def in_low(i: int) -> bool:
        return alpha[i] > 0 if ys[i] > 0 else alpha[i] < Cs[i]

    def index_sets():
        return (np.array([in_up(i) for i in range(n)], dtype=bool),
                np.array([in_low(i) for i in range(n)], dtype=bool))

    up, low = index_sets()
    e_up = np.where(up, errors, np.inf)
    e_low = np.where(low, errors, -np.inf)

    def take_step(i1: int, i2: int) -> bool:
        nonlocal errors, e_up, e_low
        if i1 == i2:
            return False
        a1o, a2o = alpha[i1], alpha[i2]
        y1, y2 = ys[i1], ys[i2]
        e1, e2 = errors.item(i1), errors.item(i2)
        s = y1 * y2
        if s < 0:
            L = max(0.0, a2o - a1o)
            H = min(Cs[i2], Cs[i1] + a2o - a1o)
        else:
            L = max(0.0, a1o + a2o - Cs[i1])
            H = min(Cs[i2], a1o + a2o)
        if L >= H - _STEP_EPS:
            return False
        k11, k12, k22 = K.item(i1, i1), K.item(i1, i2), K.item(i2, i2)
        eta = k11 + k22 - 2.0 * k12
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
        d1 = y1 * (a1 - a1o)
        d2 = y2 * (a2 - a2o)
        delta = d1 * K[i1] + d2 * K[i2]
        errors += delta
        e_up += delta                      # +-inf entries stay infinite
        e_low += delta
        alpha[i1] = a1
        alpha[i2] = a2
        for i in (i1, i2):
            e_up[i] = errors[i] if in_up(i) else np.inf
            e_low[i] = errors[i] if in_low(i) else -np.inf
        return True

    max_steps = max_passes * max(n, 8)
    for _ in range(max_steps):
        i_up = int(e_up.argmin())
        i_low = int(e_low.argmax())
        lo, hi = e_up.item(i_up), e_low.item(i_low)
        if lo == np.inf or hi == -np.inf:
            break                          # an index set is empty (errors are finite)
        if hi - lo <= 2.0 * tol:
            break                          # KKT holds within tol for all
        if take_step(i_up, i_low):
            continue
        # Maximal pair pinched against the box: scan for any productive
        # partner, seeded so training stays deterministic.
        moved = False
        start = int(rng.integers(n))
        for k in range(n):
            j = (start + k) % n
            if take_step(j, i_low) or take_step(i_up, j):
                moved = True
                break
        if not moved:
            break                          # no pair admits progress
    up, low = index_sets()
    alpha = np.array(alpha, dtype=np.float64)
    # Recompute the cache before fitting the threshold; incremental updates
    # accumulate a little dust over thousands of steps.
    errors[:] = K @ (alpha * y) - y

    if up.any() and low.any():
        bias = -0.5 * (float(errors[up].min()) + float(errors[low].max()))
    elif up.any():
        bias = -float(errors[up].min())
    elif low.any():
        bias = -float(errors[low].max())
    else:
        bias = 0.0
    return alpha, bias
