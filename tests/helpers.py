"""Shared fixtures-in-code: single-vertebra phantom builders (one body rendered
with the cohort writer's footprint, wedge-shaped cell heights), each
``vcfclass`` subcommand's option strings, the SVM dual objective, tree hashing,
a child-process CLI runner, the independent oracles (dense-QP projected
gradient, exact hypergeometric enumeration) used to cross-check the
production paths, a replay of an SVM fit's training state and of a cross-validation
fold's fit, and verbatim
copies of replaced code paths (SMO step, the rebuilt KKT count, the two
lattice-ball rules, full-grid label scans, dict-built feature rows with their
missing-value mask, mask-aware imputation, exhaustive greedy selection, the
distance-transform vertebra renderer, the per-study cohort writer) kept as
references."""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
from scipy import ndimage

from vcfclass.cli import build_parser
from vcfclass.committee import MIN_IMPROVEMENT, CommitteeConfig, train_committee
from vcfclass.crossval import CvResult, imputation_constants, impute
from vcfclass.densitometry import (DEFAULT_EROSION_MM, MIN_LABEL_VOXELS,
                                   StudyReference, trabecular_region)
from vcfclass.features import (ALL_COLUMNS, CONTRAST_COLUMNS,
                               RATE_BASE_COLUMNS, FeatureTable, _truth_code,
                               condition_columns, demographics, measured_features)
from vcfclass.folds import kfold_split
from vcfclass.frames import LocalFrame, make_frame
from vcfclass.grids import (FormatError, GridGeometry, LabelMap, Volume, ball_rows,
                            check_paired_geometry, save_labelmap, save_volume,
                            vertebra_role)
from vcfclass.manifest import (NEOPLASTIC, OSTEOPOROTIC, CohortManifest,
                               PatientEntry, StudyRecord, save_manifest,
                               years_between)
from vcfclass.morphometry import (MIN_CELL_COLUMNS, MIN_COLUMN_VOXELS, N_CELLS,
                                  R1_FRACTION, R2_FRACTION, CellHeights,
                                  ColumnTable, _axis_resolution, arc_index,
                                  assign_cells, cell_index)
from vcfclass.phantom import (CohortSpec, VertebraSpec, _add_noise, _Footprint,
                              _plan_patient, _render_background, _rng, _study_grid,
                              advance)
from vcfclass import svm
from vcfclass.svm import TOL, SvmModel, SvmParams, _smo, kernel_matrix, train_svm

_PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args) -> subprocess.CompletedProcess:
    """Run ``python -m vcfclass.cli`` in a child process that imports the
    package from this checkout's ``src``."""
    path = os.pathsep.join(p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "vcfclass.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def subcommand_options() -> dict[str, list[str]]:
    """Each ``vcfclass`` subcommand's option strings, in the order ``--help``
    lists them."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [opt for action in p._actions for opt in action.option_strings]
            for name, p in sub.choices.items()}


WORLD_FRAME = make_frame((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))


def render_vertebra(spec: VertebraSpec, frame, grid: GridGeometry,
                    label: int = 1, rng: np.random.Generator | None = None):
    """Rasterize one vertebral body onto ``grid`` with the cohort writer's
    ``_Footprint`` and noise.

    Returns ``(hu, labels)`` full-grid arrays: float64 HU values (0 outside
    the body) and a uint16 patch holding ``label`` at body voxels. The body
    bottom sits at ``centroid - max(cell_heights)/2`` along the superior axis
    and each column rises to its interpolated target height.
    """
    body, values = _Footprint(spec, frame, grid).solid(spec)
    hu = np.zeros(body.shape, dtype=np.float64)
    hu[body] = _add_noise(values, spec, rng)
    labels = np.zeros(body.shape, dtype=np.uint16)
    labels[body] = label
    return hu, labels


def single_vertebra_grid(spacing=(1.0, 1.0, 1.0), with_refs=False) -> GridGeometry:
    sx, sy, sz = spacing
    ny = 64 if with_refs else 48
    oy = -(ny - 8) * sy / 2 - (16 * sy if with_refs else 0)
    return GridGeometry(dims=(int(48 / sx) + 1, int(ny), int(44 / sz) + 1),
                        spacing=spacing,
                        origin=(-24.0 + sx / 2, oy, -22.0 + sz / 2))


def wedge_heights(anterior_mm: float, posterior_mm: float) -> tuple[float, ...]:
    """Heights varying with the cosine of the clockwise-from-anterior azimuth,
    identical in both rings: anterior arcs get ``anterior_mm``, posterior arcs
    ``posterior_mm``, the center cell their midpoint."""
    mid = 0.5 * (anterior_mm + posterior_mm)
    half = 0.5 * (posterior_mm - anterior_mm)
    ring = [mid - half * np.cos(k * np.pi / 4.0) for k in range(8)]
    return tuple([mid] + ring + ring)


def body_spec(heights, trabecular_hu=150, cortical_hu=400, cortical_thickness=3.0,
              noise_sd=0.0, radii=(16.0, 13.0), **kw) -> VertebraSpec:
    return VertebraSpec(level_index=12, body_radii=radii, cell_heights=heights,
                        trabecular_hu=trabecular_hu, cortical_hu=cortical_hu,
                        cortical_thickness=cortical_thickness, noise_sd=noise_sd, **kw)


def render_single(spec: VertebraSpec, grid: GridGeometry | None = None,
                  frame=WORLD_FRAME, with_refs=False, rng=None):
    """Render one vertebra (label 1) plus optional muscle/fat blocks; returns
    (Volume, LabelMap, frame)."""
    if grid is None:
        grid = single_vertebra_grid(with_refs=with_refs)
    hu, lab = render_vertebra(spec, frame, grid, label=1, rng=rng)
    full = np.where(lab > 0, hu, -1000.0)
    labels = lab.copy()
    legend = {1: f"VERTEBRA:{spec.level_index}"}
    if with_refs:
        ys = grid.axis_coords(1)[None, :, None]
        r_ap = spec.body_radii[0]
        muscle = np.broadcast_to((ys >= -r_ap - 14) & (ys <= -r_ap - 6), full.shape) & (labels == 0)
        fat = np.broadcast_to((ys >= -r_ap - 24) & (ys <= -r_ap - 16), full.shape) & (labels == 0)
        full[muscle] = 50
        labels[muscle] = 101
        legend[101] = "MUSCLE_REF"
        full[fat] = -100
        labels[fat] = 102
        legend[102] = "FAT_REF"
    vol = Volume(geometry=grid, data=np.clip(np.rint(full), -1024, 3071).astype(np.int16))
    lm = LabelMap(geometry=grid, labels=labels, legend=legend)
    return vol, lm, frame


def trabecular_mask(lm: LabelMap, label: int, frame,
                    erosion_radius_mm: float = DEFAULT_EROSION_MM) -> np.ndarray:
    """``densitometry.trabecular_region`` for a ball of ``erosion_radius_mm``,
    as a full-grid mask. The probe reads no reference HU, so none is needed."""
    ref = StudyReference(muscle_hu=100.0, fat_hu=0.0,
                         erosion_radius_mm=erosion_radius_mm,
                         ball=ball_rows(erosion_radius_mm, lm.spacing))
    box, crop = trabecular_region(lm, label, frame, ref)
    mask = np.zeros(lm.labels.shape, dtype=bool)
    mask[box] = crop
    return mask


def column_extents(labels: np.ndarray, label: int, spacing_z: float) -> np.ndarray:
    """Per-column closed-interval z extent of a label patch; the brute-force
    height oracle (independent of the compass code)."""
    body = labels == label
    nz, ny, nx = body.shape
    out = []
    for iy in range(ny):
        for ix in range(nx):
            zs = np.flatnonzero(body[:, iy, ix])
            if zs.size:
                out.append((zs.max() - zs.min()) * spacing_z + spacing_z)
    return np.array(out)


def tree_hash(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# dense-QP projected-gradient oracle for the SVM dual

def _project_box_hyperplane(v: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= C, y.a = 0} for y in {-1, +1}^n.

    a(lam) = clip(v + lam*y, 0, C) makes g(lam) = y.a(lam) piecewise linear and
    nondecreasing; the root is found exactly on the breakpoint grid.
    """
    bps = np.unique(np.concatenate([-v * y, (C - v) * y]))
    a_bp = np.clip(v[None, :] + bps[:, None] * y[None, :], 0.0, C)
    g = a_bp @ y
    if g[0] >= 0:
        lam = bps[0]
    elif g[-1] <= 0:
        lam = bps[-1]
    else:
        k = int(np.searchsorted(g > 0, True)) - 1
        g0, g1 = g[k], g[k + 1]
        lam = bps[k] if g1 == g0 else bps[k] + (bps[k + 1] - bps[k]) * (-g0) / (g1 - g0)
    return np.clip(v + lam * y, 0.0, C)


def qp_dual_oracle(K: np.ndarray, y: np.ndarray, C: float,
                   max_iters: int = 20000, rel_tol: float = 1e-10) -> np.ndarray:
    """Brute-force projected-gradient ascent on the SVM dual."""
    n = y.size
    Q = K * np.outer(y, y)
    lr = 1.0 / max(1.0, float(np.linalg.norm(Q, 2)))
    alpha = np.zeros(n)
    prev = -np.inf
    for it in range(max_iters):
        alpha = _project_box_hyperplane(alpha + lr * (1.0 - Q @ alpha), y, C)
        if it % 200 == 199:
            obj = alpha.sum() - 0.5 * alpha @ Q @ alpha
            if abs(obj - prev) <= rel_tol * max(1.0, abs(obj)):
                break
            prev = obj
    return alpha


# ---------------------------------------------------------------------------
# exact hypergeometric enumeration oracle for the Fisher test

def fisher_enumeration_oracle(table, convention: str = "mass") -> Fraction:
    """Full enumeration with exact rational arithmetic and the same tie
    conventions as the production test (1e-7 relative tie band)."""
    (a, b), (c, d) = [[int(x) for x in row] for row in table]
    r1, r2 = a + b, c + d
    c1 = a + c
    n = r1 + r2
    if min(r1, r2, c1, b + d) == 0:
        return Fraction(1)
    lo, hi = max(0, c1 - r2), min(r1, c1)
    w_obs = comb(r1, a) * comb(r2, c1 - a)
    upper = Fraction(10**7 + 1, 10**7)        # observed * (1 + 1e-7)
    lower = Fraction(10**7, 10**7 + 1)
    strict = 0
    ties = 0
    for x in range(lo, hi + 1):
        w = comb(r1, x) * comb(r2, c1 - x)
        ratio = Fraction(w, w_obs)
        if ratio > upper:                     # strictly more probable
            continue
        if ratio >= lower:                    # within the +-1e-7 tie band
            ties += w
        else:
            strict += w
    den = comb(n, c1)
    if convention == "mass":
        return Fraction(strict + ties, den)
    return Fraction(2 * strict + ties, 2 * den)


# ---------------------------------------------------------------------------
# reference SMO: the first-order solver as it stood before the incremental
# index sets, its arithmetic kept verbatim so tests can compare the
# second-order solver's certificate, dual objective and step count against it

_BOUND_EPS = 1e-8
_STEP_EPS = 1e-12


def reference_smo(K: np.ndarray, y: np.ndarray, Cv: np.ndarray, tol: float,
                  max_passes: int, rng: np.random.Generator):
    """Maximal-violating-pair SMO; returns ``(alpha, bias, steps)``, where
    ``steps`` counts the pair updates made.

    ``errors`` caches E_i = u_i - y_i with u = K (alpha*y) and no threshold;
    pairwise updates depend only on error differences, so the threshold is
    fitted once at termination from the KKT interval. The stopping rule
    (violation gap <= 2*tol) is exactly the per-example KKT certificate for
    that threshold. The pair budget is ``max_passes`` sweep-equivalents
    (n steps each).
    """
    n = y.size
    steps = 0
    alpha = np.zeros(n)
    errors = -y.copy()                    # u - y with all-zero alpha

    def take_step(i1: int, i2: int) -> bool:
        nonlocal errors
        if i1 == i2:
            return False
        a1o, a2o = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        e1, e2 = errors[i1], errors[i2]
        s = y1 * y2
        if s < 0:
            L = max(0.0, a2o - a1o)
            H = min(Cv[i2], Cv[i1] + a2o - a1o)
        else:
            L = max(0.0, a1o + a2o - Cv[i1])
            H = min(Cv[i2], a1o + a2o)
        if L >= H - _STEP_EPS:
            return False
        k11, k12, k22 = K[i1, i1], K[i1, i2], K[i2, i2]
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
        if a1 < _BOUND_EPS * Cv[i1]:
            a1 = 0.0
        elif a1 > Cv[i1] * (1.0 - _BOUND_EPS):
            a1 = Cv[i1]
        if a2 < _BOUND_EPS * Cv[i2]:
            a2 = 0.0
        elif a2 > Cv[i2] * (1.0 - _BOUND_EPS):
            a2 = Cv[i2]
        d1 = y1 * (a1 - a1o)
        d2 = y2 * (a2 - a2o)
        errors += d1 * K[i1] + d2 * K[i2]
        alpha[i1] = a1
        alpha[i2] = a2
        return True

    # I_up: alpha may grow (raises y*u); I_low: alpha may shrink.
    def up_mask():
        return ((y > 0) & (alpha < Cv)) | ((y < 0) & (alpha > 0))

    def low_mask():
        return ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < Cv))

    max_steps = max_passes * max(n, 8)
    for _ in range(max_steps):
        up = np.flatnonzero(up_mask())
        low = np.flatnonzero(low_mask())
        if up.size == 0 or low.size == 0:
            break
        i_up = int(up[np.argmin(errors[up])])
        i_low = int(low[np.argmax(errors[low])])
        if errors[i_low] - errors[i_up] <= 2.0 * tol:
            break                          # KKT holds within tol for all
        if take_step(i_up, i_low):
            steps += 1
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
        steps += 1
    # Recompute the cache before fitting the threshold; incremental updates
    # accumulate a little dust over thousands of steps.
    errors[:] = K @ (alpha * y) - y

    up = np.flatnonzero(up_mask())
    low = np.flatnonzero(low_mask())
    if up.size and low.size:
        bias = -0.5 * (float(errors[up].min()) + float(errors[low].max()))
    elif up.size:
        bias = -float(errors[up].min())
    elif low.size:
        bias = -float(errors[low].max())
    else:
        bias = 0.0
    return alpha, bias, steps


def dual_objective(alpha: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    """The SVM dual objective sum(alpha) - (alpha*y)' K (alpha*y) / 2."""
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


def reference_rbf_kernel(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """The RBF branch of ``kernel_matrix`` before it was built in place."""
    sq = (np.sum(X * X, axis=1)[:, None] + np.sum(Y * Y, axis=1)[None, :]
          - 2.0 * (X @ Y.T))
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


# ---------------------------------------------------------------------------
# training state: a model keeps only what predicts, so tests that read a
# fit's standardized rows or alphas replay the fit, and the KKT count
# the model stores is checked against the rebuild it used to make from them


def replay_training(X, y, params: SvmParams, model: SvmModel):
    """``(Xs, alpha)`` of the ``train_svm(X, y, params, ...)`` fit that made
    ``model``: the standardized rows rebuilt from its ``mean`` and ``std``
    with ``train_svm``'s expression, and the alphas of ``_smo`` re-run on
    them with box ``params.C`` under the current ``svm.MAX_PASSES``. Asserts
    that the replay's nonzero alphas give the model's ``support_vectors``,
    ``dual_coef`` and ``bias`` exactly."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Xs = (X[:, list(model.feature_indices)] - model.mean) / model.std
    K = kernel_matrix(Xs, Xs, model.gamma)
    alpha, bias, *_ = _smo(K, y, params.C, TOL, svm.MAX_PASSES)
    sv = alpha > 0
    assert np.array_equal(Xs[sv], model.support_vectors)
    assert np.array_equal(alpha[sv] * y[sv], model.dual_coef)
    assert bias == model.bias
    return Xs, alpha


def linear_gram_fit(X, y, C: float, max_passes: int | None = None):
    """``_smo`` on the linear Gram matrix ``Xs @ Xs.T`` of ``train_svm``'s
    z-scored rows, the fit a linear-kernel SVM makes. The Gram is
    rank-deficient whenever n > d, so it has flat pair directions that
    exercise the solver's curvature floor. Returns
    ``(Xs, K, alpha, bias, steps, exhausted, violations)``; the budget is
    ``svm.MAX_PASSES`` unless ``max_passes`` is given."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mean, std = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mean) / np.where(std > 0, std, 1.0)
    K = Xs @ Xs.T
    passes = svm.MAX_PASSES if max_passes is None else max_passes
    return (Xs, K, *_smo(K, y, C, TOL, passes))


def reference_kkt_violations(self: SvmModel, train_X, train_y, train_alpha,
                             train_C, tol: float | None = None) -> int:
    """``SvmModel.kkt_violations`` as it stood when a model kept its training
    rows, verbatim but for reading those four arrays as arguments: the
    training decision values are rebuilt from the support vectors."""
    u = (kernel_matrix(train_X, self.support_vectors, self.gamma)
         @ self.dual_coef + self.bias)
    return kkt_count(u, train_y, train_alpha, train_C, tol)


def kkt_count(u, train_y, train_alpha, train_C, tol: float | None = None) -> int:
    """Training examples whose decision value ``u`` breaks their KKT
    condition at ``tol`` (default ``TOL``): y*u >= 1 at alpha = 0, y*u = 1
    strictly inside the box and y*u <= 1 at C."""
    tol = TOL if tol is None else tol
    r = train_y * u - 1.0
    a = train_alpha
    C = train_C
    at_zero = a <= _BOUND_EPS * C
    at_c = a >= C * (1.0 - _BOUND_EPS)
    interior = ~at_zero & ~at_c
    bad = ((at_zero & (r < -tol))
           | (interior & (np.abs(r) > tol))
           | (at_c & (r > tol)))
    return int(bad.sum())


def inner_folds_scored(y, inner_folds: int, seed: int):
    """``scored`` as ``greedy_forward_select`` passes it to
    ``_inner_cv_accuracy``: the test masks of the inner folds whose training
    rows hold both classes."""
    folds = kfold_split(y, k=inner_folds, seed=seed)
    return [folds == f for f in range(inner_folds)
            if np.unique(y[folds != f]).size >= 2]


def replay_fold(table: FeatureTable, res: CvResult, cfg: CommitteeConfig,
                seed: int, f: int):
    """``(fill, committee)`` that the cross-validation run behind ``res``
    (``cfg``, ``seed``) fitted on outer fold ``f``, rebuilt as
    ``crossval._fold_task`` builds them: fill values from the fold's training
    rows over every column, then the committee on the condition's columns of
    the imputed rows under the fold seed ``SeedSequence([seed, f])``. Asserts
    that the committee gives the fold's decisions in ``res`` bit for bit."""
    tr = res.fold_assignment != f
    columns = [ALL_COLUMNS.index(c) for c in condition_columns(res.condition)]
    fill = imputation_constants(table.matrix[tr])
    y = np.where(table.truth == "N", 1.0, -1.0)
    fold_seed = int(np.random.SeedSequence([seed, f]).generate_state(1)[0])
    committee = train_committee(impute(table.matrix[tr], fill), y[tr],
                                replace(cfg, seed=fold_seed), columns)
    assert np.array_equal(committee.decision_values(impute(table.matrix[~tr], fill)),
                          res.decision[~tr])
    return fill, committee


# ---------------------------------------------------------------------------
# reference lattice balls: the phantom's shell ball and the trabecular probe's
# ball as each was built, as (z, y, x) offset masks, before both became
# ``grids.ball_rows``; kept verbatim so tests can require the same offsets

def reference_shell_ball(radius: float, sampling) -> np.ndarray:
    """(z, y, x) lattice offsets whose length is at most ``radius`` mm.

    Lengths are summed in the order ``distance_transform_edt`` sums them, so
    eroding by this ball removes exactly the voxels whose distance transform
    is at most ``radius``, bit for bit.
    """
    reach = [int(radius / s) + 1 for s in sampling]    # a spare voxel per side
    dz, dy, dx = np.ogrid[tuple(slice(-r, r + 1) for r in reach)]
    sz, sy, sx = sampling
    return np.sqrt((dz * sz) ** 2 + (dy * sy) ** 2 + (dx * sx) ** 2) <= radius


def reference_ball_structure(radius_mm: float, spacing) -> np.ndarray:
    """Discrete anisotropy-aware ball: lattice offsets within ``radius_mm``."""
    if not (np.isfinite(radius_mm) and radius_mm >= 0):
        raise ValueError(
            f"erosion radius must be finite and nonnegative, got {radius_mm}")
    sx, sy, sz = spacing
    nx = int(np.floor(radius_mm / sx + 1e-9))
    ny = int(np.floor(radius_mm / sy + 1e-9))
    nz = int(np.floor(radius_mm / sz + 1e-9))
    ox, oy, oz = np.meshgrid(np.arange(-nx, nx + 1) * sx,
                             np.arange(-ny, ny + 1) * sy,
                             np.arange(-nz, nz + 1) * sz, indexing="xy")
    # arranged (nz, ny, nx) to match the label array layout
    dist2 = (np.moveaxis(ox, -1, 0) ** 2 + np.moveaxis(oy, -1, 0) ** 2
             + np.moveaxis(oz, -1, 0) ** 2)
    return dist2 <= radius_mm ** 2 + 1e-6


def expand_rows(rows: np.ndarray) -> np.ndarray:
    """The (z, y, x) boolean ball of a ``grids.ball_rows`` table: row (dz, dy)
    holds the x-run ``|dx| <= rows[dz, dy]``, none where it is -1."""
    hx = max(int(rows.max()), 0)
    return np.abs(np.arange(-hx, hx + 1)) <= rows[:, :, None]


def ball_offsets(ball: np.ndarray) -> set[tuple[int, int, int]]:
    """The (dz, dy, dx) offsets of a (z, y, x) ball with odd extents."""
    centre = np.array(ball.shape) // 2
    return set(map(tuple, (np.argwhere(ball) - centre).tolist()))


# ---------------------------------------------------------------------------
# reference full-grid measurement: label-map scans as they stood before the
# per-label views, kept verbatim so tests can require identical features

def reference_label_world_coords(lm: LabelMap, label: int) -> np.ndarray:
    idx = np.argwhere(lm.labels == label)
    return lm.geometry.world_coords(idx)


def reference_column_table(lm: LabelMap, label: int, frame) -> ColumnTable:
    idx = np.argwhere(lm.labels == label)
    if idx.shape[0] == 0:
        raise ValueError(f"label {label} absent from the label map")
    coords = lm.geometry.world_coords(idx)
    a_all = coords @ frame.ap
    l_all = coords @ frame.lr
    s_all = coords @ frame.si

    res_a = _axis_resolution(frame.ap, lm.spacing)
    res_l = _axis_resolution(frame.lr, lm.spacing)
    slice_sp = _axis_resolution(frame.si, lm.spacing)

    # Bin relative to the minimum projection: grid-aligned voxels then sit at
    # integer offsets, far from rounding boundaries, which keeps the binning
    # stable under whole-voxel translations.
    a_ref = float(a_all.min())
    l_ref = float(l_all.min())
    ia = np.rint((a_all - a_ref) / res_a).astype(np.int64)
    il = np.rint((l_all - l_ref) / res_l).astype(np.int64)

    key = ia * (il.max() + 1) + il
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    s_sorted = s_all[order]
    starts = np.flatnonzero(np.concatenate(([True], key_sorted[1:] != key_sorted[:-1])))
    uniq_keys = key_sorted[starts]
    counts = np.diff(np.concatenate((starts, [key_sorted.size])))
    s_min = np.minimum.reduceat(s_sorted, starts)
    s_max = np.maximum.reduceat(s_sorted, starts)

    il_span = il.max() + 1
    a_center = a_ref + (uniq_keys // il_span) * res_a
    l_center = l_ref + (uniq_keys % il_span) * res_l
    a_center = a_center - a_center.mean()
    l_center = l_center - l_center.mean()

    height = np.where(counts >= MIN_COLUMN_VOXELS,
                      s_max - s_min + slice_sp, np.nan)
    return ColumnTable(a=a_center, l=l_center, height=height, res_a=res_a, res_l=res_l)


def reference_cell_heights(cols: ColumnTable, label: int) -> CellHeights:
    """Per-cell medians by one ``np.median`` per cell, as before the single
    sort by (cell, height)."""
    cells = assign_cells(cols)
    heights = np.full(N_CELLS, np.nan)
    for c in range(N_CELLS):
        sel = cells == c
        if int(sel.sum()) < MIN_CELL_COLUMNS:
            continue
        vals = cols.height[sel]
        vals = vals[~np.isnan(vals)]
        if vals.size:
            heights[c] = float(np.median(vals))
    if np.all(np.isnan(heights)):
        raise ValueError(f"all {N_CELLS} compass cells missing for label {label}")
    return CellHeights(heights=heights)


def reference_mean_density(vol: Volume, lm: LabelMap, label: int,
                           min_voxels: int = MIN_LABEL_VOXELS) -> float:
    """Arithmetic mean HU over all voxels carrying ``label``."""
    check_paired_geometry(vol, lm)
    sel = lm.labels == label
    n = int(sel.sum())
    if n < min_voxels:
        raise ValueError(
            f"label {label} has {n} voxels, need at least {min_voxels}")
    return float(vol.data[sel].mean(dtype=np.float64))


def reference_trabecular_region(lm: LabelMap, label: int, frame,
                                erosion_radius_mm: float = DEFAULT_EROSION_MM) -> np.ndarray:
    """Boolean mask of the trabecular probe region: the body eroded by a
    discrete ball of ``erosion_radius_mm`` intersected with the anterior
    half-space through the centroid."""
    body = lm.labels == label
    if not body.any():
        raise ValueError(f"label {label} absent from the label map")
    if erosion_radius_mm < 0:
        raise ValueError("erosion radius must be nonnegative")
    if erosion_radius_mm > 0:
        # Work on the body's bounding box; the surrounding background makes
        # the cropped erosion identical to the full-grid one.
        lo = np.array([int(ax.min()) for ax in np.nonzero(body)])
        hi = np.array([int(ax.max()) for ax in np.nonzero(body)])
        steps = [int(np.floor(erosion_radius_mm / s + 1e-9))
                 for s in reversed(lm.spacing)]  # (z, y, x) order
        if any(hi[i] - lo[i] + 1 < 2 * steps[i] + 1 for i in range(3)):
            raise ValueError(
                f"{erosion_radius_mm} mm erosion annihilates label {label}; "
                f"radius exceeds the body's half-extent")
        crop = body[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1]
        structure = reference_ball_structure(erosion_radius_mm, lm.spacing)
        eroded_crop = ndimage.binary_erosion(crop, structure=structure, border_value=0)
        if not eroded_crop.any():
            raise ValueError(
                f"{erosion_radius_mm} mm erosion annihilates label {label}; "
                f"radius exceeds the body's half-extent")
        eroded = np.zeros_like(body)
        eroded[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] = eroded_crop
    else:
        eroded = body

    idx = np.argwhere(eroded)
    coords = lm.geometry.world_coords(idx)
    anterior = (coords - frame.centroid_array) @ frame.ap > 0
    mask = np.zeros_like(body)
    mask[tuple(idx[anterior].T)] = True
    if not mask.any():
        raise ValueError(
            f"anterior half of the eroded body is empty for label {label}")
    return mask


def reference_check_vertebra_connectivity(lm: LabelMap) -> None:
    """Each vertebra label must form a single 26-connected component."""
    structure = np.ones((3, 3, 3), dtype=bool)
    for lab in lm.vertebra_labels():
        _, n = ndimage.label(lm.labels == lab, structure=structure)
        if n != 1:
            raise FormatError(
                f"vertebra label {lab} splits into {n} 26-connected components")


# ---------------------------------------------------------------------------
# reference assembly: rows built through name-keyed rate dicts and a 36-way
# column lookup, as they stood before whole-row concatenation, with the
# missing-value mask and the 'carry' policy that tables then carried beside
# the matrix; kept verbatim so tests can require identical tables and, through
# the mask-aware imputation below, identical imputed data

REFERENCE_POLICIES = ("exclude", "zero", "carry")

def reference_rate(current: float, previous: float, dt_years: float) -> float:
    """Per-year rate of change; NaN when either endpoint is missing."""
    if dt_years <= 0:
        raise ValueError(f"dt must be positive, got {dt_years}")
    if np.isnan(current) or np.isnan(previous):
        return np.nan
    return (current - previous) / dt_years


def reference_build_row(study: StudyRecord, measured: dict[str, float],
                        rates: dict[str, float], rate_mask: dict[str, bool],
                        ) -> tuple[np.ndarray, np.ndarray]:
    """One instance's (36,) values and missing-value mask."""
    values = np.full(len(ALL_COLUMNS), np.nan)
    mask = np.zeros(len(ALL_COLUMNS), dtype=bool)
    demo = demographics(study)
    for i, col in enumerate(ALL_COLUMNS):
        if col in measured:
            values[i] = measured[col]
        elif col in rates:
            values[i] = rates[col]
            mask[i] = rate_mask.get(col, False)
        else:
            values[i] = demo[col]
        if np.isnan(values[i]):
            mask[i] = True
    return values, mask


def reference_assemble(manifest: CohortManifest, base_dir,
                       policy: str = "zero") -> tuple[FeatureTable, np.ndarray]:
    """One feature row per (fractured vertebra, study) instance, and the
    (n, 36) mask, True where a value is not genuinely measured.

    Rates compare against the same vertebra in the immediately preceding
    study. First-study instances follow ``policy``: 'exclude' drops the row,
    'zero' emits zero rates with their mask bits set, 'carry' emits zero
    rates treated as observed.
    """
    policy = policy.lower()
    if policy not in REFERENCE_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {REFERENCE_POLICIES}")
    ids, values, masks, truths = [], [], [], []
    for patient in manifest.patients:
        previous: dict[int, dict[str, float]] | None = None
        prev_date = None
        for study in patient.studies:
            measured = measured_features(study, base_dir)
            for label in study.fractured_labels():
                if label not in measured:
                    raise RuntimeError(
                        f"study {study.study_id}: fractured label {label} "
                        f"absent from the label map legend")
                rates: dict[str, float] = {}
                rate_mask: dict[str, bool] = {}
                if previous is not None and label in previous:
                    dt_years = years_between(prev_date, study.acquisition_date)
                    for col in RATE_BASE_COLUMNS:
                        r = reference_rate(measured[label][col], previous[label][col],
                                           dt_years)
                        rates["R_" + col] = r
                        rate_mask["R_" + col] = bool(np.isnan(r))
                else:
                    if policy == "exclude":
                        continue
                    flag = policy == "zero"
                    for col in RATE_BASE_COLUMNS:
                        rates["R_" + col] = 0.0
                        rate_mask["R_" + col] = flag
                row_values, row_mask = reference_build_row(study, measured[label],
                                                           rates, rate_mask)
                ids.append((study.patient_id, study.study_id, label))
                values.append(row_values)
                masks.append(row_mask)
                truths.append(_truth_code(study.vertebra_truth[label]))
            previous = measured
            prev_date = study.acquisition_date
    shape = (len(ids), len(ALL_COLUMNS))
    table = FeatureTable(instance_ids=ids, matrix=np.reshape(values, shape),
                         truth=truths)
    return table, np.reshape(masks, shape).astype(bool)


def reference_imputation_constants(values: np.ndarray, mask: np.ndarray,
                                   columns: list[str]) -> np.ndarray:
    """Per-feature fill values from training data only: contrasts fall back to
    1.0, rates to 0.0, everything else to the training mean of observed
    entries."""
    fill = np.zeros(len(columns))
    for j, col in enumerate(columns):
        if col in CONTRAST_COLUMNS:
            fill[j] = 1.0
        elif col.startswith("R_"):
            fill[j] = 0.0
        else:
            observed = values[~mask[:, j], j]
            observed = observed[~np.isnan(observed)]
            fill[j] = float(observed.mean()) if observed.size else 0.0
    return fill


def reference_impute(values: np.ndarray, mask: np.ndarray, fill: np.ndarray) -> np.ndarray:
    out = values.copy()
    use = mask | np.isnan(out)
    out[use] = np.broadcast_to(fill, out.shape)[use]
    return out


def reference_inner_cv_accuracy(X, y, feature_subset, inner_folds, params, seed) -> float:
    """Inner k-fold accuracy with every fold scored (no bound)."""
    folds = kfold_split(y, k=inner_folds, seed=seed)
    correct = evaluated = 0
    for f in range(inner_folds):
        tr = folds != f
        te = folds == f
        if np.unique(y[tr]).size < 2:
            continue                       # a skipped fold's rows are not scored
        model = train_svm(X[tr], y[tr], params, feature_indices=feature_subset)
        correct += int((model.predict(X[te]) == y[te]).sum())
        evaluated += int(te.sum())
    return correct / evaluated if evaluated else 0.0


def reference_greedy_forward_select(X: np.ndarray, y: np.ndarray, candidates,
                                    inner_folds: int, params: SvmParams,
                                    max_features: int = 4, seed: int = 0,
                                    probes: dict | None = None) -> list[int]:
    """Wrapper selection: grow the subset by the candidate maximizing inner
    k-fold accuracy, stopping when no addition beats the current score by more
    than 1e-4 (the majority-class fraction seeds the score). Ties fall to the
    lower feature index.

    ``probes`` memoises inner accuracies under ``(seed, *subset, c)``; one
    dict serves one ``(X, y, inner_folds, params)``. Callers sharing it
    across candidate sets of one table (conditions over the same rows) score
    each distinct probe once; ``None`` uses a fresh dict."""
    candidates = [int(c) for c in candidates]
    if len(candidates) < 2:
        raise ValueError("need at least two candidate features")
    if np.unique(y).size < 2:
        raise ValueError("selection requires both classes")
    probes = {} if probes is None else probes
    subset: list[int] = []
    counts = np.unique(y, return_counts=True)[1]
    best = counts.max() / counts.sum()     # majority baseline
    while len(subset) < max_features:
        round_best, round_feat = best, None
        for c in candidates:
            if c in subset:
                continue
            key = (seed, *subset, c)
            acc = probes.get(key)
            if acc is None:
                acc = probes[key] = reference_inner_cv_accuracy(
                    X, y, subset + [c], inner_folds, params, seed)
            if acc > round_best + MIN_IMPROVEMENT:
                round_best, round_feat = acc, c
        if round_feat is None:
            break
        subset.append(round_feat)
        best = round_best
    return subset


# ---------------------------------------------------------------------------
# reference renderer: the vertebra rasterizer as it stood when the cortical
# shell thresholded a distance transform and every voxel was projected into
# the frame (``_frame_coords``) to evaluate the height field on the whole
# grid, kept verbatim so tests can require identical voxels

def _reference_ring_values(theta: np.ndarray, ring: np.ndarray) -> np.ndarray:
    t = (theta / (np.pi / 4.0)) % 8.0
    k0 = np.floor(t).astype(int) % 8
    frac = t - np.floor(t)
    return (1.0 - frac) * ring[k0] + frac * ring[(k0 + 1) % 8]


def reference_height_field(spec: VertebraSpec, rho: np.ndarray,
                           theta: np.ndarray) -> np.ndarray:
    h = np.asarray(spec.cell_heights)
    node1 = 0.5 * (R1_FRACTION + R2_FRACTION)
    node2 = 0.5 * (R2_FRACTION + 1.0)
    ring1 = _reference_ring_values(theta, h[1:9])
    ring2 = _reference_ring_values(theta, h[9:17])

    out = np.empty_like(rho)
    inner = rho <= node1
    mid = (rho > node1) & (rho <= node2)
    outer = rho > node2
    w = np.clip(rho / node1, 0.0, 1.0)
    out[inner] = (1.0 - w[inner]) * h[0] + w[inner] * ring1[inner]
    w2 = (rho - node1) / (node2 - node1)
    out[mid] = (1.0 - w2[mid]) * ring1[mid] + w2[mid] * ring2[mid]
    out[outer] = ring2[outer]
    return out


def _frame_coords(grid: GridGeometry, frame: LocalFrame):
    """Broadcast (a, l, s) local coordinates of all voxel centers, shape (nz, ny, nx)."""
    cx, cy, cz = frame.centroid
    dx = (grid.axis_coords(0) - cx)[None, None, :]
    dy = (grid.axis_coords(1) - cy)[None, :, None]
    dz = (grid.axis_coords(2) - cz)[:, None, None]

    def project(axis):
        return axis[0] * dx + axis[1] * dy + axis[2] * dz

    return project(frame.axis_ap), project(frame.axis_lr), project(frame.axis_si)


def reference_render_vertebra(spec: VertebraSpec, frame, grid: GridGeometry,
                              label: int = 1, rng: np.random.Generator | None = None):
    a, l, s = _frame_coords(grid, frame)
    r_ap, r_lr = spec.body_radii
    rho = np.sqrt((a / r_ap) ** 2 + (l / r_lr) ** 2)
    theta = np.arctan2(-l, a)
    h = reference_height_field(spec, rho, theta)
    z0 = -max(spec.cell_heights) / 2.0
    body = (rho <= 1.0) & (s >= z0) & (s < z0 + h)
    if not body.any():
        raise ValueError("vertebra body does not intersect the grid")
    face = np.zeros_like(body)
    face[0, :, :] = face[-1, :, :] = True
    face[:, 0, :] = face[:, -1, :] = True
    face[:, :, 0] = face[:, :, -1] = True
    if (body & face).any():
        raise ValueError("vertebra body exceeds grid bounds")

    sampling = (grid.spacing[2], grid.spacing[1], grid.spacing[0])
    depth = ndimage.distance_transform_edt(body, sampling=sampling)
    cortical = body & (depth <= spec.cortical_thickness + 1e-6)

    hu = np.zeros(body.shape, dtype=np.float64)
    deltas = np.asarray(spec.cell_hu_delta)
    if np.any(deltas != 0.0):
        cells = cell_index(rho, arc_index(theta))
        hu[body] = spec.trabecular_hu + deltas[cells[body]]
    else:
        hu[body] = spec.trabecular_hu
    hu[cortical] = spec.cortical_hu
    if spec.noise_sd > 0:
        if rng is None:
            raise ValueError("noise_sd > 0 requires a random generator")
        hu[body] += rng.normal(0.0, spec.noise_sd, size=int(body.sum()))

    labels = np.zeros(body.shape, dtype=np.uint16)
    labels[body] = label
    return hu, labels


# ---------------------------------------------------------------------------
# reference cohort writer: the phantom's writer as it stood when every study
# rendered each vertebra afresh, on a crop sized for that study alone, into a
# float64 volume rounded to int16 at the end; kept so tests can require
# identical cohort bytes from the writer that shares footprints

def reference_paste_vertebra(hu, labels, vspec: VertebraSpec, frame,
                             grid: GridGeometry, label: int, rng) -> None:
    cx, cy, cz = frame.centroid
    r_ap, r_lr = vspec.body_radii
    half_h = max(vspec.cell_heights) / 2.0
    sx, sy, sz = grid.spacing
    ox, oy, oz = grid.origin

    def span(center, reach, o, s, n):
        lo = max(0, int(np.floor((center - reach - o) / s)) - 2)
        hi = min(n - 1, int(np.ceil((center + reach - o) / s)) + 2)
        return lo, hi

    ix0, ix1 = span(cx, r_lr, ox, sx, grid.dims[0])
    iy0, iy1 = span(cy, r_ap, oy, sy, grid.dims[1])
    iz0, iz1 = span(cz, half_h, oz, sz, grid.dims[2])
    crop = GridGeometry(
        dims=(ix1 - ix0 + 1, iy1 - iy0 + 1, iz1 - iz0 + 1),
        spacing=grid.spacing,
        origin=(ox + ix0 * sx, oy + iy0 * sy, oz + iz0 * sz))
    vhu, vlab = reference_render_vertebra(vspec, frame, crop, label=label, rng=rng)
    body = vlab > 0
    view_hu = hu[iz0:iz1 + 1, iy0:iy1 + 1, ix0:ix1 + 1]
    view_lab = labels[iz0:iz1 + 1, iy0:iy1 + 1, ix0:ix1 + 1]
    view_hu[body] = vhu[body]
    view_lab[body] = label


def reference_write_patient(spec: CohortSpec, out_dir: Path,
                            neoplastic: frozenset[int], idx: int) -> PatientEntry:
    kind = NEOPLASTIC if idx in neoplastic else OSTEOPOROTIC
    plan = _plan_patient(spec, idx, kind)
    grid, centroids, layout = _study_grid(spec, plan)
    pdir = out_dir / plan.patient_id
    pdir.mkdir(exist_ok=True)

    background_hu, background_labels, background_legend = _render_background(grid, layout)
    background = (background_hu.astype(np.float64), background_labels, background_legend)
    vspecs = list(plan.base_specs)
    studies = []
    for s_idx, date in enumerate(plan.dates):
        if s_idx > 0:
            dt_years = (date - plan.dates[s_idx - 1]).days / 365.25
            vspecs = [v if m is None else advance(v, m, dt_years)
                      for v, m in zip(vspecs, plan.models)]
        hu, labels, legend = (x.copy() for x in background)
        for j, (vspec, centroid) in enumerate(zip(vspecs, centroids)):
            label = j + 1
            frame = make_frame(centroid, (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))
            rng = _rng(spec.seed, idx, 100 + s_idx, j)
            reference_paste_vertebra(hu, labels, vspec, frame, grid, label, rng)
            legend[label] = vertebra_role(vspec.level_index)

        hu_int = np.clip(np.rint(hu), -1024, 3071).astype(np.int16)
        vol = Volume(geometry=grid, data=hu_int)
        lm = LabelMap(geometry=grid, labels=labels, legend=legend)
        vol_rel = f"{plan.patient_id}/S{s_idx:02d}.vvol"
        lbl_rel = f"{plan.patient_id}/S{s_idx:02d}.vlbl"
        save_volume(vol, out_dir / vol_rel)
        save_labelmap(lm, out_dir / lbl_rel)
        studies.append(StudyRecord(
            study_id=f"{plan.patient_id}-S{s_idx:02d}",
            patient_id=plan.patient_id,
            acquisition_date=date,
            age=plan.age0 + (date - plan.dates[0]).days / 365.25,
            gender=plan.gender,
            volume_path=vol_rel,
            labelmap_path=lbl_rel,
            vertebra_truth=dict(plan.truth),
        ))
    return PatientEntry(patient_id=plan.patient_id, studies=tuple(studies))


def reference_generate_cohort(spec: CohortSpec, out_dir) -> CohortManifest:
    """``generate_cohort`` with the per-study writer, in one process."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    order = _rng(spec.seed, 0, 9).permutation(spec.n_patients)
    n_neo = int(round(spec.fraction_neoplastic * spec.n_patients))
    neoplastic = frozenset(int(i) for i in order[:n_neo])
    manifest = CohortManifest(patients=tuple(
        reference_write_patient(spec, out_dir, neoplastic, idx)
        for idx in range(spec.n_patients)))
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest
