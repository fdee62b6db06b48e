"""Shared fixtures-in-code: single-vertebra phantom builders, tree hashing,
and the independent oracles (dense-QP projected gradient, exact hypergeometric
enumeration) used to cross-check the production paths."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

from vcfclass.frames import make_frame
from vcfclass.grids import GridGeometry, LabelMap, Volume
from vcfclass.phantom import VertebraSpec, render_vertebra

WORLD_FRAME = make_frame((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))


def single_vertebra_grid(spacing=(1.0, 1.0, 1.0), with_refs=False) -> GridGeometry:
    sx, sy, sz = spacing
    ny = 64 if with_refs else 48
    oy = -(ny - 8) * sy / 2 - (16 * sy if with_refs else 0)
    return GridGeometry(dims=(int(48 / sx) + 1, int(ny), int(44 / sz) + 1),
                        spacing=spacing,
                        origin=(-24.0 + sx / 2, oy, -22.0 + sz / 2))


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
# reference SMO: the solver as it stood before the incremental index sets,
# kept verbatim so tests can require bit-identical alphas and bias

_BOUND_EPS = 1e-8
_STEP_EPS = 1e-12


def reference_smo(K: np.ndarray, y: np.ndarray, Cv: np.ndarray, tol: float,
                  max_passes: int, rng: np.random.Generator):
    """Maximal-violating-pair SMO.

    ``errors`` caches E_i = u_i - y_i with u = K (alpha*y) and no threshold;
    pairwise updates depend only on error differences, so the threshold is
    fitted once at termination from the KKT interval. The stopping rule
    (violation gap <= 2*tol) is exactly the per-example KKT certificate for
    that threshold. The pair budget is ``max_passes`` sweep-equivalents
    (n steps each).
    """
    n = y.size
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
    return alpha, bias
