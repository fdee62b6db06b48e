"""Height compass: 17-cell axial partition of the vertebral body and the
height features derived from it.

Cell indexing: 0 = center, 1-8 = inner ring, 9-16 = outer ring. Arcs are
numbered clockwise (viewed from superior) starting at the anterior direction,
so cells 1 and 9 are anterior, 5 and 13 posterior. Ring boundaries sit at
one and two thirds of the per-direction footprint radius, so the rings scale
with the local cross-section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import LocalFrame
from .grids import LabelMap

N_CELLS = 17
ARC_COUNT = 8
MIN_COLUMN_VOXELS = 3    # columns thinner than this carry no height
MIN_CELL_COLUMNS = 3     # cells with fewer columns are marked missing

# Ring boundaries as fractions of the footprint radius; the phantom's height
# field has its ring nodes between them.
R1_FRACTION = 1.0 / 3.0
R2_FRACTION = 2.0 / 3.0

# Overlapping regional arc sets (regions are summary means, not a partition).
ANTERIOR_ARCS = (7, 0, 1)
POSTERIOR_ARCS = (3, 4, 5)
LEFT_ARCS = (5, 6, 7)
RIGHT_ARCS = (1, 2, 3)

_EPS = 1e-9


@dataclass(frozen=True)
class CellHeights:
    """Per-cell median column heights (mm); NaN marks a missing cell."""

    heights: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.heights, dtype=np.float64)
        if h.shape != (N_CELLS,):
            raise ValueError(f"expected {N_CELLS} cells")
        h.flags.writeable = False
        object.__setattr__(self, "heights", h)


@dataclass(frozen=True)
class ColumnTable:
    """Axial columns of one vertebral body.

    Columns are in-plane bins (at voxel resolution) of the body voxels,
    projected onto the plane orthogonal to the superior axis. ``a`` and ``l``
    are bin-center coordinates along the anterior and left axes relative to
    the footprint centroid; ``height`` is the closed-interval voxel extent
    along the superior axis (NaN for columns below the voxel floor).
    """

    a: np.ndarray
    l: np.ndarray
    height: np.ndarray
    res_a: float
    res_l: float

    @property
    def n_columns(self) -> int:
        return self.a.size


def _axis_resolution(axis: np.ndarray, spacing) -> float:
    """Length of one voxel step along a (unit) direction."""
    return float(np.sqrt(np.sum((axis * np.asarray(spacing)) ** 2)))


def column_table(lm: LabelMap, label: int, frame: LocalFrame) -> ColumnTable:
    coords = lm.view(label).coords
    if coords.shape[0] == 0:
        raise ValueError(f"label {label} absent from the label map")
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


def arc_index(phi: np.ndarray) -> np.ndarray:
    """Compass arc (0..7) of a clockwise-from-anterior azimuth in radians;
    each arc is centred on a multiple of 45 degrees."""
    arc = np.floor((phi + np.pi / ARC_COUNT) / (2.0 * np.pi / ARC_COUNT)).astype(int)
    return arc % ARC_COUNT


def cell_index(rho: np.ndarray, arc: np.ndarray) -> np.ndarray:
    """Compass cell (0..16) from a radius normalized to the footprint edge
    and an arc index."""
    return np.where(rho < R1_FRACTION, 0,
                    np.where(rho < R2_FRACTION, 1 + arc, 9 + arc))


def assign_cells(cols: ColumnTable) -> np.ndarray:
    """Compass cell index (0..16) for every column of the footprint."""
    if cols.n_columns == 0:
        raise ValueError("empty footprint")
    r = np.hypot(cols.a, cols.l)
    phi = np.arctan2(-cols.l, cols.a)     # clockwise from anterior, seen from superior
    arc = arc_index(phi)

    radius = np.zeros(ARC_COUNT)
    global_max = float(r.max())
    for k in range(ARC_COUNT):
        sel = arc == k
        radius[k] = r[sel].max() if sel.any() else global_max
    safe = np.where(radius > 0, radius, 1.0)
    rho = np.where(radius[arc] > 0, r / safe[arc], 0.0)
    return cell_index(rho, arc)


def cell_heights(cols: ColumnTable, label: int) -> CellHeights:
    """Median endplate-to-endplate column height per compass cell of the
    columns ``column_table`` built for ``label``.

    One sort by (cell, height) puts each cell's heights in order, NaN last;
    the median is the mean of the middle one or two, as ``np.median``
    computes it."""
    cells = assign_cells(cols)
    counts = np.bincount(cells, minlength=N_CELLS)
    n = np.bincount(cells[~np.isnan(cols.height)], minlength=N_CELLS)
    ordered = cols.height[np.lexsort((cols.height, cells))]
    first = np.cumsum(counts) - counts
    lo = ordered.take(first + (n - 1) // 2, mode="clip")
    hi = ordered.take(first + n // 2, mode="clip")
    heights = np.where((counts >= MIN_CELL_COLUMNS) & (n > 0), (lo + hi) / 2, np.nan)
    if np.all(np.isnan(heights)):
        raise ValueError(f"all {N_CELLS} compass cells missing for label {label}")
    return CellHeights(heights=heights)


def _region_cells(arcs) -> list[int]:
    return [1 + a for a in arcs] + [9 + a for a in arcs]


def _nanmean(values: np.ndarray) -> float:
    vals = values[~np.isnan(values)]
    return float(vals.mean()) if vals.size else np.nan


def regional_summaries(ch: CellHeights) -> dict[str, float]:
    """Regional means h_c..h_avg_5; missing cells are excluded from each mean,
    and a region with no surviving cells is itself missing."""
    h = ch.heights
    out = {
        "h_c": float(h[0]),
        "h_a": _nanmean(h[_region_cells(ANTERIOR_ARCS)]),
        "h_p": _nanmean(h[_region_cells(POSTERIOR_ARCS)]),
        "h_l": _nanmean(h[_region_cells(LEFT_ARCS)]),
        "h_r": _nanmean(h[_region_cells(RIGHT_ARCS)]),
        "h_avg": _nanmean(h),
    }
    five = np.array([out["h_c"], out["h_a"], out["h_p"], out["h_l"], out["h_r"]])
    out["h_avg_5"] = _nanmean(five)
    return out


def sagittal_heights(cols: ColumnTable, label: int) -> dict[str, float]:
    """Mid-sagittal edge heights of the columns ``column_table`` built for
    ``label``: Anterior/Center/Posterior over the 20% extent bands of the
    mid-line slab, their mean, and the slab-wide mean."""
    slab = np.abs(cols.l) <= cols.res_l * (1.0 + _EPS)
    slab &= ~np.isnan(cols.height)
    if not slab.any():
        raise ValueError(f"empty mid-sagittal slab for label {label}")
    a = cols.a[slab]
    h = cols.height[slab]
    a_min, a_max = float(a.min()), float(a.max())
    extent = a_max - a_min
    eps = _EPS * max(cols.res_a, 1.0)

    anterior = h[a >= a_max - 0.2 * extent - eps]
    posterior = h[a <= a_min + 0.2 * extent + eps]
    center = h[np.abs(a - 0.5 * (a_min + a_max)) <= 0.1 * extent + eps]
    out = {
        "Anterior": _nanmean(anterior),
        "Center": _nanmean(center),
        "Posterior": _nanmean(posterior),
        "meanH": _nanmean(h),
    }
    out["manualMean"] = _nanmean(np.array([out["Anterior"], out["Center"], out["Posterior"]]))
    return out


def contrast_features(h_avg_by_level: dict[int, float]) -> dict[int, dict[str, float]]:
    """Relative heights against superior/inferior neighbors, keyed by level id.

    contrastP divides by the superior neighbor (level - 1), contrastN by the
    inferior one (level + 1), contrastA by their mean; with one neighbor
    absent, contrastA falls back to the available side. A neighbor that is
    missing or has zero height leaves the feature missing.
    """
    def usable(level):
        v = h_avg_by_level.get(level, np.nan)
        return v if (v is not None and not np.isnan(v) and v > 0) else None

    out = {}
    for level, h in h_avg_by_level.items():
        sup = usable(level - 1)
        inf = usable(level + 1)
        cp = h / sup if sup is not None else np.nan
        cn = h / inf if inf is not None else np.nan
        if sup is not None and inf is not None:
            ca = 2.0 * h / (sup + inf)
        elif sup is not None:
            ca = cp
        elif inf is not None:
            ca = cn
        else:
            ca = np.nan
        out[level] = {"contrastP": cp, "contrastN": cn, "contrastA": ca}
    return out
