"""Synthetic longitudinal spine cohorts with known geometry and density.

Vertebral bodies are elliptical cylinders whose top surface is modulated by
17 per-cell target heights (bilinear interpolation in polar coordinates, so
the height at each cell center equals the cell's target exactly). Cortical
bone is the shell of voxels within ``cortical_thickness`` of the body surface:
the body minus its erosion by the lattice ball of that radius. This equals
thresholding the exact Euclidean distance transform, since a voxel lies within
the radius of a background voxel exactly when the ball centred on it reaches
one. The ball is ``grids.ball_rows``, the one the trabecular probe uses, and
the erosion (``grids.erode_by_ball``) intersects the x-erosions of its rows,
one array operation per (dz, dy) row. Everything deeper is
trabecular. Muscle and fat reference blocks and a spinal-canal cylinder are
rendered posterior to the bodies. All randomness derives from (seed,
patient_index, ...) so generation is reproducible byte-for-byte and patients
are independent.

Bodies stand upright: the superior axis is world +z, so a body fills one
z-range of each (y, x) column of its elliptical footprint, and the polar
coordinates, height weights and compass cells are computed once per column.
A patient's vertebrae keep their radii, frame and cortical thickness in every
study, so the writer builds each vertebra's footprint (``_Footprint``: the
elliptical columns with their polar coordinates, height interpolation
weights and compass cells, and the shell ball) once per patient, on the crop
that holds its tallest study. Per study only the column heights, the body,
its erosion, its HU values and the noise are computed, and a vertebra whose
spec did not change (an unfractured one) reuses its noise-free body. Each
body's HU values are rounded and clipped to int16 and pasted into the int16
study volume. The background paints the canal through a (y, x) disc and the
reference blocks through index slices; no full-grid float64 copy or boolean
mask is made.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .grids import (HU_MAX, HU_MIN, GridGeometry, LabelMap, Volume, ROLE_CANAL,
                    ROLE_FAT, ROLE_MUSCLE, ball_rows, erode_by_ball, save_labelmap,
                    save_volume, vertebra_role)
from .folds import check_seed
from .frames import LocalFrame, make_frame
from .manifest import (CohortManifest, NEOPLASTIC, OSTEOPOROTIC, PatientEntry,
                       StudyRecord, UNFRACTURED, save_manifest)
from .morphometry import N_CELLS, R1_FRACTION, R2_FRACTION, arc_index, cell_index
from .parallel import pmap

MIN_CELL_HEIGHT_MM = 1.0

AIR_HU = -1000
CANAL_HU = 0
MUSCLE_HU = 50     # fixed reference tissue value
FAT_HU = -100      # fixed reference tissue value

MUSCLE_LABEL = 101
FAT_LABEL = 102
CANAL_LABEL = 103

# Anterior cell subset (center + anterior arcs of both rings) used for the
# default neoplastic focal lesion, so the anterior-half trabecular probe
# sees it.
ANTERIOR_LESION_CELLS = (0, 1, 2, 8, 9, 10, 16)


def _check_finite(owner: str, **fields) -> None:
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{owner}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class VertebraSpec:
    """Ground truth for one rendered vertebral body."""

    level_index: int
    body_radii: tuple[float, float]          # (anterior-posterior, left-right) mm
    cell_heights: tuple[float, ...]          # 17 target heights, mm
    trabecular_hu: float
    cortical_hu: float
    cortical_thickness: float
    noise_sd: float = 0.0
    cell_hu_delta: tuple[float, ...] = (0.0,) * N_CELLS  # focal lesion deposits

    def __post_init__(self):
        heights = tuple(float(h) for h in self.cell_heights)
        deltas = tuple(float(d) for d in self.cell_hu_delta)
        _check_finite("VertebraSpec", body_radii=self.body_radii,
                      cell_heights=heights, trabecular_hu=self.trabecular_hu,
                      cortical_hu=self.cortical_hu,
                      cortical_thickness=self.cortical_thickness,
                      noise_sd=self.noise_sd, cell_hu_delta=deltas)
        if len(heights) != N_CELLS or len(deltas) != N_CELLS:
            raise ValueError(f"cell arrays must have {N_CELLS} entries")
        if any(h <= 0 for h in heights):
            raise ValueError("all cell heights must be positive")
        if not (min(self.body_radii) > self.cortical_thickness > 0):
            raise ValueError("need radii > cortical_thickness > 0")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        object.__setattr__(self, "cell_heights", heights)
        object.__setattr__(self, "cell_hu_delta", deltas)
        object.__setattr__(self, "body_radii",
                           (float(self.body_radii[0]), float(self.body_radii[1])))


@dataclass(frozen=True)
class FocalLesion:
    cells: tuple[int, ...]
    hu_per_year: float       # deposited into the listed cells' trabecular HU

    def __post_init__(self):
        cells = tuple(int(c) for c in self.cells)
        if any(c < 0 or c >= N_CELLS for c in cells):
            raise ValueError(f"lesion cells out of range: {cells}")
        _check_finite("FocalLesion", hu_per_year=self.hu_per_year)
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class ProgressionModel:
    kind: str                                 # OSTEOPOROTIC | NEOPLASTIC
    height_rate: tuple[float, ...]            # mm/year per cell
    trabecular_rate: float                    # HU/year
    focal_lesion: FocalLesion | None = None

    def __post_init__(self):
        if self.kind not in (OSTEOPOROTIC, NEOPLASTIC):
            raise ValueError(f"unknown progression kind {self.kind!r}")
        if self.focal_lesion is not None and self.kind != NEOPLASTIC:
            raise ValueError("focal lesions are only valid for neoplastic progression")
        rates = tuple(float(r) for r in self.height_rate)
        if len(rates) != N_CELLS:
            raise ValueError(f"height_rate must have {N_CELLS} entries")
        _check_finite("ProgressionModel", height_rate=rates,
                      trabecular_rate=self.trabecular_rate)
        object.__setattr__(self, "height_rate", rates)


@dataclass(frozen=True)
class CohortSpec:
    """Generation knobs for a synthetic cohort. Defaults give ~320 fractured
    instances (40 patients x 4 studies x 2 fractured vertebrae) with balanced
    classes."""

    n_patients: int = 40
    studies_per_patient: int | tuple[int, int] = 4
    study_interval: float = 0.5              # years between studies (jittered ±25%)
    fraction_neoplastic: float = 0.5
    vertebrae_per_patient: int = 3
    spacing: tuple[float, float, float] = (1.25, 1.25, 1.0)
    seed: int = 7
    noise_sd: float = 6.0

    def __post_init__(self):
        if self.n_patients < 1:
            raise ValueError(f"counts must be >= 1, got n_patients={self.n_patients}")
        if self.vertebrae_per_patient < 2:
            raise ValueError(f"vertebrae_per_patient={self.vertebrae_per_patient}: need "
                             ">= 2, since each patient's top vertebra stays unfractured")
        if isinstance(self.studies_per_patient, int):
            if self.studies_per_patient < 1:
                raise ValueError("studies_per_patient must be >= 1")
        else:
            lo, hi = self.studies_per_patient
            if lo < 1 or hi < lo:
                raise ValueError(f"bad studies range {self.studies_per_patient}")
        if not 0.0 <= self.fraction_neoplastic <= 1.0:
            raise ValueError("fraction_neoplastic must lie in [0, 1]")
        if not (np.isfinite(self.study_interval) and self.study_interval > 0):
            raise ValueError(
                f"study_interval must be finite and positive, got {self.study_interval}")
        if len(self.spacing) != 3 or not all(np.isfinite(s) and s > 0
                                             for s in self.spacing):
            raise ValueError(
                f"spacing needs three finite positive values, got {self.spacing}")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        check_seed(self.seed)


def uniform_heights(height_mm: float) -> tuple[float, ...]:
    return (float(height_mm),) * N_CELLS


# ---------------------------------------------------------------------------
# rendering

class _HeightWeights:
    """The target column height's interpolation weights at fixed normalized
    radius ``rho`` and clockwise azimuth ``theta``, applied to any number of
    17-cell height vectors; the height equals the cell target exactly at each
    cell center.

    Around each ring the value is piecewise linear between the two arc
    centres either side of the clockwise-from-anterior azimuth ``theta``;
    radially it is linear from the centre cell to the inner-ring node and from
    there to the outer-ring node, and constant beyond.
    """

    def __init__(self, rho: np.ndarray, theta: np.ndarray):
        t = (theta / (np.pi / 4.0)) % 8.0
        floor = np.floor(t)
        self.arc0 = floor.astype(np.intp) & 7      # t may round up to 8.0
        self.arc1 = (self.arc0 + 1) & 7
        self.frac = t - floor
        self.frac_c = 1.0 - self.frac
        node1 = 0.5 * (R1_FRACTION + R2_FRACTION)   # inner-ring node radius
        node2 = 0.5 * (R2_FRACTION + 1.0)           # outer-ring node radius
        self.inner, self.middle = rho <= node1, rho <= node2
        self.w = np.clip(rho / node1, 0.0, 1.0)
        self.w_c = 1.0 - self.w
        self.w2 = (rho - node1) / (node2 - node1)
        self.w2_c = 1.0 - self.w2

    def __call__(self, cell_heights) -> np.ndarray:
        h = np.asarray(cell_heights)
        rings = h[1:].reshape(2, 8)
        ring1, ring2 = (self.frac_c * rings.take(self.arc0, axis=1)
                        + self.frac * rings.take(self.arc1, axis=1))
        return np.where(self.inner, self.w_c * h[0] + self.w * ring1,
                        np.where(self.middle, self.w2_c * ring1 + self.w2 * ring2,
                                 ring2))


class _Footprint:
    """The geometry of one vertebra slot on ``grid``, shared by every spec
    with the slot's frame, radii and cortical thickness.

    The frame's superior axis must be world +z (the anterior axis may turn
    about it), so every (y, x) column of the grid has one normalized radius
    and azimuth and a body fills one z-range of each column. Built once: the
    elliptical footprint's columns with their radii, azimuths, height
    interpolation weights and compass cells, the superior coordinate ``s`` of
    each z plane, the columns on the grid's edges and the cortical shell's
    ball. ``solid`` then renders one spec from these.

    The cohort writer builds it on a crop of the study grid (``_crop``). A
    crop shares the study grid's lattice: its voxel centres are the grid's,
    each computed as ``origin + i * spacing`` from the crop's own origin, so
    they can differ from the grid's in the last bit. The crop holds the
    slot's tallest study with two spare voxels a side, so no body reaches its
    faces and the erosion on the crop is the whole grid's. Cohorts are
    byte-identical to rendering each study on a crop of its own, as
    ``tests/test_phantom.py`` checks against that writer, whose digests it
    also pins.
    """

    def __init__(self, spec: VertebraSpec, frame: LocalFrame, grid: GridGeometry):
        if frame.axis_si != (0.0, 0.0, 1.0):
            raise ValueError(f"footprints need the superior axis +z, got {frame.axis_si}")
        cx, cy, cz = frame.centroid
        dx = (grid.axis_coords(0) - cx)[None, :]
        dy = (grid.axis_coords(1) - cy)[:, None]
        ap, lr = frame.axis_ap, frame.axis_lr
        # The products and sums of a full (a, l, s) projection; its z terms
        # only add zeros, so the values are the same bits.
        a = ap[0] * dx + ap[1] * dy
        l = lr[0] * dx + lr[1] * dy
        r_ap, r_lr = spec.body_radii
        # For an ellipse, sqrt of the implicit value is exactly radius/boundary-radius.
        rho = np.sqrt((a / r_ap) ** 2 + (l / r_lr) ** 2)
        # Heights are needed only inside the ellipse: every per-column array
        # below holds just those (y, x) columns, in C order.
        self.ellipse = rho <= 1.0
        rho = rho[self.ellipse]
        theta = np.arctan2(-l[self.ellipse], a[self.ellipse])
        self.s = (grid.axis_coords(2) - cz)[:, None]
        self.heights = _HeightWeights(rho, theta)
        self.cells = cell_index(rho, arc_index(theta))
        edge = np.ones_like(self.ellipse)
        edge[1:-1, 1:-1] = False
        self.edge = edge[self.ellipse]
        self.ball = ball_rows(spec.cortical_thickness, grid.spacing)

    def solid(self, spec: VertebraSpec) -> tuple[np.ndarray, np.ndarray]:
        """``(body, hu)``: the grid's body mask and the noise-free HU of the
        body voxels in C order. The body bottom sits at ``-max(cell_heights)/2``
        along the superior axis and each column rises to its interpolated
        target height; cortical bone is the body minus its erosion by the
        ball. A body that reaches a face of the grid raises, so a ball that
        reaches past a face reaches the background voxel on it, which the
        distance transform measures to as well."""
        z0 = -max(spec.cell_heights) / 2.0
        in_body = (self.s >= z0) & (self.s < z0 + self.heights(spec.cell_heights))
        if not in_body.any():
            raise ValueError("vertebra body does not intersect the grid")
        if in_body[[0, -1]].any() or in_body[:, self.edge].any():
            raise ValueError("vertebra body exceeds grid bounds")
        body = np.zeros((self.s.size, *self.ellipse.shape), dtype=bool)
        body[:, self.ellipse] = in_body

        column_hu = np.full(self.cells.size, spec.trabecular_hu, dtype=np.float64)
        deltas = np.asarray(spec.cell_hu_delta)
        if np.any(deltas != 0.0):
            column_hu += deltas[self.cells]
        hu = np.broadcast_to(column_hu, in_body.shape)[in_body]
        hu[~erode_by_ball(body, self.ball)[body]] = spec.cortical_hu
        return body, hu


def _add_noise(hu: np.ndarray, spec: VertebraSpec,
               rng: np.random.Generator | None) -> np.ndarray:
    """``hu`` plus the spec's Gaussian noise, one draw per voxel in order."""
    if spec.noise_sd == 0:
        return hu
    if rng is None:
        raise ValueError("noise_sd > 0 requires a random generator")
    return hu + rng.normal(0.0, spec.noise_sd, size=hu.size)


def advance(spec: VertebraSpec, model: ProgressionModel, dt_years: float) -> VertebraSpec:
    """Progress a vertebra spec by ``dt_years``; heights saturate at 1 mm."""
    if dt_years < 0:
        raise ValueError("dt must be nonnegative")
    heights = tuple(max(MIN_CELL_HEIGHT_MM, h + r * dt_years)
                    for h, r in zip(spec.cell_heights, model.height_rate))
    deltas = list(spec.cell_hu_delta)
    if model.focal_lesion is not None:
        for c in model.focal_lesion.cells:
            deltas[c] += model.focal_lesion.hu_per_year * dt_years
    return replace(spec, cell_heights=heights,
                   trabecular_hu=spec.trabecular_hu + model.trabecular_rate * dt_years,
                   cell_hu_delta=tuple(deltas))


# ---------------------------------------------------------------------------
# cohort assembly

def _even(x: float) -> int:
    """Nearest even integer; keeps noise-free HU exact under halving."""
    return int(2 * round(x / 2.0))


@dataclass
class _PatientPlan:
    patient_id: str
    gender: str
    age0: float
    dates: list[dt.date]
    base_specs: list[VertebraSpec]   # baseline per vertebra
    models: list[ProgressionModel | None]
    truth: dict[int, str]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _plan_patient(spec: CohortSpec, idx: int, kind: str) -> _PatientPlan:
    rng = _rng(spec.seed, idx, 0)
    gender = "F" if rng.random() < 0.5 else "M"
    age0 = float(np.clip(rng.normal(57.0, 15.0), 25.0, 90.0))

    if isinstance(spec.studies_per_patient, int):
        n_studies = spec.studies_per_patient
    else:
        lo, hi = spec.studies_per_patient
        n_studies = int(rng.integers(lo, hi + 1))
    start = dt.date(2016, 1, 1) + dt.timedelta(days=int(rng.integers(0, 1461)))
    dates = [start]
    for _ in range(n_studies - 1):
        gap_years = spec.study_interval * float(rng.uniform(0.75, 1.25))
        dates.append(dates[-1] + dt.timedelta(days=max(28, round(gap_years * 365.25))))

    base_specs: list[VertebraSpec] = []
    models: list[ProgressionModel | None] = []
    truth: dict[int, str] = {}
    for j in range(spec.vertebrae_per_patient):
        label = j + 1
        base_h = float(rng.uniform(20.0, 24.0))
        radii = (float(rng.uniform(15.0, 17.0)), float(rng.uniform(12.0, 14.0)))
        trab0 = _even(rng.normal(180.0, 8.0) if kind == NEOPLASTIC
                      else rng.normal(120.0, 8.0))
        vspec = VertebraSpec(
            level_index=10 + j, body_radii=radii,
            cell_heights=uniform_heights(base_h),
            trabecular_hu=trab0, cortical_hu=400, cortical_thickness=3.0,
            noise_sd=spec.noise_sd)
        # The topmost vertebra stays unfractured and serves as a contrast neighbor.
        if j == 0:
            truth[label] = UNFRACTURED
            models.append(None)
            base_specs.append(vspec)
            continue
        truth[label] = kind
        jitter = rng.normal(0.0, 0.3, N_CELLS)
        if kind == OSTEOPOROTIC:
            heights = tuple(max(MIN_CELL_HEIGHT_MM, 0.82 * base_h + g) for g in jitter)
            rate = -(1.6 + 0.8 * rng.random())
            model = ProgressionModel(
                kind=kind,
                height_rate=tuple(rate + float(g) for g in rng.normal(0.0, 0.1, N_CELLS)),
                trabecular_rate=-(18.0 + 8.0 * rng.random()))
            vspec = replace(vspec, cell_heights=heights)
        else:
            lesion_cells = ANTERIOR_LESION_CELLS
            heights = tuple(
                max(MIN_CELL_HEIGHT_MM,
                    (0.72 if c in lesion_cells else 0.94) * base_h + g)
                for c, g in enumerate(jitter))
            deltas = tuple(60.0 if c in lesion_cells else 0.0
                           for c in range(N_CELLS))
            model = ProgressionModel(
                kind=kind,
                height_rate=tuple(-(3.0 + rng.random()) if c in lesion_cells else -0.4
                                  for c in range(N_CELLS)),
                trabecular_rate=2.0 + 2.0 * rng.random(),
                focal_lesion=FocalLesion(cells=lesion_cells,
                                         hu_per_year=100.0 + 40.0 * rng.random()))
            vspec = replace(vspec, cell_heights=heights, cell_hu_delta=deltas)
        base_specs.append(vspec)
        models.append(model)
    return _PatientPlan(patient_id=f"P{idx:03d}", gender=gender,
                        age0=age0, dates=dates, base_specs=base_specs,
                        models=models, truth=truth)


def _study_grid(spec: CohortSpec, plan: _PatientPlan):
    """Fixed per-patient grid sized from the baseline geometry, plus the world
    anchor (centroid) of each vertebra slot and the reference-region boxes."""
    margin = 5.0
    r_ap_max = max(s.body_radii[0] for s in plan.base_specs)
    r_lr_max = max(s.body_radii[1] for s in plan.base_specs)
    slot = max(max(s.cell_heights) for s in plan.base_specs) + 6.0

    canal_r, canal_gap = 4.0, 2.0
    canal_y = -(r_ap_max + canal_gap + canal_r)
    muscle = dict(x=(-11.0, 11.0), y=(canal_y - canal_r - 12.0, canal_y - canal_r - 2.0))
    fat = dict(x=(-11.0, 11.0), y=(muscle["y"][0] - 12.0, muscle["y"][0] - 2.0))

    x_min, x_max = -r_lr_max - margin, r_lr_max + margin
    y_min, y_max = fat["y"][0] - margin, r_ap_max + margin
    n_vert = len(plan.base_specs)
    z_min, z_max = -margin, n_vert * slot + margin

    sx, sy, sz = spec.spacing
    dims = (int(np.ceil((x_max - x_min) / sx)) + 1,
            int(np.ceil((y_max - y_min) / sy)) + 1,
            int(np.ceil((z_max - z_min) / sz)) + 1)
    grid = GridGeometry(dims=dims, spacing=spec.spacing, origin=(x_min, y_min, z_min))
    centroids = [(0.0, 0.0, (j + 0.5) * slot) for j in range(n_vert)]
    return grid, centroids, dict(canal=dict(y=canal_y, r=canal_r,
                                            z=(0.0, n_vert * slot)),
                                 muscle=muscle, fat=fat)


def _span(coords: np.ndarray, lo: float, hi: float) -> slice:
    """The slice of ascending ``coords`` that lie in ``[lo, hi]``."""
    return slice(int(np.searchsorted(coords, lo, side="left")),
                 int(np.searchsorted(coords, hi, side="right")))


def _render_background(grid: GridGeometry, layout):
    """Air-filled int16 canvas with the canal cylinder and muscle/fat
    reference blocks, painted through (y, x) masks and index slices."""
    hu = np.full([grid.dims[2], grid.dims[1], grid.dims[0]], AIR_HU, dtype=np.int16)
    labels = np.zeros(hu.shape, dtype=np.uint16)
    legend: dict[int, str] = {}

    xs, ys, zs = (grid.axis_coords(axis) for axis in range(3))
    canal = layout["canal"]
    slab = _span(zs, *canal["z"])
    disc = ((xs[None, :] - 0.0) ** 2 + (ys[:, None] - canal["y"]) ** 2
            <= canal["r"] ** 2)
    hu[slab, disc] = CANAL_HU
    labels[slab, disc] = CANAL_LABEL
    legend[CANAL_LABEL] = ROLE_CANAL

    for name, lab, value in (("muscle", MUSCLE_LABEL, MUSCLE_HU),
                             ("fat", FAT_LABEL, FAT_HU)):
        box = layout[name]
        block = (slab, _span(ys, *box["y"]), _span(xs, *box["x"]))
        hu[block] = value
        labels[block] = lab
        legend[lab] = ROLE_MUSCLE if name == "muscle" else ROLE_FAT

    return hu, labels, legend


def _crop(grid: GridGeometry, frame: LocalFrame, radii, half_h: float):
    """The box of ``grid`` that holds a body of ``radii`` centred on the
    frame's centroid and reaching ``half_h`` up and down, with two spare
    voxels a side: a lattice crop of ``grid`` and its (z, y, x) slices."""
    cx, cy, cz = frame.centroid
    r_ap, r_lr = radii
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
    return crop, (slice(iz0, iz1 + 1), slice(iy0, iy1 + 1), slice(ix0, ix1 + 1))


def _write_patient(spec: CohortSpec, out_dir: Path, neoplastic: frozenset[int],
                   idx: int) -> PatientEntry:
    """Render and write every study of patient ``idx`` under ``out_dir``; the
    patient is neoplastic if ``idx`` is in ``neoplastic``. Each vertebra slot
    gets one footprint, sized for its tallest study (see the module
    docstring)."""
    kind = NEOPLASTIC if idx in neoplastic else OSTEOPOROTIC
    plan = _plan_patient(spec, idx, kind)
    grid, centroids, layout = _study_grid(spec, plan)
    pdir = out_dir / plan.patient_id
    pdir.mkdir(exist_ok=True)

    hu0, labels0, legend = _render_background(grid, layout)
    series = [plan.base_specs]                  # each study's vertebra specs
    for earlier, date in zip(plan.dates, plan.dates[1:]):
        dt_years = (date - earlier).days / 365.25
        series.append([v if m is None else advance(v, m, dt_years)
                       for v, m in zip(series[-1], plan.models)])
    slots = []
    for j, (centroid, specs) in enumerate(zip(centroids, zip(*series))):
        frame = make_frame(centroid, (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))
        half_h = max(max(v.cell_heights) for v in specs) / 2.0
        crop, box = _crop(grid, frame, specs[0].body_radii, half_h)
        slots.append((_Footprint(specs[0], frame, crop), box))
        legend[j + 1] = vertebra_role(specs[0].level_index)

    solids = [None] * len(slots)    # per slot: (spec, body, noise-free hu) last rendered
    studies = []
    for s_idx, (date, vspecs) in enumerate(zip(plan.dates, series)):
        hu, labels = hu0.copy(), labels0.copy()
        for j, (vspec, (footprint, box)) in enumerate(zip(vspecs, slots)):
            if solids[j] is None or solids[j][0] is not vspec:
                solids[j] = (vspec, *footprint.solid(vspec))
            _, body, values = solids[j]
            values = _add_noise(values, vspec, _rng(spec.seed, idx, 100 + s_idx, j))
            hu[box][body] = np.clip(np.rint(values), HU_MIN, HU_MAX).astype(np.int16)
            labels[box][body] = j + 1

        vol = Volume(geometry=grid, data=hu)
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


def generate_cohort(spec: CohortSpec, out_dir) -> CohortManifest:
    """Write a full synthetic cohort (volumes, label maps, manifest.json) under
    ``out_dir`` and return the manifest. Deterministic for a given seed:
    every patient draws from its own random streams, so patients are written
    independently, through ``parallel.pmap``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    order = _rng(spec.seed, 0, 9).permutation(spec.n_patients)
    n_neo = int(round(spec.fraction_neoplastic * spec.n_patients))
    neoplastic = frozenset(int(i) for i in order[:n_neo])
    patients = pmap(partial(_write_patient, spec, out_dir, neoplastic),
                    range(spec.n_patients))
    manifest = CohortManifest(patients=tuple(patients))
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest
