"""Bone density estimation: whole-body mean HU, trabecular mean via
anterior-half erosion, and two-point muscle/fat normalization.

The trabecular probe is the body eroded by a lattice ball of radius
``DEFAULT_EROSION_MM`` (``grids.erode_by_ball``: the intersection of the
erosions by the ball's x-rows, one array operation per (dz, dy) row),
computed on the body's bounding box with space beyond it counted as
background, then cut to the half-space anterior to the centroid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import LocalFrame
from .grids import (LabelMap, ROLE_FAT, ROLE_MUSCLE, Volume, check_paired_geometry,
                    erode_by_ball)

MIN_LABEL_VOXELS = 50
DEFAULT_EROSION_MM = 3.0


@dataclass(frozen=True)
class DensityFeatures:
    meanDen: float        # normalized units (fat -> 0, muscle -> 100)
    meanTrab: float


def mean_density(vol: Volume, lm: LabelMap, label: int,
                 min_voxels: int = MIN_LABEL_VOXELS) -> float:
    """Arithmetic mean HU over all voxels carrying ``label``."""
    check_paired_geometry(vol, lm)
    view = lm.view(label)
    n = view.voxel_count
    if n < min_voxels:
        raise ValueError(
            f"label {label} has {n} voxels, need at least {min_voxels}")
    return float(vol.data.take(view.flat).mean(dtype=np.float64))


def _ball_structure(radius_mm: float, spacing) -> np.ndarray:
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


@dataclass(frozen=True)
class StudyReference:
    """What every vertebra of one study shares: the muscle and fat reference
    means (HU) and the erosion ball."""
    muscle_hu: float
    fat_hu: float
    erosion_radius_mm: float
    ball: np.ndarray          # (z, y, x) lattice offsets; one voxel at 0 mm


def study_reference(vol: Volume, lm: LabelMap) -> StudyReference:
    """Read the reference regions' means and build the ball of
    ``DEFAULT_EROSION_MM`` once."""
    check_paired_geometry(vol, lm)
    means = []
    for role in (ROLE_MUSCLE, ROLE_FAT):
        ref_label = lm.label_for_role(role)
        if ref_label is None:
            raise ValueError(f"missing reference region: {role}")
        means.append(mean_density(vol, lm, ref_label, min_voxels=1))
    return StudyReference(*means, DEFAULT_EROSION_MM,
                          _ball_structure(DEFAULT_EROSION_MM, lm.spacing))


def trabecular_region(lm: LabelMap, label: int, frame: LocalFrame,
                      ref: StudyReference) -> tuple[tuple[slice, ...], np.ndarray]:
    """The trabecular probe: the body eroded by ``ref``'s ball, cut to the
    half-space anterior to the centroid. Returns the body's bounding box and
    the probe mask within it."""
    view = lm.view(label)
    body = view.mask
    if view.voxel_count == 0:
        raise ValueError(f"label {label} absent from the label map")
    # The box holds the whole body and erosion treats the space beyond it as
    # background, so the in-box erosion equals the full-grid one.
    eroded = erode_by_ball(body, ref.ball)
    if not eroded.any():
        raise ValueError(
            f"{ref.erosion_radius_mm} mm erosion annihilates label {label}; "
            f"radius exceeds the body's half-extent")

    idx = np.argwhere(eroded)
    coords = lm.geometry.world_coords(idx + [s.start for s in view.box])
    anterior = (coords - frame.centroid_array) @ frame.ap > 0
    mask = np.zeros_like(body)
    mask[tuple(idx[anterior].T)] = True
    if not mask.any():
        raise ValueError(
            f"anterior half of the eroded body is empty for label {label}")
    return view.box, mask


def normalize(raw_hu: float, muscle_hu: float, fat_hu: float) -> float:
    """Two-point linear calibration: fat maps to 0, muscle to 100."""
    if muscle_hu <= fat_hu:
        raise ValueError(
            f"invalid reference pair: muscle {muscle_hu} must exceed fat {fat_hu}")
    return 100.0 * (raw_hu - fat_hu) / (muscle_hu - fat_hu)


def density_features(vol: Volume, lm: LabelMap, label: int, frame: LocalFrame,
                     ref: StudyReference) -> DensityFeatures:
    """Whole-body and trabecular densities normalized against the study's
    muscle/fat reference means (``study_reference``)."""
    raw_den = mean_density(vol, lm, label)
    box, trab = trabecular_region(lm, label, frame, ref)
    raw_trab = float(vol.data[box][trab].mean(dtype=np.float64))

    return DensityFeatures(
        meanDen=normalize(raw_den, ref.muscle_hu, ref.fat_hu),
        meanTrab=normalize(raw_trab, ref.muscle_hu, ref.fat_hu),
    )
