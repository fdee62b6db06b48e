"""Per-vertebra local coordinate frames.

The superior axis comes from a principal-component analysis of the vertebra's
voxel cloud; the anterior axis from the canal-to-body direction, or world +y
when the label map has no usable canal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import LabelMap, ROLE_CANAL

MIN_FRAME_VOXELS = 50


@dataclass(frozen=True)
class LocalFrame:
    """Right-handed orthonormal frame anchored at the vertebra centroid (mm)."""

    centroid: tuple[float, float, float]
    axis_si: tuple[float, float, float]   # superior
    axis_ap: tuple[float, float, float]   # anterior
    axis_lr: tuple[float, float, float]   # subject-left

    def __post_init__(self):
        axes = [np.asarray(a, dtype=np.float64) for a in
                (self.axis_si, self.axis_ap, self.axis_lr)]
        for a in axes:
            if abs(np.linalg.norm(a) - 1.0) > 1e-9:
                raise ValueError(f"frame axis not unit length: {a}")
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(float(axes[i] @ axes[j])) > 1e-9:
                    raise ValueError("frame axes not orthogonal")
        if np.linalg.norm(np.cross(axes[0], axes[1]) - axes[2]) > 1e-9:
            raise ValueError("frame is not right-handed (lr != si x ap)")
        object.__setattr__(self, "centroid", tuple(float(c) for c in self.centroid))
        object.__setattr__(self, "axis_si", tuple(float(c) for c in self.axis_si))
        object.__setattr__(self, "axis_ap", tuple(float(c) for c in self.axis_ap))
        object.__setattr__(self, "axis_lr", tuple(float(c) for c in self.axis_lr))

    @property
    def centroid_array(self) -> np.ndarray:
        return np.asarray(self.centroid)

    @property
    def si(self) -> np.ndarray:
        return np.asarray(self.axis_si)

    @property
    def ap(self) -> np.ndarray:
        return np.asarray(self.axis_ap)

    @property
    def lr(self) -> np.ndarray:
        return np.asarray(self.axis_lr)


def make_frame(centroid, axis_si, axis_ap) -> LocalFrame:
    """Build a frame from a superior axis and a (possibly unnormalized) anterior hint."""
    si = np.asarray(axis_si, dtype=np.float64)
    si = si / np.linalg.norm(si)
    ap = np.asarray(axis_ap, dtype=np.float64)
    ap = ap - (ap @ si) * si
    n = np.linalg.norm(ap)
    if n < 1e-12:
        raise ValueError("anterior direction parallel to the superior axis")
    ap = ap / n
    lr = np.cross(si, ap)
    lr = lr / np.linalg.norm(lr)
    return LocalFrame(centroid=tuple(centroid), axis_si=tuple(si),
                      axis_ap=tuple(ap), axis_lr=tuple(lr))


def vertebra_frame(lm: LabelMap, label: int) -> LocalFrame:
    """Derive the local frame for one vertebra label.

    The superior axis is the principal axis closest (by absolute cosine) to
    world +z, sign-flipped into the +z hemisphere. The anterior axis is the
    canal-to-body direction when a CANAL label exists, else world +y; it is
    projected orthogonal to the superior axis.
    """
    if label not in lm.legend:
        raise ValueError(f"label {label} not present in legend")
    coords = lm.view(label).coords
    if coords.shape[0] < MIN_FRAME_VOXELS:
        raise ValueError(
            f"label {label} has {coords.shape[0]} voxels, below the "
            f"{MIN_FRAME_VOXELS}-voxel floor")
    centroid = coords.mean(axis=0)
    cov = np.cov(coords, rowvar=False)
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] <= 1e-9:
        raise ValueError(f"degenerate voxel cloud for label {label}: rank < 3 covariance")
    # Closest to world +z by absolute cosine; this is also the documented
    # tie-break when eigenvalues are within 1e-9 of each other.
    zi = int(np.argmax(np.abs(evecs[2, :])))
    si = evecs[:, zi]
    if si[2] < 0 or (si[2] == 0 and si[si != 0][0] < 0):
        si = -si

    # The eigenvectors are orthonormal, so the chosen one has |z| >= 1/sqrt(3)
    # and the default +y anterior lies at least 35 degrees off it.
    hint = _canal_hint(lm, label, coords, centroid, si)
    return make_frame(centroid, si, np.array([0.0, 1.0, 0.0]) if hint is None else hint)


def _canal_hint(lm: LabelMap, label: int, body_coords, body_centroid, si):
    canal_label = lm.label_for_role(ROLE_CANAL)
    if canal_label is None:
        return None
    canal = lm.view(canal_label).coords
    if canal.shape[0] == 0:
        return None
    # Use only the canal slab covering the vertebra's axial span.
    s_body = body_coords @ si
    s_canal = canal @ si
    sel = (s_canal >= s_body.min()) & (s_canal <= s_body.max())
    if not np.any(sel):
        return None
    direction = body_centroid - canal[sel].mean(axis=0)
    direction = direction - (direction @ si) * si
    n = np.linalg.norm(direction)
    if n < 1e-9:
        return None
    return direction / n
