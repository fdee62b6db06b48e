import numpy as np
import pytest

from helpers import (WORLD_FRAME, body_spec, render_single, render_vertebra,
                     single_vertebra_grid)
from vcfclass.frames import make_frame, vertebra_frame
from vcfclass.grids import ROLE_CANAL, GridGeometry, LabelMap
from vcfclass.phantom import uniform_heights


def axis_aligned_lm():
    _, lm, _ = render_single(body_spec(uniform_heights(20.0)))
    return lm


def canal_lm(frame, distance=30.0, radius=4.0):
    """A uniform body (label 1) rendered in ``frame``, centred at the origin,
    with a vertical CANAL column of ``radius`` mm centred ``distance`` mm
    behind it, against the frame's anterior axis."""
    grid = single_vertebra_grid(with_refs=True)      # room behind the body
    _, labels = render_vertebra(body_spec(uniform_heights(20.0)), frame, grid,
                                label=1)
    cx, cy, _ = -distance * frame.ap
    xs, ys = grid.axis_coords(0), grid.axis_coords(1)
    disc = (xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2 <= radius ** 2
    labels[disc & (labels == 0)] = 103
    return LabelMap(geometry=grid, labels=labels,
                    legend={1: "VERTEBRA:12", 103: ROLE_CANAL})


def test_axis_aligned_frame_matches_world():
    f = vertebra_frame(canal_lm(WORLD_FRAME), 1)
    assert np.allclose(f.si, (0, 0, 1), atol=1e-6)
    assert np.allclose(f.ap, (0, 1, 0), atol=1e-6)
    assert np.allclose(f.lr, (-1, 0, 0), atol=1e-6)


def test_default_anterior_is_plus_y_without_canal():
    lm = axis_aligned_lm()
    f = vertebra_frame(lm, 1)
    assert np.allclose(f.ap, (0, 1, 0), atol=1e-6)


def test_rotated_body_rotates_frame():
    # Rotate the rendered solid and its canal 30 degrees about z by rendering
    # along rotated axes; the PCA superior axis and the canal-derived anterior
    # axis must follow within 1e-3 rad.
    ang = np.deg2rad(30.0)
    ap_rot = (-np.sin(ang), np.cos(ang), 0.0)
    f = vertebra_frame(canal_lm(make_frame((0.0, 0.0, 0.0), (0, 0, 1), ap_rot)), 1)
    assert np.arccos(np.clip(abs(f.si @ np.array([0, 0, 1.0])), -1, 1)) < 1e-3
    assert np.arccos(np.clip(f.ap @ np.array(ap_rot), -1, 1)) < 1e-3


def test_translation_equivariance_exact_axes():
    lm = axis_aligned_lm()
    f0 = vertebra_frame(lm, 1)
    g = lm.geometry
    shifted = LabelMap(
        geometry=GridGeometry(dims=g.dims, spacing=g.spacing,
                              origin=(g.origin[0] + 3 * g.spacing[0],
                                      g.origin[1] - 2 * g.spacing[1],
                                      g.origin[2] + 5 * g.spacing[2])),
        labels=lm.labels, legend=lm.legend)
    f1 = vertebra_frame(shifted, 1)
    assert np.allclose(f1.si, f0.si, atol=1e-9)
    assert np.allclose(f1.ap, f0.ap, atol=1e-9)
    assert np.allclose(
        np.array(f1.centroid) - np.array(f0.centroid), (3.0, -2.0, 5.0), atol=1e-9)


def test_determinism():
    lm = axis_aligned_lm()
    f0 = vertebra_frame(lm, 1)
    f1 = vertebra_frame(lm, 1)
    assert f0 == f1


def test_small_blob_rejected():
    geo = GridGeometry(dims=(8, 8, 8), spacing=(1, 1, 1), origin=(0, 0, 0))
    labels = np.zeros((8, 8, 8), dtype=np.uint16)
    labels[2:4, 2:4, 2:4] = 1           # 8 voxels, below the 50-voxel floor
    labels[4, 3, 3] = 1
    labels[4, 4, 3] = 1
    lm = LabelMap(geometry=geo, labels=labels, legend={1: "VERTEBRA:12"})
    with pytest.raises(ValueError, match="floor"):
        vertebra_frame(lm, 1)


def test_flat_cloud_rejected():
    geo = GridGeometry(dims=(12, 12, 4), spacing=(1, 1, 1), origin=(0, 0, 0))
    labels = np.zeros((4, 12, 12), dtype=np.uint16)
    labels[1, :, :] = 1                 # one-voxel-thick plane, 144 voxels
    lm = LabelMap(geometry=geo, labels=labels, legend={1: "VERTEBRA:12"})
    with pytest.raises(ValueError, match="rank"):
        vertebra_frame(lm, 1)


def test_canal_derived_anterior(small_cohort):
    from vcfclass.grids import load_labelmap
    _, manifest, root = small_cohort
    study = manifest.patients[0].studies[0]
    lm = load_labelmap(root / study.labelmap_path)
    # Canal sits at -y behind each body, so the derived anterior must be +y.
    f = vertebra_frame(lm, 1)
    assert f.ap[1] > 0.99


def test_missing_label_rejected():
    lm = axis_aligned_lm()
    with pytest.raises(ValueError, match="legend"):
        vertebra_frame(lm, 99)


def test_frame_invariants_enforced():
    with pytest.raises(ValueError, match="orthogonal"):
        from vcfclass.frames import LocalFrame
        LocalFrame(centroid=(0, 0, 0), axis_si=(0, 0, 1),
                   axis_ap=(0, 0.8, 0.6), axis_lr=(-1, 0, 0))
