"""Per-label views against the full-grid scans they replace: the same voxels
in the same order, identical measured features and trabecular masks."""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (reference_check_vertebra_connectivity, reference_column_table,
                     reference_label_world_coords, reference_mean_density,
                     reference_trabecular_region, trabecular_mask)
from vcfclass import densitometry, morphometry
from vcfclass.features import measured_study_features
from vcfclass.frames import vertebra_frame
from vcfclass.grids import (ROLE_CANAL, GridGeometry, LabelMap, Volume,
                            check_vertebra_connectivity, load_labelmap, load_volume)
from vcfclass.phantom import CohortSpec, generate_cohort

_FULL_GRID = (slice(None), slice(None), slice(None))


def _load(root, study):
    return (load_volume(root / study.volume_path),
            load_labelmap(root / study.labelmap_path))


def _without_canal(vol, lm):
    canal = lm.label_for_role(ROLE_CANAL)
    labels = np.where(lm.labels == canal, 0, lm.labels)
    legend = {k: v for k, v in lm.legend.items() if k != canal}
    return vol, LabelMap(geometry=lm.geometry, labels=labels, legend=legend)


def _cut_at_vertebra(vol, lm, label=1):
    """The study cut so that ``label`` touches the grid's first z plane and
    both x faces; other labels are cut where they reach past it."""
    zz, _, xx = np.nonzero(lm.labels == label)
    z0, x0, x1 = int(zz.min()), int(xx.min()), int(xx.max()) + 1
    sub = (slice(z0, None), slice(None), slice(x0, x1))
    nx, ny, nz = lm.dims
    sx, _, sz = lm.spacing
    ox, oy, oz = lm.origin
    geo = GridGeometry(dims=(x1 - x0, ny, nz - z0), spacing=lm.spacing,
                       origin=(ox + x0 * sx, oy, oz + z0 * sz))
    return (Volume(geometry=geo, data=vol.data[sub]),
            LabelMap(geometry=geo, labels=lm.labels[sub], legend=lm.legend))


@pytest.fixture(scope="module")
def anisotropic_root(tmp_path_factory):
    out = tmp_path_factory.mktemp("aniso")
    spec = CohortSpec(n_patients=1, studies_per_patient=1, spacing=(0.9, 1.4, 1.6),
                      seed=5)
    return generate_cohort(spec, out), out


@pytest.fixture(scope="module")
def cases(small_cohort, anisotropic_root):
    _, manifest, root = small_cohort
    canal = _load(root, manifest.patients[0].studies[0])
    late = _load(root, manifest.patients[1].studies[2])
    aniso_manifest, aniso_root = anisotropic_root
    aniso = _load(aniso_root, aniso_manifest.patients[0].studies[0])
    return {
        "canal": canal,
        "no_canal": _without_canal(*late),
        "anisotropic": aniso,
        "edge": _cut_at_vertebra(*canal),
    }


CASES = ("canal", "no_canal", "anisotropic", "edge")


def _full_grid_view(lm, label):
    """Stands in for ``LabelMap.view`` on the reference path: its world
    coordinates come from a full-grid scan, and reading any other view
    attribute fails."""
    return SimpleNamespace(coords=reference_label_world_coords(lm, label))


def _features(monkeypatch, vol, lm, erosion_mm):
    """``measured_study_features`` with the trabecular probe eroded by
    ``erosion_mm`` instead of the method's ``DEFAULT_EROSION_MM``."""
    with monkeypatch.context() as m:
        m.setattr(densitometry, "DEFAULT_EROSION_MM", erosion_mm)
        return measured_study_features(vol, lm)


def _reference_features(monkeypatch, vol, lm, erosion_mm):
    """``_features`` with every label-map read on the full grid."""
    with monkeypatch.context() as m:
        m.setattr(LabelMap, "view", _full_grid_view)
        m.setattr(morphometry, "column_table", reference_column_table)
        m.setattr(densitometry, "mean_density", reference_mean_density)
        m.setattr(densitometry, "trabecular_region",
                  lambda lm, label, frame, ref:
                  (_FULL_GRID, reference_trabecular_region(lm, label, frame,
                                                           ref.erosion_radius_mm)))
        return _features(m, vol, lm, erosion_mm)


def _fresh(lm):
    return LabelMap(geometry=lm.geometry, labels=lm.labels, legend=lm.legend)


@pytest.mark.parametrize("erosion_mm", [0.0, 3.0])
@pytest.mark.parametrize("name", CASES)
def test_features_identical_to_full_grid_reference(cases, monkeypatch, name, erosion_mm):
    vol, lm = cases[name]
    expected = _reference_features(monkeypatch, vol, lm, erosion_mm)
    got = _features(monkeypatch, vol, _fresh(lm), erosion_mm)
    assert got.keys() == expected.keys()
    for label, feats in expected.items():
        assert got[label].keys() == feats.keys()
        for col, want in feats.items():
            have = got[label][col]
            assert have == want or (np.isnan(have) and np.isnan(want)), (label, col)


@pytest.mark.parametrize("erosion_mm", [0.0, 3.0])
@pytest.mark.parametrize("name", CASES)
def test_trabecular_mask_identical_to_full_grid_reference(cases, name, erosion_mm):
    _, lm = cases[name]
    for label in lm.vertebra_labels():
        frame = vertebra_frame(lm, label)
        got = trabecular_mask(lm, label, frame, erosion_mm)
        assert got.shape == lm.labels.shape
        assert np.array_equal(got, reference_trabecular_region(lm, label, frame, erosion_mm))


@pytest.mark.parametrize("name", CASES)
def test_view_lists_full_grid_voxels_in_order(cases, name):
    vol, lm = cases[name]
    reference_check_vertebra_connectivity(lm)
    check_vertebra_connectivity(lm)
    for label in lm.legend:
        view = lm.view(label)
        assert lm.view(label) is view
        assert np.array_equal(view.index, np.argwhere(lm.labels == label))
        assert np.array_equal(view.coords, reference_label_world_coords(lm, label))
        assert view.voxel_count == int((lm.labels == label).sum())
        assert np.array_equal(vol.data[view.box][view.mask],
                              vol.data[lm.labels == label])


def test_edge_case_touches_the_grid_faces(cases):
    _, lm = cases["edge"]
    bz, _, bx = lm.view(1).box
    assert bz.start == 0
    assert (bx.start, bx.stop) == (0, lm.dims[0])


def test_absent_label_gets_an_empty_view(cases):
    _, lm = cases["canal"]
    view = lm.view(999)
    assert view.voxel_count == 0
    assert view.index.shape == (0, 3) and view.coords.shape == (0, 3)
