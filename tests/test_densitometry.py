import numpy as np
import pytest

from helpers import WORLD_FRAME, body_spec, render_single, trabecular_mask
from vcfclass import densitometry
from vcfclass.densitometry import (density_features, mean_density, normalize,
                                   study_reference)
from vcfclass.features import measured_study_features
from vcfclass.grids import (GridGeometry, LabelMap, Volume, load_labelmap,
                            load_volume)
from vcfclass.phantom import uniform_heights


@pytest.fixture(scope="module")
def case(uniform_case):
    vol, lm, frame = uniform_case
    return vol, lm, frame


def test_mean_density_uniform_interior():
    # Body rendered with equal trabecular and cortical values is constant.
    vol, lm, frame = render_single(
        body_spec(uniform_heights(20.0), trabecular_hu=150, cortical_hu=150))
    assert mean_density(vol, lm, 1) == 150.0


def test_mean_density_matches_voxel_count_oracle(case):
    vol, lm, _ = case
    sel = lm.labels == 1
    n_cort = int((vol.data[sel] == 400).sum())
    n_trab = int((vol.data[sel] == 150).sum())
    expected = (400.0 * n_cort + 150.0 * n_trab) / (n_cort + n_trab)
    got = mean_density(vol, lm, 1)
    assert 150.0 < got < 400.0
    assert got == pytest.approx(expected, abs=1e-12)


def test_mean_density_errors(case):
    vol, lm, _ = case
    with pytest.raises(ValueError, match="voxels"):
        mean_density(vol, lm, 99)


def test_erosion_excludes_cortical_shell(case):
    vol, lm, frame = case
    mask = trabecular_mask(lm, 1, frame, erosion_radius_mm=3.0)
    assert mask.any()
    assert np.all(vol.data[mask] == 150)          # zero cortical-valued voxels
    assert np.all(lm.labels[mask] == 1)           # containment in the body


def test_zero_erosion_is_anterior_half(case):
    _, lm, frame = case
    mask = trabecular_mask(lm, 1, frame, erosion_radius_mm=0.0)
    idx = np.argwhere(lm.labels == 1)
    coords = lm.geometry.world_coords(idx)
    anterior = (coords - frame.centroid_array) @ frame.ap > 0
    expected = np.zeros_like(mask)
    expected[tuple(idx[anterior].T)] = True
    assert np.array_equal(mask, expected)


def test_oversized_erosion_rejected(case):
    _, lm, frame = case
    with pytest.raises(ValueError, match="half-extent"):
        trabecular_mask(lm, 1, frame, erosion_radius_mm=25.0)


def test_body_thinner_than_the_ball_rejected():
    # A slab 3 voxels thick in z against a ball 7 voxels tall: the ball fits
    # nowhere in the body's box, though the box is wider than it in x and y.
    geo = GridGeometry(dims=(20, 20, 9), spacing=(1.0, 1.0, 1.0),
                       origin=(-9.5, -9.5, -4.0))
    labels = np.zeros((9, 20, 20), dtype=np.uint16)
    labels[3:6, 2:18, 2:18] = 1
    lm = LabelMap(geometry=geo, labels=labels, legend={1: "VERTEBRA:12"})
    assert trabecular_mask(lm, 1, WORLD_FRAME, erosion_radius_mm=1.0).any()
    with pytest.raises(ValueError, match="3.0 mm erosion annihilates label 1"):
        trabecular_mask(lm, 1, WORLD_FRAME, erosion_radius_mm=3.0)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -1.0])
def test_non_finite_or_negative_erosion_rejected(case, radius):
    _, lm, frame = case
    with pytest.raises(ValueError, match="finite and nonnegative"):
        trabecular_mask(lm, 1, frame, erosion_radius_mm=radius)


def test_normalize_anchors():
    assert normalize(-100.0, 50.0, -100.0) == 0.0
    assert normalize(50.0, 50.0, -100.0) == 100.0
    assert normalize(150.0, 50.0, -100.0) == pytest.approx(100.0 * 250.0 / 150.0)
    with pytest.raises(ValueError, match="muscle"):
        normalize(0.0, -100.0, 50.0)


def test_density_features_composition(case):
    vol, lm, frame = case
    ref = study_reference(vol, lm)
    df = density_features(vol, lm, 1, frame, ref)
    assert ref.muscle_hu == 50.0 and ref.fat_hu == -100.0
    assert df.meanTrab == pytest.approx(100.0 * 250.0 / 150.0, abs=0.5)
    raw_trab = vol.data[trabecular_mask(lm, 1, frame)].mean(dtype=np.float64)
    assert raw_trab == 150.0
    # normalization identity holds exactly
    raw_den = mean_density(vol, lm, 1)
    assert df.meanDen == 100.0 * (raw_den - ref.fat_hu) / (ref.muscle_hu - ref.fat_hu)
    assert df.meanTrab == 100.0 * (raw_trab - ref.fat_hu) / (ref.muscle_hu - ref.fat_hu)


def test_missing_reference_named():
    vol, lm, frame = render_single(body_spec(uniform_heights(20.0)), with_refs=False)
    with pytest.raises(ValueError, match="MUSCLE_REF"):
        study_reference(vol, lm)


def test_affine_invariance(case):
    vol, lm, frame = case
    base = density_features(vol, lm, 1, frame, study_reference(vol, lm))
    for a in (0.5, 2.0):
        for b in (-50.0, 100.0):
            data = vol.data.astype(np.float64) * a + b
            assert np.all(data == np.rint(data))   # transform is exact on ints
            # only labeled tissue feeds the densities; keep the air background
            # inside the HU range
            data[lm.labels == 0] = np.clip(data[lm.labels == 0], -1024, 3071)
            tvol = Volume(geometry=vol.geometry, data=data.astype(np.int16))
            tf = density_features(tvol, lm, 1, frame, study_reference(tvol, lm))
            assert abs(tf.meanDen - base.meanDen) < 1e-9
            assert abs(tf.meanTrab - base.meanTrab) < 1e-9


def test_monotone_trabecular_shift(case):
    vol, lm, frame = case
    mask = trabecular_mask(lm, 1, frame)
    base = density_features(vol, lm, 1, frame, study_reference(vol, lm))
    data = vol.data.copy()
    data[mask] += 25
    shifted = Volume(geometry=vol.geometry, data=data)
    ref = study_reference(shifted, lm)
    df = density_features(shifted, lm, 1, frame, ref)
    mask = trabecular_mask(lm, 1, frame)
    assert shifted.data[mask].mean(dtype=np.float64) == pytest.approx(
        vol.data[mask].mean(dtype=np.float64) + 25.0, abs=1e-9)
    assert df.meanTrab == pytest.approx(
        base.meanTrab + 100.0 * 25.0 / (ref.muscle_hu - ref.fat_hu), abs=1e-9)


def test_density_features_probe_once_per_vertebra(small_cohort, monkeypatch):
    _, manifest, root = small_cohort
    study = manifest.patients[0].studies[0]
    vol = load_volume(root / study.volume_path)
    lm = load_labelmap(root / study.labelmap_path)
    probed = []
    probe = densitometry.trabecular_region

    def counted(lm, label, frame, ref):
        probed.append(label)
        return probe(lm, label, frame, ref)

    monkeypatch.setattr(densitometry, "trabecular_region", counted)
    measured = measured_study_features(vol, lm)
    assert sorted(probed) == sorted(measured) == sorted(lm.vertebra_labels())
