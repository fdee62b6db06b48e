import numpy as np
import pytest

from helpers import (WORLD_FRAME, body_spec, column_extents, reference_generate_cohort,
                     reference_render_vertebra, render_vertebra, single_vertebra_grid,
                     tree_hash, wedge_heights)
from vcfclass import parallel, phantom
from vcfclass.frames import make_frame, vertebra_frame
from vcfclass.grids import GridGeometry, load_labelmap, load_volume
from vcfclass.manifest import NEOPLASTIC, OSTEOPOROTIC
from vcfclass.morphometry import (arc_index, cell_heights, cell_index,
                                  column_table, regional_summaries)
from vcfclass.phantom import (ANTERIOR_LESION_CELLS, CohortSpec, FocalLesion,
                              N_CELLS, ProgressionModel, VertebraSpec, advance,
                              _HeightWeights, generate_cohort, uniform_heights)


def test_uniform_columns_span_target():
    spec = body_spec(uniform_heights(20.0))
    _, lab = render_vertebra(spec, WORLD_FRAME, single_vertebra_grid(), label=1)
    extents = column_extents(lab, 1, 1.0)
    assert extents.size > 400
    assert np.all(np.abs(extents - 20.0) <= 1.0)


def test_wedge_columns_follow_cell_heights():
    # Column-extent oracle: anterior mid-sagittal columns span ~10, posterior ~20.
    spec = body_spec(wedge_heights(10.0, 20.0))
    grid = single_vertebra_grid()
    _, lab = render_vertebra(spec, WORLD_FRAME, grid, label=1)
    body = lab == 1
    xs = grid.axis_coords(0)
    ys = grid.axis_coords(1)
    ix0 = int(np.argmin(np.abs(xs)))
    for y_target, expected in ((0.85 * 16, 10.0), (-0.85 * 16, 20.0)):
        iy = int(np.argmin(np.abs(ys - y_target)))
        zs = np.flatnonzero(body[:, iy, ix0])
        measured = (zs.max() - zs.min()) + 1.0
        assert abs(measured - expected) <= 1.0


def test_heights_exact_at_cell_centers():
    # Ground-truth consistency: near each cell center the rendered column
    # spans the interpolated target at the column's own position within one
    # slice spacing (the interpolant equals the cell target exactly at the
    # center, verified separately in test_height_field_matches_cells_at_centers).
    rng = np.random.default_rng(3)
    heights = tuple(rng.uniform(12.0, 24.0, N_CELLS))
    spec = body_spec(heights)
    grid = single_vertebra_grid()
    _, lab = render_vertebra(spec, WORLD_FRAME, grid, label=1)
    body = lab == 1
    r_ap, r_lr = spec.body_radii
    node1, node2 = 0.5, 5.0 / 6.0
    xs, ys = grid.axis_coords(0), grid.axis_coords(1)
    for cell in range(N_CELLS):
        if cell == 0:
            rho, theta = 0.0, 0.0
        else:
            rho = node1 if cell <= 8 else node2
            theta = ((cell - 1) % 8) * np.pi / 4.0
        # invert (rho, theta): a along +ap, l with clockwise azimuth
        boundary = 1.0 / np.sqrt((np.cos(theta) / r_ap) ** 2 + (np.sin(theta) / r_lr) ** 2)
        a = rho * boundary * np.cos(theta)
        l = -rho * boundary * np.sin(theta)
        iy = int(np.argmin(np.abs(ys - a)))   # ap axis is +y
        ix = int(np.argmin(np.abs(xs + l)))   # lr axis is -x
        zs = np.flatnonzero(body[:, iy, ix])
        measured = (zs.max() - zs.min()) + 1.0
        # target at the column's actual in-plane position
        ca, cl = ys[iy], -xs[ix]
        col_rho = np.sqrt((ca / r_ap) ** 2 + (cl / r_lr) ** 2)
        col_theta = np.arctan2(-cl, ca)
        target = float(_HeightWeights(np.array([col_rho]),
                                      np.array([col_theta]))(spec.cell_heights)[0])
        assert abs(measured - target) <= 1.0, f"cell {cell}"
        assert abs(target - heights[cell]) <= 2.5, f"cell {cell} interpolation drift"


def test_trabecular_interior_exact():
    spec = body_spec(uniform_heights(20.0), trabecular_hu=150, cortical_hu=400,
                     cortical_thickness=3.0)
    hu, lab = render_vertebra(spec, WORLD_FRAME, single_vertebra_grid(), label=1)
    from scipy import ndimage
    body = lab == 1
    depth = ndimage.distance_transform_edt(body, sampling=(1, 1, 1))
    assert np.all(hu[body & (depth > 3.0 + 1e-6)] == 150.0)
    assert np.all(hu[body & (depth <= 3.0 + 1e-6)] == 400.0)


def test_focal_lesion_rendered_in_cells():
    deltas = tuple(120.0 if c in ANTERIOR_LESION_CELLS else 0.0
                   for c in range(N_CELLS))
    spec = body_spec(uniform_heights(20.0), cell_hu_delta=deltas)
    grid = single_vertebra_grid()
    hu, lab = render_vertebra(spec, WORLD_FRAME, grid, label=1)
    body = lab == 1
    assert set(np.unique(hu[body])) == {150.0, 270.0, 400.0}
    # anterior deep voxel reads the lesion value, posterior reads baseline
    ys = grid.axis_coords(1)
    iy_ant = int(np.argmin(np.abs(ys - 6.0)))
    iy_post = int(np.argmin(np.abs(ys + 6.0)))
    ix0 = int(np.argmin(np.abs(grid.axis_coords(0))))
    iz0 = int(np.argmin(np.abs(grid.axis_coords(2))))
    assert hu[iz0, iy_ant, ix0] == 270.0
    assert hu[iz0, iy_post, ix0] == 150.0


def _grid_about_origin(spacing, shift):
    """A grid covering +-24 x +-24 x +-22 mm, its origin moved by ``shift``
    mm; with no shift and 1 mm spacing, voxel centers land exactly on the
    ellipse's ends (rho == 1)."""
    half = (24.0, 24.0, 22.0)
    return GridGeometry(dims=tuple(int(2 * h / s) + 1 for h, s in zip(half, spacing)),
                        spacing=spacing,
                        origin=tuple(-h + d for h, d in zip(half, shift)))


_NONE = (0.0,) * N_CELLS
_LESION = tuple(90.0 if c in ANTERIOR_LESION_CELLS else 0.0 for c in range(N_CELLS))
_ROTATED = make_frame((0.0, 0.0, 0.0), (0, 0, 1),
                      (-np.sin(np.deg2rad(30.0)), np.cos(np.deg2rad(30.0)), 0.0))
# Upright, turned about +z by the anterior hint (0.1, 1, 0), centred off the lattice.
_TURNED = make_frame((0.4, -0.3, 0.2), (0, 0, 1), (0.1, 1.0, 0.0))
_OFF = (0.3, -0.2, 0.1)


@pytest.mark.parametrize("spacing, shift, thickness, heights, deltas, noise, frame", [
    ((1.0, 1.0, 1.0), (0, 0, 0), 3.0, uniform_heights(20.0), _NONE, 0.0, WORLD_FRAME),
    ((0.9, 1.1, 0.7), _OFF, 3.0, wedge_heights(10.0, 20.0), _NONE, 0.0, WORLD_FRAME),
    ((2.0, 0.8, 1.0), _OFF, 3.0, wedge_heights(12.0, 18.0), _LESION, 6.0, WORLD_FRAME),
    ((1.0, 1.0, 1.0), (0, 0, 0), 3.0, uniform_heights(20.0), _NONE, 0.0, _ROTATED),
    ((1.1, 0.9, 1.3), _OFF, 2.2, wedge_heights(12.0, 20.0), _LESION, 6.0, _TURNED),
    # thicknesses on a lattice distance: 1 x 2.0 and 4 x 0.5, 2 x 1.25, the
    # (3, 4, 0) offset at 1 mm, and 3 x 1.1, which rounds to above 3.3
    ((0.5, 2.0, 1.5), _OFF, 2.0, uniform_heights(18.0), _LESION, 0.0, WORLD_FRAME),
    ((1.25, 1.25, 1.0), _OFF, 2.5, uniform_heights(20.0), _NONE, 0.0, WORLD_FRAME),
    ((1.25, 1.25, 1.25), (0, 0, 0), 2.5, wedge_heights(14.0, 20.0), _LESION, 6.0,
     WORLD_FRAME),
    ((1.0, 1.0, 1.0), _OFF, 5.0, uniform_heights(20.0), _NONE, 0.0, WORLD_FRAME),
    ((1.1, 0.9, 1.1), _OFF, 3.3, uniform_heights(20.0), _NONE, 0.0, WORLD_FRAME),
    # 5e-7 mm short of a lattice distance: the 1e-6 mm margin still reaches it
    ((1.0, 1.0, 1.0), _OFF, 3.0 - 5e-7, uniform_heights(20.0), _NONE, 0.0, WORLD_FRAME),
])
def test_render_matches_distance_transform_reference(spacing, shift, thickness, heights,
                                                     deltas, noise, frame):
    spec = body_spec(heights, cortical_thickness=thickness, noise_sd=noise,
                     cell_hu_delta=deltas)
    grid = _grid_about_origin(spacing, shift)
    hu, lab = render_vertebra(spec, frame, grid, label=3,
                              rng=np.random.default_rng(11))
    ref_hu, ref_lab = reference_render_vertebra(spec, frame, grid, label=3,
                                                rng=np.random.default_rng(11))
    assert np.array_equal(lab, ref_lab)
    assert np.array_equal(hu, ref_hu)


def test_footprint_rejects_tilted_superior_axis():
    tilted = make_frame((0.4, -0.3, 0.2), (0.0, -0.25, 1.0), (0.1, 1.0, 0.0))
    with pytest.raises(ValueError, match=r"superior axis \+z, got \(0\.0, -0\.24"):
        phantom._Footprint(body_spec(uniform_heights(20.0)), tilted,
                           _grid_about_origin((1.0, 1.0, 1.0), _OFF))


def test_body_exceeding_grid_rejected():
    grid = GridGeometry(dims=(20, 20, 20), spacing=(1, 1, 1),
                        origin=(-9.5, -9.5, -9.5))
    with pytest.raises(ValueError, match="bounds"):
        render_vertebra(body_spec(uniform_heights(20.0)), WORLD_FRAME, grid)


@pytest.mark.parametrize("dims, origin", [
    ((49, 49, 20), (-24.0, -24.0, -9.5)),     # 20 mm tall body, 20 z planes
    ((49, 30, 44), (-24.0, -14.5, -21.5)),    # anterior-posterior radius 16 mm
    ((24, 49, 44), (-11.5, -24.0, -21.5)),    # left-right radius 13 mm
])
def test_body_reaching_one_pair_of_faces_rejected(dims, origin):
    grid = GridGeometry(dims=dims, spacing=(1, 1, 1), origin=origin)
    with pytest.raises(ValueError, match="bounds"):
        render_vertebra(body_spec(uniform_heights(20.0)), WORLD_FRAME, grid)


def test_noise_requires_rng_and_is_seeded():
    spec = body_spec(uniform_heights(20.0), noise_sd=5.0)
    grid = single_vertebra_grid()
    with pytest.raises(ValueError, match="generator"):
        render_vertebra(spec, WORLD_FRAME, grid)
    hu1, _ = render_vertebra(spec, WORLD_FRAME, grid,
                             rng=np.random.default_rng(9))
    hu2, _ = render_vertebra(spec, WORLD_FRAME, grid,
                             rng=np.random.default_rng(9))
    assert np.array_equal(hu1, hu2)


# ---------------------------------------------------------------------------
# advance

def flat_model(rate, trab_rate=0.0, kind=OSTEOPOROTIC, lesion=None):
    return ProgressionModel(kind=kind, height_rate=(rate,) * N_CELLS,
                            trabecular_rate=trab_rate, focal_lesion=lesion)


def test_advance_identity_at_zero_dt():
    spec = body_spec(uniform_heights(20.0))
    assert advance(spec, flat_model(-6.0, -20.0), 0.0) == spec


def test_advance_arithmetic():
    spec = body_spec(uniform_heights(20.0))
    out = advance(spec, flat_model(-6.0), 0.5)
    assert out.cell_heights == (17.0,) * N_CELLS


def test_advance_floors_at_1mm():
    spec = body_spec((2.0,) * N_CELLS)
    out = advance(spec, flat_model(-6.0), 1.0)
    assert out.cell_heights == (1.0,) * N_CELLS


def test_advance_applies_lesion_and_trab_rate():
    lesion = FocalLesion(cells=(0, 1), hu_per_year=100.0)
    model = flat_model(-1.0, trab_rate=4.0, kind=NEOPLASTIC, lesion=lesion)
    out = advance(body_spec(uniform_heights(20.0)), model, 0.5)
    assert out.trabecular_hu == 152.0
    assert out.cell_hu_delta[0] == 50.0 and out.cell_hu_delta[1] == 50.0
    assert out.cell_hu_delta[2] == 0.0


def test_lesion_only_for_neoplastic():
    with pytest.raises(ValueError, match="neoplastic"):
        flat_model(-1.0, kind=OSTEOPOROTIC,
                   lesion=FocalLesion(cells=(0,), hu_per_year=10.0))


# ---------------------------------------------------------------------------
# cohort generation

def test_cohort_deterministic(tmp_path):
    spec = CohortSpec(n_patients=2, studies_per_patient=2, seed=42,
                      spacing=(2.0, 2.0, 2.0))
    generate_cohort(spec, tmp_path / "a")
    generate_cohort(spec, tmp_path / "b")
    assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")


# Recorded from the distance-transform renderer (the long-spine cohort from
# the per-study writer); any change to a cohort's files (volumes, label maps,
# manifest) changes these digests.
@pytest.mark.parametrize("kwargs, digest", [
    ({"seed": 42},
     "fe2f1ff9ecac5e9a2e183ee58704f2984e002a9a0eb906fc6f142f07bd570d0f"),
    ({"seed": 5, "spacing": (0.9, 1.1, 0.7)},
     "eeb3264432a30e7949f6377bb3b1080c948cc92d748d18fbe2fada8c9100111f"),
    ({"seed": 3, "n_patients": 1, "vertebrae_per_patient": 12},
     "a6757ce12258ee90d25210b326e47b6dd406db0d514f91fe92a5a08327c9e7ba"),
])
def test_cohort_bytes_pinned(tmp_path, kwargs, digest):
    generate_cohort(CohortSpec(**{"n_patients": 2, "studies_per_patient": 2, **kwargs}),
                    tmp_path)
    assert tree_hash(tmp_path) == digest


@pytest.mark.parametrize("kwargs", [
    {"seed": 7},
    {"seed": 7, "spacing": (0.9, 1.1, 0.7)},
    {"seed": 12, "spacing": (0.6, 1.7, 2.0)},
    # heights reach the 1 mm floor, so later studies' own crops are shorter
    {"seed": 7, "studies_per_patient": (2, 5), "study_interval": 2.0},
    {"seed": 7, "noise_sd": 0.0},
    {"seed": 7, "n_patients": 1, "studies_per_patient": 2, "vertebrae_per_patient": 12},
])
def test_cohort_matches_per_study_writer(tmp_path, kwargs):
    spec = CohortSpec(**{"n_patients": 3, "studies_per_patient": 3, **kwargs})
    generate_cohort(spec, tmp_path / "footprints")
    reference_generate_cohort(spec, tmp_path / "per_study")
    assert tree_hash(tmp_path / "footprints") == tree_hash(tmp_path / "per_study")


def test_footprint_built_once_per_vertebra_slot(tmp_path, monkeypatch):
    # 3 patients x 3 slots: one footprint each. Per patient the unfractured
    # slot keeps one spec, so it is eroded once; the 2 fractured slots are
    # eroded in each of the 4 studies: 3 x (1 + 2 x 4) = 27 erosions.
    calls = {"_Footprint": 0, "erode_by_ball": 0}
    for name in calls:
        def counted(*args, _fn=getattr(phantom, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(phantom, name, counted)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)   # count in this process
    generate_cohort(CohortSpec(n_patients=3, studies_per_patient=4, vertebrae_per_patient=3,
                               spacing=(2.0, 2.0, 2.0)), tmp_path)
    assert calls == {"_Footprint": 9, "erode_by_ball": 27}


def test_fraction_zero_has_no_neoplastic(tmp_path):
    spec = CohortSpec(n_patients=3, studies_per_patient=2, seed=1,
                      fraction_neoplastic=0.0, spacing=(2.0, 2.0, 2.0))
    manifest = generate_cohort(spec, tmp_path)
    truths = {t for s in manifest.all_studies() for t in s.vertebra_truth.values()}
    assert NEOPLASTIC not in truths


def test_reference_tissues_fixed_values(small_cohort):
    _, manifest, root = small_cohort
    study = manifest.patients[0].studies[0]
    vol = load_volume(root / study.volume_path)
    lm = load_labelmap(root / study.labelmap_path)
    muscle = lm.label_for_role("MUSCLE_REF")
    fat = lm.label_for_role("FAT_REF")
    assert np.all(vol.data[lm.labels == muscle] == 50)
    assert np.all(vol.data[lm.labels == fat] == -100)


def test_paper_shape_cohort_instance_count(tmp_path):
    # 56 patients x 6 studies x 2 fractured vertebrae = 672, within 10% of 695.
    spec = CohortSpec(n_patients=56, studies_per_patient=6, seed=3,
                      spacing=(2.5, 2.5, 2.5), noise_sd=0.0)
    manifest = generate_cohort(spec, tmp_path)
    n = manifest.fractured_instance_count()
    assert abs(n - 695) <= 0.10 * 695


def test_monotone_progression(small_cohort):
    # Strictly negative height rates: extracted h_avg decreases study-to-study.
    _, manifest, root = small_cohort
    patient = manifest.patients[0]
    label = 2
    series = []
    for study in patient.studies:
        lm = load_labelmap(root / study.labelmap_path)
        frame = vertebra_frame(lm, label)
        ch = cell_heights(column_table(lm, label, frame), label)
        series.append(regional_summaries(ch)["h_avg"])
    assert all(b < a for a, b in zip(series, series[1:])), series


def test_studies_range_sampling(tmp_path):
    spec = CohortSpec(n_patients=4, studies_per_patient=(2, 4), seed=5,
                      spacing=(2.5, 2.5, 2.5))
    manifest = generate_cohort(spec, tmp_path)
    counts = {len(p.studies) for p in manifest.patients}
    assert counts <= {2, 3, 4} and len(counts) > 1


def test_height_field_matches_cells_at_centers():
    rng = np.random.default_rng(0)
    heights = tuple(rng.uniform(5.0, 25.0, N_CELLS))
    spec = body_spec(heights)
    node1, node2 = 0.5, 5.0 / 6.0
    rho = np.array([0.0] + [node1] * 8 + [node2] * 8)
    theta = np.array([0.0] + [k * np.pi / 4 for k in range(8)] * 2)
    assert np.allclose(_HeightWeights(rho, theta)(spec.cell_heights), heights)
    cells = cell_index(rho, arc_index(theta))
    assert list(cells) == list(range(N_CELLS))


def test_vertebra_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        body_spec((0.0,) * N_CELLS)
    with pytest.raises(ValueError, match="cortical"):
        body_spec(uniform_heights(20.0), radii=(2.0, 2.0), cortical_thickness=3.0)
    with pytest.raises(ValueError, match="noise"):
        body_spec(uniform_heights(20.0), noise_sd=-1.0)
    with pytest.raises(ValueError, match="fraction_neoplastic"):
        CohortSpec(fraction_neoplastic=1.5)
    with pytest.raises(ValueError, match="counts"):
        CohortSpec(n_patients=0)


@pytest.mark.parametrize("field, value", [
    ("body_radii", (np.nan, 13.0)),
    ("cell_heights", (20.0,) * (N_CELLS - 1) + (np.inf,)),
    ("trabecular_hu", np.nan),
    ("cortical_hu", np.inf),
    ("cortical_thickness", np.nan),
    ("noise_sd", np.nan),
    ("cell_hu_delta", (np.nan,) + (0.0,) * (N_CELLS - 1)),
])
def test_vertebra_spec_rejects_non_finite(field, value):
    good = dict(level_index=12, body_radii=(16.0, 13.0),
                cell_heights=uniform_heights(20.0), trabecular_hu=150.0,
                cortical_hu=400.0, cortical_thickness=3.0)
    with pytest.raises(ValueError, match=f"VertebraSpec.{field} must be finite"):
        VertebraSpec(**{**good, field: value})


@pytest.mark.parametrize("field, build", [
    ("height_rate", lambda: flat_model(np.inf)),
    ("trabecular_rate", lambda: flat_model(-1.0, trab_rate=np.nan)),
    ("hu_per_year", lambda: FocalLesion(cells=(0,), hu_per_year=np.inf)),
])
def test_progression_rejects_non_finite(field, build):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        build()


@pytest.mark.parametrize("kwargs, message", [
    ({"spacing": (0.0, 1.0, 1.0)}, "spacing"),
    ({"spacing": (1.0, np.inf, 1.0)}, "spacing"),
    ({"spacing": (1.0, 1.0)}, "spacing"),
    ({"noise_sd": -1.0}, "noise_sd"),
    ({"noise_sd": np.nan}, "noise_sd"),
    ({"study_interval": np.inf}, "study_interval"),
    ({"study_interval": np.nan}, "study_interval"),
])
def test_cohort_spec_rejects_bad_geometry_and_noise(kwargs, message):
    with pytest.raises(ValueError, match=message):
        CohortSpec(**kwargs)


@pytest.mark.parametrize("seed", [-1, 2.5, np.float64(3.0)])
def test_cohort_spec_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        CohortSpec(seed=seed)
