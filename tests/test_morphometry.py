import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import WORLD_FRAME, body_spec, reference_cell_heights, render_single
from vcfclass.frames import vertebra_frame
from vcfclass.grids import GridGeometry, LabelMap
from vcfclass.morphometry import (ColumnTable, CompassLayout, assign_cells,
                                  cell_heights, column_table, contrast_features,
                                  regional_summaries, sagittal_heights)
from vcfclass.phantom import uniform_heights

SPACING_Z = 1.0


@pytest.fixture(scope="module")
def uniform_lm(uniform_case):
    return uniform_case[1]


@pytest.fixture(scope="module")
def wedge_lm(wedge_case):
    return wedge_case[1]


# ---------------------------------------------------------------------------
# cell assignment

def test_centroid_column_is_center_cell(uniform_lm):
    cols = column_table(uniform_lm, 1, WORLD_FRAME)
    cells = assign_cells(cols)
    i = int(np.argmin(cols.a ** 2 + cols.l ** 2))
    assert cells[i] == 0


def test_anterior_outer_point_is_cell_9(uniform_lm):
    cols = column_table(uniform_lm, 1, WORLD_FRAME)
    cells = assign_cells(cols)
    i = int(np.argmin((cols.a - 0.9 * 16.0) ** 2 + cols.l ** 2))
    assert cells[i] == 9


def test_left_outer_point_is_cell_15(uniform_lm):
    # +lr is subject-left = arc 6; outer ring cell = 9 + 6.
    cols = column_table(uniform_lm, 1, WORLD_FRAME)
    cells = assign_cells(cols)
    i = int(np.argmin((cols.l - 0.9 * 13.0) ** 2 + cols.a ** 2))
    assert cells[i] == 15


def test_partition_covers_every_column(uniform_lm):
    cols = column_table(uniform_lm, 1, WORLD_FRAME)
    cells = assign_cells(cols)
    assert cells.shape == (cols.n_columns,)
    assert set(np.unique(cells)) <= set(range(17))
    assert int(np.bincount(cells, minlength=17).sum()) == cols.n_columns


def test_ring_areas_match_analytic_sectors():
    # Circular footprint: column count * pixel area vs annulus-sector areas.
    _, lm, _ = render_single(body_spec(uniform_heights(20.0), radii=(20.0, 20.0)))
    cols = column_table(lm, 1, WORLD_FRAME)
    cells = assign_cells(cols)
    pixel = cols.res_a * cols.res_l
    footprint_area = cols.n_columns * pixel
    r1, r2 = 1.0 / 3.0, 2.0 / 3.0
    expected_center = footprint_area * r1 ** 2
    expected_inner_arc = footprint_area * (r2 ** 2 - r1 ** 2) / 8.0
    expected_outer_arc = footprint_area * (1.0 - r2 ** 2) / 8.0
    area_center = float((cells == 0).sum()) * pixel
    assert abs(area_center - expected_center) / expected_center < 0.05
    for arc in range(8):
        inner = float((cells == 1 + arc).sum()) * pixel
        outer = float((cells == 9 + arc).sum()) * pixel
        assert abs(inner - expected_inner_arc) / expected_inner_arc < 0.05
        assert abs(outer - expected_outer_arc) / expected_outer_arc < 0.05


def test_empty_footprint_rejected(uniform_lm):
    with pytest.raises(ValueError, match="absent"):
        column_table(uniform_lm, 99, WORLD_FRAME)


# ---------------------------------------------------------------------------
# cell heights

def test_uniform_cells_all_20(uniform_lm):
    ch = cell_heights(column_table(uniform_lm, 1, WORLD_FRAME), 1)
    assert np.all(np.abs(ch.heights - 20.0) <= SPACING_Z)
    assert float(ch.heights.max() - ch.heights.min()) <= 2 * SPACING_Z


def test_wedge_cells_match_targets(wedge_lm):
    ch = cell_heights(column_table(wedge_lm, 1, WORLD_FRAME), 1)
    assert abs(ch.heights[9] - 10.0) <= SPACING_Z    # outer anterior
    assert abs(ch.heights[1] - 10.0) <= SPACING_Z + 1e-9   # inner anterior
    assert abs(ch.heights[13] - 20.0) <= SPACING_Z   # outer posterior
    assert abs(ch.heights[5] - 20.0) <= SPACING_Z + 1e-9   # inner posterior


@st.composite
def column_tables(draw):
    """Footprints of 1-150 columns with repeated, NaN and near-equal heights,
    so cells hold odd and even counts, ties and too few columns."""
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.choice([1.0, 2.5, 3.0, 1 / 3, 7.25, np.nan], size=n)
    height = base + rng.choice([0.0, 1e-12, 0.1], size=n) * rng.integers(0, 2, size=n)
    return ColumnTable(a=rng.normal(size=n) * 9, l=rng.normal(size=n) * 9, height=height,
                       res_a=1.0, res_l=1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(column_tables())
def test_cell_medians_equal_np_median(cols):
    try:
        want = reference_cell_heights(cols, 1)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            cell_heights(cols, 1)
        return
    got = cell_heights(cols, 1)
    assert got.heights.tobytes() == want.heights.tobytes()


def test_all_cells_missing_rejected():
    # A tiny cross of columns: every cell ends with fewer than 3 columns or
    # fewer than 3 voxels per column.
    geo = GridGeometry(dims=(9, 9, 6), spacing=(1, 1, 1), origin=(0, 0, 0))
    labels = np.zeros((6, 9, 9), dtype=np.uint16)
    labels[2, 4, 4] = 1
    labels[2, 4, 5] = 1
    labels[2, 5, 4] = 1
    lm = LabelMap(geometry=geo, labels=labels, legend={1: "VERTEBRA:12"})
    with pytest.raises(ValueError, match="cells missing for label 1"):
        cell_heights(column_table(lm, 1, WORLD_FRAME), 1)


# ---------------------------------------------------------------------------
# regional summaries

def test_constant_field_summaries(uniform_lm):
    rs = regional_summaries(cell_heights(column_table(uniform_lm, 1, WORLD_FRAME), 1))
    for key, v in rs.items():
        assert abs(v - 20.0) <= SPACING_Z, key


def test_wedge_region_ordering(wedge_lm):
    rs = regional_summaries(cell_heights(column_table(wedge_lm, 1, WORLD_FRAME), 1))
    assert rs["h_a"] < rs["h_avg"] < rs["h_p"]


def test_only_center_cell_present():
    from vcfclass.morphometry import CellHeights
    h = np.full(17, np.nan)
    h[0] = 18.0
    ch = CellHeights(heights=h)
    rs = regional_summaries(ch)
    assert rs["h_c"] == 18.0
    assert np.isnan(rs["h_a"]) and np.isnan(rs["h_p"])
    assert rs["h_avg"] == 18.0
    assert rs["h_avg_5"] == 18.0


# ---------------------------------------------------------------------------
# sagittal heights

def test_uniform_sagittal(uniform_lm):
    sg = sagittal_heights(column_table(uniform_lm, 1, WORLD_FRAME), 1)
    for key in ("Anterior", "Center", "Posterior", "manualMean", "meanH"):
        assert abs(sg[key] - 20.0) <= SPACING_Z, key


def test_wedge_sagittal(wedge_lm):
    sg = sagittal_heights(column_table(wedge_lm, 1, WORLD_FRAME), 1)
    assert abs(sg["Anterior"] - 10.0) <= SPACING_Z
    assert abs(sg["Posterior"] - 20.0) <= SPACING_Z
    assert abs(sg["manualMean"] - 15.0) <= SPACING_Z


def test_biconcave_center_below_anterior():
    heights = tuple([12.0] + [12.0] * 8 + [20.0] * 8)   # sunken middle, tall rim
    _, lm, _ = render_single(body_spec(heights))
    sg = sagittal_heights(column_table(lm, 1, WORLD_FRAME), 1)
    assert sg["Center"] < sg["Anterior"]


def test_empty_sagittal_slab_names_label():
    # Two columns, both more than one column width off the mid-line.
    cols = ColumnTable(a=np.array([0.0, 0.0]), l=np.array([-3.0, 3.0]),
                       height=np.array([10.0, 10.0]), res_a=1.0, res_l=1.0)
    with pytest.raises(ValueError, match="mid-sagittal slab for label 7"):
        sagittal_heights(cols, 7)


# ---------------------------------------------------------------------------
# contrasts

def test_contrasts_symmetric_stack():
    c = contrast_features({10: 20.0, 11: 20.0, 12: 20.0})
    assert c[11] == {"contrastP": 1.0, "contrastN": 1.0, "contrastA": 1.0}


def test_contrasts_collapsed_middle():
    c = contrast_features({10: 20.0, 11: 10.0, 12: 20.0})
    assert c[11] == {"contrastP": 0.5, "contrastN": 0.5, "contrastA": 0.5}


def test_contrast_fallback_at_stack_ends():
    c = contrast_features({10: 20.0, 11: 16.0})
    assert np.isnan(c[10]["contrastP"])
    assert c[10]["contrastA"] == c[10]["contrastN"] == 20.0 / 16.0
    assert np.isnan(c[11]["contrastN"])
    assert c[11]["contrastA"] == c[11]["contrastP"] == 16.0 / 20.0


def test_contrast_zero_neighbor_missing():
    c = contrast_features({10: 20.0, 11: 0.0})
    assert np.isnan(c[10]["contrastN"])
    assert np.isnan(c[10]["contrastA"])


# ---------------------------------------------------------------------------
# invariance properties

def _all_features(lm, frame):
    cols = column_table(lm, 1, frame)
    out = dict(regional_summaries(cell_heights(cols, 1)))
    out.update(sagittal_heights(cols, 1))
    return out


def test_whole_voxel_translation_invariance(uniform_case, wedge_case):
    for _, lm, _ in (uniform_case, wedge_case):
        frame0 = vertebra_frame(lm, 1)
        base = _all_features(lm, frame0)
        g = lm.geometry
        moved = LabelMap(
            geometry=GridGeometry(
                dims=g.dims, spacing=g.spacing,
                origin=(g.origin[0] + 7 * g.spacing[0],
                        g.origin[1] - 3 * g.spacing[1],
                        g.origin[2] + 2 * g.spacing[2])),
            labels=lm.labels, legend=lm.legend)
        frame1 = vertebra_frame(moved, 1)
        shifted = _all_features(moved, frame1)
        for key in base:
            assert abs(shifted[key] - base[key]) < 1e-9, key


def test_doubling_heights_scales_features():
    # Integer heights on an aligned grid measure exactly, so doubling is exact
    # and contrast ratios are preserved to fp precision.
    from vcfclass.grids import GridGeometry
    from helpers import render_vertebra

    def stack(scale):
        grid = GridGeometry(dims=(49, 49, 120), spacing=(1.0, 1.0, 1.0),
                            origin=(-24.0 + 0.5, -24.0 + 0.5, 0.5))
        hu = np.zeros((120, 49, 49))
        labels = np.zeros((120, 49, 49), dtype=np.uint16)
        legend = {}
        heights = {10: 14.0 * scale, 11: 20.0 * scale, 12: 17.0 * scale}
        from vcfclass.frames import make_frame
        for j, (level, h) in enumerate(heights.items()):
            frame = make_frame((0.0, 0.0, 20.0 + 38.0 * j), (0, 0, 1), (0, 1, 0))
            vhu, vlab = render_vertebra(body_spec(uniform_heights(h)), frame,
                                        grid, label=j + 1)
            sel = vlab > 0
            hu[sel] = vhu[sel]
            labels[sel] = j + 1
            legend[j + 1] = f"VERTEBRA:{level}"
        return LabelMap(geometry=grid, labels=labels, legend=legend)

    results = {}
    for scale in (1.0, 2.0):
        lm = stack(scale)
        h_avg = {}
        feats = {}
        for label, level in ((1, 10), (2, 11), (3, 12)):
            frame = vertebra_frame(lm, label)
            feats[level] = _all_features(lm, frame)
            h_avg[level] = feats[level]["h_avg"]
        results[scale] = (feats, contrast_features(h_avg))

    feats1, con1 = results[1.0]
    feats2, con2 = results[2.0]
    for level in (10, 11, 12):
        for key in feats1[level]:
            assert abs(feats2[level][key] - 2.0 * feats1[level][key]) <= SPACING_Z, key
        for key in ("contrastP", "contrastN", "contrastA"):
            a, b = con1[level][key], con2[level][key]
            if np.isnan(a):
                assert np.isnan(b)
            else:
                assert abs(a - b) < 1e-6


def test_layout_validation():
    with pytest.raises(ValueError):
        CompassLayout(r1_fraction=0.7, r2_fraction=0.5)
    with pytest.raises(ValueError):
        CompassLayout(r1_fraction=0.0, r2_fraction=0.5)
