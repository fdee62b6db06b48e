"""Label-map indexing against scipy.ndimage: bounding boxes against
``find_objects``, 26-connected component counts against ``label`` and
``view().index`` against ``np.argwhere``, on random label maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from vcfclass.grids import (FormatError, GridGeometry, LabelMap, _count_26_components,
                            check_vertebra_connectivity)

_FULL_26 = np.ones((3, 3, 3), dtype=bool)


@st.composite
def label_grids(draw):
    """(z, y, x) uint16 grids holding up to four labels, 65535 among the
    values drawn; each label is a random scatter of some density, so labels
    split into several components, and may be painted onto every face."""
    shape = tuple(draw(st.integers(1, 9)) for _ in range(3))
    values = draw(st.lists(st.sampled_from([1, 2, 3, 9, 256, 65535]),
                           max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = np.zeros(shape, dtype=np.uint16)
    for value in values:
        fill = draw(st.sampled_from([0.0, 0.03, 0.15, 0.4, 0.8]))
        labels[rng.random(shape) < fill] = value
        if draw(st.booleans()):         # one voxel on each of the six faces
            for axis in range(3):
                for end in (0, shape[axis] - 1):
                    at = [int(rng.integers(n)) for n in shape]
                    at[axis] = end
                    labels[tuple(at)] = value
    return labels


def _label_map(labels, legend=None):
    nz, ny, nx = labels.shape
    geo = GridGeometry(dims=(nx, ny, nz), spacing=(1, 1, 1), origin=(0, 0, 0))
    if legend is None:
        legend = {int(v): f"VERTEBRA:{i}" for i, v in enumerate(np.unique(labels)) if v}
    return LabelMap(geometry=geo, labels=labels, legend=legend)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(label_grids())
def test_views_match_ndimage_and_argwhere(labels):
    lm = _label_map(labels)
    for value, box in enumerate(ndimage.find_objects(labels), 1):
        if box is None:
            continue
        view = lm.view(value)
        assert view.box == box
        assert np.array_equal(view.mask, labels[view.box] == value)
        want = np.argwhere(labels == value)
        assert np.array_equal(view.index, want)
        assert view.index.dtype == want.dtype and view.index.strides == want.strides
        assert view.voxel_count == want.shape[0]
        _, n = ndimage.label(labels == value, structure=_FULL_26)
        assert _count_26_components(view.flat, lm.dims) == n


@settings(max_examples=100, deadline=None, derandomize=True)
@given(label_grids())
def test_connectivity_check_matches_ndimage(labels):
    lm = _label_map(labels)
    counts = {lab: ndimage.label(labels == lab, structure=_FULL_26)[1]
              for lab in lm.vertebra_labels()}
    split = [(lab, n) for lab, n in counts.items() if n != 1]
    if not split:
        check_vertebra_connectivity(lm)
        return
    lab, n = split[0]
    with pytest.raises(FormatError) as err:
        check_vertebra_connectivity(lm)
    assert str(err.value) == f"vertebra label {lab} splits into {n} 26-connected components"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(label_grids(), st.data())
def test_labels_absent_from_legend_named_as_before(labels, data):
    present = [lab for lab, box in enumerate(ndimage.find_objects(labels), 1)
               if box is not None]
    kept = data.draw(st.lists(st.sampled_from(present), unique=True) if present
                     else st.just([]))
    legend = {lab: "MUSCLE_REF" for lab in kept}
    missing = sorted(set(present) - set(legend))
    if not missing:
        assert _label_map(labels, legend).legend == legend
        return
    with pytest.raises(FormatError) as err:
        _label_map(labels, legend)
    assert str(err.value) == f"labels {missing} present in grid but absent from legend"


def test_all_background_grid_has_empty_views():
    lm = _label_map(np.zeros((3, 4, 5), dtype=np.uint16), {7: "VERTEBRA:12"})
    view = lm.view(7)
    assert view.voxel_count == 0 and view.box == (slice(0, 0),) * 3
    assert view.index.shape == (0, 3) and view.mask.shape == (0, 0, 0)
    with pytest.raises(FormatError, match="^vertebra label 7 is absent from the grid$"):
        check_vertebra_connectivity(lm)


@pytest.mark.parametrize("offset, parts", [
    ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1), ((1, -1, 1), 1),
    ((1, 1, -1), 1), ((0, 2, 0), 2), ((2, 0, 0), 2), ((0, 0, 2), 2), ((1, 2, 1), 2),
])
def test_two_voxels_join_only_as_26_neighbours(offset, parts):
    labels = np.zeros((5, 5, 5), dtype=np.uint16)
    labels[1, 2, 2] = 1
    labels[tuple(np.add((1, 2, 2), offset))] = 1
    assert _count_26_components(_label_map(labels).view(1).flat, (5, 5, 5)) == parts


def test_runs_on_facing_x_ends_of_adjacent_rows_stay_apart():
    # (y, x = nx - 1) and (y + 1, x = 0) are consecutive flat indices, the
    # last row of a plane is followed by the first row of the next one, and
    # rows 0 and ny - 1 of one plane are ny - 1 rows apart, as (z + 1, y - 1)
    # is from (z, y).
    labels = np.zeros((2, 3, 4), dtype=np.uint16)
    labels[0, 0, 3] = labels[0, 1, 0] = 1
    labels[0, 2, 3] = labels[1, 0, 0] = 2
    labels[1, 0, 1] = labels[1, 2, 1] = 3
    lm = _label_map(labels)
    for label in (1, 2, 3):
        assert _count_26_components(lm.view(label).flat, lm.dims) == 2

