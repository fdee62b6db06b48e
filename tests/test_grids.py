import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import ndimage

from helpers import reference_check_vertebra_connectivity
from vcfclass import grids
from vcfclass.densitometry import _ball_structure
from vcfclass.grids import (FormatError, GridGeometry, LabelMap, Volume,
                            check_vertebra_connectivity, erode_by_ball,
                            load_labelmap, load_volume, save_labelmap,
                            save_volume)
from vcfclass.phantom import CohortSpec, _shell_ball, generate_cohort


def write_header(path, dims=(4, 4, 4), data_file=None, dtype="int16le",
                 schema=1, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    data_file = data_file or (path.name + ".raw")
    path.write_text(
        f"schema_version {schema}\n"
        f"dims {dims[0]} {dims[1]} {dims[2]}\n"
        f"spacing_mm {spacing[0]!r} {spacing[1]!r} {spacing[2]!r}\n"
        f"origin_mm {origin[0]!r} {origin[1]!r} {origin[2]!r}\n"
        f"data_file {data_file}\n"
        f"dtype {dtype}\n")
    return path.parent / data_file


def test_zero_volume_loads(tmp_path):
    hdr = tmp_path / "zero.vvol"
    raw = write_header(hdr)
    raw.write_bytes(bytes(128))
    vol = load_volume(hdr)
    assert vol.dims == (4, 4, 4)
    assert vol.data.shape == (4, 4, 4)
    assert np.all(vol.data == 0)


def test_payload_size_mismatch(tmp_path):
    hdr = tmp_path / "bad.vvol"
    raw = write_header(hdr)
    raw.write_bytes(bytes(127))
    with pytest.raises(FormatError, match="127 bytes"):
        load_volume(hdr)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_volume(tmp_path / "nope.vvol")


def test_missing_payload(tmp_path):
    hdr = tmp_path / "lonely.vvol"
    write_header(hdr)
    with pytest.raises(FileNotFoundError):
        load_volume(hdr)


def test_nonpositive_spacing_rejected(tmp_path):
    hdr = tmp_path / "sp.vvol"
    raw = write_header(hdr, spacing=(1.0, 0.0, 1.0))
    raw.write_bytes(bytes(128))
    with pytest.raises(FormatError, match="spacing"):
        load_volume(hdr)


@pytest.mark.parametrize("field, spacing, origin", [
    ("spacing", (1.0, float("nan"), 1.0), (0.0, 0.0, 0.0)),
    ("spacing", (1.0, 1.0, float("inf")), (0.0, 0.0, 0.0)),
    ("origin", (1.0, 1.0, 1.0), (float("nan"), 0.0, 0.0)),
])
def test_non_finite_geometry_rejected(tmp_path, field, spacing, origin):
    hdr = tmp_path / "nf.vvol"
    raw = write_header(hdr, spacing=spacing, origin=origin)
    raw.write_bytes(bytes(128))
    with pytest.raises(FormatError,
                       match=f"^{re.escape(str(hdr))}: {field} must be three finite"):
        load_volume(hdr)


@pytest.mark.parametrize("key, value, kind", [
    ("dims", "4.5 4 4", "int"),
    ("spacing_mm", "1.0 one 1.0", "float"),
    ("origin_mm", "0.0 0.0 0,5", "float"),
    ("schema_version", "v1", "int"),
])
def test_non_numeric_header_values_rejected(tmp_path, key, value, kind):
    hdr = tmp_path / "nn.vvol"
    raw = write_header(hdr)
    raw.write_bytes(bytes(128))
    lines = [f"{key} {value}" if line.split()[0] == key else line
             for line in hdr.read_text().splitlines()]
    hdr.write_text("\n".join(lines) + "\n")
    message = f"{hdr}: {key} needs {kind} values, got '{value}'"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_volume(hdr)


@pytest.mark.parametrize("value", ["4.5", "x", "-1"])
def test_non_integer_legend_label_rejected(tmp_path, value):
    hdr = tmp_path / "lab.vlbl"
    raw = write_header(hdr, dtype="uint16le")
    raw.write_bytes(bytes(128))
    hdr.write_text(hdr.read_text() + f"label {value} VERTEBRA:12\n")
    with pytest.raises(FormatError, match=r":7: legend line needs 'label <int> <role>'$"):
        load_labelmap(hdr)


@pytest.mark.parametrize("role", ["x1", "vertebra:12", "MUSCLE", "CANAL:1"])
def test_unknown_legend_role_rejected(tmp_path, role):
    hdr = tmp_path / "lab.vlbl"
    raw = write_header(hdr, dtype="uint16le")
    raw.write_bytes(bytes(128))
    hdr.write_text(hdr.read_text() + f"label 2 {role}\n")
    message = f"{hdr}:7: unknown legend role {role!r}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_labelmap(hdr)


def test_unsupported_schema_version(tmp_path):
    hdr = tmp_path / "v9.vvol"
    raw = write_header(hdr, schema=9)
    raw.write_bytes(bytes(128))
    with pytest.raises(FormatError, match="schema_version"):
        load_volume(hdr)


def test_hu_range_enforced():
    geo = GridGeometry(dims=(2, 2, 2), spacing=(1, 1, 1), origin=(0, 0, 0))
    with pytest.raises(FormatError, match="HU"):
        Volume(geometry=geo, data=np.full(8, -2000, dtype=np.int16))


LINE = GridGeometry(dims=(2, 1, 1), spacing=(1, 1, 1), origin=(0, 0, 0))


@pytest.mark.parametrize("make, message", [
    (lambda: Volume(LINE, [65636, 0]), "data holds 65636, which int16"),
    (lambda: Volume(LINE, [100.9, 1.7]), "data holds 100.9, which int16"),
    (lambda: LabelMap(LINE, [65537, 0], {1: "CANAL"}), "labels holds 65537, which uint16"),
    (lambda: LabelMap(LINE, [-1, 0], {65535: "CANAL"}), "labels holds -1, which uint16"),
    (lambda: GridGeometry(dims=(2.9, 1, 1), spacing=(1, 1, 1), origin=(0, 0, 0)),
     "dims must be three positive counts, got (2.9, 1, 1)"),
], ids=["wraps-int16", "fractions", "wraps-uint16", "negative-label", "fractional-dims"])
def test_constructors_refuse_casts_that_change_values(make, message):
    # Each of these used to store another value than it was given.
    with pytest.raises(FormatError, match=re.escape(message)):
        make()


def test_constructors_take_exact_casts_and_keep_stored_dtypes():
    assert Volume(LINE, [100.0, -3]).data.tolist() == [[[100, -3]]]
    assert LabelMap(LINE, np.array([True, False]), {1: "CANAL"}).labels.tolist() == [[[1, 0]]]
    assert GridGeometry(dims=(2.0, np.int64(1), 1), spacing=(1, 1, 1),
                        origin=(0, 0, 0)).dims == (2, 1, 1)
    data = np.array([7, -7], dtype="<i2")        # what load_volume passes
    assert np.shares_memory(Volume(LINE, data).data, data)


def test_volume_roundtrip_bit_identical(small_cohort, tmp_path):
    _, manifest, root = small_cohort
    study = manifest.patients[0].studies[0]
    src = root / study.volume_path
    vol = load_volume(src)
    dst = tmp_path / src.name
    save_volume(vol, dst)
    assert dst.read_bytes() == src.read_bytes()
    assert (tmp_path / (src.name + ".raw")).read_bytes() == \
        (root / (study.volume_path + ".raw")).read_bytes()
    again = load_volume(dst)
    assert again.geometry == vol.geometry
    assert np.array_equal(again.data, vol.data)


def test_labelmap_roundtrip_and_geometry(small_cohort, tmp_path):
    _, manifest, root = small_cohort
    study = manifest.patients[0].studies[0]
    vol = load_volume(root / study.volume_path)
    lm = load_labelmap(root / study.labelmap_path)
    assert lm.geometry == vol.geometry
    dst = tmp_path / Path(study.labelmap_path).name
    save_labelmap(lm, dst)
    assert dst.read_bytes() == (root / study.labelmap_path).read_bytes()


def test_all_zero_labelmap_valid():
    geo = GridGeometry(dims=(3, 3, 3), spacing=(1, 1, 1), origin=(0, 0, 0))
    lm = LabelMap(geometry=geo, labels=np.zeros(27, dtype=np.uint16), legend={})
    assert lm.vertebra_labels() == []


def test_label_missing_from_legend_rejected():
    geo = GridGeometry(dims=(3, 3, 3), spacing=(1, 1, 1), origin=(0, 0, 0))
    labels = np.zeros(27, dtype=np.uint16)
    labels[5] = 7
    with pytest.raises(FormatError, match=r"\[7\]"):
        LabelMap(geometry=geo, labels=labels, legend={})
    # more than one lookup chunk, the stray label in the last voxel
    geo = GridGeometry(dims=(64, 64, 5), spacing=(1, 1, 1), origin=(0, 0, 0))
    assert geo.voxel_count > grids._LEGEND_CHUNK
    labels = np.ones(geo.voxel_count, dtype=np.uint16)
    labels[-1] = 9
    message = "labels [9] present in grid but absent from legend"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        LabelMap(geometry=geo, labels=labels, legend={1: "CANAL"})


@pytest.mark.parametrize("label", [0, 65536, 70000])
def test_legend_label_out_of_range_rejected(label):
    geo = GridGeometry(dims=(3, 3, 3), spacing=(1, 1, 1), origin=(0, 0, 0))
    message = f"legend label {label} lies outside 1..65535"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        LabelMap(geometry=geo, labels=np.zeros(27, dtype=np.uint16),
                 legend={1: "VERTEBRA:12", label: "CANAL"})


def test_legend_label_zero_in_file_rejected(tmp_path):
    hdr = tmp_path / "lab.vlbl"
    raw = write_header(hdr, dtype="uint16le")
    raw.write_bytes(bytes(128))
    hdr.write_text(hdr.read_text() + "label 0 CANAL\n")
    message = f"{hdr}: legend label 0 lies outside 1..65535"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_labelmap(hdr)


def test_disconnected_vertebra_rejected(tmp_path):
    geo = GridGeometry(dims=(5, 5, 5), spacing=(1, 1, 1), origin=(0, 0, 0))
    labels = np.zeros((5, 5, 5), dtype=np.uint16)
    labels[0, 0, 0] = 1
    labels[4, 4, 4] = 1
    lm = LabelMap(geometry=geo, labels=labels, legend={1: "VERTEBRA:12"})
    path = tmp_path / "split.vlbl"
    save_labelmap(lm, path)
    with pytest.raises(FormatError, match="components"):
        load_labelmap(path)


def test_absent_vertebra_label_named():
    geo = GridGeometry(dims=(5, 5, 5), spacing=(1, 1, 1), origin=(0, 0, 0))
    labels = np.zeros((5, 5, 5), dtype=np.uint16)
    labels[1:3, 1:3, 1:3] = 1
    lm = LabelMap(geometry=geo, labels=labels,
                  legend={1: "VERTEBRA:12", 2: "VERTEBRA:13"})
    with pytest.raises(FormatError, match="^vertebra label 2 is absent from the grid$"):
        check_vertebra_connectivity(lm)


def test_vertebrae_touching_the_array_edges_pass():
    geo = GridGeometry(dims=(5, 5, 5), spacing=(1, 1, 1), origin=(0, 0, 0))
    labels = np.zeros((5, 5, 5), dtype=np.uint16)
    labels[0:2, 0:2, 0:3] = 1          # box starts at index 0 on every axis
    labels[3:5, 2:5, 3:5] = 2          # box ends at the last index on every axis
    lm = LabelMap(geometry=geo, labels=labels,
                  legend={1: "VERTEBRA:12", 2: "VERTEBRA:13"})
    assert lm.view(1).box == (slice(0, 2), slice(0, 2), slice(0, 3))
    assert lm.view(2).box == (slice(3, 5), slice(2, 5), slice(3, 5))
    check_vertebra_connectivity(lm)
    reference_check_vertebra_connectivity(lm)
    for lab in (1, 2):
        assert np.array_equal(lm.view(lab).index, np.argwhere(labels == lab))


def test_split_vertebra_inside_its_box_rejected():
    geo = GridGeometry(dims=(7, 7, 7), spacing=(1, 1, 1), origin=(0, 0, 0))
    labels = np.zeros((7, 7, 7), dtype=np.uint16)
    labels[1:3, 1:3, 1:3] = 1
    labels[4:6, 4:6, 4:6] = 1          # same box, no 26-neighbour in between
    labels[2, 2, 3] = 2                # another label inside the box
    lm = LabelMap(geometry=geo, labels=labels,
                  legend={1: "VERTEBRA:12", 2: "VERTEBRA:13"})
    assert lm.view(1).box == (slice(1, 6),) * 3
    message = "vertebra label 1 splits into 2 26-connected components"
    with pytest.raises(FormatError, match=message):
        check_vertebra_connectivity(lm)
    with pytest.raises(FormatError, match=message):
        reference_check_vertebra_connectivity(lm)


def _centred_rows(draw_widths, half):
    """A (z, y, x) structure whose (dz, dy) rows are the runs |dx| <= w of
    the given half-widths, -1 leaving a row empty."""
    hz, hy, hx = half
    widths = np.asarray(draw_widths).reshape(2 * hz + 1, 2 * hy + 1)
    dx = np.abs(np.arange(-hx, hx + 1))
    return dx[None, None, :] <= widths[:, :, None]


@st.composite
def erosion_cases(draw, kinds=("shell", "trabecular", "rows")):
    spacing = tuple(draw(st.floats(0.5, 2.0)) for _ in range(3))      # x, y, z
    radius = draw(st.sampled_from([0.0, 1.25, 2.5, 3.0, 3.3, 5.0]))
    kind = draw(st.sampled_from(kinds))
    if kind == "shell":
        ball = _shell_ball(radius, spacing[::-1])
    elif kind == "trabecular":
        ball = _ball_structure(radius, spacing)
    else:       # any structure made of centred rows, not only lattice balls
        half = tuple(draw(st.integers(0, 3)) for _ in range(3))
        n_rows = (2 * half[0] + 1) * (2 * half[1] + 1)
        ball = _centred_rows(draw(st.lists(st.integers(-1, half[2]), min_size=n_rows,
                                           max_size=n_rows)), half)
    shape = tuple(draw(st.integers(1, 14)) for _ in range(3))         # z, y, x
    fill = draw(st.sampled_from([0.5, 0.9, 0.99, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random(shape) < fill
    return mask, ball


@settings(max_examples=300, deadline=None, derandomize=True)
@given(erosion_cases())
def test_erode_by_ball_matches_binary_erosion(case):
    mask, ball = case
    got = erode_by_ball(mask, ball)
    want = ndimage.binary_erosion(mask, structure=ball)
    assert got.dtype == bool and got.shape == mask.shape
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(erosion_cases(kinds=("shell", "trabecular")))
def test_empty_faces_make_the_border_rule_moot(case):
    # The phantom's shell erodes bodies that never reach a face of their
    # grid. A lattice ball holds every shorter offset along each axis, so an
    # offset reaching past a face has a shorter one landing on the face,
    # which is background: space beyond the grid may then count as body.
    mask, ball = case
    mask = np.pad(mask, 1)
    assert np.array_equal(erode_by_ball(mask, ball),
                          ndimage.binary_erosion(mask, structure=ball, border_value=1))


def test_a_body_voxel_on_a_face_tells_the_border_rules_apart():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:4, 1:4, 1:4] = True
    mask[2, 2, 0] = True                # the one voxel on a face (x = 0)
    ball = _centred_rows([1], (0, 0, 1))            # the x-run |dx| <= 1
    differ = np.zeros_like(mask)
    differ[2, 2, 0] = True
    body_beyond = ndimage.binary_erosion(mask, structure=ball, border_value=1)
    assert np.array_equal(erode_by_ball(mask, ball) ^ body_beyond, differ)


@pytest.mark.parametrize("row", [
    [False, True, True, False, False],       # off centre
    [True, False, True, False, False],       # not one run
    [True, True, True, True, False],         # longer on one side
])
def test_erode_by_ball_rejects_rows_not_centred(row):
    ball = np.zeros((3, 3, 5), dtype=bool)
    ball[1, 1, 2] = True
    ball[0, 2] = row
    with pytest.raises(ValueError, match=r"\(dz, dy\) = \(-1, 1\) is not a run"):
        erode_by_ball(np.ones((4, 4, 4), dtype=bool), ball)


def test_erode_by_ball_rejects_even_extents():
    with pytest.raises(ValueError, match="odd extents"):
        erode_by_ball(np.ones((4, 4, 4), dtype=bool), np.ones((3, 2, 3), dtype=bool))


# ---------------------------------------------------------------------------
# header and payload mutations

@pytest.fixture(scope="module")
def study_grids(tmp_path_factory):
    """The volume and label-map headers of a seed-7 study, with what they load."""
    out = tmp_path_factory.mktemp("grid_src")
    generate_cohort(CohortSpec(n_patients=1, studies_per_patient=1, seed=7), out)
    return {suffix: (out / "P000" / f"S00{suffix}", load(out / "P000" / f"S00{suffix}"))
            for suffix, load in _LOADERS.items()}


_LOADERS = {".vvol": load_volume, ".vlbl": load_labelmap}
_VOXELS = {".vvol": lambda grid: grid.data, ".vlbl": lambda grid: grid.labels}
_MUST_FAIL = ("duplicate", "truncate payload", "extend payload", "non-UTF-8 byte")


def _perturbed(token: str, data) -> str:
    """``token`` with its number changed, or ``token`` if it holds none."""
    prefix = "VERTEBRA:" if token.startswith("VERTEBRA:") else ""
    number = token[len(prefix):]
    if re.fullmatch(r"-?\d+", number):
        delta = data.draw(st.integers(-3, 3).filter(bool))
        return f"{prefix}{int(number) + delta}"
    try:
        value = float(number)
    except ValueError:
        return token
    return prefix + repr(value * data.draw(st.floats(-2.0, 2.0)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_grid_mutations_load_equal_data_or_name_the_file(study_grids, tmp_path_factory,
                                                          data):
    """Each mutation of a volume or label-map header, or of its payload's
    size, either loads the original voxels or raises ``FormatError`` or
    ``FileNotFoundError`` naming the header or the payload. A repeated key,
    label or role, a retyped legend line, a payload of the wrong size and a
    non-UTF-8 header always fail.
    What still loads keeps its geometry and legend, except that a changed
    ``spacing_mm`` or ``origin_mm`` line may change the geometry and a
    changed vertebra level on a ``label`` line the legend."""
    suffix = data.draw(st.sampled_from(sorted(study_grids)))
    source, original = study_grids[suffix]
    lines = source.read_text(encoding="utf-8").splitlines()
    payload = (source.parent / f"{source.name}.raw").read_bytes()
    kind = data.draw(st.sampled_from(["delete", "duplicate", "retype", "perturb",
                                      "truncate payload", "extend payload",
                                      "non-UTF-8 byte"]))
    i = data.draw(st.integers(0, len(lines) - 1))
    key = lines[i].split()[0]
    tokens = lines[i].split(" ")
    if kind == "delete":
        del lines[i]
    elif kind in ("duplicate", "perturb"):
        # A duplicate disagrees with its line where the line holds a number.
        j = data.draw(st.integers(1, len(tokens) - 1))
        tokens[j] = _perturbed(tokens[j], data)
        changed = " ".join(tokens)
        if kind == "duplicate":
            lines.insert(i + 1, changed)
        else:
            assume(changed != lines[i])
            lines[i] = changed
    elif kind == "retype":
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = "x1"
        lines[i] = " ".join(tokens)
    elif kind == "truncate payload":
        payload = payload[:-data.draw(st.integers(1, len(payload)))]
    elif kind == "extend payload":
        payload += bytes(data.draw(st.integers(1, 64)))
    text = "\n".join(lines) + "\n"
    body = text.encode()
    if kind == "non-UTF-8 byte":
        at = data.draw(st.integers(0, len(text) - 1))
        body = text[:at].encode() + b"\xff" + text[at + 1:].encode()

    out = tmp_path_factory.getbasetemp() / "grid_mutated"
    out.mkdir(exist_ok=True)
    header, raw = out / source.name, out / f"{source.name}.raw"
    header.write_bytes(body)
    raw.write_bytes(payload)
    try:
        loaded = _LOADERS[suffix](header)
    except (FormatError, FileNotFoundError) as exc:
        assert str(header) in str(exc) or str(raw) in str(exc), str(exc)
        return
    assert kind not in _MUST_FAIL, kind
    assert (kind, key) != ("retype", "label"), lines[i]
    voxels = _VOXELS[suffix]
    assert loaded.dims == original.dims
    assert np.array_equal(voxels(loaded), voxels(original))
    if key not in ("spacing_mm", "origin_mm"):
        assert loaded.geometry == original.geometry
    if suffix == ".vlbl" and key != "label":
        assert loaded.legend == original.legend
