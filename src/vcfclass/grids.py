"""Voxel grid containers (HU volumes, label maps) and their on-disk formats.

A volume is stored as a two-file pair: a UTF-8 key-value header (``.vvol``)
plus a raw little-endian int16 payload, x-fastest then y then z. Label maps
(``.vlbl``) use the same header shape with a uint16 payload and extra
``label`` lines mapping label values to semantic roles.

Label maps are indexed with numpy alone: a lookup table checks the legend,
per-label views hold their voxels' flat indices, and the vertebra
connectivity check counts components over x-runs of those indices.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

HU_MIN = -1024
HU_MAX = 3071

# Legend role strings. Vertebra roles carry their level id, e.g. "VERTEBRA:12".
ROLE_MUSCLE = "MUSCLE_REF"
ROLE_FAT = "FAT_REF"
ROLE_CANAL = "CANAL"
ROLE_VERTEBRA_PREFIX = "VERTEBRA:"


class FormatError(ValueError):
    """Raised when a grid file violates the VVOL/VLBL format contract."""


def vertebra_role(level_index: int) -> str:
    return f"{ROLE_VERTEBRA_PREFIX}{int(level_index)}"


def parse_vertebra_level(role: str) -> int | None:
    """Level id encoded in a legend role, or None for non-vertebra roles."""
    if role.startswith(ROLE_VERTEBRA_PREFIX):
        return int(role[len(ROLE_VERTEBRA_PREFIX):])
    return None


@dataclass(frozen=True)
class GridGeometry:
    """Shared lattice description: voxel counts, spacing (mm), world origin (mm).

    ``origin`` is the world position of the center of voxel (0, 0, 0).
    """

    dims: tuple[int, int, int]        # (nx, ny, nz)
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) != d or d <= 0 for d in self.dims):
            raise FormatError(f"dims must be three positive counts, got {self.dims}")
        if len(self.spacing) != 3 or not all(np.isfinite(s) and s > 0
                                             for s in self.spacing):
            raise FormatError(
                f"spacing must be three finite positive lengths, got {self.spacing}")
        if len(self.origin) != 3 or not all(np.isfinite(o) for o in self.origin):
            raise FormatError(
                f"origin must be three finite coordinates, got {self.origin}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def axis_coords(self, axis: int) -> np.ndarray:
        """World coordinates of voxel centers along one axis (0=x, 1=y, 2=z)."""
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])

    def world_coords(self, index_zyx: np.ndarray) -> np.ndarray:
        """World positions (n, 3) xyz for an (n, 3) array of (iz, iy, ix) indices."""
        idx_xyz = index_zyx[:, ::-1].astype(np.float64)
        return np.asarray(self.origin) + idx_xyz * np.asarray(self.spacing)

    def same_lattice(self, other: "GridGeometry") -> bool:
        return (self.dims == other.dims and self.spacing == other.spacing
                and self.origin == other.origin)


def _as_locked(arr: np.ndarray, dtype, dims, name: str) -> np.ndarray:
    """``arr`` as a read-only (z, y, x) ``dtype`` grid; raises, naming the
    field ``name``, if the cast would change a value."""
    nx, ny, nz = dims
    arr = np.asarray(arr)
    if arr.dtype != dtype:
        with np.errstate(invalid="ignore"):
            cast = arr.astype(dtype)
        changed = cast != arr
        if changed.any():
            raise FormatError(f"{name} holds {arr[changed].flat[0].item()!r}, "
                              f"which {np.dtype(dtype)} cannot store exactly")
        arr = cast
    out = np.ascontiguousarray(arr).reshape(nz, ny, nx)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Volume:
    """HU samples on a regular grid. ``data`` is indexed [iz, iy, ix]."""

    geometry: GridGeometry
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        data = _as_locked(self.data, np.int16, self.geometry.dims, "data")
        object.__setattr__(self, "data", data)
        lo, hi = int(data.min(initial=0)), int(data.max(initial=0))
        if lo < HU_MIN or hi > HU_MAX:
            raise FormatError(f"HU samples out of range [{HU_MIN}, {HU_MAX}]: found [{lo}, {hi}]")

    @property
    def dims(self):
        return self.geometry.dims

    @property
    def spacing(self):
        return self.geometry.spacing

    @property
    def origin(self):
        return self.geometry.origin


@dataclass(frozen=True)
class LabelView:
    """The voxels of one label, listed by their full-grid C-order flat indices.

    ``flat`` ascends, so ``index`` and ``coords`` list the voxels in the order
    of ``np.argwhere(labels == label)`` over the full grid. ``box`` holds the
    (z, y, x) slices of their bounding box and ``mask`` flags the in-box
    voxels that carry the label; C order within the box is C order within the
    grid, so ``vol.data[box][mask]`` lists them in that order too. Everything
    but ``flat`` is computed on first use.
    """

    flat: np.ndarray = field(repr=False)
    geometry: GridGeometry = field(repr=False)

    @property
    def voxel_count(self) -> int:
        return self.flat.size

    @cached_property
    def index(self) -> np.ndarray:
        """(n, 3) full-grid [iz, iy, ix] indices, C order, in the Fortran
        memory layout ``np.argwhere`` returns: sums and products over
        ``coords`` round as they would over an ``argwhere`` result."""
        nx, ny, _ = self.geometry.dims
        row = self.flat // nx
        iz = row // ny
        idx = np.stack([iz, row - iz * ny, self.flat - row * nx]).T
        idx.flags.writeable = False
        return idx

    @cached_property
    def box(self) -> tuple[slice, slice, slice]:
        if self.flat.size == 0:
            return (slice(0, 0),) * 3
        lo, hi = self.index.min(axis=0), self.index.max(axis=0) + 1
        return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))

    @cached_property
    def mask(self) -> np.ndarray:
        mask = np.zeros([s.stop - s.start for s in self.box], dtype=bool)
        mask[tuple((self.index - [s.start for s in self.box]).T)] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def coords(self) -> np.ndarray:
        """(n, 3) world positions xyz (mm), in ``index`` order."""
        xyz = self.geometry.world_coords(self.index)
        xyz.flags.writeable = False
        return xyz


# Voxels per legend-lookup pass: the lookup's intp index copy stays at 128 kB.
_LEGEND_CHUNK = 1 << 14


@dataclass(frozen=True)
class LabelMap:
    """Integer identity per voxel (0 = background) with a role legend.

    Construction checks the legend with one lookup table over the uint16
    values, ``_LEGEND_CHUNK`` voxels at a time so no full-grid index array is
    made. The first ``view`` call lists the labelled voxels in one
    full-grid pass; each view then picks its label's voxels from that list,
    in C order, instead of scanning the full grid.
    """

    geometry: GridGeometry
    labels: np.ndarray = field(repr=False)
    legend: dict[int, str] = field(default_factory=dict)
    _views: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = _as_locked(self.labels, np.uint16, self.geometry.dims, "labels")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "legend", {int(k): str(v) for k, v in self.legend.items()})
        known = np.zeros(1 << 16, dtype=bool)
        for k in self.legend:
            if not 0 < k < known.size:
                raise FormatError(f"legend label {k} lies outside 1..{known.size - 1}")
        known[[0, *self.legend]] = True
        flat = labels.reshape(-1)
        if not all(known.take(flat[i:i + _LEGEND_CHUNK]).all()
                   for i in range(0, flat.size, _LEGEND_CHUNK)):
            missing = np.unique(flat[~known.take(flat)]).tolist()
            raise FormatError(f"labels {missing} present in grid but absent from legend")
        object.__setattr__(self, "_views", {})

    @property
    def dims(self):
        return self.geometry.dims

    @property
    def spacing(self):
        return self.geometry.spacing

    @property
    def origin(self):
        return self.geometry.origin

    def vertebra_labels(self) -> list[int]:
        """Label values whose legend role encodes a vertebra, sorted by level."""
        out = [(parse_vertebra_level(role), lab) for lab, role in self.legend.items()
               if parse_vertebra_level(role) is not None]
        return [lab for _, lab in sorted(out)]

    def label_for_role(self, role: str) -> int | None:
        for lab, r in self.legend.items():
            if r == role:
                return lab
        return None

    @cached_property
    def _labelled(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat C-order indices of the labelled voxels, and their labels."""
        flat = np.flatnonzero(self.labels != 0)
        return flat, self.labels.ravel()[flat]

    def view(self, label: int) -> LabelView:
        """The label's voxels, built once and cached for the life of the map.
        A label with no voxels gets an empty view."""
        view = self._views.get(label)
        if view is None:
            flat, values = self._labelled
            view = LabelView(flat=flat[values == label], geometry=self.geometry)
            self._views[label] = view
        return view


def check_paired_geometry(vol: Volume, lm: LabelMap) -> None:
    if not vol.geometry.same_lattice(lm.geometry):
        raise FormatError(
            f"label map geometry {lm.geometry} does not match paired volume {vol.geometry}")


def check_vertebra_connectivity(lm: LabelMap) -> None:
    """Each vertebra label must be present and form a single 26-connected
    component."""
    for lab in lm.vertebra_labels():
        flat = lm.view(lab).flat
        if flat.size == 0:
            raise FormatError(f"vertebra label {lab} is absent from the grid")
        n = _count_26_components(flat, lm.dims)
        if n != 1:
            raise FormatError(
                f"vertebra label {lab} splits into {n} 26-connected components")


def _count_26_components(flat: np.ndarray, dims) -> int:
    """26-connected components of the voxels at ascending C-order ``flat``
    indices of a grid of ``dims`` (nx, ny, nz), counted over x-runs (He, Chao
    & Suzuki, "A run-based two-scan labeling algorithm", IEEE TIP 2008).

    A run is a maximal stretch of consecutive voxels along one x-row. Two
    runs touch when their rows are 26-neighbours and their x-ranges overlap
    within one voxel; each run is joined to the runs it touches in its four
    forward neighbour rows, (z, y+1) and (z+1, y-1..y+1), and a union-find
    counts the groups.
    """
    nx, ny, _ = dims
    # Keys on a grid padded with one empty voxel at each end of every x-row
    # and one empty row after every z-plane: voxels on one run have
    # consecutive keys, a run's x-range widened by one voxel stays in its
    # own row, and no forward neighbour row wraps into the next plane.
    width = nx + 2
    row = flat // nx
    key = flat + 2 * row + 1
    first = np.flatnonzero(np.diff(key, prepend=-1) != 1)
    last = np.append(first[1:], flat.size) - 1
    shift = row[first] // ny * width
    start, end = key[first] + shift, key[last] + shift
    # The runs run i touches in one forward neighbour row are those there
    # that end at or after its start - 1 and start at or before its end + 1:
    # one contiguous range [lo, hi) per run and neighbour row.
    ahead = np.array([1, ny, ny + 1, ny + 2])[:, None] * width
    lo = np.searchsorted(end, (start + ahead - 1).ravel(), side="left")
    hi = np.searchsorted(start, (end + ahead + 1).ravel(), side="right")
    count = hi - lo
    a = np.repeat(np.tile(np.arange(first.size), ahead.size), count)
    b = np.arange(a.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    return _count_groups(first.size, a, b)


def _count_groups(n: int, a: np.ndarray, b: np.ndarray) -> int:
    """Connected components of the graph on ``n`` nodes with edges (a, b):
    each round hooks the larger root of every edge whose roots differ under
    the smaller one, then jumps pointers until every node points at its
    root. Parents never exceed their nodes, so no round makes a cycle."""
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            return int(np.count_nonzero(parent == np.arange(n)))
        parent[np.maximum(ra, rb)[split]] = np.minimum(ra, rb)[split]
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand


def erode_by_ball(mask: np.ndarray, ball: np.ndarray) -> np.ndarray:
    """Binary erosion of the (z, y, x) ``mask`` by ``ball``, voxel for voxel
    what ``ndimage.binary_erosion(mask, ball)`` returns; space beyond the
    mask is background.

    Every (dz, dy) row of ``ball`` must be empty or a run ``|dx| <= w``
    centred on dx = 0, as every row of a lattice ball is. The ball is the
    union of its rows and erosion by a union is the intersection of the
    erosions, so the x-erosions by runs of each half-width ``w`` are grown
    one shift at a time and each row ANDs its run's erosion, shifted by
    (dz, dy), into the result: one array operation per row instead of one
    visit per ball offset at every voxel.
    """
    if ball.ndim != 3 or any(n % 2 == 0 for n in ball.shape):
        raise ValueError(f"ball needs odd extents on three axes, got {ball.shape}")
    hz, hy, hx = (n // 2 for n in ball.shape)
    # half-width of each (dz, dy) row; -1 marks an empty row
    widths = np.where(ball.any(axis=2), np.count_nonzero(ball, axis=2) // 2, -1)
    runs = np.abs(np.arange(-hx, hx + 1)) <= widths[:, :, None]
    if not np.array_equal(ball, runs):
        iz, iy = np.argwhere((ball != runs).any(axis=2))[0]
        raise ValueError(
            f"ball row (dz, dy) = ({iz - hz}, {iy - hy}) is not a run "
            f"centred on dx = 0")

    nz, ny, nx = mask.shape
    padded = np.zeros((nz + 2 * hz, ny + 2 * hy, nx + 2 * hx), dtype=bool)
    padded[hz:hz + nz, hy:hy + ny, hx:hx + nx] = mask
    out = np.ones(mask.shape, dtype=bool)
    run = padded[:, :, hx:hx + nx]      # erosion along x by the run |dx| <= 0
    for w in range(widths.max() + 1):
        if w:
            run = run & padded[:, :, hx + w:hx + w + nx] & padded[:, :, hx - w:hx - w + nx]
        for iz, iy in np.argwhere(widths == w):
            out &= run[iz:iz + nz, iy:iy + ny]
    return out


# ---------------------------------------------------------------------------
# header parsing/writing

def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _header_lines(geometry: GridGeometry, data_file: str, dtype: str) -> list[str]:
    nx, ny, nz = geometry.dims
    return [
        f"schema_version {SCHEMA_VERSION}",
        f"dims {nx} {ny} {nz}",
        f"spacing_mm {_fmt_floats(geometry.spacing)}",
        f"origin_mm {_fmt_floats(geometry.origin)}",
        f"data_file {data_file}",
        f"dtype {dtype}",
    ]


@contextmanager
def _in_file(path: Path):
    """Put ``path`` in front of a ``FormatError`` raised inside the block."""
    try:
        yield
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


_HEADER_KEYS = ("schema_version", "dims", "spacing_mm", "origin_mm", "data_file", "dtype")


def _parse_header(path: Path) -> dict:
    """The header's fields; each key, legend label and role may appear once,
    and each role is ``VERTEBRA:<level>``, ``MUSCLE_REF``, ``FAT_REF`` or ``CANAL``."""
    if not path.is_file():
        raise FileNotFoundError(f"no such header file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    fields: dict = {"label": {}}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "label":
            value, _, role = rest.partition(" ")
            role = role.strip()
            if not role or not value.isdecimal():
                raise FormatError(f"{path}:{lineno}: legend line needs 'label <int> <role>'")
            if int(value) in fields["label"]:
                raise FormatError(f"{path}:{lineno}: label {int(value)} given more than once")
            if role in fields["label"].values():
                raise FormatError(f"{path}:{lineno}: role {role!r} given more than once")
            try:
                level = parse_vertebra_level(role)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: vertebra role {role!r} needs an "
                                  f"integer level") from None
            if level is None and role not in (ROLE_MUSCLE, ROLE_FAT, ROLE_CANAL):
                raise FormatError(f"{path}:{lineno}: unknown legend role {role!r}")
            fields["label"][int(value)] = role
        elif key in _HEADER_KEYS:
            if key in fields:
                raise FormatError(f"{path}:{lineno}: header key {key!r} given more than once")
            fields[key] = rest.strip()
        else:
            raise FormatError(f"{path}:{lineno}: unknown header key {key!r}")
    for required in _HEADER_KEYS:
        if required not in fields:
            raise FormatError(f"{path}: missing header key {required!r}")
    with _in_file(path):
        if _header_numbers(fields, "schema_version", int) != (SCHEMA_VERSION,):
            raise FormatError(f"unsupported schema_version {fields['schema_version']}")
    return fields


def _header_numbers(fields: dict, key: str, kind) -> tuple:
    try:
        return tuple(kind(t) for t in fields[key].split())
    except ValueError:
        raise FormatError(f"{key} needs {kind.__name__} values, "
                          f"got {fields[key]!r}") from None


def _read_payload(header_path: Path, fields: dict, dtype_tag: str, np_dtype) -> np.ndarray:
    with _in_file(header_path):
        if fields["dtype"] != dtype_tag:
            raise FormatError(f"expected dtype {dtype_tag}, got {fields['dtype']}")
        geometry = GridGeometry(
            dims=_header_numbers(fields, "dims", int),
            spacing=_header_numbers(fields, "spacing_mm", float),
            origin=_header_numbers(fields, "origin_mm", float),
        )
    payload_path = header_path.parent / fields["data_file"]
    if not payload_path.is_file():
        raise FileNotFoundError(f"{header_path}: missing payload file: {payload_path}")
    raw = payload_path.read_bytes()
    expected = geometry.voxel_count * 2
    if len(raw) != expected:
        raise FormatError(
            f"{payload_path}: payload is {len(raw)} bytes, header implies {expected}")
    data = np.frombuffer(raw, dtype=np_dtype)
    return geometry, data


def load_volume(path) -> Volume:
    path = Path(path)
    fields = _parse_header(path)
    geometry, data = _read_payload(path, fields, "int16le", "<i2")
    with _in_file(path):
        return Volume(geometry=geometry, data=data)


def save_volume(vol: Volume, path) -> None:
    path = Path(path)
    data_file = path.name + ".raw"
    lines = _header_lines(vol.geometry, data_file, "int16le")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (path.parent / data_file).write_bytes(np.ascontiguousarray(vol.data, dtype="<i2"))


def load_labelmap(path) -> LabelMap:
    path = Path(path)
    fields = _parse_header(path)
    geometry, data = _read_payload(path, fields, "uint16le", "<u2")
    with _in_file(path):
        lm = LabelMap(geometry=geometry, labels=data, legend=fields["label"])
        check_vertebra_connectivity(lm)
    return lm


def save_labelmap(lm: LabelMap, path) -> None:
    path = Path(path)
    data_file = path.name + ".raw"
    lines = _header_lines(lm.geometry, data_file, "uint16le")
    for lab in sorted(lm.legend):
        lines.append(f"label {lab} {lm.legend[lab]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (path.parent / data_file).write_bytes(np.ascontiguousarray(lm.labels, dtype="<u2"))
