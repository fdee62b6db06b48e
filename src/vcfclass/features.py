"""Assembly of the 36-feature classification table.

Measured features (18) are the height-compass and sagittal heights, level id,
contrasts, and the two normalized densities; longitudinal features (16) are
their per-year rates between consecutive studies of the same patient; the two
demographics complete the vector. A missing value is NaN in the matrix and an
empty field in the CSV, which holds the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import isnan
from pathlib import Path
from typing import Callable

import numpy as np

from . import densitometry, morphometry
from .frames import vertebra_frame
from .grids import (LabelMap, Volume, load_labelmap, load_volume,
                    parse_vertebra_level)
from .manifest import (CohortManifest, NEOPLASTIC, StudyRecord,
                       load_manifest, years_between)
from .parallel import pmap

HEIGHT_COLUMNS = [
    "h_c", "h_a", "h_p", "h_l", "h_r", "h_avg", "h_avg_5",
    "contrastP", "contrastN", "contrastA", "vid",
    "Anterior", "Center", "Posterior", "manualMean", "meanH",
]
DENSITY_COLUMNS = ["meanDen", "meanTrab"]
MEASURED_COLUMNS = HEIGHT_COLUMNS + DENSITY_COLUMNS          # 18

# Rates exist for every measured feature except the level id and meanH.
RATE_BASE_COLUMNS = [c for c in MEASURED_COLUMNS if c not in ("vid", "meanH")]
RATE_COLUMNS = ["R_" + c for c in RATE_BASE_COLUMNS]         # 16
_RATE_BASE_POS = [MEASURED_COLUMNS.index(c) for c in RATE_BASE_COLUMNS]
_VID_POS = MEASURED_COLUMNS.index("vid")
DEMOGRAPHIC_COLUMNS = ["Gender", "Age"]                      # 2
ALL_COLUMNS = MEASURED_COLUMNS + RATE_COLUMNS + DEMOGRAPHIC_COLUMNS   # 36

CONTRAST_COLUMNS = ("contrastP", "contrastN", "contrastA")

ID_COLUMNS = ["patient_id", "study_id", "vertebra"]
TRUTH_COLUMN = "truth"

CONDITIONS = ("measured", "longitudinal", "combined")

FIRST_STUDY_POLICIES = ("exclude", "zero")


def condition_columns(condition: str) -> list[str]:
    """Feature columns entering the classifier for one feature-set condition.
    Demographics ride along with every condition."""
    if condition == "measured":
        return MEASURED_COLUMNS + DEMOGRAPHIC_COLUMNS
    if condition == "longitudinal":
        return RATE_COLUMNS + DEMOGRAPHIC_COLUMNS
    if condition == "combined":
        return list(ALL_COLUMNS)
    raise ValueError(f"unknown condition {condition!r}; expected one of {CONDITIONS}")


def rate(current, previous, dt_years: float):
    """Per-year rate of change, elementwise; NaN where either endpoint is
    missing."""
    if dt_years <= 0:
        raise ValueError(f"dt must be positive, got {dt_years}")
    return (current - previous) / dt_years


@dataclass(frozen=True)
class FeatureTable:
    """One row per (fractured vertebra, study) instance, columns in
    ``ALL_COLUMNS`` order. The arrays are read-only copies, so a table never
    changes once built; derive another with ``dataclasses.replace``."""

    instance_ids: list[tuple[str, str, int]]    # (patient, study, vertebra)
    matrix: np.ndarray          # (n, 36) float64, NaN where missing
    truth: np.ndarray           # (n,) 'O' | 'N'

    def __post_init__(self):
        ids = list(self.instance_ids)
        seen = set()
        for instance_id in ids:
            if instance_id in seen:
                raise ValueError(f"duplicate instance id {instance_id}")
            seen.add(instance_id)
        n, width = len(ids), len(ALL_COLUMNS)
        for name, dtype, shape in (("matrix", np.float64, (n, width)),
                                   ("truth", str, (n,))):
            a = np.array(getattr(self, name), dtype=dtype)
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape} "
                                 f"for {n} instance ids")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "instance_ids", ids)

    def __len__(self):
        return len(self.instance_ids)

    @property
    def patient_ids(self) -> np.ndarray:
        return np.array([pid for pid, _, _ in self.instance_ids])


def _truth_code(value: str) -> str:
    return "N" if value == NEOPLASTIC else "O"


# ---------------------------------------------------------------------------
# per-study extraction

def measured_study_features(vol: Volume, lm: LabelMap) -> dict[int, dict[str, float]]:
    """Measured features for every vertebra in one study, keyed by label.

    All vertebrae are measured (unfractured ones supply contrast neighbors);
    contrasts are filled in across the study's level stack.
    """
    ref = densitometry.study_reference(vol, lm)
    per_label: dict[int, dict[str, float]] = {}
    h_avg_by_level: dict[int, float] = {}
    level_by_label: dict[int, int] = {}
    for label in lm.vertebra_labels():
        level = parse_vertebra_level(lm.legend[label])
        frame = vertebra_frame(lm, label)
        cols = morphometry.column_table(lm, label, frame)
        ch = morphometry.cell_heights(cols, label)
        feats = morphometry.regional_summaries(ch)
        feats.update(morphometry.sagittal_heights(cols, label))
        dens = densitometry.density_features(vol, lm, label, frame, ref)
        feats["meanDen"] = dens.meanDen
        feats["meanTrab"] = dens.meanTrab
        feats["vid"] = float(level)
        per_label[label] = feats
        level_by_label[label] = level
        h_avg_by_level[level] = feats["h_avg"]

    contrasts = morphometry.contrast_features(h_avg_by_level)
    for label, feats in per_label.items():
        feats.update(contrasts[level_by_label[label]])
    return per_label


def measured_features(study: StudyRecord, base_dir) -> dict[int, dict[str, float]]:
    """Load a study's volume/label pair and measure every vertebra."""
    base = Path(base_dir)
    try:
        vol = load_volume(base / study.volume_path)
        lm = load_labelmap(base / study.labelmap_path)
        return measured_study_features(vol, lm)
    except Exception as exc:
        raise RuntimeError(f"study {study.study_id}: {exc}") from exc


def demographics(study: StudyRecord) -> dict[str, float]:
    return {"Gender": 0.0 if study.gender == "F" else 1.0, "Age": float(study.age)}


def _study_rows(base_dir, study: StudyRecord) -> dict[int, np.ndarray]:
    """A study's measured features as one ``MEASURED_COLUMNS``-ordered array
    per label, after checking that every fractured label was measured."""
    measured = measured_features(study, base_dir)
    for label in study.fractured_labels():
        if label not in measured:
            raise RuntimeError(f"study {study.study_id}: fractured label {label} "
                               f"absent from the label map legend")
    return {label: np.array([feats[c] for c in MEASURED_COLUMNS])
            for label, feats in measured.items()}


# ---------------------------------------------------------------------------
# longitudinal assembly

def assemble(manifest: CohortManifest, base_dir, policy: str = "zero") -> FeatureTable:
    """One feature row per (fractured vertebra, study) instance.

    Rates compare against the same vertebra in the immediately preceding
    study: the one at the same level (``vid``), whatever its label there.
    First-study instances follow ``policy``: 'exclude' drops the row,
    'zero' emits zero rates. Studies are measured independently, through
    ``parallel.pmap``; a failing study raises as it would in a loop over them.
    """
    policy = policy.lower()
    if policy not in FIRST_STUDY_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {FIRST_STUDY_POLICIES}")
    studies = list(manifest.all_studies())
    measured = iter(pmap(partial(_study_rows, base_dir), studies))
    first_rates = np.zeros(len(RATE_COLUMNS))
    ids, values, truths = [], [], []
    for patient in manifest.patients:
        previous: dict[float, np.ndarray] | None = None     # rows by level
        prev_date = None
        for study in patient.studies:
            current = next(measured)
            demo = [demographics(study)[c] for c in DEMOGRAPHIC_COLUMNS]
            for label in study.fractured_labels():
                level = current[label][_VID_POS]
                if previous is not None and level in previous:
                    rates = rate(current[label][_RATE_BASE_POS],
                                 previous[level][_RATE_BASE_POS],
                                 years_between(prev_date, study.acquisition_date))
                elif policy == "exclude":
                    continue
                else:
                    rates = first_rates
                ids.append((study.patient_id, study.study_id, label))
                values.append(np.concatenate((current[label], rates, demo)))
                truths.append(_truth_code(study.vertebra_truth[label]))
            previous = {row[_VID_POS]: row for row in current.values()}
            prev_date = study.acquisition_date
    return FeatureTable(instance_ids=ids,
                        matrix=np.reshape(values, (len(ids), len(ALL_COLUMNS))),
                        truth=truths)


def assemble_from_path(manifest_path, policy: str = "zero") -> FeatureTable:
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    return assemble(manifest, manifest_path.parent, policy)


# ---------------------------------------------------------------------------
# serialization

def optional_float(cell: str) -> float:
    """A CSV number cell: a finite number, or the empty field, which reads as
    NaN (missing) and is the only spelling of a missing value."""
    if not cell:
        return np.nan
    value = float(cell)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {cell!r}; a missing value is an "
                         f"empty cell")
    return value


def truth_cell(cell: str) -> str:
    if cell not in ("O", "N"):
        raise ValueError(f"unknown truth label {cell!r}")
    return cell


def read_csv_rows(path, columns: list[tuple[str, Callable[[str], object]]]
                  ) -> list[list]:
    """Parsed data rows of a comma-separated file whose first line names
    ``columns`` in order; each cell goes through its column's parser. Any
    departure raises ValueError naming the file and, for a row, its line and
    the offending column."""
    path = Path(path)
    header = ",".join(name for name, _ in columns)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not lines:
        raise ValueError(f"{path}: empty file")
    if lines[0] != header:
        raise ValueError(f"{path}: header is not {header!r}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"{path}:{n}: row has {len(cells)} cells, "
                             f"expected {len(columns)}")
        row = []
        for cell, (name, parse) in zip(cells, columns):
            try:
                row.append(parse(cell))
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: column {name}: {exc}") from None
        rows.append(row)
    return rows


_TABLE_COLUMNS = (list(zip(ID_COLUMNS, (str, str, int)))
                  + [(c, optional_float) for c in ALL_COLUMNS]
                  + [(TRUTH_COLUMN, truth_cell)])


def save_table(table: FeatureTable, path) -> None:
    """CSV with canonical header, empty fields for missing values, truth last."""
    path = Path(path)
    infinite = np.argwhere(np.isinf(table.matrix))
    if infinite.size:
        row, col = infinite[0]
        raise ValueError(f"instance {table.instance_ids[row]}: column "
                         f"{ALL_COLUMNS[col]}: non-finite value "
                         f"{float(table.matrix[row, col])!r}")
    lines = [",".join(ID_COLUMNS + ALL_COLUMNS + [TRUTH_COLUMN])]
    for (pid, sid, vertebra), values, truth in zip(table.instance_ids,
                                                   table.matrix.tolist(), table.truth):
        cells = ["" if isnan(v) else repr(v) for v in values]
        lines.append(",".join([pid, sid, str(vertebra), *cells, truth]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_table(path) -> FeatureTable:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such feature table: {path}")
    rows = read_csv_rows(path, _TABLE_COLUMNS)
    try:
        return FeatureTable(instance_ids=[tuple(row[:3]) for row in rows],
                            matrix=np.reshape([row[3:-1] for row in rows],
                                              (len(rows), len(ALL_COLUMNS))),
                            truth=[row[-1] for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
