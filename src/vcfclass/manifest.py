"""Cohort manifest: patients, dated studies, demographics, fracture truth.

Serialized as one UTF-8 JSON document with relative file references; see
README for the schema.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

MANIFEST_SCHEMA_VERSION = 1

OSTEOPOROTIC = "OSTEOPOROTIC"
NEOPLASTIC = "NEOPLASTIC"
UNFRACTURED = "UNFRACTURED"
TRUTH_VALUES = (OSTEOPOROTIC, NEOPLASTIC, UNFRACTURED)

GENDERS = ("F", "M")

# Ids are written unquoted into the comma-separated outputs.
_ID_FORBIDDEN = (",", '"', "\r", "\n")


def _check_id(kind: str, value: str) -> None:
    if any(ch in value for ch in _ID_FORBIDDEN):
        raise ValueError(
            f"{kind} id {value!r} contains a comma, double quote or line break, "
            f"which the CSV outputs cannot hold")


@dataclass(frozen=True)
class StudyRecord:
    study_id: str
    patient_id: str
    acquisition_date: dt.date
    age: float            # years at acquisition
    gender: str           # 'F' | 'M'
    volume_path: str      # relative to the manifest directory
    labelmap_path: str
    vertebra_truth: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_id("study", self.study_id)
        _check_id("patient", self.patient_id)
        if isinstance(self.acquisition_date, str):
            object.__setattr__(self, "acquisition_date",
                               dt.date.fromisoformat(self.acquisition_date))
        if not (isinstance(self.age, (int, float)) and math.isfinite(self.age)):
            raise ValueError(
                f"study {self.study_id}: age must be a finite number, got {self.age!r}")
        if self.age < 0:
            raise ValueError(f"study {self.study_id}: negative age {self.age}")
        if self.gender not in GENDERS:
            raise ValueError(f"study {self.study_id}: gender must be F or M, got {self.gender!r}")
        truth = {int(k): str(v) for k, v in self.vertebra_truth.items()}
        bad = {k: v for k, v in truth.items() if v not in TRUTH_VALUES}
        if bad:
            raise ValueError(f"study {self.study_id}: unknown truth values {bad}")
        object.__setattr__(self, "vertebra_truth", truth)

    def fractured_labels(self) -> list[int]:
        return sorted(k for k, v in self.vertebra_truth.items() if v != UNFRACTURED)


@dataclass(frozen=True)
class PatientEntry:
    patient_id: str
    studies: tuple[StudyRecord, ...]

    def __post_init__(self):
        _check_id("patient", self.patient_id)
        object.__setattr__(self, "studies", tuple(self.studies))
        dates = [s.acquisition_date for s in self.studies]
        for a, b in zip(dates, dates[1:]):
            if b <= a:
                raise ValueError(
                    f"patient {self.patient_id}: study dates not strictly increasing "
                    f"({a} then {b})")
        for s in self.studies:
            if s.patient_id != self.patient_id:
                raise ValueError(
                    f"study {s.study_id} carries patient {s.patient_id!r}, "
                    f"expected {self.patient_id!r}")


@dataclass(frozen=True)
class CohortManifest:
    patients: tuple[PatientEntry, ...]
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(self, "patients", tuple(self.patients))
        ids = [p.patient_id for p in self.patients]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate patient ids: {dupes}")

    def all_studies(self):
        for p in self.patients:
            yield from p.studies

    def study_count(self) -> int:
        return sum(len(p.studies) for p in self.patients)

    def fractured_instance_count(self) -> int:
        """Number of (fractured vertebra, study) pairs across the cohort."""
        return sum(len(s.fractured_labels()) for s in self.all_studies())


def _study_to_json(s: StudyRecord) -> dict:
    return {
        "study_id": s.study_id,
        "patient_id": s.patient_id,
        "acquisition_date": s.acquisition_date.isoformat(),
        "age": s.age,
        "gender": s.gender,
        "volume_path": s.volume_path,
        "labelmap_path": s.labelmap_path,
        "vertebra_truth": {str(k): v for k, v in sorted(s.vertebra_truth.items())},
    }


def save_manifest(manifest: CohortManifest, path) -> None:
    doc = {
        "schema_version": manifest.schema_version,
        "patients": [
            {"patient_id": p.patient_id,
             "studies": [_study_to_json(s) for s in p.studies]}
            for p in manifest.patients
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_manifest(path) -> CohortManifest:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such manifest: {path}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    version = doc.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported manifest schema_version {version}")
    patients = []
    for p in doc["patients"]:
        studies = [StudyRecord(**s) for s in p["studies"]]
        patients.append(PatientEntry(patient_id=p["patient_id"], studies=tuple(studies)))
    return CohortManifest(patients=tuple(patients), schema_version=version)


def years_between(earlier: dt.date, later: dt.date) -> float:
    """Elapsed time in (Julian) years; used to normalize longitudinal rates."""
    return (later - earlier).days / 365.25
