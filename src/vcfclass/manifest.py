"""Cohort manifest: patients, dated studies, demographics, fracture truth.

Serialized as one UTF-8 JSON document with relative file references; see
README for the schema.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

MANIFEST_SCHEMA_VERSION = 1

OSTEOPOROTIC = "OSTEOPOROTIC"
NEOPLASTIC = "NEOPLASTIC"
UNFRACTURED = "UNFRACTURED"
TRUTH_VALUES = (OSTEOPOROTIC, NEOPLASTIC, UNFRACTURED)

GENDERS = ("F", "M")

# Ids are written unquoted into the comma-separated outputs.
_ID_FORBIDDEN = (",", '"', "\r", "\n")


class FieldError(ValueError):
    """A bad value of one named field of a manifest record; the message is
    the check's own, and ``field`` is the field's path within the record."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@contextmanager
def _field(name: str):
    """Re-raise a failed check on field ``name`` as a ``FieldError``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise FieldError(name, str(exc)) from exc


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
        with _field("study_id"):
            _check_id("study", self.study_id)
        with _field("patient_id"):
            _check_id("patient", self.patient_id)
        with _field("acquisition_date"):
            if isinstance(self.acquisition_date, str):
                object.__setattr__(self, "acquisition_date",
                                   dt.date.fromisoformat(self.acquisition_date))
            if not isinstance(self.acquisition_date, dt.date):
                raise TypeError(f"study {self.study_id}: acquisition_date must be an "
                                f"ISO date, got {self.acquisition_date!r}")
        with _field("age"):
            if not (isinstance(self.age, (int, float)) and math.isfinite(self.age)):
                raise ValueError(
                    f"study {self.study_id}: age must be a finite number, got {self.age!r}")
            if self.age < 0:
                raise ValueError(f"study {self.study_id}: negative age {self.age}")
        with _field("gender"):
            if self.gender not in GENDERS:
                raise ValueError(
                    f"study {self.study_id}: gender must be F or M, got {self.gender!r}")
        with _field("vertebra_truth"):
            if not isinstance(self.vertebra_truth, dict):
                raise TypeError(f"study {self.study_id}: vertebra_truth must map "
                                f"labels to truth values, got {self.vertebra_truth!r}")
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
        with _field("patient_id"):
            _check_id("patient", self.patient_id)
        object.__setattr__(self, "studies", tuple(self.studies))
        dates = [s.acquisition_date for s in self.studies]
        for i, (a, b) in enumerate(zip(dates, dates[1:])):
            if b <= a:
                raise FieldError(
                    f"studies[{i + 1}].acquisition_date",
                    f"patient {self.patient_id}: study dates not strictly increasing "
                    f"({a} then {b})")
        for i, s in enumerate(self.studies):
            if s.patient_id != self.patient_id:
                raise FieldError(
                    f"studies[{i}].patient_id",
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
            raise FieldError("patients", f"duplicate patient ids: {dupes}")

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


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _at(where: str, key) -> str:
    """The field path of ``key`` (a name or a list index) below ``where``."""
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def _expect(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise FieldError(where, f"expected {_JSON_TYPES[kind]}, "
                                f"got {_JSON_TYPES[type(value)]}")
    return value


def _keys(obj, where: str, required, optional=()) -> None:
    """Check that ``obj`` is a JSON object holding every key in ``required``
    and no key outside ``required`` and ``optional``."""
    _expect(obj, dict, where)
    for name in required:
        if name not in obj:
            raise FieldError(_at(where, name), f"missing required key {name!r}")
    for key in sorted(obj.keys() - {*required, *optional}):
        raise FieldError(_at(where, key), f"unknown key {key!r}")


def _schema(cls) -> tuple[list[str], list[str]]:
    """The required and the optional field names of dataclass ``cls``."""
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    return required, [f.name for f in fields(cls) if f.name not in required]


def _record(cls, obj: dict, where: str):
    """``cls(**obj)``, a failed check naming the field path at fault."""
    _keys(obj, where, *_schema(cls))
    try:
        return cls(**obj)
    except FieldError as exc:
        raise FieldError(_at(where, exc.field), str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise FieldError(where, str(exc)) from exc


def load_manifest(path) -> CohortManifest:
    """Read a manifest written by ``save_manifest``. A malformed one raises
    ``ValueError`` naming the file and the path of the field at fault, such
    as ``patients[0].studies[0].acquisition_date``."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such manifest: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{exc} (in {path})") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != MANIFEST_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported manifest schema_version {version}")
    try:
        _keys(doc, "", *_schema(CohortManifest))
        patients = []
        for i, p in enumerate(_expect(doc["patients"], list, "patients")):
            where = _at("patients", i)
            _keys(p, where, *_schema(PatientEntry))
            listed = _expect(p["studies"], list, _at(where, "studies"))
            studies = tuple(_record(StudyRecord, s, _at(_at(where, "studies"), k))
                            for k, s in enumerate(listed))
            patients.append(_record(PatientEntry, {**p, "studies": studies}, where))
        return _record(CohortManifest, {**doc, "patients": tuple(patients)}, "")
    except FieldError as exc:
        raise ValueError(f"{exc} (at {exc.field} in {path})") from exc


def years_between(earlier: dt.date, later: dt.date) -> float:
    """Elapsed time in (Julian) years; used to normalize longitudinal rates."""
    return (later - earlier).days / 365.25
