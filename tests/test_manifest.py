import datetime as dt
import json
import re

import pytest

from vcfclass.cli import main
from vcfclass.manifest import (CohortManifest, PatientEntry, StudyRecord,
                               load_manifest, save_manifest, years_between)


def study(sid="S0", pid="P0", date="2020-01-01", age=57.0, gender="F",
          truth=None):
    return StudyRecord(study_id=sid, patient_id=pid, acquisition_date=date,
                       age=age, gender=gender, volume_path=f"{pid}/{sid}.vvol",
                       labelmap_path=f"{pid}/{sid}.vlbl",
                       vertebra_truth=truth or {1: "OSTEOPOROTIC"})


def test_roundtrip(tmp_path):
    m = CohortManifest(patients=(
        PatientEntry("P0", (study("S0", date="2020-01-01"),
                            study("S1", date="2020-07-01"))),
        PatientEntry("P1", (study("S0", pid="P1", gender="M",
                                  truth={2: "NEOPLASTIC", 1: "UNFRACTURED"}),)),
    ))
    path = tmp_path / "manifest.json"
    save_manifest(m, path)
    again = load_manifest(path)
    assert again == m
    save_manifest(again, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_dates_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        PatientEntry("P0", (study("S0", date="2020-07-01"),
                            study("S1", date="2020-01-01")))


def test_date_ties_rejected():
    with pytest.raises(ValueError, match="strictly increasing"):
        PatientEntry("P0", (study("S0"), study("S1")))


def test_duplicate_patient_ids():
    with pytest.raises(ValueError, match="duplicate"):
        CohortManifest(patients=(PatientEntry("P0", (study(),)),
                                 PatientEntry("P0", (study("S9"),))))


def test_bad_values_rejected():
    with pytest.raises(ValueError, match="age"):
        study(age=-1)
    with pytest.raises(ValueError, match="age must be a finite number, got True"):
        study(age=True)
    with pytest.raises(ValueError, match=r"keys \['01'\] are not labels"):
        study(truth={1: "OSTEOPOROTIC", "01": "NEOPLASTIC"})
    with pytest.raises(ValueError, match="gender"):
        study(gender="X")
    with pytest.raises(ValueError, match="truth"):
        study(truth={1: "BROKEN"})
    with pytest.raises(ValueError):
        study(date="not-a-date")


def test_fractured_instance_count(small_cohort):
    spec, manifest, _ = small_cohort
    # topmost vertebra per patient stays unfractured
    per_study = spec.vertebrae_per_patient - 1
    assert manifest.fractured_instance_count() == \
        spec.n_patients * spec.studies_per_patient * per_study


def test_years_between():
    assert years_between(dt.date(2020, 1, 1), dt.date(2020, 1, 1)) == 0.0
    assert years_between(dt.date(2019, 1, 1), dt.date(2020, 1, 1)) == 365 / 365.25


def _write_manifest(path, pid, sid, age=60.0):
    doc = {"schema_version": 1, "patients": [{"patient_id": pid, "studies": [{
        "study_id": sid, "patient_id": pid, "acquisition_date": "2020-01-01",
        "age": age, "gender": "F", "volume_path": "a.vvol",
        "labelmap_path": "a.vlbl", "vertebra_truth": {"1": "OSTEOPOROTIC"}}]}]}
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("bad", ["A,B", 'A"B', "A\rB", "A\nB"])
@pytest.mark.parametrize("field", ["patient", "study"])
def test_ids_that_would_break_csv_rows_rejected(tmp_path, field, bad):
    # An unquoted "A,B" read back from features.csv as patient A, study B,
    # shifting every value one column.
    path = tmp_path / "manifest.json"
    _write_manifest(path, bad if field == "patient" else "P0",
                    bad if field == "study" else "7")
    with pytest.raises(ValueError, match=f"{field} id {re.escape(repr(bad))}"):
        load_manifest(path)


@pytest.mark.parametrize("age, literal", [
    (float("nan"), "NaN"), (float("inf"), "Infinity"), (-float("inf"), "-Infinity"),
    ("60", '"60"'),
])
def test_non_finite_age_rejected(tmp_path, age, literal):
    # json accepts NaN and Infinity; a NaN age would become an imputed Age
    # cell and an infinite one would fail only when the feature table is
    # written.
    path = tmp_path / "manifest.json"
    _write_manifest(path, "P0", "S7", age=age)
    assert f'"age": {literal},' in path.read_text(encoding="utf-8")
    with pytest.raises(ValueError, match="^study S7: age must be a finite number"):
        load_manifest(path)


def _study0(doc):
    return doc["patients"][0]["studies"][0]


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d.pop("patients"), "patients"),
    (lambda d: d.update(patients={"P0": []}), "patients"),
    (lambda d: _study0(d).update(acquisition_date="2018-13-40"),
     "patients[0].studies[0].acquisition_date"),
    (lambda d: _study0(d).update(vertebra_truth={"x": "OSTEOPOROTIC"}),
     "patients[0].studies[0].vertebra_truth"),
    (lambda d: _study0(d).update(foo=1), "patients[0].studies[0].foo"),
    (lambda d: _study0(d).pop("age"), "patients[0].studies[0].age"),
    (lambda d: _study0(d).update(age="50"), "patients[0].studies[0].age"),
    (lambda d: _study0(d).update(age=True), "patients[0].studies[0].age"),
    (lambda d: _study0(d)["vertebra_truth"].update({"01": "NEOPLASTIC"}),
     "patients[0].studies[0].vertebra_truth"),
    (lambda d: _study0(d)["vertebra_truth"].update({" 1": "NEOPLASTIC"}),
     "patients[0].studies[0].vertebra_truth"),
    (lambda d: _study0(d)["vertebra_truth"].update({"+1": "NEOPLASTIC"}),
     "patients[0].studies[0].vertebra_truth"),
    (lambda d: d["patients"][0].update(studies=None), "patients[0].studies"),
], ids=["no-patients", "patients-object", "bad-date", "bad-truth-key", "unknown-key",
        "no-age", "string-age", "bool-age", "zero-padded-truth-key",
        "spaced-truth-key", "signed-truth-key", "null-studies"])
def test_extract_names_manifest_and_field(tmp_path, capsys, mutate, field):
    path = tmp_path / "manifest.json"
    _write_manifest(path, "P0", "S7")
    doc = json.loads(path.read_text(encoding="utf-8"))
    mutate(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["extract", "--manifest", str(path),
                 "--out", str(tmp_path / "features.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"(at {field} in {path})" in err
