import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import (reference_assemble, reference_imputation_constants,
                     reference_impute)
from vcfclass import densitometry
from vcfclass.crossval import imputation_constants, impute, outer_folds
from vcfclass.features import (ALL_COLUMNS, DEMOGRAPHIC_COLUMNS,
                               MEASURED_COLUMNS, RATE_COLUMNS, FeatureTable,
                               assemble, condition_columns, load_table,
                               measured_features, rate, save_table)
from vcfclass.phantom import CohortSpec, generate_cohort


def test_column_contract():
    assert len(MEASURED_COLUMNS) == 18
    assert len(RATE_COLUMNS) == 16
    assert len(DEMOGRAPHIC_COLUMNS) == 2
    assert len(ALL_COLUMNS) == 36
    assert MEASURED_COLUMNS[:16] == [
        "h_c", "h_a", "h_p", "h_l", "h_r", "h_avg", "h_avg_5",
        "contrastP", "contrastN", "contrastA", "vid",
        "Anterior", "Center", "Posterior", "manualMean", "meanH"]
    assert MEASURED_COLUMNS[16:] == ["meanDen", "meanTrab"]
    assert "R_vid" not in RATE_COLUMNS and "R_meanH" not in RATE_COLUMNS
    assert RATE_COLUMNS[-2:] == ["R_meanDen", "R_meanTrab"]
    assert condition_columns("measured") == MEASURED_COLUMNS + DEMOGRAPHIC_COLUMNS
    assert condition_columns("longitudinal") == RATE_COLUMNS + DEMOGRAPHIC_COLUMNS
    assert condition_columns("combined") == ALL_COLUMNS
    with pytest.raises(ValueError, match="condition"):
        condition_columns("everything")


def test_rate_arithmetic():
    assert rate(17.0, 20.0, 0.5) == -6.0
    assert rate(20.0, 20.0, 0.5) == 0.0
    assert np.isnan(rate(np.nan, 20.0, 0.5))
    assert np.isnan(rate(17.0, np.nan, 0.5))
    with pytest.raises(ValueError, match="dt"):
        rate(17.0, 20.0, 0.0)
    with pytest.raises(ValueError, match="dt"):
        rate(17.0, 20.0, -1.0)


def test_rate_properties_randomized():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        a, b = rng.normal(size=2) * 50
        dt = float(rng.uniform(0.05, 4.0))
        assert rate(a, b, dt) == -rate(b, a, dt)
        assert rate(a, b, dt / 2) == pytest.approx(2.0 * rate(a, b, dt), rel=1e-12)


def test_rate_elementwise_with_nan():
    current = np.array([17.0, np.nan, 4.0, np.nan, 2.5])
    previous = np.array([20.0, 3.0, np.nan, np.nan, 2.5])
    got = rate(current, previous, 0.5)
    assert got.shape == (5,)
    assert got[0] == -6.0 and got[4] == 0.0
    assert np.isnan(got[1:4]).all()
    for c, p, g in zip(current, previous, got):
        assert np.array_equal(rate(c, p, 0.5), g, equal_nan=True)
    with pytest.raises(ValueError, match="dt"):
        rate(current, previous, 0.0)


@pytest.fixture(scope="module")
def two_study_cohort(tmp_path_factory):
    # 1 patient, 2 studies, 2 vertebrae of which 1 fractured.
    out = tmp_path_factory.mktemp("twostudy")
    spec = CohortSpec(n_patients=1, studies_per_patient=2, vertebrae_per_patient=2,
                      seed=8, spacing=(1.5, 1.5, 1.5), noise_sd=0.0)
    manifest = generate_cohort(spec, out)
    return manifest, out


def test_policy_exclude(two_study_cohort):
    manifest, root = two_study_cohort
    table = assemble(manifest, root, policy="exclude")
    assert len(table) == 1    # only the second study keeps its instance


def test_policy_zero(two_study_cohort):
    manifest, root = two_study_cohort
    table = assemble(manifest, root, policy="zero")
    assert len(table) == 2
    rate_idx = [ALL_COLUMNS.index(c) for c in RATE_COLUMNS]
    assert np.all(table.matrix[0, rate_idx] == 0.0)
    assert not np.all(table.matrix[1, rate_idx] == 0.0)


def test_policy_carry(two_study_cohort):
    # 'carry' gave the matrix of 'zero' and is no longer a policy.
    manifest, root = two_study_cohort
    for policy in ("carry", "bogus"):
        with pytest.raises(ValueError, match=f"unknown policy '{policy}'"):
            assemble(manifest, root, policy=policy)


def test_rates_match_manual_computation(two_study_cohort):
    manifest, root = two_study_cohort
    from vcfclass.features import measured_features
    from vcfclass.manifest import years_between
    patient = manifest.patients[0]
    s0, s1 = patient.studies
    m0 = measured_features(s0, root)
    m1 = measured_features(s1, root)
    dt = years_between(s0.acquisition_date, s1.acquisition_date)
    label = s1.fractured_labels()[0]
    table = assemble(manifest, root, policy="zero")
    assert table.instance_ids[1] == (s1.patient_id, s1.study_id, label)
    j = ALL_COLUMNS.index("R_h_avg")
    expected = (m1[label]["h_avg"] - m0[label]["h_avg"]) / dt
    assert table.matrix[1, j] == pytest.approx(expected, rel=1e-12)
    assert expected < 0   # fractured bodies lose height


def test_demographic_encoding():
    from vcfclass.features import demographics
    from vcfclass.manifest import StudyRecord
    study = StudyRecord(study_id="S", patient_id="P", acquisition_date="2020-01-01",
                        age=57.0, gender="F", volume_path="v", labelmap_path="l",
                        vertebra_truth={})
    assert demographics(study) == {"Gender": 0.0, "Age": 57.0}
    male = StudyRecord(study_id="S", patient_id="P", acquisition_date="2020-01-01",
                       age=61.0, gender="M", volume_path="v", labelmap_path="l",
                       vertebra_truth={})
    assert demographics(male)["Gender"] == 1.0


def test_demographics_and_vid(two_study_cohort):
    manifest, root = two_study_cohort
    table = assemble(manifest, root, policy="zero")
    study = manifest.patients[0].studies[0]
    row = table.matrix[0]
    g = row[ALL_COLUMNS.index("Gender")]
    assert g == (0.0 if study.gender == "F" else 1.0)
    assert row[ALL_COLUMNS.index("Age")] == pytest.approx(study.age)
    assert row[ALL_COLUMNS.index("vid")] == 11.0   # second vertebra, level 11


def test_row_count_matches_manifest(small_cohort):
    _, manifest, root = small_cohort
    table = assemble(manifest, root, policy="zero")
    assert len(table) == manifest.fractured_instance_count()
    table_ex = assemble(manifest, root, policy="exclude")
    n_patients = len(manifest.patients)
    assert len(table_ex) == manifest.fractured_instance_count() - 2 * n_patients


def test_csv_roundtrip_full_precision(small_cohort, tmp_path):
    _, manifest, root = small_cohort
    table = assemble(manifest, root, policy="zero")
    path = tmp_path / "features.csv"
    save_table(table, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(
        ["patient_id", "study_id", "vertebra"] + ALL_COLUMNS + ["truth"])
    again = load_table(path)
    a, b = table.matrix, again.matrix
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.array_equal(a[~np.isnan(a)], b[~np.isnan(b)])
    assert table.instance_ids == again.instance_ids
    assert np.array_equal(table.truth, again.truth)


def test_missing_neighbor_sets_mask(small_cohort):
    # The lowest vertebra has no inferior neighbor: contrastN is missing (NaN).
    _, manifest, root = small_cohort
    table = assemble(manifest, root, policy="zero")
    j = ALL_COLUMNS.index("contrastN")
    bottom_rows = [i for i, (_, _, vertebra) in enumerate(table.instance_ids)
                   if vertebra == 3]
    assert bottom_rows
    for i in bottom_rows:
        assert np.isnan(table.matrix[i, j])


def test_reference_means_and_ball_once_per_study(small_cohort, monkeypatch):
    _, manifest, root = small_cohort
    calls = {"mean_density": 0, "_ball_structure": 0}
    for name in calls:
        real = getattr(densitometry, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(densitometry, name, counted)
    for patient in manifest.patients:
        for study in patient.studies:
            for name in calls:
                calls[name] = 0
            measured = measured_features(study, root)
            # one mean per vertebra body, one per reference region
            assert calls == {"mean_density": len(measured) + 2, "_ball_structure": 1}


def test_duplicate_instance_ids_rejected(two_study_cohort):
    manifest, root = two_study_cohort
    table = assemble(manifest, root, policy="zero")
    first = table.instance_ids[0]
    with pytest.raises(ValueError, match=re.escape(f"duplicate instance id {first}")):
        FeatureTable(instance_ids=table.instance_ids + [first],
                     matrix=np.vstack([table.matrix, table.matrix[:1]]),
                     truth=np.append(table.truth, table.truth[0]))


def _small_columns(n=3):
    return dict(instance_ids=[("P", "S", v) for v in range(n)],
                matrix=np.arange(n * 36, dtype=float).reshape(n, 36),
                truth=["O", "N", "O"][:n])


@pytest.mark.parametrize("field, value", [
    ("instance_ids", [("P", "S", 0), ("P", "S", 1)]),
    ("matrix", np.zeros((2, 36))),
    ("matrix", np.zeros((3, 35))),
    ("matrix", np.zeros((4, 36))),
    ("matrix", np.zeros((3, 37))),
    ("truth", ["O", "N"]),
    ("truth", [["O"], ["N"], ["O"]]),
])
def test_mismatched_shapes_rejected(field, value):
    columns = _small_columns()
    columns[field] = value
    with pytest.raises(ValueError, match="shape"):
        FeatureTable(**columns)


def test_arrays_read_only():
    columns = _small_columns()
    table = FeatureTable(**columns)
    for name in ("matrix", "truth"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(table, name)[0] = getattr(table, name)[1]
    columns["matrix"][0, 0] = -1.0          # the caller's array is not shared
    assert table.matrix[0, 0] == 0.0
    assert np.array_equal(table.patient_ids, ["P", "P", "P"])


def test_replace_leaves_source_unchanged():
    table = FeatureTable(**_small_columns())
    flipped = replace(table, truth=["N", "O", "N"])
    assert list(table.truth) == ["O", "N", "O"]
    assert list(flipped.truth) == ["N", "O", "N"]
    assert not flipped.truth.flags.writeable
    assert np.array_equal(flipped.matrix, table.matrix)
    assert flipped.instance_ids == table.instance_ids


def _saved_table(two_study_cohort, tmp_path):
    manifest, root = two_study_cohort
    path = tmp_path / "features.csv"
    save_table(assemble(manifest, root, policy="zero"), path)
    return path


def test_save_table_writes_only_the_csv(two_study_cohort, tmp_path):
    path = _saved_table(two_study_cohort, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv"]
    # A sidecar an older version wrote beside the table is not read.
    path.with_suffix(".csv.meta.json").write_text("{not json", encoding="utf-8")
    table = load_table(path)
    assert len(table) == 2


def test_row_with_wrong_cell_count_names_file_and_line(two_study_cohort, tmp_path):
    path = _saved_table(two_study_cohort, tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = "A," + lines[2]         # what an unquoted comma in an id does
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"features\.csv:3: row has 41 cells, expected 40"):
        load_table(path)


def test_non_utf8_byte_names_file(two_study_cohort, tmp_path):
    path = _saved_table(two_study_cohort, tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:-2] + b"\xff\n")
    with pytest.raises(ValueError) as info:
        load_table(path)
    assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("column, cell, message", [
    (2, "x", "column vertebra: invalid literal for int() with base 10: 'x'"),
    (3 + ALL_COLUMNS.index("h_a"), "x", "column h_a: could not convert string to float: 'x'"),
    (-1, "X", "column truth: unknown truth label 'X'"),
])
def test_bad_cell_names_file_line_and_column(two_study_cohort, tmp_path,
                                             column, cell, message):
    path = _saved_table(two_study_cohort, tmp_path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = cell
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_table(path)
    assert str(info.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN", "Infinity"])
def test_non_finite_cell_names_file_line_and_column(two_study_cohort, tmp_path, cell):
    # The empty cell is the one spelling of a missing value.
    path = _saved_table(two_study_cohort, tmp_path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[3 + ALL_COLUMNS.index("h_c")] = cell
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_table(path)
    assert str(info.value) == (f"{path}:3: column h_c: non-finite number {cell!r}; "
                               f"a missing value is an empty cell")


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_save_table_refuses_non_finite_value(tmp_path, value):
    columns = _small_columns()
    columns["matrix"][1, ALL_COLUMNS.index("meanTrab")] = value
    table = FeatureTable(**columns)
    path = tmp_path / "features.csv"
    with pytest.raises(ValueError) as info:
        save_table(table, path)
    assert str(info.value) == (f"instance {table.instance_ids[1]}: column meanTrab: "
                               f"non-finite value {float(value)!r}")
    assert not path.exists()


@pytest.mark.parametrize("text, message", [
    ("", "{path}: empty file"),
    ("patient_id,study_id\n", "{path}: header is not "),
], ids=["empty", "wrong header"])
def test_malformed_table_file_named(tmp_path, text, message):
    path = tmp_path / "features.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_table(path)
    assert str(info.value).startswith(message.format(path=path))


def test_header_only_table_has_no_rows(tmp_path):
    path = tmp_path / "features.csv"
    save_table(FeatureTable(instance_ids=[], matrix=np.zeros((0, 36)), truth=[]), path)
    table = load_table(path)
    assert len(table) == 0 and table.matrix.shape == (0, 36)


@pytest.fixture(scope="module")
def ranged_cohort(tmp_path_factory):
    # One to three studies per patient; the end vertebrae lack a neighbour,
    # so their contrasts (and those contrasts' rates) are missing.
    out = tmp_path_factory.mktemp("ranged")
    spec = CohortSpec(n_patients=4, studies_per_patient=(1, 3), vertebrae_per_patient=3,
                      seed=3, spacing=(1.5, 1.5, 1.5))
    return generate_cohort(spec, out), out


@pytest.mark.parametrize("policy", ["zero", "exclude"])
def test_assemble_matches_dict_built_rows(ranged_cohort, policy):
    manifest, root = ranged_cohort
    got = assemble(manifest, root, policy=policy)
    want, _ = reference_assemble(manifest, root, policy=policy)
    counts = {len(p.studies) for p in manifest.patients}
    assert min(counts) == 1 and max(counts) > 2
    contrast = [ALL_COLUMNS.index(c) for c in ("contrastP", "contrastN")]
    assert np.isnan(want.matrix[:, contrast]).any()
    assert got.instance_ids == want.instance_ids
    assert np.array_equal(got.matrix, want.matrix, equal_nan=True)
    assert np.array_equal(got.truth, want.truth)


def test_nan_imputation_equals_mask_aware_reference(ranged_cohort):
    """Imputation that reads only NaN gives the fills and imputed matrices of
    the mask-aware reference run on the reference mask, for every training
    split; and the old 'carry' policy gave the matrix of 'zero'."""
    manifest, root = ranged_cohort
    table = assemble(manifest, root, policy="zero")
    want, mask = reference_assemble(manifest, root, policy="zero")
    assert np.array_equal(table.matrix, want.matrix, equal_nan=True)
    rate_idx = [ALL_COLUMNS.index(c) for c in RATE_COLUMNS]
    # The mask marks more than NaN: the first studies' zero rates.
    assert (mask & ~np.isnan(want.matrix))[:, rate_idx].any()
    assert np.array_equal(mask & ~np.isnan(want.matrix),
                          mask & (want.matrix == 0.0))
    folds = outer_folds(table, 10, 0, group_by_patient=False)
    for f in range(10):
        tr = folds != f
        values, ref_mask = table.matrix[tr], mask[tr]
        fill = imputation_constants(values, ALL_COLUMNS)
        assert np.array_equal(fill, reference_imputation_constants(
            values, ref_mask, ALL_COLUMNS))
        assert np.array_equal(impute(values, fill),
                              reference_impute(values, ref_mask, fill))
        assert np.array_equal(impute(table.matrix[~tr], fill),
                              reference_impute(table.matrix[~tr], mask[~tr], fill))
    carry, _ = reference_assemble(manifest, root, policy="carry")
    assert carry.instance_ids == table.instance_ids
    assert np.array_equal(carry.matrix, table.matrix, equal_nan=True)
