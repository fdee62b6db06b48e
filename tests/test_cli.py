import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import run_cli, subcommand_options, tree_hash
from vcfclass.cli import main
from vcfclass.crossval import load_predictions, outer_folds
from vcfclass.features import ALL_COLUMNS, load_table


@pytest.fixture(scope="module")
def cli_cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "coh"
    code = main(["phantom", "--patients", "3", "--studies", "2", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cli_features(cli_cohort, tmp_path_factory):
    csv = tmp_path_factory.mktemp("cli_feat") / "features.csv"
    code = main(["extract", "--manifest", str(cli_cohort / "manifest.json"),
                 "--out", str(csv)])
    assert code == 0
    return csv


def test_phantom_writes_manifest_and_config(cli_cohort):
    assert (cli_cohort / "manifest.json").is_file()
    cfg = json.loads((cli_cohort / "run_config.json").read_text())
    assert cfg["command"] == "phantom"
    assert cfg["settings"]["patients"] == 3
    assert cfg["settings"]["seed"] == 7


def test_phantom_deterministic_rerun(cli_cohort, tmp_path):
    out2 = tmp_path / "coh2"
    assert main(["phantom", "--patients", "3", "--studies", "2", "--seed", "7",
                 "--out", str(out2)]) == 0
    assert tree_hash(cli_cohort) == tree_hash(out2)


def test_phantom_usage_errors():
    r = run_cli("phantom", "--patients", "0", "--out", "/tmp/unused")
    assert r.returncode == 2
    assert r.stderr.strip().startswith("error:")
    assert "\n" not in r.stderr.strip()


@pytest.mark.parametrize("flags, message", [
    (["--patients", "0"], "n_patients=0"),
    (["--vertebrae", "0"], "vertebrae_per_patient=0"),
    (["--studies", "0"], "studies_per_patient"),
    (["--studies", "3", "--studies-max", "2"], "studies range"),
    (["--fraction-neoplastic", "1.5"], "fraction_neoplastic"),
    (["--interval", "0"], "study_interval"),
    (["--interval", "inf"], "study_interval"),
    (["--spacing", "0", "1", "1"], "spacing"),
    (["--spacing", "1", "nan", "1"], "spacing"),
    (["--noise", "-1"], "noise_sd"),
    (["--noise", "nan"], "noise_sd"),
    (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
])
def test_phantom_bad_settings_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "coh"
    assert main(["phantom", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--r1-fraction", "0.3"], "--r1-fraction"),
    (["--r2-fraction", "0.6"], "--r2-fraction"),
    (["--erosion-mm", "nan"], "--erosion-mm"),
    (["--erosion-mm", "inf"], "--erosion-mm"),
    (["--erosion-mm", "-1"], "--erosion-mm"),
])
def test_extract_bad_settings_exit_2(cli_cohort, tmp_path, capsys, monkeypatch,
                                     flags, message):
    # The ring fractions and the probe's erosion radius are constants of the
    # method; no extract option sets them, whatever the value.
    def no_reads(*args, **kwargs):
        raise AssertionError("a study was read before the settings were checked")

    monkeypatch.setattr("vcfclass.features.measured_features", no_reads)
    out = tmp_path / "feat" / "features.csv"
    assert main(["extract", "--manifest", str(cli_cohort / "manifest.json"),
                 *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flags)}" in err
    assert message in err
    assert not out.parent.exists()


def test_extract_csv_shape(cli_features):
    header = cli_features.read_text().splitlines()[0].split(",")
    assert len(header) == 3 + 36 + 1
    table = load_table(cli_features)
    assert len(table) == 3 * 2 * 2     # patients x studies x fractured


def test_extract_writes_table_and_run_config_only(cli_cohort, tmp_path, capsys):
    out = tmp_path / "feat"
    assert main(["extract", "--manifest", str(cli_cohort / "manifest.json"),
                 "--out", str(out / "features.csv")]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "features.csv", "features.csv.run_config.json"]
    cfg = json.loads((out / "features.csv.run_config.json").read_text())
    assert cfg["command"] == "extract"
    assert cfg["settings"] == {"manifest": str(cli_cohort / "manifest.json"),
                               "policy": "zero"}
    capsys.readouterr()
    assert main(["extract", "--manifest", str(cli_cohort / "manifest.json"),
                 "--policy", "carry", "--out", str(tmp_path / "c" / "f.csv")]) == 2
    assert "invalid choice: 'carry'" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_extract_policy_exclude(cli_cohort, tmp_path):
    csv = tmp_path / "ex.csv"
    assert main(["extract", "--manifest", str(cli_cohort / "manifest.json"),
                 "--policy", "exclude", "--out", str(csv)]) == 0
    table = load_table(csv)
    assert len(table) == 3 * 1 * 2     # first study dropped per patient


def test_extract_missing_manifest_exit_2(tmp_path):
    r = run_cli("extract", "--manifest", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "f.csv"))
    assert r.returncode == 2


def test_cv_conditions_and_reports(cli_features, tmp_path):
    out = tmp_path / "res"
    code = main(["cv", "--table", str(cli_features),
                 "--conditions", "measured,longitudinal,combined",
                 "--k", "4", "--seed", "5", "--members", "2", "--out", str(out)])
    assert code == 0
    for name in ("metrics.csv", "comparisons.csv", "report.txt", "run_config.json",
                 "predictions_measured.csv", "predictions_longitudinal.csv",
                 "predictions_combined.csv"):
        assert (out / name).is_file(), name
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "condition,accuracy,misclassifications,n"
    assert len(metrics) == 4
    pairs = (out / "comparisons.csv").read_text().splitlines()
    assert pairs[0] == "pair,p_value"
    assert len(pairs) == 4             # three pairwise comparisons


def test_cv_deterministic_outputs(cli_features, tmp_path):
    args = ["cv", "--table", str(cli_features), "--conditions", "measured",
            "--k", "4", "--seed", "5", "--members", "2"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    for name in ("metrics.csv", "comparisons.csv", "report.txt",
                 "predictions_measured.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes()


@pytest.mark.parametrize("cell, message", [
    (None, "{path}: empty file"),
    ((3, "h_c", "x"), "{path}:3: column h_c: could not convert string to float: 'x'"),
    ((4, "vertebra", "2.5"),
     "{path}:4: column vertebra: invalid literal for int() with base 10: '2.5'"),
    ((3, "h_c", "inf"),
     "{path}:3: column h_c: non-finite number 'inf'; a missing value is an empty cell"),
], ids=["empty", "non-numeric feature", "non-integer vertebra", "non-finite feature"])
def test_cv_malformed_table_named(cli_features, tmp_path, capsys, cell, message):
    lines = cli_features.read_text(encoding="utf-8").splitlines()
    if cell is None:
        lines = []
    else:
        line, column, value = cell
        cells = lines[line - 1].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[line - 1] = ",".join(cells)
    path = tmp_path / "features.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "res"
    assert main(["cv", "--table", str(path), "--k", "2", "--members", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == "error: " + message.format(path=path)
    assert not out.exists()


def test_cv_duplicate_table_row_named(cli_features, tmp_path, capsys):
    lines = cli_features.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "features.csv"
    path.write_text("".join(line + "\n" for line in lines + lines[1:2]),
                    encoding="utf-8")
    out = tmp_path / "res"
    assert main(["cv", "--table", str(path), "--k", "2", "--members", "1",
                 "--out", str(out)]) == 1
    pid, sid, vertebra = lines[1].split(",")[:3]
    assert capsys.readouterr().err.strip() == \
        f"error: {path}: duplicate instance id {(pid, sid, int(vertebra))}"
    assert not out.exists()


def test_cv_k_too_large_exit_2(cli_features, tmp_path):
    r = run_cli("cv", "--table", str(cli_features), "--k", "500",
                "--out", str(tmp_path / "r"))
    assert r.returncode == 2
    assert "k" in r.stderr


def test_cv_bad_condition_exit_2(cli_features, tmp_path):
    r = run_cli("cv", "--table", str(cli_features), "--conditions", "everything",
                "--out", str(tmp_path / "r"))
    assert r.returncode == 2


def test_cv_repeated_condition_exit_2(cli_features, tmp_path):
    r = run_cli("cv", "--table", str(cli_features), "--conditions",
                "measured,combined,measured", "--out", str(tmp_path / "r"))
    assert r.returncode == 2
    assert "measured" in r.stderr and "more than once" in r.stderr
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag, value", [
    ("--c", "nan"), ("--c", "inf"), ("--c", "0"), ("--gamma", "nan"),
    ("--gamma", "inf"), ("--gamma", "-1"),
])
def test_cv_invalid_svm_params_exit_2(cli_features, tmp_path, flag, value):
    code = main(["cv", "--table", str(cli_features), "--conditions", "measured",
                 "--k", "4", flag, value, "--out", str(tmp_path / "r")])
    assert code == 2
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flags, message", [
    (["--k", "4", "--group-by-patient"], "--k 4 exceeds the 3 patients"),
    (["--k", "4", "--inner-folds", "10"], "--inner-folds 10 exceeds the 9 instances"),
    (["--k", "2", "--group-by-patient", "--inner-folds", "7"], "--inner-folds 7"),
])
def test_cv_fold_flags_beyond_data_exit_2(cli_features, tmp_path, capsys, flags, message):
    assert len(load_table(cli_features)) == 12
    code = main(["cv", "--table", str(cli_features), "--conditions", "measured",
                 *flags, "--out", str(tmp_path / "r")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("shuffle", [[], ["--shuffle-labels"]], ids=["plain", "shuffled"])
def test_cv_negative_seed_exit_2(cli_features, tmp_path, capsys, shuffle):
    out = tmp_path / "out"
    assert main(["cv", "--table", str(cli_features), "--conditions", "measured",
                 "--k", "4", "--seed", "-1", *shuffle, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "error: seed must be a non-negative integer, got -1"
    assert not out.exists()


def test_cv_every_outer_fold_single_class_exit_2(cli_features, tmp_path, capsys):
    # Each of the 3 patients holds one class, so both patient-grouped folds
    # leave a single class to train on.
    table = load_table(cli_features)
    folds = outer_folds(table, 2, 0, True)
    assert all(np.unique(table.truth[folds != f]).size == 1 for f in range(2))
    out = tmp_path / "r"
    code = main(["cv", "--table", str(cli_features), "--conditions", "measured",
                 "--k", "2", "--group-by-patient", "--members", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "--k 2: every outer training split holds a single class" in err
    assert not out.exists()


def test_cv_inner_folds_at_smallest_training_split(cli_features, tmp_path):
    table = load_table(cli_features)
    smallest = len(table) - int(np.bincount(outer_folds(table, 4, 0, False)).max())
    assert main(["cv", "--table", str(cli_features), "--conditions", "measured",
                 "--k", "4", "--members", "1", "--inner-folds", str(smallest),
                 "--out", str(tmp_path / "r")]) == 0


def test_cv_save_models_is_gone_exit_2(cli_features, tmp_path):
    # Committee files had no reader, so the option that wrote them is gone.
    out = tmp_path / "res"
    assert main(["cv", "--table", str(cli_features), "--save-models",
                 "--out", str(out)]) == 2
    assert not out.exists()


# Every option of every subcommand besides -h/--help, in --help order: adding
# or removing a knob takes a deliberate edit here.
CLI_OPTIONS = {
    "phantom": ["--patients", "--studies", "--studies-max", "--interval",
                "--fraction-neoplastic", "--vertebrae", "--spacing", "--noise",
                "--seed", "--out"],
    "extract": ["--manifest", "--policy", "--out"],
    "cv": ["--table", "--conditions", "--k", "--seed", "--members",
           "--max-features", "--inner-folds", "--c", "--gamma",
           "--group-by-patient", "--shuffle-labels", "--out"],
    "report": ["--results", "--out"],
    "paper-check": ["--out"],
}


def test_cli_options_are_pinned():
    assert subcommand_options() == {name: ["-h", "--help", *options]
                                    for name, options in CLI_OPTIONS.items()}


@pytest.fixture(scope="module")
def cli_results(cli_features, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_res") / "res"
    assert main(["cv", "--table", str(cli_features), "--conditions", "measured",
                 "--k", "4", "--members", "1", "--max-features", "1",
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command, flags", [
    ("cv", ["--selection", "none"]),
    ("cv", ["--selection", "greedy_forward"]),
    ("cv", ["--heatmaps"]),
    ("report", ["--heatmaps"]),
    ("cv", ["--kernel", "rbf"]),
    ("cv", ["--kernel", "linear"]),
])
def test_cv_and_report_removed_flags_exit_2(cli_features, cli_results, tmp_path,
                                            capsys, command, flags):
    # Every member runs greedy selection with the RBF kernel and the reports
    # are text and CSV only, so the options that chose otherwise are gone.
    source = (["--table", str(cli_features)] if command == "cv"
              else ["--results", str(cli_results)])
    out = tmp_path / "out"
    assert main([command, *source, *flags, "--out", str(out)]) == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


def test_cv_run_config_names_the_gamma_rule(cli_features, tmp_path):
    args = ["cv", "--table", str(cli_features), "--conditions", "measured",
            "--k", "4", "--seed", "5", "--members", "1", "--max-features", "1"]
    for extra, gamma in (([], "1/d"), (["--gamma", "0.25"], 0.25)):
        out = tmp_path / str(gamma).replace("/", "_")
        assert main(args + extra + ["--out", str(out)]) == 0
        settings = json.loads((out / "run_config.json").read_text())["settings"]
        assert settings["gamma"] == gamma
        assert settings["C"] == 1.0 and "kernel" not in settings     # RBF only


def test_report_regenerates_identical_files(cli_features, tmp_path):
    out = tmp_path / "res"
    assert main(["cv", "--table", str(cli_features), "--conditions",
                 "measured,combined", "--k", "4", "--seed", "5",
                 "--members", "2", "--out", str(out)]) == 0
    out2 = tmp_path / "reg"
    assert main(["report", "--results", str(out), "--out", str(out2)]) == 0
    for name in ("metrics.csv", "comparisons.csv", "report.txt"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_cv_and_report_use_canonical_condition_order(cli_features, tmp_path, capsys):
    runs = {}
    for order in ("measured,combined", "combined,measured"):
        out = tmp_path / order
        assert main(["cv", "--table", str(cli_features), "--conditions", order,
                     "--k", "4", "--seed", "5", "--members", "1",
                     "--out", str(out)]) == 0
        runs[order] = capsys.readouterr().out.replace(str(out), "OUT")
        assert json.loads((out / "run_config.json").read_text())["settings"][
            "conditions"] == ["measured", "combined"]
        assert main(["report", "--results", str(out), "--out",
                     str(tmp_path / f"{order}-report")]) == 0
        capsys.readouterr()
    assert runs["measured,combined"] == runs["combined,measured"]
    for name in ("metrics.csv", "comparisons.csv", "report.txt"):
        want = (tmp_path / "measured,combined" / name).read_bytes()
        assert (tmp_path / "combined,measured" / name).read_bytes() == want
        assert (tmp_path / "combined,measured-report" / name).read_bytes() == want


def test_report_names_predictions_file_whose_instances_differ(cli_features, tmp_path,
                                                              capsys):
    # Each file is well formed on its own; only the set of them disagrees.
    out = tmp_path / "res"
    assert main(["cv", "--table", str(cli_features), "--k", "4", "--seed", "7",
                 "--members", "1", "--out", str(out)]) == 0
    combined = out / "predictions_combined.csv"
    lines = combined.read_text(encoding="utf-8").splitlines(keepends=True)
    combined.write_text("".join(lines[:4] + lines[5:]), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--results", str(out), "--out", str(tmp_path / "rep")]) == 1
    assert capsys.readouterr().err.strip() == (
        f"error: instance sets differ between {out / 'predictions_measured.csv'} "
        f"and {combined}")
    assert not (tmp_path / "rep").exists()


def test_report_without_evaluated_predictions_names_condition(tmp_path, capsys):
    # Every fold skipped: the file lists instances but no predictions.
    (tmp_path / "predictions_measured.csv").write_text(
        "patient_id,study_id,vertebra,truth,prediction,decision,fold\n"
        "P01,S1,12,O,,,0\n"
        "P02,S1,13,N,,,1\n", encoding="utf-8")
    assert main(["report", "--results", str(tmp_path), "--out",
                 str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: condition measured: no evaluated predictions"
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("text, message", [
    ("patient_id,study_id,vertebra,truth,prediction,decision,fold\n",
     "{path}: no prediction rows"),
    ("patient_id,study_id,vertebra,truth,prediction,decision,fold\n"
     "P01,S1,12,O,O,-0.5,0\n"
     "P02,S1,13,N,N,0.5\n",
     "{path}:3: row has 6 cells, expected 7"),
    ("patient,study,vertebra,truth,prediction,decision,fold\n"
     "P01,S1,12,O,O,-0.5,0\n",
     "{path}: header is not "
     "'patient_id,study_id,vertebra,truth,prediction,decision,fold'"),
    ("patient_id,study_id,vertebra,truth,prediction,decision,fold\n"
     "P01,S1,12,O,O,-0.5,x\n",
     "{path}:2: column fold: invalid literal for int() with base 10: 'x'"),
    ("patient_id,study_id,vertebra,truth,prediction,decision,fold\n"
     "P01,S1,12,O,O,-0.5,0\n"
     "P02,S1,13,N,N,y,1\n",
     "{path}:3: column decision: could not convert string to float: 'y'"),
    ("patient_id,study_id,vertebra,truth,prediction,decision,fold\n"
     "P01,S1,L1,O,O,-0.5,0\n",
     "{path}:2: column vertebra: invalid literal for int() with base 10: 'L1'"),
    ("", "{path}: empty file"),
    ("patient_id,study_id,vertebra,truth,prediction,decision,fold\n"
     "P01,S1,12,O,O,-0.5,0\n"
     "P01,S1,12,O,O,-0.5,0\n",
     "{path}:3: duplicate instance id ('P01', 'S1', 12)"),
    ("patient_id,study_id,vertebra,truth,prediction,decision,fold\n"
     "P01,S1,12,O,N,-0.611,0\n",
     "{path}:2: column prediction: 'N' disagrees with decision -0.611, which "
     "gives 'O'"),
    ("patient_id,study_id,vertebra,truth,prediction,decision,fold\n"
     "P01,S1,12,O,,0.5,0\n",
     "{path}:2: column prediction: '' disagrees with decision 0.5, which "
     "gives 'N'"),
    ("patient_id,study_id,vertebra,truth,prediction,decision,fold\n"
     "P01,S1,12,O,O,,0\n",
     "{path}:2: column prediction: 'O' disagrees with decision nan, which "
     "gives ''"),
    ("patient_id,study_id,vertebra,truth,prediction,decision,fold\n"
     "P01,S1,12,X,O,-0.5,0\n",
     "{path}:2: column truth: unknown truth label 'X'"),
], ids=["header only", "short row", "wrong header", "bad fold", "bad decision",
        "bad vertebra", "empty", "duplicate row", "prediction against decision",
        "prediction without its decision", "decision without its prediction",
        "unknown truth"])
def test_report_malformed_predictions_named(tmp_path, capsys, text, message):
    path = tmp_path / "predictions_measured.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["report", "--results", str(tmp_path), "--out",
                 str(tmp_path / "rep")]) == 1
    assert capsys.readouterr().err.strip() == "error: " + message.format(path=path)
    assert not (tmp_path / "rep").exists()


@pytest.fixture(scope="module")
def cli_csv_files(cli_features, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_pred")
    assert main(["cv", "--table", str(cli_features), "--conditions", "measured",
                 "--k", "4", "--seed", "5", "--members", "1",
                 "--out", str(out)]) == 0
    return {"features.csv": cli_features,
            "predictions_measured.csv": out / "predictions_measured.csv"}


# Each reader returns the instance ids it loaded.
_READERS = {"features.csv": lambda path: load_table(path).instance_ids,
            "predictions_measured.csv": lambda path: load_predictions(path, "measured").ids}
# Cells that may legitimately be blank or hold any text: ids are free text,
# and an empty feature cell is a missing value.
_FREE_IDS = {"patient_id", "study_id"}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_csv_mutations_raise_naming_the_file(cli_csv_files, tmp_path_factory, data):
    """Each mutation of a features or predictions file either raises a
    ValueError naming the file or, where the result is still a well-formed
    file, loads: a deleted data row, a blanked or retyped free-text id, a
    blanked feature cell, and a number changed without crossing zero."""
    name = data.draw(st.sampled_from(sorted(cli_csv_files)))
    lines = cli_csv_files[name].read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    numbers = [c for c in header if c in ALL_COLUMNS or c == "decision"]
    line_kinds = ["delete", "duplicate", "truncate"]
    cell_kinds = ["blank", "retype", "add cell", "drop cell"]
    data_kinds = ["rescale"]                      # need a data row, not the header
    if name.startswith("predictions"):
        data_kinds += ["flip prediction", "flip decision"]
    kind = data.draw(st.sampled_from(line_kinds + cell_kinds + data_kinds))
    i = data.draw(st.integers(1 if kind in data_kinds else 0, len(lines) - 1))
    cells = lines[i].split(",")
    loads = False
    if kind == "delete":
        del lines[i]
        loads = i > 0
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind in ("blank", "retype"):
        j = data.draw(st.integers(0, len(cells) - 1))
        new = "" if kind == "blank" else "x1"
        assume(cells[j] != new)
        cells[j] = new
        loads = i > 0 and (header[j] in _FREE_IDS
                           or (kind == "blank" and header[j] in ALL_COLUMNS))
    elif kind == "add cell":
        cells.append("0")
    elif kind == "drop cell":
        cells.pop(data.draw(st.integers(0, len(cells) - 1)))
    elif kind == "truncate":
        # Cut inside the line: the last cell (truth, or a one-digit fold)
        # is one character, so a cut anywhere short of the end damages it.
        lines = lines[:i] + [lines[i][:data.draw(st.integers(1, len(lines[i]) - 1))]]
    elif kind == "rescale":
        j = header.index(data.draw(st.sampled_from(numbers)))
        assume(cells[j] != "")
        cells[j] = repr(float(cells[j]) * data.draw(st.floats(0.5, 2.0)))
        loads = True
    elif kind == "flip prediction":
        j = header.index("prediction")
        cells[j] = {"O": "N", "N": "O"}[cells[j]]
    else:
        j = header.index("decision")
        assume(float(cells[j]) != 0.0)
        cells[j] = cells[j][1:] if cells[j].startswith("-") else "-" + cells[j]
    if kind not in line_kinds:
        lines[i] = ",".join(cells)

    path = tmp_path_factory.getbasetemp() / "mutated" / name
    path.parent.mkdir(exist_ok=True)
    text = "\n".join(lines) + ("\n" if kind != "truncate" else "")
    path.write_text(text, encoding="utf-8")
    if loads:
        assert len(_READERS[name](path)) == len(lines) - 1
        return
    with pytest.raises(ValueError) as err:
        _READERS[name](path)
    assert str(err.value).startswith(f"{path}:"), str(err.value)


def test_report_missing_dir_exit_2(tmp_path):
    r = run_cli("report", "--results", str(tmp_path / "missing"))
    assert r.returncode == 2


def test_paper_check_output_and_exit_code():
    r = run_cli("paper-check")
    assert r.returncode == 0
    assert "0.812" in r.stdout and "0.665" in r.stdout and "0.820" in r.stdout
    assert "131" in r.stdout and "233" in r.stdout and "125" in r.stdout
    r2 = run_cli("paper-check")
    assert r2.stdout == r.stdout


def test_unknown_subcommand_exit_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_out_root_env_var(monkeypatch, tmp_path):
    monkeypatch.setenv("VCFCLASS_OUT", str(tmp_path))
    assert main(["phantom", "--patients", "1", "--studies", "1",
                 "--vertebrae", "2", "--seed", "1"]) == 0
    assert (tmp_path / "cohort" / "manifest.json").is_file()


def test_shuffle_labels_flag(cli_features, tmp_path):
    out = tmp_path / "shuf"
    assert main(["cv", "--table", str(cli_features), "--conditions", "measured",
                 "--k", "4", "--seed", "5", "--members", "1",
                 "--shuffle-labels", "--out", str(out)]) == 0
    base = load_table(cli_features)
    lines = (out / "predictions_measured.csv").read_text().splitlines()[1:]
    shuffled_truth = np.array([ln.split(",")[3] for ln in lines])
    assert sorted(shuffled_truth) == sorted(base.truth)   # same multiset
    assert not np.array_equal(shuffled_truth, base.truth)
