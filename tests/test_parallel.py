"""The process-pool map: results, files and the probe memo do not depend on
the number of usable CPUs, a cv run starts one pool for all its conditions,
a failing task reaches the user as in a serial run, and no worker outlives
the call.

Each case forces the worker count by replacing ``parallel.usable_cpus``, so
the pool path runs even where only one CPU is usable."""

import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import _PACKAGE_ROOT, tree_hash
from vcfclass import crossval, parallel
from vcfclass.cli import main
from vcfclass.committee import (CommitteeConfig, ProbeMemo, SelectionConfig,
                                train_committee)
from vcfclass.crossval import (cross_validate_conditions, imputation_constants,
                               impute, outer_folds, single_class_folds)
from vcfclass.features import (ALL_COLUMNS, CONDITIONS, condition_columns,
                               load_table)
from vcfclass.parallel import pmap
from vcfclass.phantom import CohortSpec, generate_cohort
from vcfclass.svm import SvmParams

CPUS = (1, 2, 3)
POOLED = (2, 3)


@pytest.fixture
def cpus(monkeypatch):
    """Set the worker count ``pmap`` sees."""
    def set_cpus(n):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
    return set_cpus


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _fail_from(x):
    # Task 3 fails at once. In a worker, task 1 fails only once task 3 has
    # failed (or after 30 s), so the pool sees the later task fail first.
    if x == 1:
        deadline = time.monotonic() + 30
        while (os.getpid() != int(os.environ["PMAP_PARENT"])
               and not os.path.exists(os.environ["FAIL_FLAG"])
               and time.monotonic() < deadline):
            time.sleep(0.001)
        raise ValueError("task 1 failed")
    if x == 3:
        open(os.environ["FAIL_FLAG"], "w").close()
        raise ValueError("task 3 failed")
    return x


@pytest.mark.parametrize("n", CPUS)
def test_results_in_task_order(cpus, n):
    cpus(n)
    assert pmap(_square, range(7)) == [x * x for x in range(7)]
    assert pmap(_square, []) == []
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("n, in_parent", [(1, True), (2, False), (3, False)])
def test_one_cpu_runs_in_process(cpus, n, in_parent):
    cpus(n)
    pids = set(pmap(_pid, range(6)))
    if in_parent:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) <= n


@pytest.mark.parametrize("n", CPUS)
def test_first_failing_task_in_order_raises(cpus, n, tmp_path, monkeypatch):
    cpus(n)
    monkeypatch.setenv("FAIL_FLAG", str(tmp_path / "flag"))
    monkeypatch.setenv("PMAP_PARENT", str(os.getpid()))
    with pytest.raises(ValueError, match="^task 1 failed$"):
        pmap(_fail_from, range(6))
    assert not multiprocessing.active_children()


def test_workers_fork_before_any_helper_thread(cpus, monkeypatch):
    # Forking a process that runs threads can deadlock the child.
    threads = []
    real_fork = os.fork

    def fork():
        threads.append(threading.active_count())
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    cpus(3)
    before = threading.active_count()
    assert pmap(_square, range(5)) == [x * x for x in range(5)]
    assert threads == [before] * 3


# ---------------------------------------------------------------------------
# pipeline outputs

@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """3 patients x 2 studies; each patient holds one class (two neoplastic)."""
    out = tmp_path_factory.mktemp("par") / "coh"
    assert main(["phantom", "--patients", "3", "--studies", "2", "--seed", "7",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def features(cohort, tmp_path_factory):
    csv = tmp_path_factory.mktemp("par_feat") / "features.csv"
    assert main(["extract", "--manifest", str(cohort / "manifest.json"),
                 "--out", str(csv)]) == 0
    return csv


@pytest.mark.parametrize("n", POOLED)
def test_cohort_identical(cpus, n, tmp_path):
    for seed, spacing in ((7, (1.0, 1.0, 1.0)), (5, (0.9, 1.1, 0.7))):
        spec = CohortSpec(n_patients=3, studies_per_patient=2, seed=seed,
                          spacing=spacing)
        hashes = []
        for workers in (1, n):
            cpus(workers)
            generate_cohort(spec, tmp_path / f"s{seed}-cpus{workers}")
            hashes.append(tree_hash(tmp_path / f"s{seed}-cpus{workers}"))
        assert hashes[1] == hashes[0]


@pytest.mark.parametrize("n", POOLED)
def test_features_identical(cpus, n, cohort, tmp_path):
    for policy in ("zero", "exclude"):
        tables = []
        for workers in (1, n):
            cpus(workers)
            out = tmp_path / f"{policy}-cpus{workers}.csv"
            assert main(["extract", "--manifest", str(cohort / "manifest.json"),
                         "--policy", policy, "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[1] == tables[0]


CV_RUNS = {
    "plain": ["--k", "4", "--seed", "5", "--members", "2"],
    "shuffled": ["--k", "3", "--seed", "2", "--members", "1", "--shuffle-labels"],
}


@pytest.mark.parametrize("run", sorted(CV_RUNS))
def test_cv_outputs_identical(cpus, features, tmp_path, run):
    digests = {}
    for n in CPUS:
        cpus(n)
        out = tmp_path / f"cpus{n}"
        assert main(["cv", "--table", str(features), *CV_RUNS[run],
                     "--out", str(out)]) == 0
        assert not multiprocessing.active_children()
        digests[n] = tree_hash(out)
    assert digests[2] == digests[1] and digests[3] == digests[1]


def test_grouped_cv_with_skipped_fold_identical(cpus, features, tmp_path):
    table = load_table(features)
    skipped = single_class_folds(table.truth, outer_folds(table, 3, 0, True), 3)
    assert len(skipped) == 1
    digests = {}
    for n in CPUS:
        cpus(n)
        out = tmp_path / f"cpus{n}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["cv", "--table", str(features), "--k", "3", "--members", "1",
                         "--group-by-patient", "--out", str(out)]) == 0
        messages = [str(w.message) for w in caught if "single class" in str(w.message)]
        # once per skipped fold, for all three conditions
        assert messages == [f"fold {skipped[0]}: training split has a single "
                            f"class; skipped"]
        digests[n] = tree_hash(out)
    assert digests[2] == digests[1] and digests[3] == digests[1]


def test_one_pool_per_cv_run(cpus, features, tmp_path, monkeypatch):
    import concurrent.futures
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(1)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    cpus(2)
    assert main(["cv", "--table", str(features), "--k", "4", "--members", "1",
                 "--out", str(tmp_path)]) == 0
    assert len(pools) == 1


def reference_memos(table, cfg, k, seed):
    """Per outer fold, the memo as a loop over the conditions leaves it after
    each one, with every committee of the fold reading and writing one memo
    over the fold's imputed training rows."""
    y = np.where(table.truth == "N", 1.0, -1.0)
    folds = outer_folds(table, k, seed, False)
    memos = []
    for f in range(k):
        tr = folds != f
        fold_seed = int(np.random.SeedSequence([seed, f]).generate_state(1)[0])
        train = impute(table.matrix[tr], imputation_constants(table.matrix[tr]))
        probes, after = ProbeMemo(), []
        for cond in CONDITIONS:
            columns = [ALL_COLUMNS.index(c) for c in condition_columns(cond)]
            train_committee(train, y[tr], replace(cfg, seed=fold_seed), columns,
                            probes=probes)
            after.append(dict(probes))
        memos.append(after)
    return memos


def test_probe_memo_identical(cpus, features, monkeypatch, tmp_path):
    table = load_table(features)
    cfg = CommitteeConfig(n_members=2, seed=0,
                          selection=SelectionConfig(max_features=3, inner_folds=2))
    assert not single_class_folds(table.truth, outer_folds(table, 4, 1, False), 4)
    reference = reference_memos(table, cfg, k=4, seed=1)
    # Folds never share an entry (keys start with the member seed), so a
    # memo per fold loses no hit.
    keys = [key for after in reference for key in after[-1]]
    assert keys and len(keys) == len(set(keys))
    fold_seeds = [int(np.random.SeedSequence([1, f]).generate_state(1)[0])
                  for f in range(4)]
    real = crossval.train_committee
    memos = tmp_path / "memos"

    def keeps_memo(X, y, cfg, columns, probes):
        # A worker's memo reaches the test through a file named by its fold
        # seed and its condition's column count.
        committee = real(X, y, cfg, columns, probes=probes)
        path = memos / f"{cfg.seed}-{len(columns)}.pkl"
        path.write_bytes(pickle.dumps(probes))
        return committee
    monkeypatch.setattr(crossval, "train_committee", keeps_memo)
    for n in CPUS:
        cpus(n)
        memos.mkdir()
        cross_validate_conditions(table, CONDITIONS, cfg, k=4, seed=1)
        for c, cond in enumerate(CONDITIONS):
            width = len(condition_columns(cond))
            for f in range(4):
                memo = pickle.loads((memos / f"{fold_seeds[f]}-{width}.pkl").read_bytes())
                assert memo == reference[f][c]
                assert list(memo) == list(reference[f][c])
        shutil.rmtree(memos)


# A second selection on the fold's memo, over other inputs than the first.
REUSES = {
    "values": lambda X, y, cfg: (X + 1.0, y, cfg),
    "labels": lambda X, y, cfg: (X, -y, cfg),
    "params": lambda X, y, cfg: (X, y, replace(cfg, member_params=SvmParams(C=0.5))),
    "inner_folds": lambda X, y, cfg: (X, y, replace(cfg, selection=SelectionConfig(
        max_features=cfg.selection.max_features, inner_folds=3))),
}


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("other", sorted(REUSES))
def test_memo_refuses_another_table(cpus, features, monkeypatch, n, other):
    # In a worker as in this process, a memo compares the contents of the
    # table and labels it is given with those it holds.
    real = crossval.train_committee

    def reuses_memo(X, y, cfg, columns, probes):
        committee = real(X, y, cfg, columns, probes=probes)
        real(*REUSES[other](X, y, cfg), columns, probes=probes)
        return committee
    monkeypatch.setattr(crossval, "train_committee", reuses_memo)
    cpus(n)
    cfg = CommitteeConfig(n_members=1, seed=0,
                          selection=SelectionConfig(max_features=2, inner_folds=2))
    with pytest.raises(ValueError, match="^probe memo belongs to another table"):
        cross_validate_conditions(load_table(features), ["measured"], cfg, k=4,
                                  seed=1)
    assert not multiprocessing.active_children()


# ---------------------------------------------------------------------------
# failures and leftover processes

@pytest.fixture(scope="module")
def corrupt_cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("par_bad") / "coh"
    assert main(["phantom", "--patients", "4", "--studies", "2", "--seed", "3",
                 "--out", str(out)]) == 0
    (out / "P003" / "S01.vlbl").write_text("not a label map\n", encoding="utf-8")
    return out


def test_corrupt_study_fails_as_in_serial_run(cpus, corrupt_cohort, tmp_path, capsys):
    errors = {}
    for n in CPUS:
        cpus(n)
        out = tmp_path / f"cpus{n}" / "features.csv"
        assert main(["extract", "--manifest", str(corrupt_cohort / "manifest.json"),
                     "--out", str(out)]) == 1
        assert not multiprocessing.active_children()
        assert not out.exists()
        errors[n] = capsys.readouterr().err
    assert errors[1].startswith("error: study P003-S01: ")
    assert errors[1].count("\n") == 1
    assert errors[2] == errors[1] and errors[3] == errors[1]


def test_absent_fractured_label_reported_before_later_corrupt_study(
        cpus, corrupt_cohort, tmp_path, capsys):
    # P001-S00 names a fractured label its label map lacks; P003-S01 is
    # corrupt. A loop over the studies stops at P001-S00.
    manifest = json.loads((corrupt_cohort / "manifest.json").read_text())
    study = manifest["patients"][1]["studies"][0]
    assert study["study_id"] == "P001-S00"
    study["vertebra_truth"]["9"] = "NEOPLASTIC"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    for patient in manifest["patients"]:
        (tmp_path / patient["patient_id"]).symlink_to(
            corrupt_cohort / patient["patient_id"])
    for n in CPUS:
        cpus(n)
        assert main(["extract", "--manifest", str(path),
                     "--out", str(tmp_path / "features.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: study P001-S00: fractured label 9 absent from the label map "
            "legend\n")


def test_failing_fold_fails_as_in_serial_run(cpus, features, tmp_path, capsys,
                                             monkeypatch):
    # Every fold but the first fails, each with its own message.
    seeds = [int(np.random.SeedSequence([0, f]).generate_state(1)[0]) for f in range(4)]
    real = crossval.train_committee

    def fails_after_fold_0(X, y, cfg, columns, **kwargs):
        if cfg.seed != seeds[0]:
            raise ArithmeticError(f"committee with seed {cfg.seed} failed")
        return real(X, y, cfg, columns, **kwargs)
    monkeypatch.setattr(crossval, "train_committee", fails_after_fold_0)
    errors = {}
    for n in CPUS:
        cpus(n)
        assert main(["cv", "--table", str(features), "--conditions", "measured",
                     "--k", "4", "--members", "1", "--out", str(tmp_path / f"r{n}")]) == 1
        assert not multiprocessing.active_children()
        errors[n] = capsys.readouterr().err
    assert errors[1] == f"error: committee with seed {seeds[1]} failed\n"
    assert errors[2] == errors[1] and errors[3] == errors[1]


def test_no_fork_warning_with_deprecation_warnings_as_errors(features, tmp_path):
    # numpy's BLAS keeps threads of its own, which Python 3.12+ reports on
    # every fork; they are capped at one so that the check sees only the
    # threads this package starts.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)}
    forced_pool = ("import sys; from vcfclass import parallel, cli; "
                   "parallel.usable_cpus = lambda: 2; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", forced_pool,
         "cv", "--table", str(features), "--conditions", "measured", "--k", "4",
         "--members", "1", "--out", str(tmp_path / "r")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
