"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import time
from math import comb

import numpy as np
import pytest

from helpers import (WORLD_FRAME, body_spec, dual_objective, linear_gram_fit,
                     qp_dual_oracle, render_single, replay_fold, replay_training,
                     run_cli, tree_hash, wedge_heights)
from vcfclass.cli import main
from vcfclass.densitometry import (density_features, study_reference,
                                   trabecular_region)
from vcfclass.evaluation import fisher_exact_two_sided
from vcfclass.features import load_table, rate
from vcfclass.folds import kfold_split
from vcfclass.morphometry import (cell_heights, column_table, regional_summaries,
                                  sagittal_heights)
from vcfclass.phantom import uniform_heights
from vcfclass.svm import SvmParams, kernel_matrix, train_svm

SPACING_Z = 1.0


def ok(criterion, message):
    print(f"\ncriterion {criterion}: PASS - {message}")


# ---------------------------------------------------------------------------
# shared end-to-end artifacts (built once, reused by criteria 8 and 9)

@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "cohort"
    t0 = time.time()
    assert main(["phantom", "--seed", "7", "--out", str(out)]) == 0
    return out, time.time() - t0


@pytest.fixture(scope="module")
def table_csv(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_feat") / "features.csv"
    t0 = time.time()
    assert main(["extract", "--manifest", str(cohort_dir[0] / "manifest.json"),
                 "--out", str(out)]) == 0
    return out, time.time() - t0


def run_cv(table, out, extra=()):
    args = ["cv", "--table", str(table), "--k", "10", "--seed", "7",
            "--out", str(out), *extra]
    t0 = time.time()
    assert main(args) == 0
    return time.time() - t0


@pytest.fixture(scope="module")
def cv_run(cohort_dir, table_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_cv") / "results"
    elapsed = run_cv(table_csv[0], out)
    return out, cohort_dir[1] + table_csv[1] + elapsed


def read_metrics(out):
    lines = (out / "metrics.csv").read_text().splitlines()[1:]
    acc = {}
    for line in lines:
        cond, a, mis, n = line.split(",")
        acc[cond] = float(a)
    return acc


# ---------------------------------------------------------------------------

def test_criterion_1_paper_arithmetic():
    t0 = time.time()
    r = run_cli("paper-check")
    elapsed = time.time() - t0
    assert r.returncode == 0
    out = r.stdout
    for token in ("0.812", "0.665", "0.820", "131", "233", "125"):
        assert token in out, token
    from vcfclass.evaluation import correct_misclassified_table
    from vcfclass.published import REFERENCE_CONFUSIONS as ref
    assert fisher_exact_two_sided(
        correct_misclassified_table(ref["measured"], ref["longitudinal"])) < 1e-3
    p = fisher_exact_two_sided(
        correct_misclassified_table(ref["measured"], ref["combined"]),
        convention="midp")
    assert abs(p - 0.665) <= 0.02
    assert elapsed < 1.0 or _paper_check_inprocess_under_1s()
    ok(1, f"accuracies/misclassifications exact, p(m vs l) < 1e-3, "
          f"p(m vs c) = {p:.4f} within 0.665±0.02 ({elapsed:.2f}s)")


def _paper_check_inprocess_under_1s():
    # subprocess spawn can dominate; the contract is compute time
    from vcfclass.published import check_reference_arithmetic
    t0 = time.time()
    assert check_reference_arithmetic().ok
    return time.time() - t0 < 1.0


def test_criterion_2_fisher_oracle_exhaustive():
    # All 2x2 tables with every margin <= 30, production vs independent
    # enumeration oracle with precomputed binomials.
    t0 = time.time()
    limit = 30
    C = [[comb(n, k) for k in range(n + 1)] for n in range(2 * limit + 1)]

    def oracle(a, b, c, d):
        r1, r2, c1 = a + b, c + d, a + c
        if min(r1, r2, c1, b + d) == 0:
            return 1.0
        lo, hi = max(0, c1 - r2), min(r1, c1)
        w_obs = C[r1][a] * C[r2][c1 - a]
        num = 0
        for x in range(lo, hi + 1):
            w = C[r1][x] * C[r2][c1 - x]
            if w * 10**7 <= w_obs * (10**7 + 1):
                num += w
        return num / C[r1 + r2][c1]

    checked = 0
    worst = 0.0
    for a in range(limit + 1):
        for b in range(limit + 1 - a):
            for c in range(limit + 1 - a):
                for d in range(min(limit - c, limit - b) + 1):
                    p = fisher_exact_two_sided(((a, b), (c, d)))
                    q = oracle(a, b, c, d)
                    rel = abs(p - q) / max(q, 1e-300)
                    worst = max(worst, rel)
                    assert rel <= 1e-12, ((a, b), (c, d))
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    ok(2, f"{checked} tables, worst rel diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_compass_geometry():
    _, lm_u, _ = render_single(body_spec(uniform_heights(20.0)))
    ch = cell_heights(column_table(lm_u, 1, WORLD_FRAME), 1)
    assert np.all(np.abs(ch.heights - 20.0) <= SPACING_Z + 1e-9)

    _, lm_w, _ = render_single(body_spec(wedge_heights(10.0, 20.0)))
    chw = cell_heights(column_table(lm_w, 1, WORLD_FRAME), 1)
    for cell, target in ((9, 10.0), (1, 10.0), (13, 20.0), (5, 20.0)):
        assert abs(chw.heights[cell] - target) <= SPACING_Z + 1e-9, cell
    sg = sagittal_heights(column_table(lm_w, 1, WORLD_FRAME), 1)
    assert abs(sg["Anterior"] - 10.0) <= SPACING_Z + 1e-9
    assert abs(sg["Posterior"] - 20.0) <= SPACING_Z + 1e-9
    rs = regional_summaries(chw)
    assert rs["h_a"] < rs["h_avg"] < rs["h_p"]
    ok(3, f"uniform cells 20±{SPACING_Z}, wedge anterior/posterior on target, "
          f"h_a {rs['h_a']:.2f} < h_avg {rs['h_avg']:.2f} < h_p {rs['h_p']:.2f}")


def test_criterion_4_density_invariance():
    from vcfclass.grids import Volume
    vol, lm, frame = render_single(body_spec(uniform_heights(20.0)), with_refs=True)
    base = density_features(vol, lm, 1, frame, study_reference(vol, lm))
    worst = 0.0
    for a in (0.5, 2.0):
        for b in (-50.0, 100.0):
            data = vol.data.astype(np.float64) * a + b
            assert np.all(data == np.rint(data))
            data[lm.labels == 0] = np.clip(data[lm.labels == 0], -1024, 3071)
            tvol = Volume(geometry=vol.geometry, data=data.astype(np.int16))
            tf = density_features(tvol, lm, 1, frame, study_reference(tvol, lm))
            worst = max(worst, abs(tf.meanDen - base.meanDen),
                        abs(tf.meanTrab - base.meanTrab))
    assert worst < 1e-9
    box, probe = trabecular_region(lm, 1, frame, study_reference(vol, lm))
    n_cortical = int((vol.data[box][probe] == 400).sum())
    assert n_cortical == 0 and probe.any()
    ok(4, f"affine worst diff {worst:.2e} < 1e-9; trabecular mask "
          f"({int(probe.sum())} voxels) contains 0 cortical voxels")


def test_criterion_5_longitudinal_exactness():
    assert rate(17.0, 20.0, 0.5) == -6.0
    rng = np.random.default_rng(55)
    for _ in range(1000):
        a, b = (float(x) for x in rng.normal(scale=40.0, size=2))
        dt = float(rng.uniform(0.05, 5.0))
        assert rate(a, b, dt) == -rate(b, a, dt)
        assert rate(a, b, dt / 2.0) == pytest.approx(2.0 * rate(a, b, dt), rel=1e-12)
    ok(5, "rate(17,20,0.5) = -6.0 exact; antisymmetry and dt-rescaling over "
          "1000 randomized cases")


def test_criterion_6_svm_solver_correctness():
    rng = np.random.default_rng(66)
    done = 0
    worst = 0.0
    while done < 50:
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        w = rng.normal(size=d)
        y = np.where(X @ w + 0.4 * rng.normal(size=n) > 0, 1.0, -1.0)
        if np.unique(y).size < 2:
            continue
        C = float(rng.choice([0.5, 1.0, 5.0]))
        if done % 2:
            params = SvmParams(gamma=0.8, C=C)
            m = train_svm(X, y, params)
            assert m.kkt_violations() == 0
            Xs, alpha = replay_training(X, y, params, m)
            K = kernel_matrix(Xs, Xs, m.gamma)
        else:       # the solver alone on a linear Gram, rank-deficient when n > d
            _, K, alpha, _, _, _, violations = linear_gram_fit(X, y, C)
            assert violations == 0
        obj = dual_objective(alpha, y, K)
        oracle = dual_objective(qp_dual_oracle(K, y, C), y, K)
        rel = abs(obj - oracle) / max(1.0, abs(oracle))
        worst = max(worst, rel)
        assert rel <= 1e-3, done
        done += 1
    X = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
    y = np.array([1, 1, -1, -1])
    m = train_svm(X, y, SvmParams(gamma=1.0, C=10.0))
    assert np.array_equal(m.predict(X), y)
    assert m.kkt_violations() == 0
    ok(6, f"50 instances vs dense-QP oracle, worst rel diff {worst:.2e}; "
          f"KKT clean; XOR solved")


def test_criterion_7_cv_integrity():
    for n in (20, 695):
        truth = np.array(["O"] * int(round(n * 490 / 695)) +
                         ["N"] * (n - int(round(n * 490 / 695))))
        folds = kfold_split(truth, k=10, seed=3)
        sizes = np.bincount(folds, minlength=10)
        assert sizes.sum() == n and sizes.max() - sizes.min() <= 1
        for cls in ("O", "N"):
            counts = np.bincount(folds[truth == cls], minlength=10)
            assert counts.max() - counts.min() <= 1
    # leakage guard on a small synthetic table
    from test_crossval import synthetic_table, FAST_CFG
    from vcfclass.crossval import cross_validate, impute, imputation_constants
    from vcfclass.features import ALL_COLUMNS, condition_columns
    table = synthetic_table(seed=77)
    res = cross_validate(table, "measured", FAST_CFG, k=5, seed=7)
    col_idx = [ALL_COLUMNS.index(c) for c in condition_columns("measured")]
    fold_ids = [f for f in range(5) if f not in res.skipped_folds]
    for f in fold_ids:
        fill, committee = replay_fold(table, res, FAST_CFG, 7, f)
        tr = res.fold_assignment != f
        assert np.array_equal(fill, imputation_constants(table.matrix[tr]))
        Xtr = impute(table.matrix[tr], fill)
        for member in committee.members:
            sel = list(member.feature_indices)
            assert set(sel) <= set(col_idx)
            assert np.array_equal(member.mean, Xtr[:, sel].mean(axis=0))
    ok(7, "fold partition/stratification hold for n in {20, 695}; stored "
          "standardization equals training-fold statistics")


def test_criterion_8_end_to_end_experiment(cohort_dir, table_csv, cv_run, tmp_path):
    out, total_elapsed = cv_run
    table = load_table(table_csv[0])
    assert abs(len(table) - 300) <= 60            # ~300 fractured instances
    acc = read_metrics(out)
    assert total_elapsed < 300.0
    assert acc["combined"] >= 0.90
    assert acc["combined"] >= acc["measured"] - 0.02
    shuffle_out = tmp_path / "shuffled"
    run_cv(table_csv[0], shuffle_out, extra=["--conditions", "combined",
                                             "--shuffle-labels"])
    shuffled_acc = read_metrics(shuffle_out)["combined"]
    assert abs(shuffled_acc - 0.5) <= 0.08
    ok(8, f"{len(table)} instances; accuracies measured {acc['measured']:.3f} "
          f"longitudinal {acc['longitudinal']:.3f} combined {acc['combined']:.3f}; "
          f"shuffled control {shuffled_acc:.3f}; pipeline {total_elapsed:.0f}s < 300s")


def test_criterion_9_determinism(cohort_dir, table_csv, cv_run, tmp_path):
    # phantom reruns byte-identically
    small = ["phantom", "--patients", "2", "--studies", "2", "--seed", "7"]
    assert main(small + ["--out", str(tmp_path / "p1")]) == 0
    assert main(small + ["--out", str(tmp_path / "p2")]) == 0
    assert tree_hash(tmp_path / "p1") == tree_hash(tmp_path / "p2")
    # extraction reruns byte-identically
    csv2 = tmp_path / "features2.csv"
    assert main(["extract", "--manifest", str(cohort_dir[0] / "manifest.json"),
                 "--out", str(csv2)]) == 0
    assert csv2.read_bytes() == table_csv[0].read_bytes()
    # the full CV rerun reproduces every report file byte for byte
    out2 = tmp_path / "cv2"
    run_cv(table_csv[0], out2)
    names = ["metrics.csv", "comparisons.csv", "report.txt",
             "predictions_measured.csv", "predictions_longitudinal.csv",
             "predictions_combined.csv", "run_config.json"]
    for name in names:
        assert (out2 / name).read_bytes() == (cv_run[0] / name).read_bytes(), name
    ok(9, f"phantom, extraction, and all {len(names)} CV report files "
          f"byte-identical across reruns")
