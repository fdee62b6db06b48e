import numpy as np
import pytest
from scipy import stats

from helpers import fisher_enumeration_oracle
from vcfclass.crossval import CvResult
from vcfclass.evaluation import (ComparisonReport, ConfusionMatrix2, accuracy,
                                 compare, confusion, correct_misclassified_table,
                                 emit_report, fisher_exact_two_sided)
from vcfclass.published import REFERENCE_CONFUSIONS, check_reference_arithmetic


def test_confusion_diagonal():
    cm = confusion(["O", "N", "O", "N", "O"], ["O", "N", "O", "N", "O"])
    assert np.array_equal(cm.counts, [[3, 0], [0, 2]])
    assert accuracy(cm) == 1.0


def test_confusion_validation():
    with pytest.raises(ValueError, match="equal-length"):
        confusion(["O"], ["O", "N"])
    with pytest.raises(ValueError, match="equal-length"):
        confusion([], [])
    with pytest.raises(ValueError, match="unknown truth"):
        confusion(["X"], ["O"])


def test_reference_confusion_totals():
    cm = REFERENCE_CONFUSIONS["measured"]
    assert np.array_equal(cm.counts, [[392, 98], [33, 172]])
    assert list(cm.col_totals) == [425, 270]
    assert cm.grand_total == 695
    cm = REFERENCE_CONFUSIONS["combined"]
    assert np.array_equal(cm.counts, [[399, 91], [34, 171]])


def test_reference_accuracies_round_to_published():
    expected = {"measured": 0.812, "longitudinal": 0.665, "combined": 0.820}
    for cond, cm in REFERENCE_CONFUSIONS.items():
        assert round(accuracy(cm), 3) == expected[cond]
    assert accuracy(REFERENCE_CONFUSIONS["measured"]) == pytest.approx(564 / 695)


def test_accuracy_misclassification_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.integers(0, 50, size=(2, 2))
        if c.sum() == 0:
            continue
        cm = ConfusionMatrix2(counts=c)
        assert cm.correct + cm.misclassified == cm.grand_total
        assert accuracy(cm) == pytest.approx(1.0 - cm.misclassified / cm.grand_total,
                                             rel=0, abs=1e-15)


def test_fisher_trivial_enumeration_example():
    assert fisher_exact_two_sided(((2, 3), (4, 1))) == pytest.approx(132 / 252, abs=1e-15)


def test_fisher_zero_margin_convention():
    assert fisher_exact_two_sided(((0, 0), (3, 4))) == 1.0
    assert fisher_exact_two_sided(((0, 2), (0, 4))) == 1.0


def test_fisher_negative_rejected():
    with pytest.raises(ValueError, match="negative"):
        fisher_exact_two_sided(((-1, 2), (3, 4)))
    with pytest.raises(ValueError, match="convention"):
        fisher_exact_two_sided(((1, 2), (3, 4)), convention="bayes")


def test_fisher_symmetries():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c, d = (int(x) for x in rng.integers(0, 12, size=4))
        if min(a + b, c + d, a + c, b + d) == 0:
            continue
        p = fisher_exact_two_sided(((a, b), (c, d)))
        assert p == pytest.approx(fisher_exact_two_sided(((c, d), (a, b))), rel=1e-12)
        assert p == pytest.approx(fisher_exact_two_sided(((b, a), (d, c))), rel=1e-12)
        assert p == pytest.approx(fisher_exact_two_sided(((a, c), (b, d))), rel=1e-12)
        assert 0.0 < p <= 1.0


def test_fisher_proportional_rows_give_one():
    assert fisher_exact_two_sided(((2, 4), (3, 6))) == 1.0
    assert fisher_exact_two_sided(((5, 5), (7, 7))) == 1.0


def test_fisher_matches_enumeration_oracle_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c, d = (int(x) for x in rng.integers(0, 25, size=4))
        table = ((a, b), (c, d))
        for convention in ("mass", "midp"):
            p = fisher_exact_two_sided(table, convention=convention)
            oracle = float(fisher_enumeration_oracle(table, convention=convention))
            assert p == pytest.approx(oracle, rel=1e-12, abs=1e-300)


def test_fisher_matches_scipy_spot_checks():
    for table in (((2, 3), (4, 1)), ((10, 2), (3, 9)), ((564, 131), (570, 125)),
                  ((564, 131), (462, 233))):
        ours = fisher_exact_two_sided(table)
        ref = stats.fisher_exact(np.asarray(table))[1]
        assert ours == pytest.approx(ref, rel=1e-9)


def test_fisher_large_n_stable():
    p = fisher_exact_two_sided(((564, 131), (462, 233)))
    assert 0.0 < p < 1e-3
    p2 = fisher_exact_two_sided(
        correct_misclassified_table(REFERENCE_CONFUSIONS["measured"],
                                    REFERENCE_CONFUSIONS["combined"]),
        convention="midp")
    assert p2 == pytest.approx(0.6788, abs=5e-4)


def test_reference_arithmetic_passes_quickly():
    import time
    t0 = time.time()
    chk = check_reference_arithmetic()
    assert chk.ok
    assert time.time() - t0 < 1.0


# ---------------------------------------------------------------------------
# compare & emit

def fake_result(condition, truth, predictions, k=2):
    """A result whose decisions give ``predictions``: +1 for N, -1 for O and
    NaN for an empty prediction."""
    n = len(truth)
    ids = [(f"P{i:03d}", f"P{i:03d}-S00", 1) for i in range(n)]
    decision = [{"N": 1.0, "O": -1.0, "": np.nan}[p] for p in predictions]
    res = CvResult(condition=condition, ids=ids, truth=np.array(truth),
                   decision=np.array(decision), fold_assignment=np.arange(n) % k)
    assert res.predictions.tolist() == list(predictions)
    return res


def test_compare_identical_results_p_one():
    truth = ["O"] * 30 + ["N"] * 20
    pred = ["O"] * 25 + ["N"] * 25
    a = fake_result("measured", truth, pred)
    b = fake_result("combined", truth, pred)
    report = compare([a, b])
    assert report.pairs[0].p_value == 1.0
    assert accuracy(report.confusions["measured"]) == \
        accuracy(report.confusions["combined"])


def test_compare_perfect_vs_chance_significant():
    rng = np.random.default_rng(3)
    truth = ["O" if rng.random() < 0.5 else "N" for _ in range(100)]
    perfect = fake_result("measured", truth, truth)
    coin = [("O" if rng.random() < 0.5 else "N") for _ in range(100)]
    chance = fake_result("longitudinal", truth, coin)
    report = compare([perfect, chance])
    assert report.pairs[0].p_value < 1e-3
    # cross-check the pair table against the enumeration oracle
    oracle = float(fisher_enumeration_oracle(report.pairs[0].table))
    assert report.pairs[0].p_value == pytest.approx(oracle, rel=1e-12)


def test_compare_rejects_mismatched_instances():
    a = fake_result("measured", ["O", "N"], ["O", "N"])
    b = fake_result("combined", ["O", "N", "O"], ["O", "N", "O"])
    with pytest.raises(ValueError, match="instance sets differ"):
        compare([a, b])


def test_compare_rejects_differing_truth():
    a = fake_result("measured", ["O", "N", "O", "N"], ["O", "N", "N", "N"])
    b = fake_result("longitudinal", ["O", "N", "N", "N"], ["O", "N", "N", "N"])
    with pytest.raises(ValueError, match=(
            r"^truth differs between measured and longitudinal, first at "
            r"instance \('P002', 'P002-S00', 1\): O vs N$")):
        compare([a, b])


def test_compare_rejects_repeated_condition():
    a = fake_result("measured", ["O", "N"], ["O", "N"])
    b = fake_result("measured", ["O", "N"], ["O", "O"])
    with pytest.raises(ValueError, match="condition measured given more than once"):
        compare([a, b])


def test_reference_misclassification_counts_via_compare():
    # Rebuild per-condition results shaped like the published matrices and
    # check the counts come out 131 / 233 / 125.
    results = []
    for cond, cm in REFERENCE_CONFUSIONS.items():
        truth, pred = [], []
        for i, t in enumerate(("O", "N")):
            for j, p in enumerate(("O", "N")):
                n = int(cm.counts[i, j])
                truth += [t] * n
                pred += [p] * n
        results.append(fake_result(cond, truth, pred, k=5))
    report = compare(results)
    counts = {cond: cm.misclassified for cond, cm in report.confusions.items()}
    assert counts == {"measured": 131, "longitudinal": 233, "combined": 125}


def test_emit_report_deterministic(tmp_path):
    truth = ["O"] * 12 + ["N"] * 8
    pred = ["O"] * 10 + ["N"] * 10
    res = [fake_result("measured", truth, pred),
           fake_result("combined", truth, truth)]
    report = compare(res)
    files1 = emit_report(report, tmp_path / "a")
    files2 = emit_report(report, tmp_path / "b")
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()
    text = (tmp_path / "a" / "report.txt").read_text()
    assert "Measured\tO\tN\tTotal" in text


def test_emit_report_rejects_empty(tmp_path):
    empty = fake_result("measured", ["O"], [""])
    with pytest.raises(ValueError, match="condition measured: no evaluated predictions"):
        compare([empty])
    with pytest.raises(ValueError, match="nothing to report"):
        emit_report(ComparisonReport(confusions={}, pairs=[]), tmp_path / "x")
    assert not (tmp_path / "x").exists()


def test_report_text_matches_reference_table(tmp_path):
    results = []
    for cond, cm in REFERENCE_CONFUSIONS.items():
        truth, pred = [], []
        for i, t in enumerate(("O", "N")):
            for j, p in enumerate(("O", "N")):
                truth += [t] * int(cm.counts[i, j])
                pred += [p] * int(cm.counts[i, j])
        results.append(fake_result(cond, truth, pred, k=5))
    report = compare(results)
    emit_report(report, tmp_path)
    text = (tmp_path / "report.txt").read_text()
    assert "Measured\tO\tN\tTotal" in text
    assert "O\t392\t98\t490" in text
    assert "N\t33\t172\t205" in text
    assert "Total\t425\t270\t695" in text
    assert "O\t399\t91\t490" in text
