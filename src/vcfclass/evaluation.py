"""Confusion matrices, accuracy, two-sided Fisher exact tests, and report files.

The Fisher test enumerates the hypergeometric support with exact integer
arithmetic (``math.comb``), so tie handling is exact and n ~ 1400 tables are
stable without floating-point factorials.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from .crossval import CvResult

CLASSES = ("O", "N")

# Relative tie slack for the "as extreme as observed" comparison, applied in
# exact integer arithmetic: w <= wobs * (1 + 1e-7).
_TIE_NUM = 10**7 + 1
_TIE_DEN = 10**7


@dataclass(frozen=True)
class ConfusionMatrix2:
    """2x2 counts, rows = truth, columns = prediction, order (O, N)."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (2, 2) or (c < 0).any():
            raise ValueError("confusion matrix needs nonnegative 2x2 counts")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def grand_total(self) -> int:
        return int(self.counts.sum())

    @property
    def correct(self) -> int:
        return int(np.trace(self.counts))

    @property
    def misclassified(self) -> int:
        return self.grand_total - self.correct


def confusion(truth, predictions) -> ConfusionMatrix2:
    truth = np.asarray(truth)
    predictions = np.asarray(predictions)
    if truth.size == 0 or truth.shape != predictions.shape:
        raise ValueError("need equal-length, nonempty label sequences")
    for arr, name in ((truth, "truth"), (predictions, "prediction")):
        bad = set(arr.tolist()) - set(CLASSES)
        if bad:
            raise ValueError(f"unknown {name} labels: {sorted(bad)}")
    counts = np.zeros((2, 2), dtype=np.int64)
    for i, t in enumerate(CLASSES):
        for j, p in enumerate(CLASSES):
            counts[i, j] = int(((truth == t) & (predictions == p)).sum())
    return ConfusionMatrix2(counts=counts)


def confusion_from_result(res: CvResult) -> ConfusionMatrix2:
    if not res.evaluated.any():
        raise ValueError(f"condition {res.condition}: no evaluated predictions")
    return confusion(res.truth[res.evaluated], res.predictions[res.evaluated])


def accuracy(cm: ConfusionMatrix2) -> float:
    if cm.grand_total == 0:
        raise ValueError("empty confusion matrix")
    return cm.correct / cm.grand_total


def fisher_exact_two_sided(table, convention: str = "mass") -> float:
    """Two-sided Fisher exact p for a 2x2 table.

    ``convention="mass"`` (default) sums the probability of every table with
    the observed margins that is no more probable than the observed one;
    ``convention="midp"`` counts the tie class (tables within 1e-7 relative of
    the observed probability, which always includes the observed table) at
    half weight. A zero margin returns 1.0 by convention.
    """
    if convention not in ("mass", "midp"):
        raise ValueError(f"unknown convention {convention!r}")
    (a, b), (c, d) = table
    cells = [int(a), int(b), int(c), int(d)]
    if any(x < 0 for x in cells):
        raise ValueError(f"negative cell count in {table}")
    a, b, c, d = cells
    r1, r2 = a + b, c + d
    c1, c2 = a + c, b + d
    n = r1 + r2
    if min(r1, r2, c1, c2) == 0:
        return 1.0
    lo, hi = max(0, c1 - r2), min(r1, c1)
    w_obs = comb(r1, a) * comb(r2, c1 - a)
    strict = 0
    ties = 0
    for x in range(lo, hi + 1):
        w = comb(r1, x) * comb(r2, c1 - x)
        if w * _TIE_DEN > w_obs * _TIE_NUM:      # strictly more probable
            continue
        if w * _TIE_NUM >= w_obs * _TIE_DEN:     # within +-1e-7 of observed
            ties += w
        else:
            strict += w
    denominator = comb(n, c1)
    if convention == "mass":
        return (strict + ties) / denominator
    return (2 * strict + ties) / (2 * denominator)


# ---------------------------------------------------------------------------
# condition comparison

def correct_misclassified_table(a: ConfusionMatrix2, b: ConfusionMatrix2):
    """The 2x2 table a Fisher test compares two conditions on: one row of
    (correct, misclassified) counts per condition."""
    return ((a.correct, a.misclassified), (b.correct, b.misclassified))


@dataclass
class PairComparison:
    condition_a: str
    condition_b: str
    table: tuple[tuple[int, int], tuple[int, int]]   # correct/incorrect rows
    p_value: float


@dataclass
class ComparisonReport:
    confusions: dict[str, ConfusionMatrix2]    # condition -> counts, report order
    pairs: list[PairComparison]


def compare(results: list[CvResult]) -> ComparisonReport:
    """Each condition's confusion matrix, in the order given, and pairwise
    Fisher tests on their correct/incorrect tables; results share truth."""
    if not results:
        raise ValueError("no results to compare")
    ref = results[0]
    for r in results[1:]:
        if r.ids != ref.ids:
            raise ValueError(
                f"instance sets differ between {ref.condition} and {r.condition}")
        if (r.truth != ref.truth).any():
            i = int(np.argmax(r.truth != ref.truth))
            raise ValueError(
                f"truth differs between {ref.condition} and {r.condition}, first "
                f"at instance {ref.ids[i]}: {ref.truth[i]} vs {r.truth[i]}")
    confusions = {}
    for r in results:
        if r.condition in confusions:
            raise ValueError(f"condition {r.condition} given more than once")
        confusions[r.condition] = confusion_from_result(r)
    pairs = []
    for a, b in combinations(confusions, 2):
        tab = correct_misclassified_table(confusions[a], confusions[b])
        pairs.append(PairComparison(condition_a=a, condition_b=b, table=tab,
                                    p_value=fisher_exact_two_sided(tab)))
    return ComparisonReport(confusions=confusions, pairs=pairs)


# ---------------------------------------------------------------------------
# report files

def _format_confusion_block(title: str, cm: ConfusionMatrix2) -> list[str]:
    rows = cm.counts
    rt, ct = cm.row_totals, cm.col_totals
    return [
        f"{title}\tO\tN\tTotal",
        f"O\t{rows[0, 0]}\t{rows[0, 1]}\t{rt[0]}",
        f"N\t{rows[1, 0]}\t{rows[1, 1]}\t{rt[1]}",
        f"Total\t{ct[0]}\t{ct[1]}\t{cm.grand_total}",
    ]


def emit_report(report: ComparisonReport, out_dir) -> list[Path]:
    """Write metrics.csv, comparisons.csv and report.txt; bytes are
    deterministic for deterministic inputs."""
    if not report.confusions:
        raise ValueError("nothing to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    metrics = ["condition,accuracy,misclassifications,n"]
    for cond, cm in report.confusions.items():
        metrics.append(f"{cond},{accuracy(cm):.6f},{cm.misclassified},{cm.grand_total}")
    path = out_dir / "metrics.csv"
    path.write_text("\n".join(metrics) + "\n", encoding="utf-8")
    written.append(path)

    comparisons = ["pair,p_value"]
    for p in report.pairs:
        comparisons.append(f"{p.condition_a}_vs_{p.condition_b},{p.p_value:.6g}")
    path = out_dir / "comparisons.csv"
    path.write_text("\n".join(comparisons) + "\n", encoding="utf-8")
    written.append(path)

    lines = []
    for cond, cm in report.confusions.items():
        lines.extend(_format_confusion_block(cond.capitalize(), cm))
        lines.append(f"accuracy = {accuracy(cm):.3f}  misclassified = {cm.misclassified}")
        lines.append("")
    for p in report.pairs:
        lines.append(f"Fisher {p.condition_a} vs {p.condition_b}: p = {p.p_value:.6g}")
    path = out_dir / "report.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)
    return written
