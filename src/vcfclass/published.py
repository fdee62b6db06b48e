"""Published reference results for the fracture-classification study this
pipeline reimplements, used as a self-contained arithmetic cross-check.

The reference analysis did not state its two-sided Fisher convention. The
mid-p convention reproduces the published measured-vs-combined p-value within
tolerance (0.679 vs 0.665), while the default probability-mass convention
gives 0.729; the check reports both and asserts the mid-p reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import (ConfusionMatrix2, accuracy, correct_misclassified_table,
                         fisher_exact_two_sided)

# Rows: radiologist truth (O, N); columns: classifier output (O, N).
REFERENCE_CONFUSIONS = {
    "measured": ConfusionMatrix2(np.array([[392, 98], [33, 172]])),
    "longitudinal": ConfusionMatrix2(np.array([[345, 145], [88, 117]])),
    "combined": ConfusionMatrix2(np.array([[399, 91], [34, 171]])),
}

EXPECTED_ACCURACY = {"measured": 0.812, "longitudinal": 0.665, "combined": 0.820}
EXPECTED_MISCLASSIFIED = {"measured": 131, "longitudinal": 233, "combined": 125}
EXPECTED_P_MEASURED_VS_COMBINED = 0.665
P_TOLERANCE = 0.02
SIGNIFICANCE_THRESHOLD = 1e-3


@dataclass
class ReferenceCheck:
    lines: list[str]
    ok: bool


def check_reference_arithmetic() -> ReferenceCheck:
    """Recompute accuracies, misclassification counts, and Fisher p-values
    from the published confusion matrices and verify them."""
    lines = ["condition      accuracy  misclassified  n"]
    ok = True
    for cond, cm in REFERENCE_CONFUSIONS.items():
        acc = accuracy(cm)
        rounded = round(acc, 3)
        mis = cm.misclassified
        good = (abs(rounded - EXPECTED_ACCURACY[cond]) <= 5e-4
                and mis == EXPECTED_MISCLASSIFIED[cond])
        ok &= good
        flag = "" if good else "  MISMATCH"
        lines.append(f"{cond:<14s} {rounded:<9.3f} {mis:<14d} {cm.grand_total}{flag}")

    ref = REFERENCE_CONFUSIONS
    for a, b in (("measured", "longitudinal"), ("combined", "longitudinal")):
        tab = correct_misclassified_table(ref[a], ref[b])
        p = fisher_exact_two_sided(tab)
        good = p < SIGNIFICANCE_THRESHOLD
        ok &= good
        flag = "" if good else "  MISMATCH"
        lines.append(f"Fisher {a} vs {b}: p = {p:.3g} "
                     f"(expected < {SIGNIFICANCE_THRESHOLD:g}){flag}")

    tab = correct_misclassified_table(ref["measured"], ref["combined"])
    p_midp = fisher_exact_two_sided(tab, convention="midp")
    p_mass = fisher_exact_two_sided(tab)
    good = abs(p_midp - EXPECTED_P_MEASURED_VS_COMBINED) <= P_TOLERANCE
    ok &= good
    flag = "" if good else "  MISMATCH"
    lines.append(
        f"Fisher measured vs combined: p = {p_midp:.4f} mid-p "
        f"(published {EXPECTED_P_MEASURED_VS_COMBINED}; probability-mass "
        f"p = {p_mass:.4f}){flag}")
    lines.append("all reference checks passed" if ok else "REFERENCE CHECKS FAILED")
    return ReferenceCheck(lines=lines, ok=ok)
