"""Correctness checks on the files one iteration wrote, the operation counts
behind ``failed_frac``, and output digests.

Operations are studies extracted, outer folds run, and iterations checked.
The ``extract`` command stops at the first study that raises, so a failed
extract counts every study of that stage as failed; a fold whose instances
carry no prediction, or every fold of a condition that has no predictions
file, counts as failed; an iteration that fails any check counts once more.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CONDITIONS, K_FOLDS, Workload

REPORT_FILES = ("metrics.csv", "comparisons.csv", "report.txt")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


def fractured_instances(manifest_path: Path) -> list[tuple[str, str, int]]:
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    ids = []
    for patient in doc["patients"]:
        for study in patient["studies"]:
            for label, truth in sorted(study["vertebra_truth"].items(),
                                       key=lambda kv: int(kv[0])):
                if truth != "UNFRACTURED":
                    ids.append((study["patient_id"], study["study_id"], int(label)))
    return ids


def study_count(manifest_path: Path) -> int:
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    return sum(len(p["studies"]) for p in doc["patients"])


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in
            path.read_text(encoding="utf-8").splitlines()[1:]]


def table_ids(path: Path) -> list[tuple[str, str, int]]:
    return [(r[0], r[1], int(r[2])) for r in _csv_rows(path)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_iteration(wl: Workload, rec: dict, cohort: Path, out: Path) -> Outcome:
    """Check one iteration's outputs against the workload's expectations."""
    res = Outcome()
    stages = rec["stages"]
    manifest = cohort / "manifest.json"
    for stage in wl.stages:
        if stage not in stages:
            res.problems.append(f"{stage}: not run")
        elif stages[stage]["rc"] != 0:
            res.problems.append(f"{stage}: exit code {stages[stage]['rc']}: "
                                f"{stages[stage].get('stderr', '').strip()}")

    table = out / "features.csv"
    n_studies = study_count(manifest)
    res.attempted += n_studies
    if "extract" not in stages or stages["extract"]["rc"] != 0:
        res.failed += n_studies
    elif table_ids(table) != fractured_instances(manifest):
        res.problems.append("extract: table instance ids differ from the "
                            "manifest's fractured instances")
    if table.is_file():
        res.digests["features.csv"] = sha256(table)

    if "cv" in wl.stages:
        ids = table_ids(table) if table.is_file() else []
        for cond in CONDITIONS:
            res.attempted += K_FOLDS
            pred_path = out / "results" / f"predictions_{cond}.csv"
            if not pred_path.is_file():
                res.failed += K_FOLDS
                res.problems.append(f"cv: no {pred_path.name}")
                continue
            rows = _csv_rows(pred_path)
            skipped = {r[6] for r in rows if r[4] == ""}
            res.failed += len(skipped)
            if skipped:
                res.problems.append(f"cv {cond}: folds skipped: {sorted(skipped)}")
            if [(r[0], r[1], int(r[2])) for r in rows] != ids:
                res.problems.append(f"cv {cond}: predicted instances differ from the table")
            predicted = [r for r in rows if r[4] != ""]
            if predicted:
                res.accuracy[cond] = sum(r[3] == r[4] for r in predicted) / len(predicted)
        for path in sorted((out / "results").glob("predictions_*.csv")) + [
                out / "results" / name for name in REPORT_FILES]:
            if path.is_file():
                res.digests[path.name] = sha256(path)

    if "report" in wl.stages:
        for name in REPORT_FILES:
            a, b = out / "results" / name, out / "report" / name
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                res.problems.append(f"report: {name} differs from the cv stage's")

    kkt = (rec.get("layers") or {}).get("svm.kkt_violations", 0)
    if kkt:
        res.problems.append(f"svm: {kkt} KKT violations on final committee members")

    res.attempted += 1
    if res.problems:
        res.failed += 1
    return res
