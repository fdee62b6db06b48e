"""The benchmark's workloads and the pipeline stages each one times.

Every stage is run the way users run it: ``vcfclass <stage> ...`` through
``vcfclass.cli.main`` in the calling process. Inputs come only from the
phantom generator, seeded by the benchmark's ``--seed``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The paper's cohort (the phantom defaults: 40 patients x 4 studies x 3
# vertebrae, 160 studies, 320 fractured instances) and the paper's 10 outer
# folds, so every SVM fit has the paper's size: selection fits train on ~145
# rows, final members on ~288. Only the committee shrinks, from 5 members to
# 1: that cuts the number of fits five-fold (one pipeline takes ~25 s on 2
# cores instead of ~105 s) without changing the size or kind of any fit.
K_FOLDS = 10
CV_SETTINGS = ("--k", str(K_FOLDS), "--members", "1")
CONDITIONS = ("measured", "longitudinal", "combined")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cohort: tuple[str, ...]             # phantom flags besides --seed and --out
    stages: tuple[str, ...]             # the timed stages, in order


WORKLOADS = {w.name: w for w in (
    Workload(
        "pipeline-paper",
        "the whole pipeline, extract -> cv (3 conditions, 10 folds) -> report, "
        "on the paper's 40-patient cohort with 1-member committees; cv dominates",
        ("--patients", "40", "--studies", "4", "--vertebrae", "3"),
        ("extract", "cv", "report")),
    Workload(
        "extract-longspine",
        "extract only on 12-vertebra label maps (3.9x the voxels of the paper "
        "cohort), so per-vertebra full-grid scans dominate and the solver idles",
        ("--patients", "4", "--studies", "2", "--vertebrae", "12"), ("extract",)),
)}


def prepare_process() -> int:
    """Cap BLAS threads at the usable CPUs and put ``src/`` on the import
    path, for this process and the ones it starts. Call before numpy loads;
    returns the thread cap."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    return cap


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one ``vcfclass`` command; return (exit code, seconds, stderr)."""
    from vcfclass.cli import main

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
    return rc, elapsed, err.getvalue()


def setup_argv(wl: Workload, seed: int, cohort: Path) -> list[str]:
    """The command that builds a run's input cohort."""
    return ["phantom", *wl.cohort, "--seed", str(seed), "--out", str(cohort)]


def stage_argv(stage: str, seed: int, cohort: Path, out: Path) -> list[str]:
    """The command of one timed stage of an iteration writing under ``out``."""
    if stage == "extract":
        return ["extract", "--manifest", str(cohort / "manifest.json"),
                "--out", str(out / "features.csv")]
    if stage == "cv":
        return ["cv", "--table", str(out / "features.csv"),
                "--conditions", ",".join(CONDITIONS), *CV_SETTINGS,
                "--seed", str(seed), "--out", str(out / "results")]
    if stage == "report":
        return ["report", "--results", str(out / "results"), "--out", str(out / "report")]
    raise ValueError(f"unknown stage {stage!r}")
