"""Rewrite ``digests.json``: the sha256 of each workload's output files per seed.

    python3 bench/record_digests.py

For every workload and each seed in ``SEEDS`` it builds the inputs once, runs
one iteration of the workload's stages and keeps the digests
``checks.check_iteration`` computes. ``run.py`` compares a run's digests with
these and reports ``outputs_identical``; rerun this only when outputs are
meant to change. Work files go under ``.bench_work/digests/`` and are removed
afterwards.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS, prepare_process, run_cli, setup_argv

BENCH = Path(__file__).resolve().parent
SEEDS = range(21)


def main() -> int:
    prepare_process()
    from checks import check_iteration
    from worker import run_iteration

    work = BENCH.parent / ".bench_work" / "digests"
    digests = {}
    try:
        for wl in WORKLOADS.values():
            for seed in SEEDS:
                shutil.rmtree(work, ignore_errors=True)
                cohort = work / "cohort"
                cmd = setup_argv(wl, seed, cohort)
                if run_cli(cmd)[0] != 0:
                    print(f"error: set-up failed: vcfclass {' '.join(cmd)}", file=sys.stderr)
                    return 1
                rec = run_iteration(wl, seed, cohort, work / "it00")
                res = check_iteration(wl, rec, cohort, work / "it00")
                if res.failed:
                    print(f"error: {wl.name} seed {seed}: {res.problems}", file=sys.stderr)
                    return 1
                digests.setdefault(wl.name, {})[str(seed)] = res.digests
                print(f"{wl.name} seed {seed}: {len(res.digests)} files", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
