"""Offline pipeline benchmark for vcfclass.

    python3 bench/run.py --workload pipeline-paper --seed 7 --seconds 30 --trace 0

Builds a phantom cohort from ``--seed`` (set-up, repeated and timed), then
runs the workload's stages in a worker process for ``--seconds`` seconds,
checks every iteration's outputs, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from traced iterations. Lines before it give every measured value
by name and unit, the environment and the output digests. The full record
(and, traced, the span file) stays under ``.bench_work/`` in the checkout.
See README.md next to this file for the metrics, workloads and trace format.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, prepare_process, run_cli, setup_argv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up is repeated until both hold, so that its median rests on several
# seconds of work also where one repeat takes well under a second.
SETUP_REPEATS = 5
SETUP_SECONDS = 8.0
DEADLINE_S = 170          # the whole run, set-up and checks included
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}


def _median(values):
    return statistics.median(values) if values else 0.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(seed, blas_cap, iterations, traced) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_cap, "seed": seed, "iterations": iterations,
            "traced_iterations": traced}


class RunError(RuntimeError):
    """The run cannot produce a result; reported on stderr, exit code 1."""


def set_up(wl, seed, cohort, trace) -> tuple[list[float], list[float]]:
    """Build the run's input cohort at least ``SETUP_REPEATS`` times and for at
    least ``SETUP_SECONDS``, keeping the last repeat's files. Returns each
    repeat's seconds and, when traced, its ``phantom.generate_cohort``
    seconds."""
    import spans

    setup_s, generate_s = [], []
    cmd = setup_argv(wl, seed, cohort)
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        shutil.rmtree(cohort, ignore_errors=True)
        tracer = spans.Tracer()
        begin = time.perf_counter()
        with spans.instrument(tracer) if trace else contextlib.nullcontext():
            rc, _, err = run_cli(cmd)
        if rc != 0:
            raise RunError(f"set-up command failed ({rc}): vcfclass "
                           f"{' '.join(cmd)}\n{err}")
        setup_s.append(time.perf_counter() - begin)
        if trace:
            generate_s.append(spans.layer_metrics(tracer.spans)["phantom.generate_cohort_s"])
    return setup_s, generate_s


def run_worker(args, cohort, workdir, timeout) -> dict:
    """Run the timed region in ``worker.py`` and return its record."""
    record_path = workdir / "worker.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cohort", str(cohort),
           "--workdir", str(workdir), "--record", str(record_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(record_path.read_text(encoding="utf-8"))


def observe(iterations, setup_s, record, total) -> dict[str, float]:
    """Every value the run measured, by metric name (medians over untraced
    iterations; accuracy over all)."""
    untraced = [it for it in iterations if not it["traced"]]

    def stage_median(stage):
        return _median([it["stages"][stage]["s"] for it in untraced
                        if stage in it["stages"]])

    observed = {
        "wall_s": _median([it["wall_s"] for it in untraced]),
        "setup_s": _median(setup_s),
        "extract_s": stage_median("extract"),
        "cv_s": stage_median("cv"),
        "report_s": stage_median("report"),
        "peak_rss_mb": record["peak_rss_mb"],
        "failed_frac": total.failed / total.attempted,
        "success_frac": 1.0 - total.failed / total.attempted,
    }
    for cond in ("measured", "longitudinal", "combined"):
        observed[f"acc.{cond}"] = _median([it["accuracy"][cond] for it in iterations
                                           if cond in it["accuracy"]])
    return observed


def layer_report(iterations, observed, generate_s, bytes_written) -> dict[str, float]:
    """The per-layer metrics: medians over traced iterations plus the values
    measured outside them."""
    traced = [it for it in iterations if it["traced"]]
    layers = {k: _median([it["layers"][k] for it in traced]) for k in traced[0]["layers"]}
    layers.update({k: observed[k] for k in (
        "extract_s", "cv_s", "report_s", "failed_frac",
        "acc.measured", "acc.longitudinal", "acc.combined")})
    layers["phantom.generate_cohort_s"] = _median(generate_s)
    layers["phantom.bytes_written"] = bytes_written
    layers["trace.overhead_frac"] = (
        _median([it["wall_s"] for it in traced]) / observed["wall_s"] - 1.0)
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "vcfclass" / "cli.py").is_file():
        print(f"error: no vcfclass sources under {SRC}", file=sys.stderr)
        return 2
    blas_cap = prepare_process()
    import vcfclass.cli  # noqa: F401  (import cost stays out of set-up time)
    from checks import Outcome, check_iteration

    wl = WORKLOADS[args.workload]
    workdir = WORK / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cohort = workdir / "cohort"
    total = Outcome()
    try:
        setup_s, generate_s = set_up(wl, args.seed, cohort, args.trace)
        bytes_written = sum(f.stat().st_size for f in cohort.rglob("*") if f.is_file())
        record = run_worker(args, cohort, workdir,
                            DEADLINE_S - (time.perf_counter() - started))
        iterations = record["iterations"]
        for it in iterations:
            res = check_iteration(wl, it, cohort, workdir / it["dir"])
            it.update(attempted=res.attempted, failed=res.failed, problems=res.problems,
                      accuracy=res.accuracy, digests=res.digests)
            total.attempted += res.attempted
            total.failed += res.failed
            total.problems += [f"iteration {it['index']}: {p}" for p in res.problems]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for sub in [cohort, *workdir.glob("it[0-9]*")]:
            shutil.rmtree(sub, ignore_errors=True)

    observed = observe(iterations, setup_s, record, total)
    if args.trace:
        reported = layer_report(iterations, observed, generate_s, bytes_written)
    else:
        reported = {m["name"]: observed[m["name"]] for m in DECLARED["end_to_end"]}
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in reported.items()}

    reference = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    expected = reference.get(wl.name, {}).get(str(args.seed))
    digests = iterations[0]["digests"]
    n_traced = sum(it["traced"] for it in iterations)
    env = _environment(args.seed, blas_cap, len(iterations), n_traced)
    result = {
        "workload": wl.name, "why": wl.why, "trace": args.trace, "env": env,
        "samples": {"iterations": len(iterations) - n_traced,
                    "traced_iterations": n_traced, "setup": len(setup_s)},
        "observed": observed, "setup_s_all": setup_s,
        "outputs_identical": None if expected is None else digests == expected,
        "outputs_deterministic": all(it["digests"] == digests for it in iterations),
        "digests": digests, "problems": total.problems,
        "iterations": iterations, "trace_file": record["trace_file"],
    }
    (workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n",
                                         encoding="utf-8")

    print(f"workload {wl.name}, seed {args.seed}: {len(iterations) - n_traced} "
          f"untraced and {n_traced} traced iterations, set-up x{len(setup_s)}")
    for name, value in observed.items():
        print(f"  {name:<18} {value:.6g} {UNITS[name]}")
    print(f"  outputs_identical  {result['outputs_identical']} "
          f"(deterministic across iterations: {result['outputs_deterministic']})")
    for problem in total.problems:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(env))
    print("record " + str((workdir / "result.json").relative_to(ROOT)))
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
