"""Timed region of one benchmark run, in a process of its own.

``run.py`` builds the inputs and starts this script, so that the peak
resident memory reported is that of the process running the workload alone.
It repeats the workload's stages (one *iteration*) for about ``--seconds``:
it stops when another iteration would end more than half an iteration past
that, so at least one always runs. It writes a JSON record of every
iteration to ``--record``.

With ``--trace 1`` iterations alternate between untraced and traced (at least
one of each): traced ones give the per-layer metrics, and the untraced ones
give the base for the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, run_cli, stage_argv


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB (10^6 bytes).

    ``VmHWM`` covers only the program this process executed. ``ru_maxrss``
    would also count the memory of ``run.py`` at the fork that started it.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6      # the field is in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_iteration(wl, seed, cohort, out, tracer=None) -> dict:
    """Run the workload's stages once, writing under ``out``; stop at the
    first stage that fails."""
    stages = {}
    start = time.perf_counter()
    for stage in wl.stages:
        with tracer.span("stage." + stage) if tracer else contextlib.nullcontext():
            rc, seconds, err = run_cli(stage_argv(stage, seed, cohort, out))
        stages[stage] = {"s": seconds, "rc": rc, "stderr": err[-500:]}
        if rc != 0:
            break
    return {"stages": stages, "wall_s": time.perf_counter() - start}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--cohort", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--record", type=Path, required=True)
    args = ap.parse_args()

    import vcfclass.cli  # noqa: F401  (import cost stays out of the timed region)

    wl = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    iterations = []
    begin = time.perf_counter()
    while True:
        index = len(iterations)
        traced = bool(args.trace) and index % 2 == 1
        out = args.workdir / f"it{index:02d}"
        gc.collect()
        if traced:
            tracer.run_id = f"{wl.name}-s{args.seed}-it{index:02d}"
            first = len(tracer.spans)
            with spans.instrument(tracer):
                rec = run_iteration(wl, args.seed, args.cohort, out, tracer)
            rec["layers"] = spans.layer_metrics(tracer.spans[first:])
        else:
            rec = run_iteration(wl, args.seed, args.cohort, out)
        rec.update(index=index, traced=traced, dir=out.name)
        iterations.append(rec)

        # Stop where the measured time lands nearest ``--seconds``.
        need_traced = bool(args.trace) and len(iterations) < 2
        if not need_traced and (time.perf_counter() - begin + rec["wall_s"] / 2
                                >= args.seconds):
            break

    record = {"iterations": iterations, "peak_rss_mb": peak_rss_mb(), "trace_file": None}
    if tracer is not None:
        trace_path = args.workdir / "trace.jsonl"
        tracer.write(trace_path)
        record["trace_file"] = trace_path.name
    args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
