"""Smoke test of the benchmark harness itself.

    python3 bench/smoke.py

Runs every workload once untraced and once traced on a tiny phantom cohort
(the timed stages and their settings are unchanged; only the set-up cohort
shrinks) and checks that the result line carries exactly the metrics
``BENCHMARK.json`` declares, each with a finite value, that every output
check passed, and that the span file is well formed.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

TINY_COHORT = ("--patients", "4", "--studies", "2", "--vertebrae", "3")
SPAN_KEYS = {"run", "id", "parent", "name", "start", "end", "attrs"}


def main() -> int:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect = {0: {m["name"] for m in declared["end_to_end"]},
              1: {m["name"] for m in declared["per_layer"]}}
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from workloads.py")
        return 1
    for name, wl in workloads.WORKLOADS.items():
        workloads.WORKLOADS[name] = dataclasses.replace(wl, cohort=TINY_COHORT)

    failures = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            before = len(failures)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = run.main(["--workload", name, "--seed", "7",
                               "--seconds", "0", "--trace", str(trace)])
            lines = buf.getvalue().splitlines()
            tag = f"{name} --trace {trace}"
            if rc != 0 or not lines:
                failures.append(f"{tag}: exit code {rc}")
                continue
            result = json.loads(lines[-1])
            got = set(result["metrics"])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if got != expect[trace]:
                failures.append(f"{tag}: missing {sorted(expect[trace] - got)}, "
                                f"undeclared {sorted(got - expect[trace])}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                failures.append(f"{tag}: non-numeric values {bad}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{tag}: outputs failed their checks: "
                                + "; ".join(l for l in lines if "FAILED" in l))
            if trace:
                record = run.ROOT / lines[-2].split(" ", 1)[1]
                trace_file = record.parent / json.loads(record.read_text())["trace_file"]
                spans = [json.loads(l) for l in trace_file.read_text().splitlines()]
                if not spans or any(set(s) != SPAN_KEYS for s in spans):
                    failures.append(f"{tag}: malformed span file {trace_file}")
            print(f"{'ok  ' if len(failures) == before else 'FAIL'} {tag}", flush=True)

    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
