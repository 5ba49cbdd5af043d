#!/usr/bin/env python3
"""Smoke test of the benchmark program, run by ctest as benchmark_smoke:

    python3 benchmark/smoke_test.py <pramsim_bench> <work directory>

Runs every workload in BENCHMARK.json at 1/20 of its run length, once
untraced and once traced, and checks that

  * no read, sorted position or recovered variable failed, on any run
    (on durable_faults the traced run recovers from checkpoints written
    through the probe shim);
  * the traced run's simulated statistics equal the untraced run's, so
    the probes are transparent;
  * serve_dmmpc and serve_dmmpc_gp report identical simulated statistics;
  * trace.coverage_pct is at least 95;
  * the span file parses as JSON.
"""
import json
import subprocess
import sys
from pathlib import Path

SIMULATED = ("sim_time_per_step", "work_per_step")
SEED = 7


def run(program, workload, seconds, work, trace_file=None):
    command = [program, "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--dir", str(work / workload)]
    if trace_file is not None:
        command += ["--trace", str(trace_file)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:"
                           f"\n{done.stderr}")
    return json.loads(lines[-1])


def main():
    program, work = sys.argv[1], Path(sys.argv[2])
    work.mkdir(parents=True, exist_ok=True)
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] / 20
    problems = []
    untraced = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        trace_file = work / f"{workload}.trace.json"
        plain = run(program, workload, seconds, work)
        traced = run(program, workload, seconds, work, trace_file)
        untraced[workload] = plain
        for label, result in (("untraced", plain), ("traced", traced)):
            if result["attempted"] == 0 or result["failed"] != 0:
                problems.append(f"{workload} {label}: {result['failed']} "
                                f"of {result['attempted']} checks failed")
        for name in SIMULATED:
            a = plain["metrics"][name]["value"]
            b = traced["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} untraced {a} "
                                f"!= traced {b}")
        coverage = traced["metrics"]["trace.coverage_pct"]["value"]
        if coverage < 95:
            problems.append(f"{workload}: trace.coverage_pct {coverage} < 95")
        try:
            events = json.loads(trace_file.read_text(encoding="utf-8"))
            if not events["traceEvents"]:
                problems.append(f"{workload}: span file has no events")
        except (OSError, ValueError, KeyError) as err:
            problems.append(f"{workload}: span file unreadable: {err}")
        print(f"{workload}: checked {plain['attempted']} + "
              f"{traced['attempted']}, coverage {coverage:.2f}%", flush=True)
    for name in SIMULATED:
        a = untraced["serve_dmmpc"]["metrics"][name]["value"]
        b = untraced["serve_dmmpc_gp"]["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: serve_dmmpc {a} != serve_dmmpc_gp {b}")
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
