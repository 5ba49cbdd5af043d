#!/usr/bin/env python3
"""Build and run the pramsim benchmark. Stdlib only.

One run, one workload (the form BENCHMARK.json's command takes):

    python3 benchmark/run.py --workload serve_dmmpc --seed 1 \
        --seconds 10 --trace 0

prints the benchmark program's table and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1 (whose span
file lands in build-bench/traces/). It builds build-bench/ from the
repository's sources first when the program is missing or older than
them, and exits non-zero without a result when it cannot.

Repeated runs, one process each, alternating the workload order between
sets and giving each set its own seed:

    python3 benchmark/run.py --repeats 5 [--workloads a,b] [--seconds 10] \
        [--seed 1] [--trace 1] [--out results.json]

writes every run plus the per-(workload, metric) median, quartiles and N.

Comparing two such files, parent first:

    python3 benchmark/run.py --compare parent.json change.json

marks each (workload, metric) pair of host metrics better, within
bound, worse or unresolved against the bounds in BENCHMARK.json. A host
metric is worse when its median is worse by more than the bound, when
every change run reads worse than every parent run, or when the change
loses nine tenths of the pairs and its median moved by more than the
parent's quartile spread. The simulated metrics are paired by seed (run
both sides with the same --seed), and any seed that reads worse makes
the pair worse. It exits 1 on any worse pair or on a larger failed
fraction, 2 when no pair is worse but some are unresolved (the spread
exceeds the bound, so no regression is shown), and 0 otherwise.
"""
import argparse
import ctypes
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / "build-bench"
PROGRAM = BUILD / "pramsim_bench"
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
# Simulated metrics repeat exactly for one seed; --compare pairs them by
# seed instead of applying a bound.
SIMULATED = ("sim_time_per_step", "work_per_step")


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def newest_source_mtime():
    paths = [ROOT / "CMakeLists.txt", BENCH_DIR / "CMakeLists.txt"]
    paths += (ROOT / "src").rglob("*")
    paths += BENCH_DIR.glob("*.[ch]pp")
    return max(p.stat().st_mtime for p in paths if p.is_file())


def ensure_built():
    """Configure and build build-bench/ when the program is missing or
    older than any source. Returns False when the sources are absent or
    the build fails."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("error: the repository's sources are not next to benchmark/")
        return False
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if PROGRAM.is_file() and \
                PROGRAM.stat().st_mtime >= newest_source_mtime():
            return True
        jobs = str(min(os.cpu_count() or 1, 4))
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "pramsim_bench", "-j", jobs])
        for command in steps:
            log("+ " + " ".join(command))
            done = subprocess.run(command, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
            if done.returncode != 0:
                log(f"error: {command[0]} exited {done.returncode}")
                return False
        if not PROGRAM.is_file():
            return False
        PROGRAM.touch()  # a no-op build leaves it older than the sources
        return True


def fixed_layout():
    """In the child before exec: turn address-space randomization off, so
    the heap layout, and with it cache-set conflicts in the large tables,
    repeats from run to run."""
    try:
        libc = ctypes.CDLL(None)
        libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_program(workload, seed, seconds, trace):
    """One process of the benchmark program. Returns (result dict,
    printed table) or raises RuntimeError."""
    work = BUILD / "work"
    work.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work)
    command = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--dir", work_dir]
    trace_file = None
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{workload}.json"
        command += ["--trace", str(trace_file)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired as err:
        raise RuntimeError(f"{workload}: timed out after "
                           f"{RUN_TIMEOUT_S} s") from err
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: program exited {done.returncode}")
    result = json.loads(lines[-1])
    if trace_file is not None:
        try:
            with open(trace_file, encoding="utf-8") as f:
                json.load(f)
            result["trace_ok"] = True
        except (OSError, json.JSONDecodeError):
            result["trace_ok"] = False
    return result, "\n".join(lines[:-1])


def checked_result(result, spec, trace):
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {name: result["metrics"][name] for name in names
               if name in result["metrics"]}
    correct = (result["failed"] == 0 and result["attempted"] > 0
               and len(metrics) == len(names)
               and result.get("trace_ok", True))
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def one_run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"error: unknown workload {args.workload!r}")
        return 2
    if not ensure_built():
        return 1
    try:
        result, table = run_program(args.workload, args.seed, args.seconds,
                                    args.trace == 1)
    except (RuntimeError, json.JSONDecodeError) as err:
        log(f"error: {err}")
        return 1
    print(table)
    print(json.dumps(checked_result(result, spec, args.trace == 1)),
          flush=True)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs):
    summary = {}
    for workload, results in runs.items():
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "n": len(values),
                          "unit": results[0]["metrics"][name]["unit"]}
        rows["failed_frac"] = {
            "value": sum(r["failed"] for r in results) /
            max(1, sum(r["attempted"] for r in results))}
        summary[workload] = rows
    return summary


def repeat_runs(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in chosen if w not in names]
    if unknown:
        log(f"error: unknown workloads {unknown}")
        return 2
    if not ensure_built():
        return 1
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    runs = {w: [] for w in chosen}
    for index in range(args.repeats):
        order = chosen if index % 2 == 0 else list(reversed(chosen))
        seed = args.seed + index
        for workload in order:
            try:
                result, _ = run_program(workload, seed, seconds,
                                        args.trace == 1)
            except (RuntimeError, json.JSONDecodeError) as err:
                log(f"error: {err}")
                return 1
            correct = checked_result(result, spec,
                                     args.trace == 1)["correct"]
            runs[workload].append({
                "correct": correct, "attempted": result["attempted"],
                "failed": result["failed"], "seed": seed,
                "metrics": result["metrics"]})  # the ungated ones too
            log(f"set {index + 1}/{args.repeats} {workload} seed {seed}: "
                + ("correct" if correct else "INCORRECT"))
    output = {"seconds": seconds, "trace": args.trace,
              "summary": summarize(runs), "runs": runs}
    text = json.dumps(output, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print_summary(output["summary"])
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


def print_summary(summary):
    for workload, rows in summary.items():
        print(workload)
        for name, row in rows.items():
            if "median" in row:
                print(f"  {name:32} median {row['median']:14.6g}  "
                      f"q1 {row['q1']:14.6g}  q3 {row['q3']:14.6g}  "
                      f"n {row['n']}  {row['unit']}")
            else:
                print(f"  {name:32} {row['value']:.6g}")


def classify(parent, change, better, bound):
    """better / within bound / worse / unresolved for one pair of host
    metrics, by the rules for claiming a gain and for showing no
    regression."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if p_med == 0:
        return "unresolved", 0.0
    gain = sign * (c_med - p_med) / abs(p_med) + 0.0  # no "-0.00 %"
    spread = max((p_q3 - p_q1) / abs(p_med),
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c > sign * p)
    losses = sum(1 for p, c in pairs if sign * c < sign * p)
    # The rule for claiming a gain, mirrored, flags a loss smaller than
    # the bound when the runs resolve it.
    clear = abs(c_med - p_med) > p_q3 - p_q1
    if (all_worse or -gain > bound
            or (gain < 0 and losses >= 0.9 * len(pairs) and clear)):
        return "worse", gain
    if spread > bound:
        return ("better" if all_better else "unresolved"), gain
    if gain > 0 and wins >= 0.9 * len(pairs) and clear:
        return "better", gain
    return "within bound", gain


def classify_paired(parent_runs, change_runs, name, better):
    """For a simulated metric, which repeats exactly for one seed: pair
    the runs by seed and call the change worse if any seed reads worse,
    better if some seed reads better and none worse, else identical.
    None when the two files share no seed."""
    sign = 1.0 if better == "higher" else -1.0
    parent = {r["seed"]: r["metrics"][name]["value"] for r in parent_runs}
    pairs = [(parent[r["seed"]], r["metrics"][name]["value"])
             for r in change_runs if r["seed"] in parent]
    if not pairs:
        return None
    gain = statistics.median(sign * (c - p) / abs(p) if p else 0.0
                             for p, c in pairs) + 0.0
    if any(sign * c < sign * p for p, c in pairs):
        return "worse", gain
    if any(c != p for p, c in pairs):
        return "better", gain
    return "identical", gain


def compare(args):
    spec = load_spec()
    with open(args.compare[0], encoding="utf-8") as f:
        parent = json.load(f)
    with open(args.compare[1], encoding="utf-8") as f:
        change = json.load(f)
    regressions = 0
    unresolved = []
    for workload in parent["runs"]:
        if workload not in change["runs"]:
            continue
        p_runs = parent["runs"][workload]
        c_runs = change["runs"][workload]
        print(workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            paired = (classify_paired(p_runs, c_runs, name, metric["better"])
                      if name in SIMULATED else None)
            verdict, gain = paired or classify(p_vals, c_vals,
                                               metric["better"],
                                               metric["bound"])
            regressions += verdict == "worse"
            if verdict == "unresolved":
                unresolved.append(f"{workload}/{name}")
            print(f"  {name:20} parent {statistics.median(p_vals):12.6g}  "
                  f"change {statistics.median(c_vals):12.6g}  "
                  f"{100 * gain:+7.2f}%  {verdict}")
        p_fail = parent["summary"][workload]["failed_frac"]["value"]
        c_fail = change["summary"][workload]["failed_frac"]["value"]
        if c_fail > p_fail:
            regressions += 1
            print(f"  failed_frac rose from {p_fail:.3g} to {c_fail:.3g}")
    print(f"{regressions} regression(s); unresolved: "
          + (", ".join(unresolved) if unresolved else "none"))
    if regressions:
        return 1
    return 2 if unresolved else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT.json", "CHANGE.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.repeats:
        return repeat_runs(args)
    if not args.workload:
        parser.error("give --workload, --repeats or --compare")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
