"""perfbench: the rv2x benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in perfbench/workloads.json; the metrics, their units and
bounds in BENCHMARK.json.  Each workload has a fixed trial set (one
harness.run call per listed rng seed, then harness.emit into a temporary
directory); the seed draws the order of the calls.  The workload itself runs
in a fresh interpreter (worker.py).

--trace 0  measures end-to-end metrics with tracing off: whole passes over the
           trial set while they fit in S seconds, each call's time taken as its
           median over the passes, and set-up time as the median over several
           fresh interpreters.
--trace 1  runs each call of the trial set untraced, then traced, at threads=1
           and prints the per-layer metrics and the tracing overhead; a traced
           repeat of one call must reproduce its counts exactly.  Spans are
           written to .perfbench/spans-NAME.jsonl.

Every metric prints as a ``name value unit`` line; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  A trial counts
as failed when it aborts or fails the output checks in worker.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SETUP_RUNS = 5   # fresh interpreters timed per run, the workload's own included


class BenchError(Exception):
    pass


def spawn(args):
    """Start worker.py and return (process, seconds until it printed ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup_s


def run_worker(args, setup_runs):
    setups = []
    for _ in range(setup_runs - 1):
        proc, setup_s = spawn([*args, "--setup-only"])
        proc.communicate()
        setups.append(setup_s)
    proc, setup_s = spawn(args)
    setups.append(setup_s)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups


def main(argv=None):
    parser = argparse.ArgumentParser(description="rv2x benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workloads", default=os.path.join(HERE, "workloads.json"),
                        help="workload definitions (default: perfbench/workloads.json)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rv2x", "harness.py")):
        print("perfbench: src/rv2x/harness.py not found; run from a checkout of rv2x",
              file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(args.workloads, encoding="utf-8") as fh:
        if args.workload not in json.load(fh):
            print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workloads", os.path.abspath(args.workloads)]
    try:
        result, setups = run_worker(worker_args, 1 if args.trace else SETUP_RUNS)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    unknown = [m["name"] for m in declared if m["name"] not in values]
    if unknown:
        print(f"perfbench: worker did not measure {unknown}", file=sys.stderr)
        return 1

    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for problem in result["problems"]:
        print("problem " + problem)
    for name in result.get("absent_hooks", []):
        print(f"missing {name} (no such function to hook; its metrics read -1)")
    for name in result.get("missing", []):
        if name not in result["absent_hooks"]:
            print(f"missing {name} (hook never fired; its metrics read -1)")
    for name, s in result.get("spans", {}).items():
        print(f"span {name} calls {s['calls']} work {s['work']} "
              f"busy_s {s['busy_s']:.6f} self_s {s['self_s']:.6f}")
    for name, seconds in sorted(result.get("run_trial_children", {}).items()):
        print(f"harness.run_trial child {name} {seconds:.6f} s")
    for name, (value, unit) in sorted(result["notes"].items()):
        print(f"{name} {value:.6g} {unit}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
