"""Run one workload on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 --seconds 30 [--trace 0|1]

Spread is the distance between the first and third quartile over the median,
as ``statistics.quantiles(values, n=4)`` gives them; BENCHMARK.json bounds the
spread of every end-to-end metric but setup_s.  Prints one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in runs[-1]["metrics"].items()),
              file=sys.stderr, flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
               "correct": all(r["correct"] for r in runs), "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "unit": runs[0]["metrics"][name]["unit"]}
    print(json.dumps(summary, indent=1))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
