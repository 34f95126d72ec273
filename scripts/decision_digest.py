"""Save the adaptation decisions of fixed trial sets, and compare two saves.

    python scripts/decision_digest.py write DIR [RUN ...]
    python scripts/decision_digest.py compare A B

``write`` runs every trial set of ``perfbench/workloads.json`` (each rng
seed with its workload's allocator, overrides and trials per call; the file
is only read) and the configuration of acceptance criteria 7 and 8
(``SimConfig(deviation_trace=False)``, 100 trials of each allocator), all on
one worker process.  Each run's decision arrays and deviation trace go to
``DIR/<run>.npz``, stacked over its trials.  Naming runs limits ``write`` to
them; all of them take about half a minute on a 2-core machine, most of it
the criteria runs.

``compare`` prints, for every run and array, how many entries moved out of
how many, and the largest relative change among them.  Entries compare by
their bits, so a NaN that stays NaN has not moved.  It exits with status 1
if anything moved or a run is missing from one side.
"""

import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rv2x import SimConfig, run  # noqa: E402

WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.json")
FIELDS = ("c_l", "c_u", "c_star", "p_v", "p_i", "beta_star", "feasible")


def trial_sets():
    """(run name, config, allocator, trials) for every saved run."""
    with open(WORKLOADS, encoding="utf-8") as fh:
        workloads = json.load(fh)
    for name, w in workloads.items():
        for seed in w["rng_seeds"]:
            yield (f"{name}.seed{seed}", SimConfig(**w["overrides"], rng_seed=seed),
                   w["allocator"], w["trials_per_call"])
    for allocator in ("proposed", "gaussian", "hpr"):
        yield f"criteria78.{allocator}", SimConfig(deviation_trace=False), allocator, 100


def write(out_dir, names):
    os.makedirs(out_dir, exist_ok=True)
    known = set()
    for name, config, allocator, trials in trial_sets():
        known.add(name)
        if names and name not in names:
            continue
        report = run(config, allocator, trials=trials, threads=1)
        if report.completed != trials:
            raise SystemExit(f"{name}: {report.partial_errors}")
        arrays = {key: np.stack([d[key] for d in report.decisions]) for key in FIELDS}
        arrays["j_trace"] = np.stack(report.j_trace)
        np.savez(os.path.join(out_dir, name + ".npz"), **arrays)
        print(f"{name}: {trials} trials", flush=True)
    unknown = sorted(set(names) - known)
    if unknown:
        raise SystemExit(f"no such run: {', '.join(unknown)}")


def moved(a, b):
    """(entries whose bits differ, entries, largest relative change among them)."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return a.size, a.size, float("nan")
    diff = a.view(f"u{a.itemsize}") != b.view(f"u{b.itemsize}")
    rel = 0.0
    if diff.any() and a.dtype.kind == "f":
        x, y = a[diff], b[diff]
        both = np.isfinite(x) & np.isfinite(y)
        scale = np.maximum(np.abs(x[both]), np.abs(y[both]))
        gap = np.abs(x[both] - y[both])
        rel = float(np.max(gap / np.where(scale > 0, scale, 1.0), initial=0.0))
        if not both.all():
            rel = float("inf")
    elif diff.any():
        rel = float("nan")
    return int(diff.sum()), a.size, rel


def compare(dir_a, dir_b):
    runs_a = {f for f in os.listdir(dir_a) if f.endswith(".npz")}
    runs_b = {f for f in os.listdir(dir_b) if f.endswith(".npz")}
    status = 0
    for f in sorted(runs_a ^ runs_b):
        print(f"{f[:-4]}: only in {dir_a if f in runs_a else dir_b}")
        status = 1
    print(f"{'run':32s} {'array':10s} {'moved':>9s} {'of':>9s}  largest relative change")
    for f in sorted(runs_a & runs_b):
        with np.load(os.path.join(dir_a, f)) as a, np.load(os.path.join(dir_b, f)) as b:
            for key in sorted(set(a.files) | set(b.files), key=(list(FIELDS) + ["j_trace"]).index):
                if key not in a.files or key not in b.files:
                    print(f"{f[:-4]:32s} {key:10s} missing on one side")
                    status = 1
                    continue
                n, total, rel = moved(a[key], b[key])
                status |= n > 0
                print(f"{f[:-4]:32s} {key:10s} {n:9d} {total:9d}  {rel:.3g}")
    return status


def main(argv):
    if len(argv) >= 2 and argv[0] == "write":
        write(argv[1], argv[2:])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
