"""One perfbench workload run in a fresh interpreter; started by run.py.

Prints ``ready`` once rv2x, NumPy and SciPy are imported and the first config
is built and validated (run.py times set-up up to that line), then runs the
workload and prints one JSON object as its last line.  With ``--setup-only``
it exits right after ``ready``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rv2x  # noqa: E402
from rv2x import harness  # noqa: E402

import tracer  # noqa: E402

WORKLOADS = os.path.join(HERE, "workloads.json")
WORK_DIR = os.path.join(ROOT, ".perfbench")   # emit directories and span files
REL_TOL = 1e-9   # float slack on the box and c_l <= c* <= c_u checks

# counts that must repeat exactly when one harness.run call is repeated
REPEATED_COUNTS = (
    "adaptation._beta_batch_deconv", "adaptation._beta_batch_gaussian",
    "adaptation._beta_exact", "adaptation._beta_quad_level",
    "adaptation.solve_slots", "channel.evolve_small_scale", "qosmodel.sinr",
)


def load_workloads(path=WORKLOADS):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def call_order(workload, seed):
    """The workload's fixed trial set, in the order the seed draws."""
    order = list(workload["rng_seeds"])
    random.Random(seed).shuffle(order)
    return order


def call_config(workload, rng_seed):
    return rv2x.SimConfig(**workload["overrides"], rng_seed=rng_seed).validate()


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


# ----------------------------------------------------------------------------- checks


def trial_problem(config, rows, decisions):
    """Why one completed trial's output is wrong, or None."""
    n_rows = (config.absorption_len + config.adaptation_len) * config.num_pairs
    if any(len(col) != n_rows for col in rows.values()):
        return f"expected {n_rows} rows per column"
    lo, hi = 1.0 - REL_TOL, 1.0 + REL_TOL
    p_v, p_i = decisions["p_v"], decisions["p_i"]
    if not (np.all(p_v >= config.pv_min_mw * lo) and np.all(p_v <= config.pv_max_mw * hi)
            and np.all(p_i >= config.pi_min_mw * lo) and np.all(p_i <= config.pi_max_mw * hi)):
        return "decided power outside the box"
    feasible = decisions["feasible"] > 0.5
    c_l, c_star, c_u = (decisions[k][feasible] for k in ("c_l", "c_star", "c_u"))
    if not (np.all(c_l <= c_star * hi) and np.all(c_star <= c_u * hi)):
        return "c_l <= c_star <= c_u broken on a feasible decision"
    return None


def check_call(report, trials, emitted):
    """Output checks on one harness.run call: {trial: reason} for every failed trial."""
    failed = {t: f"aborted: {err}" for t, err in report.partial_errors}
    for t in range(trials):   # completed == trials, trial by trial
        if t not in report.trial_ids and t not in failed:
            failed[t] = "not completed"
    for t, rows, decisions in zip(report.trial_ids, report.rows, report.decisions):
        reason = trial_problem(report.config, rows, decisions)
        if reason:
            failed[t] = reason
    whole = [f"{name} = {getattr(report, name)!r} is not a rate"
             for name in ("v2v_ok_rate", "v2i_ok_rate", "infeasible_rate")
             if not (math.isfinite(getattr(report, name)) and 0.0 <= getattr(report, name) <= 1.0)]
    whole += [f"emitted path {p} missing" for p in emitted if not os.path.exists(p)]
    whole += [f"emitted directory {p} empty" for p in emitted
              if os.path.isdir(p) and not os.listdir(p)]
    for t in range(trials):
        if whole and t not in failed:
            failed[t] = "; ".join(whole)
    return failed


# ----------------------------------------------------------------------------- one pass


def run_call(workload, rng_seed, threads, emit=True):
    """One harness.run call on the trial set's ``rng_seed``, then harness.emit and the checks."""
    trials = workload["trials_per_call"]
    config = call_config(workload, rng_seed)
    t0 = time.perf_counter()
    report = harness.run(config, workload["allocator"], trials=trials, threads=threads)
    run_s = time.perf_counter() - t0
    emit_s = 0.0
    emit_bytes = 0
    emitted = []
    if emit:
        os.makedirs(WORK_DIR, exist_ok=True)
        out = tempfile.mkdtemp(prefix="emit-", dir=WORK_DIR)
        try:
            t0 = time.perf_counter()
            emitted = list(harness.emit(report, out))
            emit_s = time.perf_counter() - t0
            emit_bytes = sum(os.path.getsize(os.path.join(d, f))
                             for d, _, files in os.walk(out) for f in files)
            failed = check_call(report, trials, emitted)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    else:
        failed = check_call(report, trials, emitted)
    return {
        "rng_seed": rng_seed, "trials": trials, "run_s": run_s, "emit_s": emit_s,
        "emit_bytes": emit_bytes, "failed": failed,
        "v2v_ok_rate": report.v2v_ok_rate,
        "mean_throughput_mbps": report.mean_throughput_mbps,
        **decision_tallies(report),
    }


def decision_tallies(report):
    prob_req = report.config.prob_req
    decided = feasible = below = 0
    digest = hashlib.sha256()
    for dec in report.decisions:
        ok = dec["feasible"] > 0.5
        decided += ok.size
        feasible += int(ok.sum())
        below += int(np.sum(ok & (dec["beta_star"] < prob_req)))
        for key in ("c_star", "p_v", "p_i", "beta_star", "feasible"):
            digest.update(np.ascontiguousarray(dec[key]).tobytes())
    return {"decided": decided, "feasible": feasible, "below_target": below,
            "digest": digest.hexdigest()}


def failures(calls):
    return sum(c["trials"] for c in calls), sum(len(c["failed"]) for c in calls)


def problems(calls):
    return [f"rng_seed {c['rng_seed']} trial {t}: {why}"
            for c in calls for t, why in sorted(c["failed"].items())]


# ----------------------------------------------------------------------------- modes


def per_call_median(passes, key):
    """Seconds for the whole trial set, each call taken at its median over the passes.

    Neighbours on a shared machine slow single calls by 10-30% at times; a
    per-call median drops such a call where a median of pass totals would not.
    """
    return sum(statistics.median(p[k][key] for p in passes) for k in range(len(passes[0])))


def measure(workload, seed, seconds):
    """End-to-end metrics: whole passes over the trial set until ``seconds`` is used."""
    order = call_order(workload, seed)
    threads = workload["threads"]
    passes = []
    start = time.perf_counter()
    pass_s = 0.0
    while not passes or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        passes.append([run_call(workload, rng_seed, threads) for rng_seed in order])
        pass_s = time.perf_counter() - t0
    calls = [c for p in passes for c in p]
    attempted, failed = failures(calls)
    first = passes[0]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "run_s": per_call_median(passes, "run_s"),
        "emit_s": per_call_median(passes, "emit_s"),
        # pool workers run side by side, so each may hold the largest child's peak
        "peak_rss_mb": (self_kb + threads * child_kb) / 1024.0,
        "trial_ok_frac": 1.0 - failed / attempted,
        "v2v_ok_rate": statistics.fmean(c["v2v_ok_rate"] for c in first),
        "mean_throughput_mbps": statistics.fmean(c["mean_throughput_mbps"] for c in first),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems(calls),
            "notes": {"trial_fail_frac": [failed / attempted, "ratio"],
                      "passes": [len(passes), "count"]}}


def _counts(spans, first, last):
    stats = tracer.summarize(spans, first, last)
    return {name: [stats[name].calls, stats[name].work] if name in stats else None
            for name in REPEATED_COUNTS}


def _span_range(spans, call):
    idx = [i for i, s in enumerate(spans) if s[4] == call]
    return idx[0], idx[-1] + 1


def measure_traced(workload, seed):
    """Per-layer metrics at threads=1: each call of the trial set runs untraced, then
    traced; a traced repeat of the cheapest call must reproduce its counts.

    A call runs faster the second time in a process (its heap is already
    grown), so an untimed first run precedes the timed untraced one.
    """
    order = call_order(workload, seed)
    trace = tracer.Tracer()
    warm, plain, traced = [], [], []
    for k, rng_seed in enumerate(order):
        warm.append(run_call(workload, rng_seed, threads=1, emit=False))
        plain.append(run_call(workload, rng_seed, threads=1, emit=False))
        trace.call = k
        with trace:
            traced.append(run_call(workload, rng_seed, threads=1))
    end = len(trace.spans)
    cheapest = min(range(len(order)), key=lambda k: traced[k]["run_s"])
    trace.call = "repeat"
    with trace:
        again = run_call(workload, order[cheapest], threads=1)
    spans = trace.spans
    os.makedirs(WORK_DIR, exist_ok=True)
    trace.write(os.path.join(WORK_DIR, f"spans-{os.path.basename(workload['name'])}.jsonl"))

    mismatch = []
    first, last = _span_range(spans, cheapest)
    if _counts(spans, first, last) != _counts(spans, end, len(spans)):
        mismatch.append(f"span counts differ on a repeat of rng_seed {order[cheapest]}")
    if again["emit_bytes"] != traced[cheapest]["emit_bytes"]:
        mismatch.append(f"emit bytes differ on a repeat of rng_seed {order[cheapest]}")
    for a, b in zip(plain, traced):
        if a["digest"] != b["digest"]:
            mismatch.append(f"tracing changed the decisions of rng_seed {a['rng_seed']}")

    metrics, missing = layer_metrics(spans, end, traced)
    metrics["trace.overhead_s"] = (sum(c["run_s"] for c in traced)
                                   - sum(c["run_s"] for c in plain))
    stats = tracer.summarize(spans, 0, end)
    trial = stats.get("harness.run_trial")
    breakdown = tracer.children_of(spans, "harness.run_trial", 0, end)
    if trial and abs(sum(breakdown.values()) + trial.self_s - trial.busy_s) > 1e-6:
        mismatch.append("harness.run_trial children and self time do not add up")
    calls = warm + plain + traced + [again]
    attempted, failed = failures(calls)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems(calls) + mismatch, "missing": missing,
            "absent_hooks": trace.absent, "run_trial_children": breakdown,
            "spans": {name: s._asdict() for name, s in sorted(stats.items())},
            "notes": {"trial_fail_frac": [failed / attempted, "ratio"],
                      "untraced_run_s": [sum(c["run_s"] for c in plain), "s"],
                      "traced_run_s": [sum(c["run_s"] for c in traced), "s"]}}


MISSING = -1.0   # value of a metric whose hooks never fired


def layer_metrics(spans, end, calls):
    """Per-layer metrics over ``spans[:end]``; hooks that never fired are listed."""
    stats = tracer.summarize(spans, 0, end)
    missing = []
    metrics = {}

    def fired(*names):
        if any(n in stats for n in names):
            return True
        missing.extend(n for n in names if n not in missing)
        return False

    def count(metric, *names, field="calls"):
        metrics[metric] = (float(sum(getattr(stats[n], field) for n in names if n in stats))
                           if fired(*names) else MISSING)

    def busy(metric, *names):
        metrics[metric] = tracer.group_busy(spans, names, 0, end) if fired(*names) else MISSING

    def self_s(metric, name):
        metrics[metric] = stats[name].self_s if fired(name) else MISSING

    beta = ("adaptation._beta_batch_deconv", "adaptation._beta_batch_gaussian")
    count("adaptation.solve_slots.calls", "adaptation.solve_slots")
    count("adaptation.solve_slots.slots", "adaptation.solve_slots", field="work")
    busy("adaptation.solve_slots.busy_s", "adaptation.solve_slots")
    count("adaptation.beta.batches", *beta)
    count("adaptation.beta.queries", *beta, field="work")
    busy("adaptation.beta.busy_s", *beta)
    count("adaptation.beta_exact.queries", "adaptation._beta_exact", field="work")
    busy("adaptation.beta_exact.busy_s", "adaptation._beta_exact")
    count("adaptation.beta_quad.queries", "adaptation._beta_quad_level", field="work")
    busy("adaptation.beta_quad.busy_s", "adaptation._beta_quad_level")
    solves = metrics["adaptation.solve_slots.calls"]
    batches = metrics["adaptation.beta.batches"]
    metrics["adaptation.beta.batches_per_solve"] = (
        batches / solves if solves > 0 and batches > 0 else MISSING)
    decided = sum(c["decided"] for c in calls)
    metrics["adaptation.feasible_frac"] = sum(c["feasible"] for c in calls) / decided
    metrics["adaptation.below_target_feasible"] = float(sum(c["below_target"] for c in calls))
    count("channel.evolve_small_scale.calls", "channel.evolve_small_scale")
    busy("channel.evolve_small_scale.busy_s", "channel.evolve_small_scale")
    busy("channel.build_large_scale.busy_s", "channel.build_large_scale")
    count("qosmodel.sinr.calls", "qosmodel.sinr")
    busy("qosmodel.busy_s", "qosmodel.sinr", "qosmodel.throughput", "qosmodel.delay")
    busy("absorption.run_absorption.busy_s", "absorption.run_absorption")
    self_s("absorption.run_absorption.self_s", "absorption.run_absorption")
    busy("absorption.hungarian_match.busy_s", "absorption.hungarian_match")
    busy("harness.run_trial.busy_s", "harness.run_trial")
    self_s("harness.run_trial.self_s", "harness.run_trial")
    busy("harness.emit.busy_s", "harness.emit")
    metrics["harness.emit.bytes"] = float(sum(c["emit_bytes"] for c in calls))
    busy("scenario.build_topology.busy_s", "scenario.build_topology")
    busy("baselines.fit.busy_s", "baselines.fit_gaussian", "baselines.fit_hpr")
    return metrics, missing


# ----------------------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workloads", default=WORKLOADS)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = dict(load_workloads(args.workloads)[args.workload], name=args.workload)
    call_config(workload, call_order(workload, args.seed)[0])
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = measure_traced(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds)
    result["machine"] = machine()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
