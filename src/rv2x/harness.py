"""Simulation harness: trials, aggregation, file emission, and the CLI.

Trials are statistically independent and individually seeded from
(rng_seed, trial_index), so results are byte-identical no matter how many
worker processes participate.  Per trial the flow is: draw a topology and
epoch shadowing, run the probing/matching phase (shared by all allocators),
fit the allocator's error model, then draw the adaptation slots' fading as
one block and solve it, every pair at once, in one call of the vectorised
solver.  Each phase's realised QoS is computed in one call over all its
slots and written straight into the trial's row columns; this module alone
knows the row format.  The CLI runs as ``rv2x`` or ``python -m rv2x``.
"""

import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import sys
import traceback
import types

import numpy as np
# imported with the package, not on first use, so that forked pool workers
# inherit it instead of each importing it again (about 20 ms per worker)
from numpy.random import SeedSequence, default_rng

from . import absorption, adaptation, baselines, qosmodel
from . import channel as chan
from .config import SimConfig, load_config
from .errors import ConfigurationError
from .scenario import build_topology, noise_power, qos_constants

_ALLOCATORS = ("proposed", "gaussian", "hpr")

# purpose tags for named per-trial random substreams
_STREAMS = {"topology": 0, "shadowing": 1, "absorption": 2, "adaptation": 3}


def _stream(seed, trial, purpose):
    return default_rng(SeedSequence((seed, trial, _STREAMS[purpose])))


@dataclasses.dataclass
class RunReport:
    """Aggregated outcome of a batch of trials."""

    allocator: str
    config: SimConfig
    trials: int
    completed: int
    trial_ids: list                # trial number of each entry in the lists below
    rows: list                     # per trial: slot-major (slot, pair) columns, probing first
    decisions: list                # per trial: dict of adaptation decision arrays
    j_trace: list                  # per trial: (adaptation_len,) deviation trace
    v2v_ok_rate: float             # adaptation-phase delay satisfaction
    v2i_ok_rate: float             # adaptation-phase rate satisfaction
    mean_delay_ms: float           # finite delays only
    conditional_mean_delay_ms: float | None   # finite budget-violating delays, if any
    mean_throughput_mbps: float
    infeasible_rate: float
    cross_clamped: int
    degenerate_sinr: int
    estimates: list                # per-pair DeconvEstimate of the first completed trial
    partial_errors: list           # (trial, repr) for aborted trials


_ROW_COLS = ("p_v_mw", "p_i_mw", "delay_ms", "throughput_mbps", "satisfied", "infeasible")


def _trial_rows(n_slots, n_pairs):
    """A trial's columns; row r is slot r // n_pairs and pair r % n_pairs, probing first."""
    n = n_slots * n_pairs
    return {name: np.empty(n, dtype=bool if name in ("satisfied", "infeasible") else float)
            for name in _ROW_COLS}


def _fill_phase(rows, first_slot, fading, large, alloc, infeasible, config, flags):
    """One phase's realised QoS into the row columns, slot-major.

    ``fading`` holds the phase's S slots and the powers of ``alloc`` are per
    phase or per slot, so a single SINR/throughput/delay evaluation covers
    the phase; ``infeasible`` is a flag per (slot, pair) or one for all.
    """
    sigma2 = noise_power(config)
    g_i = qosmodel.sinr("v2i", fading, large, alloc, sigma2, flags)
    g_v = qosmodel.sinr("v2v", fading, large, alloc, sigma2, flags)
    thr = qosmodel.throughput(g_i, config.bandwidth_hz)
    dly = qosmodel.delay(g_v, config.packet_bits, config.bandwidth_hz)
    n_slots, m = dly.shape
    finite = np.isfinite(dly)
    cols = {
        "p_v_mw": alloc.p_v_mw,
        "p_i_mw": alloc.p_i_mw,
        "delay_ms": np.where(finite, dly * 1e3, -1.0),
        "throughput_mbps": thr / 1e6,
        "satisfied": (dly <= config.delay_req_s) & finite,
        "infeasible": infeasible,
    }
    sl = slice(first_slot * m, (first_slot + n_slots) * m)
    for name, val in cols.items():
        rows[name][sl].reshape(n_slots, m)[...] = val


def run_trial(config, allocator, trial):
    """One independent trial; returns per-trial arrays and tallies."""
    law = chan.error_law(config.error_law, config.custom_weights,
                         config.custom_means, config.custom_vars)
    gamma_v, _ = qos_constants(config)
    sigma2 = noise_power(config)
    rate_gamma = 2.0 ** (config.rate_req_bps / config.bandwidth_hz) - 1.0
    m = config.num_pairs
    seed = config.rng_seed

    topo = build_topology(config, _stream(seed, trial, "topology"))
    large = chan.build_large_scale(topo, config, _stream(seed, trial, "shadowing"))

    plan, estimates, probing = absorption.run_absorption(
        large, config, law, _stream(seed, trial, "absorption"))

    # error model per pair for the selected allocator
    if allocator == "proposed":
        models = estimates
    elif allocator == "gaussian":
        models = [baselines.fit_gaussian(e.samples, e.lambda_y) for e in estimates]
    elif allocator == "hpr":
        models = [baselines.fit_hpr(e.samples, e.lambda_y, config.prob_req) for e in estimates]
    else:
        raise ConfigurationError(f"unknown allocator {allocator!r}")

    adapt_len = config.adaptation_len
    box = (config.pi_min_mw, config.pi_max_mw, config.pv_min_mw, config.pv_max_mw)
    n_slots = config.absorption_len + adapt_len
    rows = _trial_rows(n_slots, m)
    flags = {}
    pairing = plan.pairing
    _fill_phase(rows, 0, probing, large,
                qosmodel.AllocationDecision(pairing=pairing, p_v_mw=plan.p_v_mw,
                                            p_i_mw=plan.p_i_mw),
                False, config, flags)

    decisions = {k: np.empty((adapt_len, m), dtype=bool if k == "feasible" else float)
                 for k in ("c_l", "c_u", "c_star", "p_v", "p_i", "beta_star", "feasible")}
    j_trace = np.zeros(adapt_len)

    if adapt_len:
        fading = chan.evolve_small_scale(large, law, _stream(seed, trial, "adaptation"),
                                         m, m, adapt_len)
        idx = np.arange(m)
        g2_v_hat = fading.g2_v_hat                              # (S, M)
        g2_cross_hat = fading.g2_cross_hat[:, pairing, idx]
        g2_i = fading.g2_i[:, pairing]                          # matched uplink fading
        g2_v_rsu = fading.g2_v_rsu

        l_cross = large.l_cross[pairing, idx]                   # matched cross-link gains
        pairs = adaptation.PairTable(
            models, box, lambda_y=plan.lambda_y, delta2=large.delta ** 2, gamma_v=gamma_v,
            sigma2=sigma2, l_v=large.l_v, l_cross=l_cross, l_i=large.l_i[pairing],
            l_v_rsu=large.l_v_rsu, rate_gamma=rate_gamma, prob_req=config.prob_req,
            trunc_k1=config.trunc_k1, trunc_k2=config.trunc_k2)
        decisions = adaptation.solve_slots(pairs, {
            "g2_v_hat": g2_v_hat, "g2_cross_hat": g2_cross_hat,
            "g2_i": g2_i, "g2_v_rsu": g2_v_rsu})
        if config.deviation_trace:
            # the solver leaves beta at the fallback budget unevaluated
            # where the floor lies above it; the trace needs it
            todo = np.isnan(decisions["beta_star"])
            if todo.any():
                decisions["beta_star"][todo] = adaptation.beta(
                    decisions["c_star"][todo], pairs, g2_v_hat[todo], g2_cross_hat[todo],
                    pair_of=np.nonzero(todo)[1])

        if config.deviation_trace:
            block = types.SimpleNamespace(delta2=large.delta ** 2, gamma_v=gamma_v,
                                          sigma2=sigma2, l_v=large.l_v, l_cross=l_cross,
                                          g2_v_hat=g2_v_hat, g2_cross_hat=g2_cross_hat)
            p_true = qosmodel.true_satisfaction_prob(
                block, (decisions["p_v"], decisions["p_i"]), law)
            j_trace = ((decisions["beta_star"] - p_true) ** 2).sum(axis=1)

        _fill_phase(rows, config.absorption_len, fading, large,
                    qosmodel.AllocationDecision(pairing=pairing, p_v_mw=decisions["p_v"],
                                                p_i_mw=decisions["p_i"]),
                    ~decisions["feasible"], config, flags)

    return {
        "trial": trial,
        "rows": rows,
        "decisions": decisions,
        "j_trace": j_trace,
        "flags": flags,
        "estimates": estimates,
    }


def _trial_worker(payload):
    config_kwargs, allocator, trial = payload
    config = SimConfig(**config_kwargs)
    try:
        return run_trial(config, allocator, trial)
    except Exception as exc:  # aborted trial: record and continue
        return {"trial": trial, "error": f"{type(exc).__name__}: {exc}",
                "trace": traceback.format_exc()}


def default_threads():
    env = os.environ.get("RV2X_THREADS", "").strip()
    if env:
        try:
            val = int(env)
        except ValueError:
            raise ConfigurationError(f"RV2X_THREADS must be an integer, got {env!r}") from None
        if val < 1:
            raise ConfigurationError("RV2X_THREADS must be >= 1")
        return val
    return min(8, os.cpu_count() or 1)


def run(config, allocator="proposed", trials=1, threads=None):
    """Run ``trials`` independent trials and aggregate a :class:`RunReport`."""
    if allocator not in _ALLOCATORS:
        raise ConfigurationError(f"allocator must be one of {_ALLOCATORS}")
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    config.validate()
    if allocator in ("gaussian", "hpr") and config.absorption_len < baselines.MIN_PROBES:
        # each pair's model is fitted to its absorption_len probes
        raise ConfigurationError(
            f"the {allocator} allocator needs absorption_len >= {baselines.MIN_PROBES} "
            f"probes per pair, got {config.absorption_len}")
    threads = default_threads() if threads is None else threads
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")

    payloads = [(dataclasses.asdict(config), allocator, t) for t in range(trials)]
    if threads > 1 and trials > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_trial_worker, payloads))
    else:
        results = [_trial_worker(p) for p in payloads]
    results.sort(key=lambda r: r["trial"])

    ok = [r for r in results if "error" not in r]
    errors = [(r["trial"], r["error"]) for r in results if "error" in r]
    for r in results:
        if "error" in r:
            print(f"trial {r['trial']} failed:\n{r['trace']}", file=sys.stderr, end="")

    v2v_ok = v2v_all = v2i_ok = 0
    thr_sum = 0.0
    thr_cnt = 0
    delay_sum = 0.0
    delay_cnt = 0
    viol_sum = 0.0
    viol_cnt = 0
    infeas = 0
    clamped = degenerate = 0
    first = config.absorption_len * config.num_pairs   # rows before it are probing
    for r in ok:
        rows = {name: col[first:] for name, col in r["rows"].items()}
        v2v_all += rows["satisfied"].size
        v2v_ok += int(rows["satisfied"].sum())
        thr = rows["throughput_mbps"]
        thr_sum += float(thr.sum())
        thr_cnt += thr.size
        v2i_ok += int((thr >= config.rate_req_bps / 1e6).sum())
        d = rows["delay_ms"]
        finite = d >= 0.0
        delay_sum += float(d[finite].sum())
        delay_cnt += int(finite.sum())
        viol = d[d > config.delay_req_s * 1e3]   # infinite delays (-1) excluded
        viol_sum += float(viol.sum())
        viol_cnt += viol.size
        infeas += int(rows["infeasible"].sum())
        clamped += r["flags"].get("cross_clamped", 0)
        degenerate += r["flags"].get("degenerate", 0)

    v2v_rate = v2v_ok / v2v_all if v2v_all else float("nan")
    v2i_rate = v2i_ok / v2v_all if v2v_all else float("nan")
    cond = (viol_sum / viol_cnt) if viol_cnt else None

    return RunReport(
        allocator=allocator, config=config, trials=trials, completed=len(ok),
        trial_ids=[r["trial"] for r in ok],
        rows=[r["rows"] for r in ok],
        decisions=[r["decisions"] for r in ok],
        j_trace=[r["j_trace"] for r in ok],
        v2v_ok_rate=v2v_rate, v2i_ok_rate=v2i_rate,
        mean_delay_ms=(delay_sum / delay_cnt) if delay_cnt else float("nan"),
        conditional_mean_delay_ms=cond,
        mean_throughput_mbps=(thr_sum / thr_cnt) if thr_cnt else float("nan"),
        infeasible_rate=(infeas / v2v_all) if v2v_all else float("nan"),
        cross_clamped=clamped, degenerate_sinr=degenerate,
        estimates=(ok[0]["estimates"] if ok else []),
        partial_errors=errors,
    )


# --------------------------------------------------------------------------- emission


_ROW_SPECS = ("%d", "%d") + ("%.10g",) * 4 + ("%d", "%d")   # slot, pair, then _ROW_COLS
_CHUNK_ROWS = 4096


def _lines(fmt, cols):
    """One ``fmt`` line per entry of the equal-length ``cols``, in one ``%`` call."""
    k = len(cols[0])
    flat = [None] * (len(cols) * k)
    for c, col in enumerate(cols):
        flat[c::len(cols)] = col.tolist()
    return (fmt * k) % tuple(flat)


def _write_rows(fh, rows, base, first, m):
    """One trial's rows as CSV lines, formatted one chunk per ``%`` call: row r is
    global slot ``base + r // m`` and pair ``r % m``, and probing if r < ``first``.
    A column whose entries are bitwise equal over a chunk is formatted once, into
    the chunk's format string (probing powers are uniform across pairs)."""
    n = rows["p_v_mw"].shape[0]
    for phase, start, stop in (("absorption", 0, first), ("adaptation", first, n)):
        for lo in range(start, stop, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, stop)
            r = np.arange(lo, hi)
            cols = [base + r // m, r % m] + [rows[name][lo:hi] for name in _ROW_COLS]
            fields, varying = [], []
            for spec, col in zip(_ROW_SPECS, cols):
                bits = col.view(f"u{col.itemsize}")
                if (bits == bits[0]).all():
                    fields.append(spec % col[0].item())
                else:
                    fields.append(spec)
                    varying.append(col)
            fields.insert(1, phase)
            fmt = ",".join(fields) + "\n"
            fh.write(_lines(fmt, varying) if varying else fmt * (hi - lo))


def emit(report, out_dir):
    """Write slots.csv, summary.json, and the plot tables; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    tables = os.path.join(out_dir, "tables")
    os.makedirs(tables, exist_ok=True)
    config = report.config
    n_slots = config.absorption_len + config.adaptation_len
    first = config.absorption_len * config.num_pairs

    csv_path = os.path.join(out_dir, "slots.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("slot,phase,pair,p_v_mw,p_i_mw,delay_ms,throughput_mbps,satisfied,infeasible\n")
        for t, rows in zip(report.trial_ids, report.rows):
            _write_rows(fh, rows, t * n_slots, first, config.num_pairs)

    def _num(x):
        # empty aggregates surface as null, not NaN (NaN is not valid JSON)
        return x if x is not None and math.isfinite(x) else None

    summary = {
        "allocator": report.allocator,
        "trials": report.trials,
        "completed": report.completed,
        "v2v_ok_rate": _num(report.v2v_ok_rate),
        "v2i_ok_rate": _num(report.v2i_ok_rate),
        "mean_delay_ms": _num(report.mean_delay_ms),
        "mean_throughput_mbps": _num(report.mean_throughput_mbps),
        "infeasible_rate": _num(report.infeasible_rate),
        "cross_clamped": report.cross_clamped,
        "degenerate_sinr": report.degenerate_sinr,
        "partial_errors": [list(e) for e in report.partial_errors],
        "rng_seed": config.rng_seed,
        "error_law": config.error_law,
        "hr_weight": config.hr_weight,
    }
    if report.conditional_mean_delay_ms is not None:
        summary["conditional_mean_delay_ms"] = report.conditional_mean_delay_ms
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _emit_tables(report, tables)
    return csv_path, summary_path, tables


def _write_table(path, header, fmt, cols):
    """A header line, then one ``fmt`` line per entry of ``cols`` (none if empty)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        if cols:
            fh.write(_lines(fmt, cols))


def _emit_tables(report, tables_dir):
    config = report.config
    law = chan.error_law(config.error_law, config.custom_weights,
                         config.custom_means, config.custom_vars)

    lo = float(np.min(law.means - 5.0 * np.sqrt(law.variances)))
    hi = float(np.max(law.means + 5.0 * np.sqrt(law.variances)))
    x = np.linspace(lo, hi, 601)
    true_pdf = law.pdf(x)
    est_cols = [est.pdf(x) for est in report.estimates]
    est_mean = np.mean(est_cols, axis=0) if est_cols else np.zeros_like(x)
    _write_table(os.path.join(tables_dir, "error_pdf.csv"), "x,true_pdf,estimated_pdf",
                 "%.10g,%.10g,%.10g\n", [x, true_pdf, est_mean])

    # rows are slot-major, so the adaptation phase is everything after probing
    first = config.absorption_len * config.num_pairs
    delays = np.concatenate([r["delay_ms"][first:] for r in report.rows] or [np.empty(0)])
    thrs = np.concatenate([r["throughput_mbps"][first:] for r in report.rows] or [np.empty(0)])

    def cdf_table(path, vals, header, grid, ccdf=False):
        cols = []
        if vals.size:
            p = np.searchsorted(np.sort(vals), grid, side="right") / vals.size
            cols = [grid, p, 1.0 - p] if ccdf else [grid, p]
        _write_table(path, header, ",".join(["%.10g"] * len(cols)) + "\n", cols)

    finite = delays[delays >= 0.0]
    d_hi = float(finite.max()) if finite.size else 1.0
    cdf_table(os.path.join(tables_dir, "delay_cdf.csv"),
              np.where(delays < 0.0, np.inf, delays),
              "delay_ms,cdf,ccdf", np.linspace(0.0, d_hi, 513), ccdf=True)
    t_hi = float(thrs.max()) if thrs.size else 1.0
    cdf_table(os.path.join(tables_dir, "throughput_cdf.csv"), thrs,
              "throughput_mbps,cdf", np.linspace(0.0, t_hi, 513))

    n_slots = config.absorption_len + config.adaptation_len
    m = config.num_pairs
    hits = np.zeros(n_slots)
    for rows in report.rows:
        hits += rows["satisfied"].reshape(n_slots, m).sum(1)
    rate = hits / max(len(report.rows) * m, 1)
    _write_table(os.path.join(tables_dir, "satisfaction_trace.csv"), "slot,satisfied_rate",
                 "%d,%.10g\n", [np.arange(n_slots), rate] if report.rows else [])

    if config.deviation_trace:
        # J(t) averaged over the completed trials, slots numbered as above
        cols = []
        if report.j_trace:
            dev = np.mean(report.j_trace, axis=0)
            cols = [config.absorption_len + np.arange(dev.size), dev]
        _write_table(os.path.join(tables_dir, "deviation_trace.csv"), "slot,deviation",
                     "%d,%.10g\n", cols)


# --------------------------------------------------------------------------- CLI


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rv2x",
        description="Two-phase V2X resource allocation simulator")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--allocator", choices=_ALLOCATORS, default="proposed")
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--error-law", choices=("type1", "type2", "custom"), default=None)
    parser.add_argument("--lambda-v", type=float, default=None,
                        help="hazard-rate retention weight in [0, 1]")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config) if args.config else SimConfig()
        updates = {}
        if args.seed is not None:
            updates["rng_seed"] = args.seed
        if args.error_law is not None:
            updates["error_law"] = args.error_law
        if args.lambda_v is not None:
            updates["hr_weight"] = args.lambda_v
        if updates:
            config = dataclasses.replace(config, **updates)
        config.validate()
        report = run(config, allocator=args.allocator, trials=args.trials)
        emit(report, args.out)
    except ConfigurationError as exc:
        print("ERROR " + json.dumps({"error": "configuration", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected failure: still machine readable
        print("ERROR " + json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1

    print(json.dumps({
        "allocator": report.allocator,
        "completed": report.completed,
        "v2v_ok_rate": report.v2v_ok_rate,
        "mean_throughput_mbps": report.mean_throughput_mbps,
        "out": os.path.abspath(args.out),
    }, sort_keys=True))
    return 0 if report.completed == report.trials else 1


if __name__ == "__main__":
    sys.exit(main())
