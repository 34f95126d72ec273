"""Simulation harness: trials, aggregation, file emission, and the CLI.

Trials are statistically independent and individually seeded from
(rng_seed, trial_index), so results are byte-identical no matter how many
worker processes participate.  Per trial the flow is: draw a topology and
epoch shadowing, run the probing/matching phase (shared by all allocators),
fit the allocator's error model, then draw the adaptation slots' fading as
one block and solve them with the per-pair vectorised solver.  Each phase's
realised QoS is computed in one call over all its slots and written straight
into the trial's row columns; this module alone knows the row format.  The
CLI runs as ``rv2x`` or ``python -m rv2x``.
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

from . import absorption, adaptation, baselines, qosmodel
from . import channel as chan
from .config import SimConfig, load_config
from .errors import ConfigurationError
from .scenario import build_topology, noise_power, qos_constants

_ALLOCATORS = ("proposed", "gaussian", "hpr")

# purpose tags for named per-trial random substreams
_STREAMS = {"topology": 0, "shadowing": 1, "absorption": 2, "adaptation": 3, "diagnostics": 4}


def _stream(seed, trial, purpose):
    return np.random.default_rng(np.random.SeedSequence((seed, trial, _STREAMS[purpose])))


@dataclasses.dataclass
class RunReport:
    """Aggregated outcome of a batch of trials."""

    allocator: str
    config: SimConfig
    trials: int
    completed: int
    trial_ids: list                # trial number of each entry in the lists below
    rows: list                     # per trial: dict of per-(slot,pair) column arrays
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


def _trial_rows(n_slots, n_pairs):
    return {
        "slot": np.empty(n_slots * n_pairs, dtype=np.int64),
        "phase": np.empty(n_slots * n_pairs, dtype="U10"),
        "pair": np.empty(n_slots * n_pairs, dtype=np.int64),
        "p_v_mw": np.empty(n_slots * n_pairs),
        "p_i_mw": np.empty(n_slots * n_pairs),
        "delay_ms": np.empty(n_slots * n_pairs),
        "throughput_mbps": np.empty(n_slots * n_pairs),
        "satisfied": np.empty(n_slots * n_pairs, dtype=np.int64),
        "infeasible": np.empty(n_slots * n_pairs, dtype=np.int64),
    }


def _fill_phase(rows, first_slot, phase, fading, large, alloc, infeasible, config, flags):
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
        "slot": np.arange(first_slot, first_slot + n_slots)[:, None],
        "phase": phase,
        "pair": np.arange(m),
        "p_v_mw": alloc.p_v_mw,
        "p_i_mw": alloc.p_i_mw[..., alloc.pairing],
        "delay_ms": np.where(finite, dly * 1e3, -1.0),
        "throughput_mbps": thr[:, alloc.pairing] / 1e6,
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
    gamma_v, d_v = qos_constants(config)
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
    p_i_probe = np.empty(m)
    p_i_probe[pairing] = plan.p_i_mw
    _fill_phase(rows, 0, "absorption", probing, large,
                qosmodel.AllocationDecision(pairing=pairing, p_v_mw=plan.p_v_mw,
                                            p_i_mw=p_i_probe),
                False, config, flags)

    decisions = {k: np.empty((adapt_len, m)) for k in
                 ("c_l", "c_u", "c_star", "p_v", "p_i", "beta_star", "feasible")}
    j_trace = np.zeros(adapt_len)

    if adapt_len:
        fading = chan.evolve_small_scale(large, law, _stream(seed, trial, "adaptation"),
                                         m, m, adapt_len)
        idx = np.arange(m)
        g2_v_hat = fading.g2_v_hat                              # (S, M)
        g2_cross_hat = fading.g2_cross_hat[:, pairing, idx]
        g2_i = fading.g2_i[:, pairing]                          # matched uplink fading
        g2_v_rsu = fading.g2_v_rsu

        for i in range(m):
            pair_ctx = adaptation.AdaptationContext(
                estimate=models[i], lambda_y=float(plan.lambda_y[i]),
                delta2=large.delta ** 2, gamma_v=gamma_v, sigma2=sigma2,
                l_v=float(large.l_v[i]), l_cross=float(large.l_cross[pairing[i], i]),
                l_i=float(large.l_i[pairing[i]]), l_v_rsu=float(large.l_v_rsu[i]),
                rate_gamma=rate_gamma, prob_req=config.prob_req, box=box,
                trunc_k1=config.trunc_k1, trunc_k2=config.trunc_k2,
            )
            res = adaptation.solve_slots(pair_ctx, {
                "g2_v_hat": g2_v_hat[:, i], "g2_cross_hat": g2_cross_hat[:, i],
                "g2_i": g2_i[:, i], "g2_v_rsu": g2_v_rsu[:, i]})
            for key, col in decisions.items():
                col[:, i] = res[key]
            if config.deviation_trace:
                # the solver leaves beta at the fallback budget unevaluated
                # where the floor lies above it; the trace needs it
                todo = np.flatnonzero(np.isnan(res["beta_star"]))
                if todo.size:
                    decisions["beta_star"][todo, i] = adaptation.beta(
                        res["c_star"][todo], pair_ctx, g2_v_hat[todo, i], g2_cross_hat[todo, i])

        if config.deviation_trace:
            rng_mc = _stream(seed, trial, "diagnostics")
            slot = types.SimpleNamespace(delta2=large.delta ** 2, gamma_v=gamma_v,
                                         sigma2=sigma2, l_v=large.l_v,
                                         l_cross=large.l_cross[pairing, idx])
            for s in range(adapt_len):
                slot.g2_v_hat = g2_v_hat[s]
                slot.g2_cross_hat = g2_cross_hat[s]
                p_true = qosmodel.true_satisfaction_prob_mc(
                    slot, (decisions["p_v"][s], decisions["p_i"][s]), law,
                    config.true_mc_draws, rng_mc)
                j_trace[s] = float(np.sum((decisions["beta_star"][s] - p_true) ** 2))

        p_i_full = np.empty((adapt_len, m))
        p_i_full[:, pairing] = decisions["p_i"]
        _fill_phase(rows, config.absorption_len, "adaptation", fading, large,
                    qosmodel.AllocationDecision(pairing=pairing, p_v_mw=decisions["p_v"],
                                                p_i_mw=p_i_full),
                    decisions["feasible"] < 0.5, config, flags)

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
    for r in ok:
        rows = r["rows"]
        ad = rows["phase"] == "adaptation"
        v2v_all += int(ad.sum())
        v2v_ok += int(rows["satisfied"][ad].sum())
        thr = rows["throughput_mbps"][ad]
        thr_sum += float(thr.sum())
        thr_cnt += thr.size
        v2i_ok += int((thr >= config.rate_req_bps / 1e6).sum())
        d = rows["delay_ms"][ad]
        finite = d >= 0.0
        delay_sum += float(d[finite].sum())
        delay_cnt += int(finite.sum())
        viol = d[d > config.delay_req_s * 1e3]   # infinite delays (-1) excluded
        viol_sum += float(viol.sum())
        viol_cnt += viol.size
        infeas += int(rows["infeasible"][ad].sum())
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


_ROW_FMT = "%d,%s,%d,%.10g,%.10g,%.10g,%.10g,%d,%d\n"
_ROW_COLS = ("slot", "phase", "pair", "p_v_mw", "p_i_mw", "delay_ms",
             "throughput_mbps", "satisfied", "infeasible")
_CHUNK_ROWS = 4096


def _lines(fmt, cols):
    """One ``fmt`` line per entry of the equal-length ``cols``, in one ``%`` call."""
    k = len(cols[0])
    flat = [None] * (len(cols) * k)
    for c, col in enumerate(cols):
        flat[c::len(cols)] = col.tolist()
    return (fmt * k) % tuple(flat)


def _write_rows(fh, rows, base):
    """One trial's rows as CSV lines, formatted one chunk per ``%`` call."""
    for lo in range(0, rows["slot"].shape[0], _CHUNK_ROWS):
        hi = lo + _CHUNK_ROWS
        cols = [rows[name][lo:hi] for name in _ROW_COLS]
        cols[0] = cols[0] + base
        fh.write(_lines(_ROW_FMT, cols))


def emit(report, out_dir):
    """Write slots.csv, summary.json, and the plot tables; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    tables = os.path.join(out_dir, "tables")
    os.makedirs(tables, exist_ok=True)
    config = report.config
    n_slots = config.absorption_len + config.adaptation_len

    csv_path = os.path.join(out_dir, "slots.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("slot,phase,pair,p_v_mw,p_i_mw,delay_ms,throughput_mbps,satisfied,infeasible\n")
        for t, rows in zip(report.trial_ids, report.rows):
            _write_rows(fh, rows, t * n_slots)

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
    hits = np.zeros(n_slots)
    counts = np.zeros(n_slots)
    for rows in report.rows:
        sl = rows["slot"].astype(int)
        hits += np.bincount(sl, weights=rows["satisfied"], minlength=n_slots)
        counts += np.bincount(sl, minlength=n_slots)
    rate = np.divide(hits, counts, out=np.zeros(n_slots), where=counts > 0)
    _write_table(os.path.join(tables_dir, "satisfaction_trace.csv"), "slot,satisfied_rate",
                 "%d,%.10g\n", [np.arange(n_slots), rate] if report.rows else [])


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
