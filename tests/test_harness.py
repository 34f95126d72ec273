import dataclasses
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import rv2x
from rv2x import adaptation
from rv2x.absorption import DeconvEstimate, run_absorption
from rv2x.adaptation import _c_range, beta
from rv2x.channel import build_large_scale, error_law, evolve_small_scale
from rv2x.config import SimConfig
from rv2x.errors import ConfigurationError
from rv2x.qosmodel import true_satisfaction_prob
from rv2x.harness import (_CHUNK_ROWS, RunReport, default_threads, emit, main, run,
                          run_trial, _stream)
from rv2x.scenario import build_topology, noise_power, qos_constants


def _tiny(**kw):
    base = dict(num_pairs=2, absorption_len=40, matching_horizon=40,
                adaptation_len=4, deviation_trace=False)
    base.update(kw)
    return SimConfig(**base)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ------------------------------------------------------------------- streams

def test_named_substreams():
    a = _stream(0, 3, "absorption").random(4)
    b = _stream(0, 3, "absorption").random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, _stream(0, 3, "adaptation").random(4))
    assert not np.allclose(a, _stream(0, 4, "absorption").random(4))
    assert not np.allclose(a, _stream(1, 3, "absorption").random(4))
    with pytest.raises(KeyError):
        _stream(0, 0, "nope")
    with pytest.raises(KeyError):   # the deviation trace draws nothing
        _stream(0, 0, "diagnostics")


# ------------------------------------------------------------------- trials

def test_run_report_structure_and_row_semantics():
    config = _tiny()
    report = run(config, "proposed", trials=2, threads=1)
    assert report.completed == 2 and report.trial_ids == [0, 1]
    n_slots, m = config.absorption_len + config.adaptation_len, config.num_pairs
    n, first = n_slots * m, config.absorption_len * m
    law = error_law(config.error_law)
    for trial, rows, dec in zip(report.trial_ids, report.rows, report.decisions):
        # row position alone says slot, pair and phase
        assert list(rows) == ["p_v_mw", "p_i_mw", "delay_ms", "throughput_mbps",
                              "satisfied", "infeasible"]
        for name, col in rows.items():
            assert col.shape == (n,), name
            assert col.dtype == (bool if name in ("satisfied", "infeasible") else float), name
        probing = rows["delay_ms"][:first]
        assert np.all((probing > 0.0) | (probing == -1.0))
        # satisfied column is recomputable from the delay column alone
        d = rows["delay_ms"]
        np.testing.assert_array_equal(rows["satisfied"],
                                      (d >= 0.0) & (d <= config.delay_req_s * 1e3))
        # adaptation rows, slot-major in pair order, are the trial's decisions
        for name, want in (("p_v_mw", dec["p_v"]), ("p_i_mw", dec["p_i"]),
                           ("infeasible", ~dec["feasible"])):
            assert rows[name][first:].tobytes() == want.tobytes(), name
        # probing rows carry the probing plan's powers and are never infeasible
        large = build_large_scale(
            build_topology(config, _stream(config.rng_seed, trial, "topology")),
            config, _stream(config.rng_seed, trial, "shadowing"))
        plan, _, _ = run_absorption(large, config, law,
                                    _stream(config.rng_seed, trial, "absorption"))
        for name, want in (("p_v_mw", plan.p_v_mw), ("p_i_mw", plan.p_i_mw)):
            np.testing.assert_array_equal(rows[name][:first].reshape(-1, m),
                                          np.broadcast_to(want, (config.absorption_len, m)))
        assert not rows["infeasible"][:first].any()
    assert 0.0 <= report.v2v_ok_rate <= 1.0
    assert 0.0 <= report.v2i_ok_rate <= 1.0
    assert report.mean_throughput_mbps > 0.0
    assert len(report.estimates) == config.num_pairs
    trial0 = run_trial(config, "proposed", 0)["estimates"]
    for est, want in zip(report.estimates, trial0):
        assert isinstance(est, DeconvEstimate)
        assert est.samples.shape == (config.absorption_len,)
        np.testing.assert_array_equal(est.samples, want.samples)
        assert est.lambda_y == want.lambda_y > 0.0


def test_forty_pairs_run_end_to_end():
    config = _tiny(num_pairs=40, absorption_len=30, matching_horizon=30, adaptation_len=3)
    for allocator in ("proposed", "gaussian", "hpr"):
        report = run(config, allocator, trials=1, threads=1)
        assert report.completed == 1, allocator
        assert report.rows[0]["delay_ms"].shape == (33 * 40,)
        assert 0.0 <= report.v2v_ok_rate <= 1.0


def test_all_allocators_complete():
    config = _tiny()
    for allocator in ("proposed", "gaussian", "hpr"):
        report = run(config, allocator, trials=1, threads=1)
        assert report.completed == 1, allocator
    with pytest.raises(ConfigurationError):
        run(config, "oracle", trials=1)
    with pytest.raises(ConfigurationError):
        run(config, "proposed", trials=0)


def test_deviation_trace_lengths():
    config = _tiny(adaptation_len=3, deviation_trace=True)
    report = run(config, "proposed", trials=1, threads=1)
    (trace,) = report.j_trace
    assert trace.shape == (3,)
    assert np.all(trace >= 0.0) and np.all(np.isfinite(trace))
    off = run(_tiny(adaptation_len=3), "proposed", trials=1, threads=1)
    np.testing.assert_array_equal(off.j_trace[0], np.zeros(3))


@pytest.mark.parametrize("allocator", ["gaussian", "proposed"])
def test_deviation_trace_matches_per_slot_reference_loop(allocator):
    # the trace equals a loop over slots and pairs of scalar calls to the
    # true satisfaction probability, summed per slot
    config = _tiny(num_pairs=3, adaptation_len=6, deviation_trace=True)
    seed, trial, m = config.rng_seed, 1, config.num_pairs
    got = run_trial(config, allocator, trial)
    law = error_law(config.error_law)
    large = build_large_scale(build_topology(config, _stream(seed, trial, "topology")),
                              config, _stream(seed, trial, "shadowing"))
    plan, _, _ = run_absorption(large, config, law, _stream(seed, trial, "absorption"))
    pairing = plan.pairing
    fading = evolve_small_scale(large, law, _stream(seed, trial, "adaptation"),
                                m, m, config.adaptation_len)
    gamma_v, _ = qos_constants(config)
    dec = got["decisions"]
    want = np.zeros(config.adaptation_len)
    for s in range(config.adaptation_len):
        dev = np.zeros(m)
        for i in range(m):
            pair = types.SimpleNamespace(
                delta2=large.delta ** 2, gamma_v=gamma_v, sigma2=noise_power(config),
                l_v=large.l_v[i], l_cross=large.l_cross[pairing[i], i],
                g2_v_hat=fading.g2_v_hat[s, i], g2_cross_hat=fading.g2_cross_hat[s, pairing[i], i])
            p_true = true_satisfaction_prob(pair, (dec["p_v"][s, i], dec["p_i"][s, i]), law)
            dev[i] = (dec["beta_star"][s, i] - p_true) ** 2
        want[s] = float(np.sum(dev))
    assert np.count_nonzero(want) >= 2
    assert got["j_trace"].tobytes() == want.tobytes()


@pytest.mark.parametrize("allocator", ["proposed", "gaussian"])
def test_deviation_trace_fills_beta_at_the_fallback_budget(monkeypatch, allocator):
    # the solver evaluates beta at c_lo on an infeasible slot only where the
    # floor is c_lo; the trace reads beta_star on every slot
    solved = []
    real = adaptation.solve_slots

    def spy(pair, slots):
        solved.append((pair, slots))
        return real(pair, slots)

    monkeypatch.setattr(adaptation, "solve_slots", spy)
    on = run_trial(SimConfig(adaptation_len=50, rng_seed=0), allocator, 0)
    assert len(solved) == 1
    pairs, slots = solved[0]
    off = run_trial(SimConfig(adaptation_len=50, rng_seed=0, deviation_trace=False),
                    allocator, 0)
    dec, dec_off = on["decisions"], off["decisions"]
    infeasible = ~dec["feasible"]
    floor_above = infeasible & (dec["c_l"] > dec["c_star"])   # c_star is c_lo there
    assert floor_above.any()
    assert np.all(np.isfinite(dec["beta_star"]))
    assert np.all(np.isfinite(on["j_trace"]))
    np.testing.assert_array_equal(np.isnan(dec_off["beta_star"]), floor_above)
    for key in ("c_l", "c_u", "c_star", "p_v", "p_i", "feasible"):
        np.testing.assert_array_equal(dec[key], dec_off[key])
    np.testing.assert_array_equal(dec["beta_star"][~floor_above],
                                  dec_off["beta_star"][~floor_above])
    c_lo = _c_range(pairs)[0]
    for i in range(pairs.size):
        for s in np.flatnonzero(infeasible[:, i]):
            want = beta(c_lo[i], pairs, slots["g2_v_hat"][s, i], slots["g2_cross_hat"][s, i],
                        pair_of=i)
            np.testing.assert_allclose(dec["beta_star"][s, i], want, rtol=1e-12, atol=1e-14,
                                       err_msg=f"slot {s} pair {i}")


def test_worker_count_does_not_change_bytes(tmp_path):
    config = _tiny()
    rep1 = run(config, "proposed", trials=2, threads=1)
    rep2 = run(config, "proposed", trials=2, threads=2)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit(rep1, str(d1))
    emit(rep2, str(d2))
    for rel in ("slots.csv", "summary.json", "tables/error_pdf.csv",
                "tables/delay_cdf.csv", "tables/throughput_cdf.csv",
                "tables/satisfaction_trace.csv"):
        assert _read(d1 / rel) == _read(d2 / rel), f"{rel} differs across workers"


def test_deviation_trace_table(tmp_path):
    config = _tiny(num_pairs=3, adaptation_len=5, deviation_trace=True)
    reports = [run(config, "gaussian", trials=3, threads=1),
               run(config, "gaussian", trials=3, threads=1),
               run(config, "gaussian", trials=3, threads=2)]
    tables = [emit(rep, str(tmp_path / str(k)))[2] for k, rep in enumerate(reports)]
    text = [_read(os.path.join(t, "deviation_trace.csv")) for t in tables]
    assert text[0] == text[1] == text[2], "rerun or worker count changed the table"
    # one line per adaptation slot, numbered as in the satisfaction trace,
    # holding J(t) averaged over the trials
    lines = text[0].decode().splitlines()
    assert lines[0] == "slot,deviation" and len(lines) == 1 + config.adaptation_len
    want = np.mean(reports[0].j_trace, axis=0)
    assert np.count_nonzero(want) >= 2
    for s, line in enumerate(lines[1:]):
        slot, dev = line.split(",")
        assert int(slot) == config.absorption_len + s
        assert dev == "%.10g" % want[s]
    # no table when the trace is off
    off = emit(run(_tiny(), "gaussian", trials=1, threads=1), str(tmp_path / "off"))[2]
    assert not os.path.exists(os.path.join(off, "deviation_trace.csv"))


def test_failed_trials_are_recorded_not_fatal(monkeypatch, tmp_path, capsys):
    import rv2x.absorption

    def boom(*a, **kw):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(rv2x.absorption, "run_absorption", boom)
    report = run(_tiny(), "proposed", trials=2, threads=1)
    assert report.completed == 0
    assert len(report.partial_errors) == 2
    assert "synthetic failure" in report.partial_errors[0][1]
    # each failed trial's traceback goes to stderr under its trial number
    first, second = capsys.readouterr().err.split("trial 1 failed")
    assert first.startswith("trial 0 failed")
    for trace in (first, second):
        assert "Traceback" in trace and "synthetic failure" in trace
    # empty aggregate still emits: headers-only tables, null metrics
    out = tmp_path / "empty"
    emit(report, str(out))
    assert _read(out / "slots.csv").decode().splitlines() == [
        "slot,phase,pair,p_v_mw,p_i_mw,delay_ms,throughput_mbps,satisfied,infeasible"]
    summary = json.loads(_read(out / "summary.json"))
    assert summary["v2v_ok_rate"] is None and summary["mean_delay_ms"] is None
    assert "conditional_mean_delay_ms" not in summary
    assert summary["completed"] == 0 and len(summary["partial_errors"]) == 2
    for rel in ("delay_cdf.csv", "throughput_cdf.csv", "satisfaction_trace.csv"):
        lines = _read(out / "tables" / rel).decode().splitlines()
        assert len(lines) == 1, f"{rel} should be header-only"


# ------------------------------------------------------------------- emission

def test_emit_artifacts(tmp_path):
    config = _tiny()
    report = run(config, "proposed", trials=2, threads=1)
    out = tmp_path / "out"
    csv_path, summary_path, tables = emit(report, str(out))

    lines = _read(csv_path).decode().splitlines()
    header = "slot,phase,pair,p_v_mw,p_i_mw,delay_ms,throughput_mbps,satisfied,infeasible"
    assert lines[0] == header
    n_slots = config.absorption_len + config.adaptation_len
    assert len(lines) == 1 + 2 * n_slots * config.num_pairs
    # global slot index: trial t occupies [t*n_slots, (t+1)*n_slots)
    slots = np.array([int(l.split(",")[0]) for l in lines[1:]])
    np.testing.assert_array_equal(np.unique(slots), np.arange(2 * n_slots))
    trial_of = slots // n_slots
    assert (np.diff(trial_of) >= 0).all(), "trials must be emitted in order"

    summary = json.loads(_read(summary_path))
    for key in ("allocator", "trials", "completed", "v2v_ok_rate", "v2i_ok_rate",
                "mean_delay_ms", "mean_throughput_mbps", "infeasible_rate",
                "cross_clamped", "degenerate_sinr", "rng_seed", "error_law",
                "hr_weight", "partial_errors"):
        assert key in summary, key
    assert summary["allocator"] == "proposed" and summary["completed"] == 2

    pdf = np.genfromtxt(os.path.join(tables, "error_pdf.csv"), delimiter=",",
                        names=True)
    np.testing.assert_allclose(np.trapezoid(pdf["true_pdf"], pdf["x"]), 1.0, atol=1e-4)
    # 40 probes at a tiny nuisance rate give a noisy estimate; only structure
    # is contractual here (quality is covered by the controlled-rate tests)
    assert np.all(np.isfinite(pdf["estimated_pdf"]))

    cdf = np.genfromtxt(os.path.join(tables, "delay_cdf.csv"), delimiter=",", names=True)
    assert (np.diff(cdf["cdf"]) >= 0).all()
    np.testing.assert_allclose(cdf["ccdf"], 1.0 - cdf["cdf"], atol=1e-9)
    thr = np.genfromtxt(os.path.join(tables, "throughput_cdf.csv"), delimiter=",", names=True)
    assert (np.diff(thr["cdf"]) >= 0).all() and thr["cdf"][-1] <= 1.0 + 1e-12

    trace = np.genfromtxt(os.path.join(tables, "satisfaction_trace.csv"),
                          delimiter=",", names=True)
    assert trace.shape == (n_slots,)
    np.testing.assert_array_equal(trace["slot"], np.arange(n_slots))
    assert np.all(trace["satisfied_rate"] >= 0.0)
    assert np.all(trace["satisfied_rate"] <= 1.0)


def test_emit_conditional_delay_and_infinite_sentinel(tmp_path):
    # synthetic report: one -1 (infinite) delay and one budget violation
    config = SimConfig(num_pairs=1, absorption_len=0, matching_horizon=1,
                       adaptation_len=2)
    rows = {
        "p_v_mw": np.array([10.0, 10.0]),
        "p_i_mw": np.array([20.0, 20.0]),
        "delay_ms": np.array([-1.0, 20.0]),
        "throughput_mbps": np.array([1.0, 2.0]),
        "satisfied": np.array([False, False]),
        "infeasible": np.array([False, False]),
    }
    report = RunReport(
        allocator="proposed", config=config, trials=1, completed=1,
        trial_ids=[0], rows=[rows], decisions=[{}], j_trace=[np.zeros(2)],
        v2v_ok_rate=0.0, v2i_ok_rate=1.0, mean_delay_ms=20.0,
        conditional_mean_delay_ms=20.0, mean_throughput_mbps=1.5,
        infeasible_rate=0.0, cross_clamped=0, degenerate_sinr=0,
        estimates=[], partial_errors=[])
    out = tmp_path / "synthetic"
    csv_path, summary_path, tables = emit(report, str(out))
    summary = json.loads(_read(summary_path))
    assert summary["conditional_mean_delay_ms"] == 20.0
    body = _read(csv_path).decode().splitlines()[1:]
    assert body[0].split(",")[5] == "-1"  # infinite delay keeps the sentinel
    cdf = np.genfromtxt(os.path.join(tables, "delay_cdf.csv"), delimiter=",", names=True)
    # the infinite delay never enters the cdf: it tops out at 1/2
    np.testing.assert_allclose(cdf["cdf"][-1], 0.5, atol=1e-12)
    np.testing.assert_allclose(cdf["ccdf"][-1], 0.5, atol=1e-12)


def _reference_slots(report):
    """Row-by-row transcription of slots.csv: one formatted line per (slot, pair)."""
    config = report.config
    want = ["slot,phase,pair,p_v_mw,p_i_mw,delay_ms,throughput_mbps,satisfied,infeasible"]
    n_slots, m = config.absorption_len + config.adaptation_len, config.num_pairs
    for t, r in zip(report.trial_ids, report.rows):
        for i in range(r["p_v_mw"].size):
            slot, pair = divmod(i, m)
            phase = "absorption" if slot < config.absorption_len else "adaptation"
            want.append(",".join((
                str(t * n_slots + slot), phase, str(pair),
                *(f"{r[k][i]:.10g}" for k in ("p_v_mw", "p_i_mw", "delay_ms",
                                              "throughput_mbps")),
                str(int(r["satisfied"][i])), str(int(r["infeasible"][i])))))
    return "\n".join(want) + "\n"


def _rows_report(config, trial_ids, rows):
    return RunReport(
        allocator="gaussian", config=config, trials=max(trial_ids, default=0) + 1,
        completed=len(rows), trial_ids=trial_ids, rows=rows, decisions=[{}] * len(rows),
        j_trace=[np.zeros(2)] * len(rows), v2v_ok_rate=0.5, v2i_ok_rate=0.5,
        mean_delay_ms=1.0, conditional_mean_delay_ms=None, mean_throughput_mbps=1.0,
        infeasible_rate=0.0, cross_clamped=0, degenerate_sinr=0, estimates=[],
        partial_errors=[])


def test_emit_slots_csv_matches_row_by_row_reference(tmp_path):
    # two trials (ids 0 and 3) of 8,700 rows each: each phase spans two chunks,
    # and chunks start mid-slot
    config = SimConfig(num_pairs=3, absorption_len=1400, matching_horizon=1400,
                       adaptation_len=1500)
    n = (config.absorption_len + config.adaptation_len) * config.num_pairs
    rng = np.random.default_rng(5)
    special = np.array([-1.0, 0.0, 1e-300, 1e20, 0.1, 123456789.0123, 2.5e-7, 1.0])

    def vals():
        return np.where(rng.random(n) < 0.2, rng.choice(special, n), rng.lognormal(0.0, 4.0, n))

    def trial_rows():
        return {
            "p_v_mw": vals(), "p_i_mw": vals(), "delay_ms": vals(),
            "throughput_mbps": vals(),
            "satisfied": rng.random(n) < 0.5, "infeasible": rng.random(n) < 0.5,
        }

    report = _rows_report(config, [0, 3], [trial_rows(), trial_rows()])
    csv_path, _, _ = emit(report, str(tmp_path / "rows"))
    got = _read(csv_path).decode()
    # compared as lists of lines: a failing diff of the whole text takes minutes
    assert got.split("\n") == _reference_slots(report).split("\n")
    assert "1e-300" in got and "1e+20" in got and ",-1," in got


def test_emit_slots_csv_constant_columns(tmp_path):
    # columns constant over a whole chunk, over one chunk but not the next,
    # and all 0.0 but one -0.0; phases of 4,200 rows span a chunk boundary
    config = SimConfig(num_pairs=2, absorption_len=2100, matching_horizon=2100,
                       adaptation_len=2100)
    half = config.absorption_len * config.num_pairs
    edge = _CHUNK_ROWS
    rng = np.random.default_rng(9)
    p_i = np.zeros(2 * half)
    p_i[17] = -0.0                       # the first chunk is not constant: it prints -0
    p_i[half:] = -0.0                    # constant -0 over the adaptation chunks
    delay = rng.lognormal(0.0, 2.0, 2 * half)
    delay[:edge] = -1.0                  # constant in the first chunk only
    thr = rng.lognormal(0.0, 2.0, 2 * half)
    thr[half + edge:] = 1e20             # constant in the last chunk only
    rows = {
        "p_v_mw": np.concatenate([np.full(half, 3.5), np.full(edge, 7.25),
                                  rng.lognormal(0.0, 2.0, half - edge)]),
        "p_i_mw": p_i, "delay_ms": delay, "throughput_mbps": thr,
        "satisfied": np.concatenate([np.ones(half, bool), np.zeros(edge, bool),
                                     rng.random(half - edge) < 0.5]),
        "infeasible": np.arange(2 * half) >= half,
    }
    # one pair and a 4,097-slot probing phase: its last chunk is one row,
    # every column of which is constant
    one = SimConfig(num_pairs=1, absorption_len=edge + 1, matching_horizon=edge + 1,
                    adaptation_len=1)
    n_one = edge + 2
    one_rows = {"p_v_mw": np.full(n_one, 2.0), "p_i_mw": np.arange(n_one) * 0.5,
                "delay_ms": np.full(n_one, -0.0), "throughput_mbps": np.full(n_one, 1.5),
                "satisfied": np.zeros(n_one, bool), "infeasible": np.ones(n_one, bool)}
    cases = {"chunks": _rows_report(config, [0, 2], [rows, rows]),
             "one_row_chunk": _rows_report(one, [1], [one_rows]),
             "empty": _rows_report(config, [], [])}
    for name, report in cases.items():
        csv_path, _, _ = emit(report, str(tmp_path / name))
        got = _read(csv_path).decode()
        assert got.split("\n") == _reference_slots(report).split("\n"), name
    lines = _read(tmp_path / "chunks" / "slots.csv").decode().splitlines()
    assert lines[1 + 17].split(",")[4] == "-0" and lines[1 + 16].split(",")[4] == "0"
    assert lines[1 + half].split(",")[4] == "-0"
    assert len(_read(tmp_path / "empty" / "slots.csv").decode().splitlines()) == 1


def _reference_tables(report):
    """Row-by-row transcription of the plot tables: one mean and one line per entry."""
    config = report.config
    law = error_law(config.error_law, config.custom_weights,
                    config.custom_means, config.custom_vars)
    lo = float(np.min(law.means - 5.0 * np.sqrt(law.variances)))
    hi = float(np.max(law.means + 5.0 * np.sqrt(law.variances)))
    x = np.linspace(lo, hi, 601)
    true_pdf = law.pdf(x)
    est = (np.mean([e.pdf(x) for e in report.estimates], axis=0) if report.estimates
           else np.zeros_like(x))
    pdf = ["x,true_pdf,estimated_pdf"] + [
        f"{x[i]:.10g},{true_pdf[i]:.10g},{est[i]:.10g}" for i in range(x.size)]

    n_pairs = config.num_pairs
    ad = [np.arange(r["delay_ms"].size) // n_pairs >= config.absorption_len
          for r in report.rows]
    delays = np.concatenate([r["delay_ms"][m] for r, m in zip(report.rows, ad)] or [np.empty(0)])
    thrs = np.concatenate([r["throughput_mbps"][m] for r, m in zip(report.rows, ad)]
                          or [np.empty(0)])

    def cdf(vals, header, grid, ccdf):
        lines = [header]
        for g in (grid if vals.size else []):
            p = float(np.mean(vals <= g))
            lines.append(f"{g:.10g},{p:.10g}" + (f",{1.0 - p:.10g}" if ccdf else ""))
        return lines

    finite = delays[delays >= 0.0]
    delay = cdf(np.where(delays < 0.0, np.inf, delays), "delay_ms,cdf,ccdf",
                np.linspace(0.0, float(finite.max()) if finite.size else 1.0, 513), True)
    thr = cdf(thrs, "throughput_mbps,cdf",
              np.linspace(0.0, float(thrs.max()) if thrs.size else 1.0, 513), False)

    trace = ["slot,satisfied_rate"]
    if report.rows:
        n_slots = config.absorption_len + config.adaptation_len
        slot = [np.arange(r["satisfied"].size) // n_pairs for r in report.rows]
        for s in range(n_slots):
            hit = sum(float(r["satisfied"][sl == s].sum()) for r, sl in zip(report.rows, slot))
            cnt = sum(int((sl == s).sum()) for sl in slot)
            trace.append(f"{s},{(hit / cnt if cnt else 0.0):.10g}")
    return {"error_pdf.csv": pdf, "delay_cdf.csv": delay,
            "throughput_cdf.csv": thr, "satisfaction_trace.csv": trace}


def test_emit_tables_match_row_by_row_reference(tmp_path):
    # two synthetic trials with infinite-delay sentinels (-1), ties on grid
    # points and tiny and huge values, plus the header-only empty report
    config = SimConfig(num_pairs=3, absorption_len=7, matching_horizon=7, adaptation_len=40)
    n = (config.absorption_len + config.adaptation_len) * config.num_pairs
    rng = np.random.default_rng(8)
    special = np.array([-1.0, 0.0, 1e-300, 1e20, 10.0, 2.5])

    def vals():
        return np.where(rng.random(n) < 0.3, rng.choice(special, n), rng.lognormal(1.0, 2.0, n))

    def trial_rows():
        return {
            "p_v_mw": vals(), "p_i_mw": vals(), "delay_ms": vals(),
            "throughput_mbps": np.abs(vals()),
            "satisfied": rng.random(n) < 0.5, "infeasible": rng.random(n) < 0.5,
        }

    estimates = [DeconvEstimate(samples=rng.normal(0.5, 0.3, 60), lambda_y=lam, trunc_k=10)
                 for lam in (3e-5, 20.0)]
    full = RunReport(
        allocator="proposed", config=config, trials=2, completed=2,
        trial_ids=[0, 1], rows=[trial_rows(), trial_rows()], decisions=[{}, {}],
        j_trace=[np.zeros(2)] * 2, v2v_ok_rate=0.5, v2i_ok_rate=0.5, mean_delay_ms=1.0,
        conditional_mean_delay_ms=None, mean_throughput_mbps=1.0, infeasible_rate=0.0,
        cross_clamped=0, degenerate_sinr=0, estimates=estimates, partial_errors=[])
    empty = dataclasses.replace(full, completed=0, trial_ids=[], rows=[], decisions=[],
                                j_trace=[], estimates=[])
    for name, report in (("full", full), ("empty", empty)):
        _, _, tables = emit(report, str(tmp_path / name))
        for rel, want in _reference_tables(report).items():
            got = _read(os.path.join(tables, rel)).decode()
            assert got == "\n".join(want) + "\n", f"{name}: {rel}"
    delay = _read(tmp_path / "full" / "tables" / "delay_cdf.csv").decode().splitlines()
    assert delay[-1].split(",")[1] != "1"      # the -1 sentinels never enter the cdf


def test_conditional_delay_counts_finite_violations_only(monkeypatch):
    # budget 15 ms: one infinite delay (-1), two finite violations, one within
    import rv2x.harness as harness

    real = harness.run_trial

    def with_dead_link(config, allocator, trial):
        out = real(config, allocator, trial)
        rows = out["rows"]
        ad = slice(config.absorption_len * config.num_pairs, None)   # adaptation rows
        rows["delay_ms"][ad] = np.resize([-1.0, 20.0, 30.0, 5.0], rows["delay_ms"][ad].size)
        rows["satisfied"][ad] = rows["delay_ms"][ad] == 5.0
        return out

    monkeypatch.setattr(harness, "run_trial", with_dead_link)
    report = run(_tiny(adaptation_len=2), "proposed", trials=1, threads=1)
    assert report.completed == 1
    assert report.conditional_mean_delay_ms == 25.0
    assert report.mean_delay_ms == pytest.approx(55.0 / 3.0)


# ------------------------------------------------------------------- CLI

def test_cli_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("num_pairs = 2\nabsorption_len = 40\nmatching_horizon = 40\n"
                   "adaptation_len = 2\ndeviation_trace = false\n")
    out = tmp_path / "cli_out"
    code = main(["--config", str(cfg), "--trials", "1", "--out", str(out),
                 "--seed", "7", "--lambda-v", "0.3", "--error-law", "type2"])
    captured = capsys.readouterr()
    assert code == 0
    status = json.loads(captured.out.strip().splitlines()[-1])
    assert status["completed"] == 1 and status["allocator"] == "proposed"
    summary = json.loads(_read(out / "summary.json"))
    assert summary["rng_seed"] == 7
    assert summary["hr_weight"] == 0.3
    assert summary["error_law"] == "type2"
    assert (out / "slots.csv").exists() and (out / "tables" / "delay_cdf.csv").exists()


def test_python_m_rv2x_runs_the_cli():
    src = os.path.dirname(os.path.dirname(rv2x.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rv2x", "--help"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: rv2x ")


def _python(code, cwd=None):
    src = os.path.dirname(os.path.dirname(rv2x.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, timeout=300, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path))


def test_import_leaves_scipy_unloaded():
    # the package calls no SciPy; importing scipy.special alone cost about
    # 0.2 s of set-up
    proc = _python("import sys, rv2x; "
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runs_and_emits_with_scipy_blocked(tmp_path):
    # with every scipy import failing, one small trial of each allocator
    # runs and emits
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from rv2x import SimConfig, harness\n"
        "cfg = SimConfig(num_pairs=3, absorption_len=50, matching_horizon=50,\n"
        "                adaptation_len=5).validate()\n"
        "for alloc in ('proposed', 'gaussian', 'hpr'):\n"
        "    report = harness.run(cfg, alloc, trials=1, threads=1)\n"
        "    assert report.completed == 1, report.partial_errors\n"
        "    harness.emit(report, alloc)\n"
        "print('ok')\n")
    proc = _python(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "ok"
    for alloc in ("proposed", "gaussian", "hpr"):
        assert (tmp_path / alloc / "slots.csv").stat().st_size > 0
        assert (tmp_path / alloc / "summary.json").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_knob = 1\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    err = captured.err.strip().splitlines()[-1]
    assert err.startswith("ERROR ")
    payload = json.loads(err[len("ERROR "):])
    assert payload["error"] == "configuration"


def test_cli_rejects_bad_flag_values(tmp_path, capsys):
    code = main(["--lambda-v", "1.5", "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("ERROR ")


@pytest.mark.parametrize("allocator", ["gaussian", "hpr"])
def test_cli_rejects_too_few_probes_before_any_trial(tmp_path, capsys, allocator):
    # both baselines fit at least 30 probes per pair; before, every trial
    # aborted after probing and the run completed none
    cfg = tmp_path / "short.cfg"
    cfg.write_text("num_pairs = 2\nabsorption_len = 29\nmatching_horizon = 40\n"
                   "adaptation_len = 2\n")
    code = main(["--config", str(cfg), "--allocator", allocator, "--trials", "2",
                 "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR ")
    payload = json.loads(lines[0][len("ERROR "):])
    assert payload["error"] == "configuration" and "absorption_len" in payload["message"]
    assert not (tmp_path / "x").exists()


def test_run_rejects_fewer_than_one_thread():
    config = _tiny()
    for threads in (0, -4):
        with pytest.raises(ConfigurationError, match="threads"):
            run(config, trials=2, threads=threads)


# ------------------------------------------------------------------- threads env

def test_threads_env_override(monkeypatch):
    monkeypatch.setenv("RV2X_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.setenv("RV2X_THREADS", "0")
    with pytest.raises(ConfigurationError):
        default_threads()
    monkeypatch.setenv("RV2X_THREADS", "many")
    with pytest.raises(ConfigurationError):
        default_threads()
    monkeypatch.delenv("RV2X_THREADS")
    assert 1 <= default_threads() <= 8


# ------------------------------------------------------------------- single trial

def test_run_trial_determinism():
    config = _tiny()
    a = run_trial(config, "proposed", 0)
    b = run_trial(config, "proposed", 0)
    np.testing.assert_array_equal(a["rows"]["delay_ms"], b["rows"]["delay_ms"])
    np.testing.assert_array_equal(a["decisions"]["c_star"], b["decisions"]["c_star"])
    c = run_trial(config, "proposed", 1)
    assert not np.array_equal(a["rows"]["delay_ms"], c["rows"]["delay_ms"])
