"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints (and records for the terminal summary) a single
"[criterion k] PASS/FAIL ..." line with the measured quantities and its
wall time, then asserts.  Statistical checks run on frozen seeds; the
heavyweight fixture shared by criteria 7 and 8 runs the three allocators
once at the full simulation scale.
"""
import itertools
import math
import os
import time

import numpy as np
import pytest

from rv2x.absorption import (DeconvEstimate, absorption_power,
                             adaptation_capability_bound, hungarian_match)
from rv2x.adaptation import AdaptationContext, beta, check_prop1_condition, u_value
from rv2x.channel import doppler_coefficient, error_law
from rv2x.config import SimConfig
from rv2x.harness import emit, run
from rv2x.qosmodel import delay_outage_closed_form, hazard_rate
from rv2x.scenario import qos_constants

RESULTS = []


def _verdict(k, ok, detail):
    line = f"[criterion {k}] {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _default_delta():
    cfg = SimConfig()
    return doppler_coefficient(cfg.speed_mps, cfg.carrier_freq_hz, cfg.feedback_delay_s)


# --------------------------------------------------------------- criterion 1


def test_criterion_01_outage_closed_form_vs_mc():
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence((101, 1)))
    n = 10 ** 6
    devs = []
    while len(devs) < 20:
        p_v = 10 ** rng.uniform(0.0, 2.3)
        p_i = 10 ** rng.uniform(0.0, 2.3)
        l_v = 10 ** rng.uniform(-8.0, -5.0)
        l_i = 10 ** rng.uniform(-8.0, -5.0)
        sigma2 = 10 ** rng.uniform(-13.0, -10.0)
        gamma = 10 ** rng.uniform(-0.3, 3.1)
        p_cf = delay_outage_closed_form(p_v, l_v, p_i, l_i, sigma2, gamma)
        if not 0.02 <= p_cf <= 0.98:
            continue        # keep points where one MC draw is informative
        g_v = rng.exponential(1.0, n)
        g_c = rng.exponential(1.0, n)
        sinr = p_v * l_v * g_v / (p_i * l_i * g_c + sigma2)
        p_mc = float(np.mean(sinr < gamma))
        se = math.sqrt(p_cf * (1.0 - p_cf) / n)
        devs.append(abs(p_mc - p_cf) / se)
    dt = time.perf_counter() - t0
    worst = max(devs)
    _verdict(1, worst <= 3.0 and dt < 30.0,
             f"closed form vs 1e6-draw MC on 20 points, worst dev "
             f"{worst:.2f} s.e. (limit 3), {dt:.1f}s (limit 30s)")


# --------------------------------------------------------------- criterion 2


def test_criterion_02_hazard_rate_vs_finite_difference():
    t0 = time.perf_counter()
    cfg = SimConfig()
    constants = qos_constants(cfg)
    gamma_v, _ = constants
    b_hz, d_bits, tau0 = cfg.bandwidth_hz, cfg.packet_bits, cfg.delay_req_s
    rng = np.random.default_rng(np.random.SeedSequence((102, 1)))
    rels = []
    for _ in range(20):
        p_v = 10 ** rng.uniform(0.0, 2.3)
        p_i = 10 ** rng.uniform(0.0, 2.3)
        l_v = 10 ** rng.uniform(-8.0, -5.0)
        l_i = 10 ** rng.uniform(-8.0, -5.0)
        # noise level set through s_tilde*gamma_v so the survival ratio stays
        # well conditioned for the finite difference
        sigma2 = 10 ** rng.uniform(-3.0, 0.5) * p_v * l_v / gamma_v

        def delay_cdf(t):
            g = 2.0 ** (d_bits / (b_hz * t)) - 1.0
            return 1.0 - delay_outage_closed_form(p_v, l_v, p_i, l_i, sigma2, g)

        h = 1e-9
        dens = (delay_cdf(tau0 + h) - delay_cdf(tau0 - h)) / (2.0 * h)
        cond = dens / (1.0 - delay_cdf(tau0))
        lam = hazard_rate(p_v, l_v, p_i, l_i, sigma2, constants)
        rels.append(abs(lam - cond) / abs(cond))
    dt = time.perf_counter() - t0
    worst = max(rels)
    _verdict(2, worst < 1e-3 and dt < 5.0,
             f"closed form vs conditional-definition FD on 20 points, worst "
             f"rel err {worst:.2e} (limit 1e-3), {dt:.1f}s (limit 5s)")


# --------------------------------------------------------------- criterion 3


def test_criterion_03_estimator_consistency_scaling():
    t0 = time.perf_counter()
    delta = _default_delta()
    d2 = delta * delta
    law = error_law("type1")
    lam_y = (200.0 / 10.0) / (1.0 - d2)     # the (p_i, p_v) = (200, 10) scheme
    o = 10.0 / 200.0
    grid = np.linspace(-0.6, 1.6, 221)
    truth = law.pdf(grid)
    med_ise = {}
    excess = {}
    for big_t in (100, 1000, 10000):
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(np.random.SeedSequence((1234, big_t, seed)))
            z = law.sample(rng, big_t) + rng.exponential(1.0 / lam_y, size=big_t)
            est = DeconvEstimate(samples=z, lambda_y=lam_y, trunc_k=10)
            errs.append(est.pdf(grid) - truth)
        errs = np.asarray(errs)
        med_ise[big_t] = float(np.median(np.trapezoid(errs ** 2, grid, axis=1)))
        mse = (errs ** 2).mean(axis=0)
        se = (errs ** 2).std(axis=0, ddof=1) / math.sqrt(20)
        bound = adaptation_capability_bound(delta, o, 10, big_t)
        excess[big_t] = float((mse - se - bound).max())
    dt = time.perf_counter() - t0
    decreasing = med_ise[100] > med_ise[1000] > med_ise[10000]
    within = all(v <= 0.0 for v in excess.values())
    _verdict(3, decreasing and within and dt < 300.0,
             f"median ISE {med_ise[100]:.4f} > {med_ise[1000]:.4f} > "
             f"{med_ise[10000]:.5f}, worst (MSE - MC err - bound) "
             f"{max(excess.values()):.2e} (limit 0), {dt:.1f}s (limit 300s)")


# --------------------------------------------------------------- criterion 4


def test_criterion_04_power_scheme_vs_grid_search():
    t0 = time.perf_counter()
    cfg = SimConfig()
    box = (cfg.pi_min_mw, cfg.pi_max_mw, cfg.pv_min_mw, cfg.pv_max_mw)
    pi_min, pi_max, pv_min, pv_max = box
    pi_grid = np.linspace(pi_min, pi_max, 200)
    pv_grid = np.linspace(pv_min, pv_max, 200)
    d_pv = pv_grid[1] - pv_grid[0]
    bound_v = np.vectorize(
        lambda oo, dd: adaptation_capability_bound(dd, oo, 10, 1000))
    pv_mesh, pi_mesh = np.meshgrid(pv_grid, pi_grid)
    ratio = pv_mesh / pi_mesh
    rng = np.random.default_rng(np.random.SeedSequence((104, 1)))
    worst_obj_gap = worst_ratio_gap = 0.0
    for i in range(50):
        lam = float(10.0 ** rng.uniform(-3.0, 0.0))
        l_v = float(10.0 ** rng.uniform(-8.0, -5.0))
        l_cross = float(10.0 ** rng.uniform(-8.0, -5.0))
        delta = float(rng.uniform(0.2, 0.95))

        p_i_c, p_v_c = absorption_power(lam, box)
        r_c = p_v_c / p_i_c
        assert pi_min - 1e-9 <= p_i_c <= pi_max + 1e-9, f"draw {i}: p_i out of box"
        assert pv_min - 1e-9 <= p_v_c <= pv_max + 1e-9, f"draw {i}: p_v out of box"
        assert r_c >= lam * pv_max / pi_min * (1 - 1e-12), f"draw {i}: retention violated"
        obj_c = adaptation_capability_bound(delta, r_c * l_v / l_cross, 10, 1000)

        feas = ratio >= lam * pv_max / pi_min
        obj = np.where(feas, bound_v(ratio * (l_v / l_cross), delta), np.inf)
        k = int(np.argmin(obj))
        ties = np.argwhere(obj == obj.flat[k])
        ki, kj = ties[np.argmax(ties[:, 0] * 1000 + ties[:, 1])]
        p_i_g, p_v_g = pi_mesh[ki, kj], pv_mesh[ki, kj]
        r_g, obj_g = p_v_g / p_i_g, obj[ki, kj]

        # the objective depends on the powers only through their ratio, so
        # agreement is checked on the objective and the ratio (one grid step
        # via the corner candidate at p_i_min), plus the documented
        # highest-power preference as coordinate dominance
        tol_r = d_pv / pi_min + 1e-9 * r_c
        assert obj_c <= obj_g * (1 + 1e-9), f"draw {i}: grid beat the closed form"
        assert r_c * (1 - 1e-12) <= r_g <= r_c + tol_r, f"draw {i}: ratio gap"
        assert p_i_c >= p_i_g * (1 - 1e-12), f"draw {i}: p_i not dominant"
        assert p_v_c >= p_v_g - (r_g - r_c) * p_i_c - 1e-9, f"draw {i}: p_v not dominant"
        obj_step = adaptation_capability_bound(
            delta, (r_c + tol_r) * l_v / l_cross, 10, 1000)
        assert obj_g <= obj_step * (1 + 1e-9), f"draw {i}: objective gap beyond one step"
        worst_obj_gap = max(worst_obj_gap, (obj_g - obj_c) / obj_c)
        worst_ratio_gap = max(worst_ratio_gap, (r_g - r_c) / r_c)
    dt = time.perf_counter() - t0
    _verdict(4, dt < 60.0,
             f"closed form matches 200x200 grid on 50 draws within grid "
             f"resolution (worst rel objective gap {worst_obj_gap:.2e}, worst "
             f"rel ratio gap {worst_ratio_gap:.2e}), {dt:.1f}s (limit 60s)")


# --------------------------------------------------------------- criterion 5


def test_criterion_05_matching_vs_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence((105, 1)))
    perms = list(itertools.permutations(range(6)))
    mismatches = 0
    for _ in range(100):
        w = rng.uniform(0.0, 1.0, size=(6, 6))
        assign = hungarian_match(w)
        cost = float(w[np.arange(6), assign].sum())
        best = min(perms, key=lambda p: w[np.arange(6), p].sum())
        best_cost = float(w[np.arange(6), list(best)].sum())
        if not (math.isclose(cost, best_cost, rel_tol=1e-12, abs_tol=1e-12)
                and tuple(assign) == best):
            mismatches += 1
    dt = time.perf_counter() - t0
    _verdict(5, mismatches == 0 and dt < 10.0,
             f"Hungarian equals exhaustive search on 100 random 6x6 matrices "
             f"({mismatches} mismatches), {dt:.1f}s (limit 10s)")


# --------------------------------------------------------------- criterion 6


def test_criterion_06_monotonicity_guarantees():
    t0 = time.perf_counter()
    d2 = _default_delta() ** 2
    rng = np.random.default_rng(777)
    u_ok = beta_ok = True
    min_step = np.inf
    for ctx_i in range(10):
        lam = float(rng.uniform(0.5, 30.0))
        law = error_law("type1" if ctx_i % 2 else "type2")
        z = law.sample(rng, 1000) + rng.exponential(1.0 / lam, size=1000)
        est = DeconvEstimate(samples=z, lambda_y=lam, trunc_k=10)
        gch = float(rng.uniform(0.2, 2.0))
        gvh = float(rng.uniform(0.2, 2.0))
        ctx = AdaptationContext(
            estimate=est, lambda_y=lam, delta2=d2, gamma_v=1.0, sigma2=0.0,
            l_v=1.0, l_cross=1.0, l_i=1.0, l_v_rsu=1.0, rate_gamma=0.0,
            prob_req=0.95, box=(0.1, 10.0, 0.1, 10.0), trunc_k1=10, trunc_k2=10)

        cgrid = np.geomspace(1e-2, 80.0, 1000)
        check_prop1_condition(lam, 10, cgrid)      # Prop. 1's condition on u, K2 = 10
        u_ok &= bool((np.diff(u_value(cgrid, lam, 10)) > 0).all())

        # the satisfaction curve is checked across its active transition;
        # outside it the curve is exactly flat (the shifted window holds no
        # estimate mass), where strictness is not meaningful
        scan = np.geomspace(1e-4, 1e3, 1200)
        _, raw_scan = beta(scan, ctx, gvh, gch, return_raw=True)
        tail = max(0.03, raw_scan[-1] + 0.02)
        hi_idx = np.flatnonzero(raw_scan <= tail)
        lo_idx = np.flatnonzero(raw_scan >= 0.97)
        assert hi_idx.size and lo_idx.size, f"context {ctx_i}: no transition found"
        grid = np.geomspace(scan[lo_idx[-1]], scan[hi_idx[0]], 1000)
        _, raw = beta(grid, ctx, gvh, gch, return_raw=True)
        step = np.diff(raw)
        beta_ok &= bool((step < 0).all())
        min_step = min(min_step, float(np.abs(step).min()))
    dt = time.perf_counter() - t0
    _verdict(6, u_ok and beta_ok and dt < 120.0,
             f"u strictly increasing and beta strictly decreasing on "
             f"1000-point log grids for 10 contexts (min |step| "
             f"{min_step:.1e}), {dt:.1f}s (limit 120s)")


# --------------------------------------------- criteria 7 and 8 shared runs


@pytest.fixture(scope="module")
def full_runs():
    cfg = SimConfig(deviation_trace=False)
    t0 = time.perf_counter()
    proposed = run(cfg, "proposed", trials=100, threads=1)
    t_proposed = time.perf_counter() - t0
    gaussian = run(cfg, "gaussian", trials=100, threads=1)
    hpr = run(cfg, "hpr", trials=100, threads=1)
    return proposed, gaussian, hpr, t_proposed


def test_criterion_07_adaptation_calibration(full_runs):
    proposed, _, _, t_proposed = full_runs
    assert proposed.completed == 100, "some trials failed"
    sat = proposed.v2v_ok_rate
    _verdict(7, 0.90 <= sat <= 1.00 and t_proposed < 600.0,
             f"adaptation satisfaction {sat:.4f} within 5pp of 0.95 over 100 "
             f"trials, {t_proposed:.0f}s (limit 600s)")


def test_criterion_08_comparative_tail_behavior(full_runs):
    proposed, gaussian, hpr, _ = full_runs
    assert gaussian.completed == 100 and hpr.completed == 100
    cond = [r.conditional_mean_delay_ms for r in (proposed, gaussian, hpr)]
    thr = [r.mean_throughput_mbps for r in (proposed, gaussian, hpr)]
    assert all(c is not None for c in cond), "no budget violations observed"
    delay_ok = cond[0] < cond[1] and cond[0] < cond[2]
    thr_ok = thr[0] > thr[1] and thr[0] > thr[2]
    _verdict(8, delay_ok and thr_ok,
             f"conditional mean delay {cond[0]:.1f}ms vs {cond[1]:.1f}/"
             f"{cond[2]:.1f}ms ({'ok' if delay_ok else 'not lower'}), "
             f"throughput {thr[0]:.2f}Mbps vs {thr[1]:.2f}/{thr[2]:.2f}Mbps "
             f"({'ok' if thr_ok else 'not higher'})")


# --------------------------------------------------------------- criterion 9


def test_criterion_09_absorption_tradeoff():
    t0 = time.perf_counter()
    stats = {}
    for weight in (0.5, 0.3):
        cfg = SimConfig(adaptation_len=0, hr_weight=weight,
                        absorption_len=1000, matching_horizon=1000,
                        deviation_trace=False)
        rep = run(cfg, "proposed", trials=20, threads=1)
        assert rep.completed == 20
        probing = slice(0, cfg.absorption_len * cfg.num_pairs)   # the first rows
        sat = np.mean([r["satisfied"][probing].mean() for r in rep.rows])
        thr = np.mean([r["throughput_mbps"][probing].mean() for r in rep.rows])
        stats[weight] = (float(sat), float(thr))
    dt = time.perf_counter() - t0
    sat_up = stats[0.5][0] > stats[0.3][0]
    thr_down = stats[0.5][1] < stats[0.3][1]
    _verdict(9, sat_up and thr_down and dt < 180.0,
             f"retention weight 0.5 vs 0.3 over 20 trials: absorption "
             f"satisfaction {stats[0.5][0]:.4f} vs {stats[0.3][0]:.4f} "
             f"({'up' if sat_up else 'NOT up'}), throughput "
             f"{stats[0.5][1]:.2f} vs {stats[0.3][1]:.2f} Mbps "
             f"({'down' if thr_down else 'NOT down'}), {dt:.0f}s (limit 180s)")


# -------------------------------------------------------------- criterion 10


def _tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = SimConfig(num_pairs=4, absorption_len=150, matching_horizon=150,
                    adaptation_len=10, deviation_trace=False)
    trees = {}
    for name, threads in (("a", 1), ("b", 1), ("c", 8)):
        rep = run(cfg, "proposed", trials=8, threads=threads)
        assert rep.completed == 8
        out = tmp_path / name
        emit(rep, str(out))
        trees[name] = _tree_bytes(str(out))
    dt = time.perf_counter() - t0
    rerun_ok = trees["a"] == trees["b"]
    workers_ok = trees["a"] == trees["c"]
    _verdict(10, rerun_ok and workers_ok and dt < 120.0,
             f"{len(trees['a'])} artifacts byte-identical across reruns "
             f"({'ok' if rerun_ok else 'DIFFER'}) and across 1 vs 8 workers "
             f"({'ok' if workers_ok else 'DIFFER'}), {dt:.0f}s (limit 120s)")
