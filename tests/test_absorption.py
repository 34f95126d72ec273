import functools
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from rv2x.absorption import (_FAR_RADIUS, _TERMS, AbsorptionPlan, DeconvEstimate,
                             _kernel, absorption_power, adaptation_capability_bound,
                             collect_sample, estimate_pdf,
                             hungarian_match, run_absorption)
from rv2x.channel import LargeScaleState, build_large_scale, error_law
from rv2x.config import SimConfig
from rv2x.errors import ConfigurationError, InfeasibleMatching
from rv2x.harness import _stream
from rv2x.scenario import build_topology


# ---------------------------------------------------------------- kernel/pdf

def _kernel_quad(a, w_cut, lam):
    """Independent route: numeric inverse transform of (1 + i w / lam) e^{-i w a}."""
    val, _ = integrate.quad(lambda w: np.cos(w * a) + (w / lam) * np.sin(w * a),
                            -w_cut, w_cut, limit=400)
    return val


def _single_sample_estimate(z, lam=20.0, k=10):
    return DeconvEstimate(samples=[z], lambda_y=lam, trunc_k=k)


def test_single_sample_peak_equals_cutoff_over_pi():
    # with one sample the estimate at the sample is I(0)/(2 pi) = 2 K pi / (2 pi) = K
    est = _single_sample_estimate(0.7, lam=20.0, k=10)
    np.testing.assert_allclose(est.pdf(0.7), [10.0], rtol=1e-12)
    est3 = _single_sample_estimate(-1.3, lam=5.0, k=3)
    np.testing.assert_allclose(est3.pdf(-1.3), [3.0], rtol=1e-12)


def test_kernel_matches_quadrature():
    z, lam, k = 0.3, 20.0, 10
    est = _single_sample_estimate(z, lam=lam, k=k)
    w_cut = k * np.pi
    for a in [0.37, -1.2, 2.719, 0.004, 4.4e-8]:
        want = _kernel_quad(a, w_cut, lam) / (2.0 * np.pi)
        got = est.pdf(z - a)[0]
        np.testing.assert_allclose(got, want, rtol=1e-8,
                                   err_msg=f"kernel mismatch at offset {a}")


def test_kernel_small_argument_branch():
    # offsets below the series switch still agree with the quadrature route
    z, lam, k = 0.0, 20.0, 10
    est = _single_sample_estimate(z, lam=lam, k=k)
    w_cut = k * np.pi
    for a in [1e-9, -3e-10, 9e-9]:
        want = _kernel_quad(a, w_cut, lam) / (2.0 * np.pi)
        got = est.pdf(z - a)[0]
        np.testing.assert_allclose(got, want, rtol=1e-8)
    # continuity across the switch point
    below, above = est.pdf(z - 0.99e-8)[0], est.pdf(z - 1.01e-8)[0]
    assert abs(below - above) < 1e-4 * abs(above), "kernel jumps at series switch"


def _direct_pdf(z, e, k, lam):
    """Float64 reference: the closed-form kernel summed over every (point, probe)."""
    return _kernel(z[None, :] - e[:, None], k * np.pi, lam).sum(axis=1) / (2.0 * np.pi * z.size)


@pytest.mark.parametrize("lam", [1e-6, 1e-3, 20.0])
def test_estimate_matches_direct_kernel_sum(lam):
    # adversarial probes: on grid points, just off them, on both sides of
    # |W a| = 1, and far away; the near/far split must not show.  1001 grid
    # points span several of the row chunks the far sums are taken in.
    k = 10
    inv_w = 1.0 / (k * np.pi)
    e = np.linspace(-1.0, 2.0, 1001)
    rng = np.random.default_rng(11)
    probes = [e[[0, 7, 500, 1000]]]
    for d in (1e-9, 1e-6, 1e-3, inv_w * (1.0 - 1e-12), inv_w * (1.0 + 1e-12)):
        probes.append(e[rng.integers(0, e.size, 4)] + d * np.array([1.0, -1.0, 1.0, -1.0]))
    probes.append(rng.normal(0.5, 0.7, 40))
    probes.append([1e2, -3e3, 5e4, 2.5e5, 1e6, -1e6])
    # just inside and just outside the far-series radius, on both sides
    c, radius = 0.5, _FAR_RADIUS * 1.5
    probes.append(c + radius * np.array([1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-3, 1.0 + 1e-3]))
    probes.append(c - radius * np.array([1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-3, 1.0 + 1e-3]))
    z = np.concatenate(probes)
    got = DeconvEstimate(samples=z, lambda_y=lam, trunc_k=k).pdf(e)
    want = _direct_pdf(z, e, k, lam)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.max(np.abs(want)))


def test_default_trial_estimates_match_direct_kernel_sum():
    # trial 0 of the default config on the error_pdf.csv grid: lambda_y spans
    # orders of magnitude and most probes lie far outside the grid
    config = SimConfig()
    law = error_law(config.error_law)
    topo = build_topology(config, _stream(config.rng_seed, 0, "topology"))
    large = build_large_scale(topo, config, _stream(config.rng_seed, 0, "shadowing"))
    _, estimates, _ = run_absorption(large, config, law,
                                     _stream(config.rng_seed, 0, "absorption"))
    sd = np.sqrt(law.variances)
    e = np.linspace(np.min(law.means - 5.0 * sd), np.max(law.means + 5.0 * sd), 601)
    far = 0
    for est in estimates:
        want = _direct_pdf(est.samples, e, est.trunc_k, est.lambda_y)
        np.testing.assert_allclose(est.pdf(e), want, rtol=0.0,
                                   atol=1e-9 * np.max(np.abs(want)))
        far += np.sum(np.abs(est.samples - 0.5 * (e[0] + e[-1]))
                      > _FAR_RADIUS * 0.5 * (e[-1] - e[0]))
    assert far > 0.5 * config.num_pairs * config.absorption_len   # the series is exercised


def test_small_calls_do_not_depend_on_their_points():
    # a call of at most _TERMS points sums every probe entry by entry, so each
    # point's value is the one it has alone (the beta oracle asks one at a time)
    rng = np.random.default_rng(3)
    z = np.concatenate([rng.normal(0.5, 0.3, 200), rng.exponential(1e4, 300)])
    est = DeconvEstimate(samples=z, lambda_y=1e-4, trunc_k=10)
    e = rng.uniform(-1.0, 2.0, _TERMS)
    alone = np.array([est.pdf(x)[0] for x in e])
    np.testing.assert_array_equal(est.pdf(e), alone)


def _model_samples(rng, law, lam_y, t):
    e = law.sample(rng, t)
    return e + rng.exponential(1.0 / lam_y, size=t)


def test_raw_estimate_integrates_to_one():
    law = error_law("type1")
    rng = np.random.default_rng(12345)
    z = _model_samples(rng, law, 20.0, 2000)
    est = DeconvEstimate(samples=z, lambda_y=20.0, trunc_k=10)
    x = np.linspace(-2.0, 3.0, 4001)
    total = np.trapezoid(est.pdf(x), x)
    assert abs(total - 1.0) < 0.05, f"raw estimate mass {total}"


def test_estimate_tracks_true_density():
    law = error_law("type1")
    rng = np.random.default_rng(99)
    z = _model_samples(rng, law, 20.0, 10 ** 4)
    est = DeconvEstimate(samples=z, lambda_y=20.0, trunc_k=10)
    for pt in (0.2, 0.8):  # the two mixture modes
        assert abs(est.pdf(pt)[0] - law.pdf(pt)) < 0.05


def test_serialization_round_trip():
    # estimates cross the worker-process boundary by pickle: exact samples and pdf
    est = DeconvEstimate(samples=[0.125, -2.5, 0.3333333333333333, 17.0],
                         lambda_y=34.848484, trunc_k=10)
    est2 = DeconvEstimate(samples=np.random.default_rng(0).normal(size=50),
                          lambda_y=np.pi, trunc_k=7)
    x = np.linspace(-4.0, 20.0, 97)
    for orig in (est, est2):
        back = pickle.loads(pickle.dumps(orig))
        np.testing.assert_array_equal(back.samples, orig.samples)
        assert back.lambda_y == orig.lambda_y and back.trunc_k == orig.trunc_k
        np.testing.assert_array_equal(back.pdf(x), orig.pdf(x))


def test_estimate_requires_samples():
    with pytest.raises(ConfigurationError):
        DeconvEstimate(samples=[], lambda_y=20.0, trunc_k=10)


# ------------------------------------------------------------ capability bound

def test_capability_bound_frozen_point():
    got = adaptation_capability_bound(np.sqrt(0.4256), 1.0, 10, 1000)
    np.testing.assert_allclose(got, 8.346431551865372, rtol=1e-12)
    assert abs(got - 8.35) < 0.005
    # exact 1/T scaling
    np.testing.assert_allclose(adaptation_capability_bound(np.sqrt(0.4256), 1.0, 10, 500),
                               2.0 * got, rtol=1e-12)


def test_capability_bound_monotone_in_power_ratio():
    os = np.geomspace(0.1, 10.0, 25)
    vals = [adaptation_capability_bound(0.65, o, 10, 1000) for o in os]
    assert np.all(np.diff(vals) > 0), "bound must grow with the power ratio"


def test_capability_bound_domain():
    for bad_delta in (1.0, 1.5, -0.1):
        with pytest.raises(ConfigurationError):
            adaptation_capability_bound(bad_delta, 1.0, 10, 1000)
    with pytest.raises(ConfigurationError):
        adaptation_capability_bound(0.5, 0.0, 10, 1000)
    with pytest.raises(ConfigurationError):
        adaptation_capability_bound(0.5, 1.0, 10, 0)


# ------------------------------------------------------------ probing powers

def test_absorption_power_frozen_cases():
    box = (10.0, 200.0, 10.0, 200.0)
    cases = {
        0.001: (200.0, 10.0),
        0.0025: (200.0, 10.0),
        0.01: (200.0, 40.0),
        0.05: (200.0, 200.0),
        0.5: (20.0, 200.0),
        1.0: (10.0, 200.0),
    }
    for lam, want in cases.items():
        np.testing.assert_allclose(absorption_power(lam, box), want, rtol=1e-12,
                                   err_msg=f"probing powers at weight {lam}")


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.0, 1.0),
       pi_min=st.floats(0.01, 100.0),
       pi_span=st.floats(1.0, 100.0),
       pv_min=st.floats(0.01, 100.0),
       pv_span=st.floats(1.0, 100.0))
def test_absorption_power_invariant(lam, pi_min, pi_span, pv_min, pv_span):
    """The solution rides max(retention floor, box corner) with maximal powers."""
    box = (pi_min, pi_min * pi_span, pv_min, pv_min * pv_span)
    p_i, p_v = absorption_power(lam, box)
    slack = 1e-9
    assert box[0] * (1 - slack) <= p_i <= box[1] * (1 + slack)
    assert box[2] * (1 - slack) <= p_v <= box[3] * (1 + slack)
    ratio = max(lam * box[3] / box[0], box[2] / box[1])
    np.testing.assert_allclose(p_v / p_i, ratio, rtol=1e-9)
    np.testing.assert_allclose(p_i, min(box[1], box[3] / ratio), rtol=1e-9)


def test_absorption_power_rejections():
    with pytest.raises(ConfigurationError):
        absorption_power(0.5, (10.0, 5.0, 10.0, 200.0))
    with pytest.raises(ConfigurationError):
        absorption_power(0.5, (0.0, 5.0, 10.0, 200.0))
    with pytest.raises(ConfigurationError):
        absorption_power(1.5, (10.0, 200.0, 10.0, 200.0))
    with pytest.raises(ConfigurationError):
        absorption_power(-0.1, (10.0, 200.0, 10.0, 200.0))


def test_edge_weight_consistency():
    # run_absorption's weight of pair i on channel j is the horizon bound's
    # bracket at the probing powers, without the bound's k^2/(4T) prefactor
    config = SimConfig(num_pairs=6, absorption_len=20, matching_horizon=20)
    large = build_large_scale(build_topology(config, _stream(0, 0, "topology")), config,
                              _stream(0, 0, "shadowing"))
    plan, _, _ = run_absorption(large, config, error_law(config.error_law),
                                _stream(0, 0, "absorption"))
    box = (config.pi_min_mw, config.pi_max_mw, config.pv_min_mw, config.pv_max_mw)
    p_i, p_v = absorption_power(config.hr_weight, box)
    o = p_v * large.l_v[:, None] / (p_i * large.l_cross.T)
    k, m = config.trunc_k, config.num_pairs
    want = [[adaptation_capability_bound(large.delta, o[i, j], k, 1000) for j in range(m)]
            for i in range(m)]
    np.testing.assert_allclose((k * k / 4000.0) * plan.weights, want, rtol=1e-12)
    # stronger direct link (bigger o) is harder to deconvolve
    assert np.all(np.diff(plan.weights.ravel()[np.argsort(o, axis=None)]) > 0)


# ------------------------------------------------------------------ matching

def test_hungarian_simple():
    np.testing.assert_array_equal(hungarian_match([[0.0, 1.0], [1.0, 0.0]]), [0, 1])
    np.testing.assert_array_equal(hungarian_match([[1.0, 0.0], [0.0, 1.0]]), [1, 0])
    np.testing.assert_array_equal(hungarian_match([[np.inf, 1.0], [1.0, np.inf]]), [1, 0])


def test_hungarian_tie_break_lexicographic():
    np.testing.assert_array_equal(hungarian_match(np.ones((5, 5))), np.arange(5))
    # both permutations cost 6: lowest row takes lowest column
    np.testing.assert_array_equal(hungarian_match([[5.0, 5.0], [1.0, 1.0]]), [0, 1])
    np.testing.assert_array_equal(hungarian_match(np.zeros((7, 7))), np.arange(7))


def _brute_optima(w):
    n = w.shape[0]
    best, opts = np.inf, []
    for perm in itertools.permutations(range(n)):
        c = sum(w[i, p] for i, p in enumerate(perm))
        if c < best - 1e-12:
            best, opts = c, [perm]
        elif c <= best + 1e-12:
            opts.append(perm)
    return best, opts


def test_hungarian_matches_bruteforce():
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = 5 if trial < 14 else 6
        w = rng.random((n, n)) * 10.0
        assign = hungarian_match(w)
        assert sorted(assign) == list(range(n)), "result must be a permutation"
        best, opts = _brute_optima(w)
        got = float(w[np.arange(n), assign].sum())
        np.testing.assert_allclose(got, best, rtol=1e-12)
        assert tuple(assign) == min(opts), "tie break must be lexicographic"


def test_hungarian_infeasible_and_validation():
    with pytest.raises(InfeasibleMatching):
        hungarian_match([[np.inf, 1.0], [np.inf, 2.0]])
    with pytest.raises(ConfigurationError):
        hungarian_match(np.ones((2, 3)))
    with pytest.raises(ConfigurationError):
        hungarian_match([[0.0, np.nan], [1.0, 0.0]])
    # no size cap: wide systems solve, with the lexicographic tie break
    np.testing.assert_array_equal(hungarian_match(np.ones((21, 21))), np.arange(21))
    w = np.random.default_rng(3).random((60, 60))
    assign = hungarian_match(w)
    assert sorted(assign) == list(range(60))
    # the optimum: no pairwise swap lowers the cost
    rows = np.arange(60)
    base = w[rows, assign]
    swap = w[rows[:, None], assign[None, :]] + w[rows[None, :], assign[:, None]]
    assert np.all(swap >= base[:, None] + base[None, :] - 1e-12)


@functools.cache
def _permutations(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _lex_min_optimum(w):
    """Brute force: (cost, lexicographically smallest optimal permutation)."""
    n = w.shape[0]
    perms = _permutations(n)   # in lexicographic order
    costs = w[np.arange(n), perms].sum(axis=1)
    best = costs.min()
    if not np.isfinite(best):
        return best, None
    first = np.flatnonzero(costs <= best + 1e-12 * max(1.0, abs(best)))[0]
    return best, tuple(int(c) for c in perms[first])


@st.composite
def _tied_weights(draw):
    n = draw(st.integers(1, 7))
    vals = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf]),
                         min_size=n * n, max_size=n * n))
    return np.array(vals).reshape(n, n)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(w=_tied_weights())
def test_hungarian_is_lexicographic_optimum_property(w):
    best, want = _lex_min_optimum(w)
    if want is None:
        with pytest.raises(InfeasibleMatching):
            hungarian_match(w)
        return
    assign = hungarian_match(w)
    assert tuple(int(c) for c in assign) == want
    assert abs(w[np.arange(w.shape[0]), assign].sum() - best) <= 1e-12


def test_hungarian_on_real_weights_with_wide_ranges():
    # weights within one matrix span 15+ orders of magnitude; a tight-edge
    # tolerance scaled by the largest weight ties edges that are not tied
    m = 8
    config = SimConfig(num_pairs=m, absorption_len=1)
    law = error_law(config.error_law)
    checked = 0
    for seed in range(60):
        topo = build_topology(config, np.random.default_rng((seed, 0)))
        large = build_large_scale(topo, config, np.random.default_rng((seed, 1)))
        w = run_absorption(large, config, law, np.random.default_rng((seed, 2)))[0].weights
        finite = w[np.isfinite(w)]
        if finite.max() < 1e15 * finite.min():
            continue
        checked += 1
        best, want = _lex_min_optimum(w)
        assign = hungarian_match(w)
        got = w[np.arange(m), assign].sum()
        assert got <= best * (1.0 + 1e-12), f"seed {seed}: costlier matching"
        assert tuple(int(c) for c in assign) == want, f"seed {seed}: tie break"
    assert checked >= 40


# --------------------------------------------------------------- probe algebra

def test_collect_sample_identity():
    """Crafted channel values: the probe equals e_cross + e_direct / lambda_y exactly."""
    rng = np.random.default_rng(5)
    n = 2000
    p_i, l_c, p_v, l_v, delta = 80.0, 3e-9, 40.0, 2e-7, 0.6
    d2 = delta * delta
    g_hat = rng.exponential(1.0, n)
    e_dir = rng.exponential(1.0, n)
    e_cross = rng.normal(0.5, 0.2, n)
    gc_hat = rng.exponential(1.0, n)
    sigma2 = 1e-11
    rss = p_i * l_c * (gc_hat + e_cross) + p_v * l_v * (d2 * g_hat + (1 - d2) * e_dir) + sigma2
    nominal = p_i * l_c * gc_hat + p_v * l_v * g_hat + sigma2
    z = collect_sample(rss, nominal, p_i, l_c, p_v, l_v, delta, g_hat)
    lam_y = p_i * l_c / (p_v * l_v * (1 - d2))
    np.testing.assert_allclose(z, e_cross + e_dir / lam_y, rtol=1e-7)


def test_collect_sample_zero_and_mean():
    # no residual and no reported fade -> zero probe
    assert collect_sample(1e-9, 1e-9, 80.0, 3e-9, 40.0, 2e-7, 0.6, 0.0) == 0.0
    # nuisance mean is 1 / lambda_y
    rng = np.random.default_rng(8)
    n = 10 ** 5
    p_i, l_c, p_v, l_v, delta = 200.0, 5e-10, 10.0, 1e-8, 0.6527530721238584
    d2 = delta * delta
    lam_y = p_i * l_c / (p_v * l_v * (1.0 - d2))
    g_hat = rng.exponential(1.0, n)
    e_dir = rng.exponential(1.0, n)
    e_cross = error_law("type1").sample(rng, n)
    gc_hat = rng.exponential(1.0, n)
    rss = p_i * l_c * (gc_hat + e_cross) + p_v * l_v * (d2 * g_hat + (1 - d2) * e_dir)
    nominal = p_i * l_c * gc_hat + p_v * l_v * g_hat
    z = collect_sample(rss, nominal, p_i, l_c, p_v, l_v, delta, g_hat)
    se = (1.0 / lam_y) / np.sqrt(n)
    assert abs(z.mean() - e_cross.mean() - 1.0 / lam_y) < 4 * se


# ------------------------------------------------------------- phase driver

def _large_state(m=4, seed=3, delta=0.65):
    rng = np.random.default_rng(seed)
    return LargeScaleState(
        l_i=rng.uniform(1e-10, 1e-8, m),
        l_v=rng.uniform(1e-8, 1e-6, m),
        l_v_rsu=rng.uniform(1e-11, 1e-9, m),
        l_cross=rng.uniform(1e-11, 1e-9, (m, m)),
        delta=delta,
    )


def _small_config(**kw):
    base = dict(num_pairs=4, absorption_len=60, matching_horizon=60, adaptation_len=10)
    base.update(kw)
    return SimConfig(**base)


def test_run_absorption_plan_invariants():
    config = _small_config()
    large = _large_state()
    law = error_law("type1")
    plan, estimates, fading = run_absorption(large, config, law,
                                             np.random.default_rng(17))
    m = config.num_pairs
    assert sorted(plan.pairing) == list(range(m))
    box = (config.pi_min_mw, config.pi_max_mw, config.pv_min_mw, config.pv_max_mw)
    want_pi, want_pv = absorption_power(config.hr_weight, box)
    np.testing.assert_allclose(plan.p_i_mw, want_pi)
    np.testing.assert_allclose(plan.p_v_mw, want_pv)
    l_cross_pair = large.l_cross[plan.pairing, np.arange(m)]
    lam_y = plan.p_i_mw * l_cross_pair / (plan.p_v_mw * large.l_v
                                          * (1.0 - large.delta ** 2))
    np.testing.assert_allclose(plan.lambda_y, lam_y, rtol=1e-12)
    k, t = config.trunc_k, config.absorption_len
    np.testing.assert_allclose(
        plan.bound,
        (k * k / (4.0 * t)) * plan.weights[np.arange(m), plan.pairing], rtol=1e-12)
    # matched total never exceeds any other permutation (sampled check)
    matched = plan.weights[np.arange(m), plan.pairing].sum()
    rng = np.random.default_rng(0)
    for _ in range(50):
        perm = rng.permutation(m)
        assert matched <= plan.weights[np.arange(m), perm].sum() + 1e-12
    assert len(estimates) == m
    assert fading.g2_cross.shape == (t, m, m) and fading.g2_v.shape == (t, m)
    for i, est in enumerate(estimates):
        assert est.samples.shape == (t,)
        np.testing.assert_allclose(est.lambda_y, plan.lambda_y[i], rtol=1e-12)
        assert est.trunc_k == k
    # the probes come from the returned fading: cross error plus an exponential
    pair = np.arange(m)
    probes = np.stack([est.samples for est in estimates], axis=1)
    residual = (fading.e_cross[:, plan.pairing, pair]
                + (plan.p_v_mw * large.l_v / (plan.p_i_mw * l_cross_pair))
                * (1.0 - large.delta ** 2) * fading.e_direct)
    np.testing.assert_allclose(probes, residual, rtol=1e-6, atol=1e-9)


def test_run_absorption_identity_flag():
    large = _large_state(seed=9)
    # make the off-diagonal cross links strongest so matching leaves identity
    m = 4
    large.l_cross[:] = 1e-11
    large.l_cross[(np.arange(m) + 1) % m, np.arange(m)] = 1e-9
    law = error_law("type1")
    plan, _, _ = run_absorption(large, _small_config(), law, np.random.default_rng(1))
    np.testing.assert_array_equal(plan.pairing, (np.arange(m) + 1) % m)
    plan_id, _, _ = run_absorption(large, _small_config(identity_matching=True),
                                   law, np.random.default_rng(1))
    np.testing.assert_array_equal(plan_id.pairing, np.arange(m))
    matched = plan.weights[np.arange(m), plan.pairing].sum()
    ident = plan_id.weights[np.arange(m), plan_id.pairing].sum()
    assert matched < ident


def test_run_absorption_determinism_and_edge_cases():
    large = _large_state()
    law = error_law("type2")
    cfg = _small_config()
    _, est_a, _ = run_absorption(large, cfg, law, np.random.default_rng(123))
    _, est_b, _ = run_absorption(large, cfg, law, np.random.default_rng(123))
    for a, b in zip(est_a, est_b):
        np.testing.assert_array_equal(a.samples, b.samples)

    single = _large_state(m=1)
    plan, estimates, _ = run_absorption(single, _small_config(num_pairs=1),
                                        law, np.random.default_rng(2))
    np.testing.assert_array_equal(plan.pairing, [0])
    assert len(estimates) == 1

    lopsided = _large_state()
    lopsided.l_i = lopsided.l_i[:3]
    with pytest.raises(ConfigurationError):
        run_absorption(lopsided, _small_config(), law, np.random.default_rng(2))
