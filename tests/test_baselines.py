import numpy as np
import pytest

from rv2x.adaptation import AdaptationContext, _c_range, solve_slots
from rv2x.baselines import HprRegion, fit_gaussian, fit_hpr
from rv2x.channel import error_law
from rv2x.errors import ConfigurationError


def _ctx(estimate, **kw):
    base = dict(estimate=estimate, lambda_y=20.0, delta2=0.0, gamma_v=1.0,
                sigma2=0.0, l_v=1.0, l_cross=1.0, l_i=1.0, l_v_rsu=1.0,
                rate_gamma=0.0, prob_req=0.95,
                box=(0.1, 10.0, 0.1, 10.0), trunc_k1=10, trunc_k2=10)
    base.update(kw)
    return AdaptationContext(**base)


def _solve_one(ctx):
    """solve_slots' decision on one slot reporting a cross fade of 0.5."""
    res = solve_slots(ctx, {"g2_v_hat": np.ones(1), "g2_cross_hat": np.full(1, 0.5),
                            "g2_i": np.ones(1), "g2_v_rsu": np.ones(1)})
    return {key: val[0] for key, val in res.items()}


# --------------------------------------------------------------- gaussian fit

def test_fit_gaussian_recovers_gaussian_law():
    rng = np.random.default_rng(2718)
    e = rng.normal(0.5, 0.1, 10 ** 4)
    z = e + rng.exponential(1.0 / 50.0, size=10 ** 4)
    fit = fit_gaussian(z, 50.0)
    assert abs(fit.mean_e - 0.5) < 4e-3   # ~4 s.e. of the mean
    assert abs(fit.var_e - 0.01) < 1.5e-3
    assert not fit.floored and fit.n == 10 ** 4


def test_fit_gaussian_moment_identities():
    rng = np.random.default_rng(123)
    z = rng.normal(0.3, 0.2, 500) + rng.exponential(1.0 / 50.0, size=500)
    fit = fit_gaussian(z, 50.0)
    # exact post-form: nuisance moments subtracted from the sample moments
    np.testing.assert_allclose(fit.mean_e, z.mean() - 1.0 / 50.0, rtol=1e-12)
    np.testing.assert_allclose(fit.var_e, z.var(ddof=1) - 1.0 / 50.0 ** 2, rtol=1e-12)
    shifted = fit_gaussian(z + 1.0, 50.0)
    np.testing.assert_allclose(shifted.mean_e, fit.mean_e + 1.0, rtol=1e-12)
    np.testing.assert_allclose(shifted.var_e, fit.var_e, rtol=1e-9)
    centred = fit_gaussian(z, 50.0, zero_mean=True)
    assert centred.mean_e == 0.0
    np.testing.assert_allclose(centred.var_e, fit.var_e, rtol=1e-12)


def test_fit_gaussian_variance_floor():
    # pure nuisance: the error variance estimate collapses onto the floor
    rng = np.random.default_rng(5)
    z = rng.exponential(1e-3, size=10 ** 4)
    fit = fit_gaussian(z, 1000.0)
    assert fit.floored and fit.var_e == 1e-6
    assert abs(fit.mean_e) < 4e-5


def test_fit_gaussian_mixture_absorbs_spread():
    # a bimodal law collapses to its overall mean/variance (0.5, 0.12)
    law = error_law("type1")
    rng = np.random.default_rng(77)
    z = law.sample(rng, 10 ** 4) + rng.exponential(1.0 / 50.0, size=10 ** 4)
    fit = fit_gaussian(z, 50.0)
    assert abs(fit.mean_e - 0.5) < 0.02
    assert abs(fit.var_e - 0.12) < 0.01


def test_fit_gaussian_needs_enough_probes():
    with pytest.raises(ConfigurationError):
        fit_gaussian(np.ones(29), 50.0)


# ------------------------------------------------------------------ region fit

def test_fit_hpr_hand_quantiles():
    # proxies are exactly 1..100 after the nuisance-mean shift
    samples = np.arange(1.0, 101.0) + 0.5
    region = fit_hpr(samples, 2.0, 0.9)
    assert (region.lo, region.hi) == (5.0, 96.0)
    assert region.coverage == 0.92 and region.n == 100
    wide = fit_hpr(samples, 2.0, 0.99)
    assert (wide.lo, wide.hi) == (1.0, 100.0)
    assert wide.coverage == 1.0


def test_fit_hpr_coverage_and_nesting():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(30, 400))
        data = rng.normal(0, 1, n) if trial % 2 else rng.integers(0, 5, n).astype(float)
        prev = None
        for p0 in (0.9, 0.95, 0.99):
            region = fit_hpr(data, 10.0, p0)
            assert region.coverage >= p0, f"coverage {region.coverage} below {p0}"
            if prev is not None:  # higher target always widens
                assert region.lo <= prev.lo and region.hi >= prev.hi
            prev = region


def test_fit_hpr_needs_enough_probes():
    with pytest.raises(ConfigurationError):
        fit_hpr(np.ones(29), 50.0, 0.95)


# ------------------------------------------------------------------ allocators

def test_hpr_widening_lowers_the_budget():
    narrow = _ctx(HprRegion(lo=-0.1, hi=0.4, coverage=0.96))
    wide = _ctx(HprRegion(lo=-0.5, hi=0.8, coverage=0.99))
    res_n, res_w = _solve_one(narrow), _solve_one(wide)
    assert res_w["c_u"] < res_n["c_u"] <= _c_range(narrow)[2]
    # deployed powers move the same way: wider region, more conservative c
    assert res_w["p_i"] / res_w["p_v"] < res_n["p_i"] / res_n["p_v"]
