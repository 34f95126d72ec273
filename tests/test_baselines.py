import numpy as np
import pytest

from rv2x.adaptation import PairTable, _c_range, solve_slots
from rv2x.baselines import HprRegion, fit_gaussian, fit_hpr
from rv2x.channel import error_law
from rv2x.errors import ConfigurationError


def _pair(model):
    """A one-pair PairTable."""
    return PairTable([model], (0.1, 10.0, 0.1, 10.0), lambda_y=20.0, delta2=0.0, gamma_v=1.0,
                     sigma2=0.0, l_v=1.0, l_cross=1.0, l_i=1.0, l_v_rsu=1.0,
                     rate_gamma=0.0, prob_req=0.95, trunc_k1=10, trunc_k2=10)


def _solve_one(pair):
    """solve_slots' decision on one slot reporting a cross fade of 0.5."""
    res = solve_slots(pair, {"g2_v_hat": np.ones(1), "g2_cross_hat": np.full(1, 0.5),
                             "g2_i": np.ones(1), "g2_v_rsu": np.ones(1)})
    return {key: val[0, 0] for key, val in res.items()}


def _fit1(fit, z, lambda_y, *args):
    """The one model that a fit returns for a one-pair probe matrix."""
    (model,) = fit(np.asarray(z)[None], np.array([lambda_y]), *args)
    return model


# --------------------------------------------------------------- gaussian fit

def test_fit_gaussian_recovers_gaussian_law():
    rng = np.random.default_rng(2718)
    e = rng.normal(0.5, 0.1, 10 ** 4)
    z = e + rng.exponential(1.0 / 50.0, size=10 ** 4)
    fit = _fit1(fit_gaussian, z, 50.0)
    assert abs(fit.mean_e - 0.5) < 4e-3   # ~4 s.e. of the mean
    assert abs(fit.var_e - 0.01) < 1.5e-3
    assert not fit.floored and fit.n == 10 ** 4


def test_fit_gaussian_moment_identities():
    rng = np.random.default_rng(123)
    z = rng.normal(0.3, 0.2, 500) + rng.exponential(1.0 / 50.0, size=500)
    fit = _fit1(fit_gaussian, z, 50.0)
    # exact post-form: nuisance moments subtracted from the sample moments
    np.testing.assert_allclose(fit.mean_e, z.mean() - 1.0 / 50.0, rtol=1e-12)
    np.testing.assert_allclose(fit.var_e, z.var(ddof=1) - 1.0 / 50.0 ** 2, rtol=1e-12)
    shifted = _fit1(fit_gaussian, z + 1.0, 50.0)
    np.testing.assert_allclose(shifted.mean_e, fit.mean_e + 1.0, rtol=1e-12)
    np.testing.assert_allclose(shifted.var_e, fit.var_e, rtol=1e-9)


def test_fit_gaussian_variance_floor():
    # pure nuisance: the error variance estimate collapses onto the floor
    rng = np.random.default_rng(5)
    z = rng.exponential(1e-3, size=10 ** 4)
    fit = _fit1(fit_gaussian, z, 1000.0)
    assert fit.floored and fit.var_e == 1e-6
    assert abs(fit.mean_e) < 4e-5


def test_fit_gaussian_mixture_absorbs_spread():
    # a bimodal law collapses to its overall mean/variance (0.5, 0.12)
    law = error_law("type1")
    rng = np.random.default_rng(77)
    z = law.sample(rng, 10 ** 4) + rng.exponential(1.0 / 50.0, size=10 ** 4)
    fit = _fit1(fit_gaussian, z, 50.0)
    assert abs(fit.mean_e - 0.5) < 0.02
    assert abs(fit.var_e - 0.12) < 0.01


def test_fit_gaussian_needs_enough_probes():
    with pytest.raises(ConfigurationError):
        _fit1(fit_gaussian, np.ones(29), 50.0)
    with pytest.raises(ConfigurationError):
        fit_gaussian(np.ones(40), 50.0)       # one pair's probes without the pair axis


# ------------------------------------------------------------------ region fit

def test_fit_hpr_hand_quantiles():
    # proxies are exactly 1..100 after the nuisance-mean shift
    samples = np.arange(1.0, 101.0) + 0.5
    region = _fit1(fit_hpr, samples, 2.0, 0.9)
    assert (region.lo, region.hi) == (5.0, 96.0)
    assert region.coverage == 0.92 and region.n == 100
    wide = _fit1(fit_hpr, samples, 2.0, 0.99)
    assert (wide.lo, wide.hi) == (1.0, 100.0)
    assert wide.coverage == 1.0


def test_fit_hpr_coverage_and_nesting():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(30, 400))
        data = rng.normal(0, 1, n) if trial % 2 else rng.integers(0, 5, n).astype(float)
        prev = None
        for p0 in (0.9, 0.95, 0.99):
            region = _fit1(fit_hpr, data, 10.0, p0)
            assert region.coverage >= p0, f"coverage {region.coverage} below {p0}"
            if prev is not None:  # higher target always widens
                assert region.lo <= prev.lo and region.hi >= prev.hi
            prev = region


def test_fit_hpr_needs_enough_probes():
    with pytest.raises(ConfigurationError):
        _fit1(fit_hpr, np.ones(29), 50.0, 0.95)
    with pytest.raises(ConfigurationError):
        fit_hpr(np.ones(40), 50.0, 0.95)      # one pair's probes without the pair axis


def test_fits_of_a_probe_matrix_equal_per_pair_fits_bit_for_bit():
    # the per-pair formulas each fit applied to one probe vector at a time,
    # over rows of different scales, a pair whose variance is floored, and
    # the transposed (T, M) layout the absorption phase stores its probes in
    rng = np.random.default_rng(31)
    t = 200
    lam = np.array([50.0, 1000.0, 0.37, 3.1e-5, 7.25])
    rows = [rng.normal(0.4, 0.2, t) + rng.exponential(1.0 / lam[0], t),
            rng.exponential(1.0 / lam[1], t),                    # pure nuisance: floored
            rng.normal(0.4, 0.2, t) + rng.exponential(1.0 / lam[2], t),
            rng.exponential(1.0 / lam[3], t),
            rng.integers(0, 5, t).astype(float)]
    probes = np.stack(rows, axis=1).T        # (M, T) rows of a (T, M) array
    gauss = fit_gaussian(probes, lam)
    regions = fit_hpr(probes, lam, 0.95)
    assert len(gauss) == len(regions) == len(rows)
    assert gauss[1].floored and not gauss[0].floored
    for z, lam_i, g, r in zip(rows, lam.tolist(), gauss, regions):
        var_raw = float(z.var(ddof=1) - 1.0 / lam_i ** 2)
        want_g = (float(z.mean() - 1.0 / lam_i), max(var_raw, 1e-6), var_raw < 1e-6, t)
        assert (g.mean_e, g.var_e, g.floored, g.n) == want_g
        proxies = z - 1.0 / lam_i
        lo = float(np.quantile(proxies, 0.025, method="lower"))
        hi = float(np.quantile(proxies, 0.975, method="higher"))
        cover = float(np.mean((proxies >= lo) & (proxies <= hi)))
        assert (r.lo, r.hi, r.coverage, r.n) == (lo, hi, cover, t)
        for got, want in zip((g.mean_e, g.var_e, r.lo, r.hi, r.coverage),
                             (want_g[0], want_g[1], lo, hi, cover)):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ------------------------------------------------------------------ allocators

def test_hpr_widening_lowers_the_budget():
    narrow = _pair(HprRegion(lo=-0.1, hi=0.4, coverage=0.96))
    wide = _pair(HprRegion(lo=-0.5, hi=0.8, coverage=0.99))
    res_n, res_w = _solve_one(narrow), _solve_one(wide)
    assert res_w["c_u"] < res_n["c_u"] <= _c_range(narrow)[2][0]
    # deployed powers move the same way: wider region, more conservative c
    assert res_w["p_i"] / res_w["p_v"] < res_n["p_i"] / res_n["p_v"]
