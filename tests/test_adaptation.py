import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from rv2x import adaptation, qosmodel
from rv2x.absorption import DeconvEstimate, estimate_pdf
from rv2x.adaptation import (AdaptationContext, PairTable, beta, c_param,
                             check_prop1_condition, ell, prop1_holds, solve_slots, u_value,
                             _bracket_root, _c_range, _prop1_lhs, _u_pick, _u_root)
from rv2x.baselines import GaussianFit, HprRegion
from rv2x.channel import error_law
from rv2x.config import SimConfig
from rv2x.errors import ConfigurationError, NonFiniteSatisfaction
from rv2x.harness import run_trial

Z12 = np.array([0.05, 0.12, 0.21, 0.33, 0.41, 0.52, 0.63, 0.74, 0.82, 0.91, 1.03, 1.18])


def _estimate(samples=Z12, lam=20.0, k=10):
    return DeconvEstimate(samples=np.asarray(samples, dtype=float), lambda_y=lam, trunc_k=k)


def _ctx(estimate, lam_y, d2=0.0, **kw):
    base = dict(estimate=estimate, lambda_y=lam_y, delta2=d2, gamma_v=1.0,
                sigma2=0.0, l_v=1.0, l_cross=1.0, l_i=1.0, l_v_rsu=1.0,
                rate_gamma=0.0, prob_req=0.95,
                box=(0.1, 10.0, 0.1, 10.0), trunc_k1=10, trunc_k2=10)
    base.update(kw)
    return AdaptationContext(**base)


def _solve_one(ctx, g2_cross_hat, g2_v_hat=1.0, g2_i=1.0, g2_v_rsu=1.0):
    """solve_slots' decision on a single slot with these reports."""
    res = solve_slots(ctx, {"g2_v_hat": np.array([g2_v_hat]),
                            "g2_cross_hat": np.array([g2_cross_hat]),
                            "g2_i": np.array([g2_i]), "g2_v_rsu": np.array([g2_v_rsu])})
    return {key: val[0] for key, val in res.items()}


def _powers(ctx, g2_cross_hat, **reports):
    """(p_v, p_i) that solve_slots deploys on one slot."""
    res = _solve_one(ctx, g2_cross_hat, **reports)
    return float(res["p_v"]), float(res["p_i"])


# ------------------------------------------------------------------ u functional

def _u_ref(c, lam, k2):
    """Independent transcription via asinh/hypot groupings."""
    w = k2 * math.pi
    s = w / lam
    root = math.hypot(c, w)
    return (math.hypot(1.0, s) - math.asinh(1.0 / s)
            + (c / lam) * math.asinh(w / c)
            + (1.0 / c) * math.log(c * w / (w + root)))


def test_u_frozen_and_transcription():
    np.testing.assert_allclose(u_value(1.0, 50.0, 10), -0.6740722806531977, rtol=1e-13)
    for c in (0.01, 0.3, 1.0, 7.0, 60.0):
        for lam in (0.5, 5.0, 34.85):
            np.testing.assert_allclose(u_value(c, lam, 10), _u_ref(c, lam, 10), rtol=1e-12)
    # log term of the budget piece equals an arc-length integral
    for c, lam in ((0.3, 5.0), (2.0, 50.0)):
        w = 10 * np.pi
        t3 = (c / lam) * np.log((w + np.hypot(c, w)) / c)
        q, _ = integrate.quad(lambda x: c / np.hypot(c, x), 0.0, w)
        np.testing.assert_allclose(t3, q / lam, rtol=1e-12)


def test_u_unit_crossings():
    frozen = {0.5: 0.05685619649520945, 5.0: 0.32664914410134444,
              20.0: 1.1419967360355958, 34.85: 6.668522083070283}
    for lam, c_star in frozen.items():
        assert abs(u_value(c_star, lam, 10) - 1.0) < 1e-10
        root = optimize.brentq(lambda c: _u_ref(c, lam, 10) - 1.0, 1e-4, 100.0,
                               xtol=1e-13, rtol=1e-14)
        np.testing.assert_allclose(root, c_star, rtol=1e-10)


def test_u_strictly_increasing_on_operating_band():
    for lam in (0.5, 5.0, 30.0):
        grid = np.geomspace(1e-2, 80.0, 1000)
        assert np.all(np.diff(u_value(grid, lam, 10)) > 0), f"u not increasing at {lam}"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(log_lam=st.floats(-5.0, math.log10(50.0)), k2=st.integers(1, 12),
       log_lo=st.floats(-6.0, 0.0), log_span=st.floats(0.5, 10.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_u_root_is_the_crossing_of_one(log_lam, k2, log_lo, log_span, seed):
    # u crosses one between about 0.05 and 3.5 lambda_y, so boxes placed
    # relative to lambda_y hold the crossing or lie wholly on either side
    lam = 10.0 ** log_lam
    c_lo = lam * math.exp(log_lo)
    ctx = _ctx(GaussianFit(mean_e=0.0, var_e=1.0), lam, box=(c_lo, c_lo * math.exp(log_span),
                                                              1.0, 1.0), trunc_k2=k2)
    c_lo, _, c_hi = _c_range(ctx)
    assume(prop1_holds(lam, k2, c_lo, c_hi))
    one = PairTable([ctx])
    root = _u_root(one)[0]
    if u_value(c_lo, lam, k2) >= 1.0:
        assert root == c_lo
    elif u_value(c_hi, lam, k2) < 1.0:
        assert root == math.inf
    else:
        assert c_lo < root <= c_hi
        assert u_value(root, lam, k2) >= 1.0 > u_value(np.nextafter(root, 0.0), lam, k2)
    # every bracket in the box picks the root clipped to it
    t = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, (2, 16)), axis=0)
    cl, cu = np.clip(c_lo * (c_hi / c_lo) ** t, c_lo, c_hi)
    lanes = one.take(np.zeros(cl.size, dtype=np.intp))
    np.testing.assert_array_equal(_u_pick(cl, cu, lanes, np.full(cl.size, root)),
                                  np.clip(root, cl, cu))


# ------------------------------------------------------------------ startup check

def test_prop1_violation_detected():
    np.testing.assert_allclose(_prop1_lhs(np.array([1e-3]), 50.0, 10),
                               [0.000160468957833805], rtol=1e-12)
    assert not prop1_holds(50.0, 10, 900.0, 1100.0)
    with pytest.raises(ConfigurationError, match="0.001"):
        check_prop1_condition(50.0, 10, [1000.0])


def test_prop1_safe_band_and_small_cutoff():
    for lam in (0.5, 5.0, 30.0):
        assert prop1_holds(lam, 10, 1e-2, 80.0)
        assert check_prop1_condition(lam, 10, np.geomspace(1e-2, 80.0, 512))
    # too small a frequency cutoff breaks the monotonicity precondition
    for k2 in (1, 2):
        assert not prop1_holds(5.0, k2, 1e-2, 80.0)


# ------------------------------------------------------------------ beta (deconv)

def _beta_oracle(c, l, estimate, k1=10):
    """Direct route: integrate the estimate against the per-slot survival factor."""
    f = lambda x: estimate_pdf(estimate, x - l)[0] * (1.0 - np.exp(-c * x))
    val, err = integrate.quad(f, 0.0, k1, limit=8000)
    assert err < 1e-7
    return 1.0 - val


def _window(l, estimate, k1=10):
    """Window the evaluator must cover: the shifted probes plus half k1 of
    clearance, never shorter than k1."""
    return max(k1, l + float(estimate.samples.max()) + 0.5 * k1)


def test_beta_matches_direct_integral():
    est = _estimate()
    cases = [(c, l) for l in (-0.2, 0.1, 0.5) for c in (0.3, 2.0, 20.0)] + [(0.05, 0.0)]
    for c, l in cases:
        _, raw = beta(c, _ctx(est, 20.0), 1.0, l, return_raw=True)
        np.testing.assert_allclose(raw, _beta_oracle(c, l, est), atol=2e-7,
                                   err_msg=f"ell={l} c={c}")


def test_beta_exact_path_matches_direct_integral():
    # probes spread two hundred apart: the window must reach the upper
    # cluster, where half the mass sits
    est = _estimate(np.concatenate([Z12, Z12 + 260.0]))
    ctx = _ctx(est, 20.0)
    for l in (-130.0, 0.1):
        for c in (0.3, 2.0, 20.0):
            _, raw = beta(c, ctx, 1.0, l, return_raw=True)
            np.testing.assert_allclose(raw, _beta_oracle(c, l, est, _window(l, est)),
                                       atol=2e-7, err_msg=f"ell={l} c={c}")
    # at ell = -130 the upper cluster sits near x = 130, where no budget
    # helps: satisfaction is the lower cluster's half of the mass
    assert abs(beta(0.3, ctx, 1.0, -130.0) - 0.5) < 1e-3


# The complex/sici form the kernel was written from: per probe, the sine
# integrals, both S2 kernels, both exponential-integral terms with their
# branch-cut jumps, and the probes summed exactly (math.fsum), so the
# reference does not round away what its own +-S2(y)/lambda terms cancel.
# ``edge``, if given, replaces every lane's ym = y - K by the points z - edge.
def _beta_exact_reference(cs, ells, z, lambda_y, k1, w_cut, edge=None):
    def e1_scaled(zeta):
        out = np.empty(zeta.shape, dtype=complex)
        big = np.abs(zeta) >= 60.0
        inv = 1.0 / zeta[big]
        s = np.full_like(inv, 40320.0)
        for a in (-5040.0, 720.0, -120.0, 24.0, -6.0, 2.0, -1.0, 1.0):
            s = s * inv + a
        out[big] = inv * s
        out[~big] = np.exp(zeta[~big]) * special.exp1(zeta[~big])
        return out

    def s2(b):
        small = np.abs(b) < 1e-9
        safe = np.where(small, 1.0, b)
        return np.where(small, 2.0 * w_cut * np.cos(w_cut * b),
                        2.0 * np.sin(w_cut * safe) / safe)

    c = np.asarray(cs, dtype=float)[:, None]
    k = np.broadcast_to(np.asarray(k1, dtype=float), c.shape[:1])[:, None]
    y = z[None, :] + np.asarray(ells, dtype=float)[:, None]
    ym = y - k if edge is None else np.broadcast_to(z - edge, y.shape)

    def m_int(b):
        zeta = -b * (c + 1j * w_cut)
        base = -2.0 * np.imag(np.exp(1j * b * w_cut)
                              * e1_scaled(np.where(zeta == 0, 1.0, zeta)))
        with np.errstate(over="ignore"):
            jump = np.where(b > 0, 2.0 * np.pi * np.exp(-c * np.maximum(b, 0.0)), 0.0)
        return np.where(np.abs(b) < 1e-12, 2.0 * np.arctan(w_cut / c), base + jump)

    decay = np.exp(-c * k)
    w = 1.0 + c / lambda_y
    # p1 = 2 (Si(Wy) - Si(Wym)) - (S2(y) - S2(ym)) / lambda
    # p2 = w (decay M(ym) - M(y)) - (decay S2(ym) - S2(y)) / lambda
    terms = [2.0 * special.sici(w_cut * y)[0], -2.0 * special.sici(w_cut * ym)[0],
             -s2(y) / lambda_y, s2(ym) / lambda_y,
             w * decay * m_int(ym), -w * m_int(y),
             -decay * s2(ym) / lambda_y, s2(y) / lambda_y]
    terms = np.stack([np.broadcast_to(t, y.shape) for t in terms], axis=-1)
    beta = np.array([1.0 - math.fsum(row.ravel()) / (2.0 * np.pi * z.size) for row in terms])
    # the size float64 carries the rest of the terms to, without the
    # +-S2(y)/lambda pair that cancels exactly
    return beta, np.abs(terms[..., [0, 1, 3, 4, 5, 6]]).max(axis=(1, 2))


_W10 = 10 * np.pi
_EDGE = 60.0 / _W10     # |W b| = 60: the kernel's near/far boundary


def _kernel(cs, ells, z, lam, k1, w_cut, **kw):
    """``_beta_exact`` on lanes that all query one pair with probes ``z``."""
    return adaptation._beta_exact(cs, ells, np.asarray(z, dtype=float)[None],
                                  np.zeros(len(cs), dtype=np.intp), lam, k1, w_cut, **kw)


def _deconv(cs, ells, z, lam, k1, k2):
    """``_beta_batch_deconv`` on queries that all ask one pair with probes ``z``."""
    return adaptation._beta_batch_deconv(cs, ells, np.asarray(z, dtype=float)[None],
                                         np.zeros(len(cs), dtype=np.intp), lam, k1, k2)


def _assert_within_reference_tolerance(got, want, scale, msg=""):
    # float64 carries a per-probe term of size S to about 1e-16 S, in the
    # reference as in the kernel: 1e-12 holds until S passes 1e5, which only
    # lambda_y = 1e-5 lanes with probes near b = 0 reach
    tol = np.maximum(1e-12, 1e-17 * scale)
    bad = np.abs(got - want) > tol
    assert not bad.any(), (f"{msg} lanes {np.flatnonzero(bad)}: {got[bad]} vs {want[bad]} "
                           f"(tol {tol[bad]})")


def _assert_kernel_matches_reference(cs, ells, z, lam, k1, w_cut, msg=""):
    got = _kernel(cs, ells, z, lam, k1, w_cut)
    want, scale = _beta_exact_reference(cs, ells, z, lam, k1, w_cut)
    _assert_within_reference_tolerance(got, want, scale, msg)
    return scale


def _assert_window_lanes_match_reference(cs, ells, z, lam, k2, msg="", k1=10):
    # a lane whose window is ell + z_hi + k1/2 gets from _beta_batch_deconv
    # the shared edge points z - (z_hi + k1/2), rounded once, and the
    # reference gets the same points; a lane at the minimum window K = k1
    # keeps ym = y - K in both.  Fed (z + ell) - K on every lane, rounded
    # twice, one lambda_y = 1e-5 lane of the random case below differs by
    # 1.9e-12, about twice the tolerance, while the kernel of the two-rounding
    # points matches that reference there: the gap is beta's sensitivity to
    # an ulp of K through the large S2(ym) weight, not a loss of accuracy.
    z_hi = float(z.max())
    window = adaptation._beta_window(ells, z_hi, k1)
    clear = window > k1
    got = _deconv(cs, ells, z, lam, k1, k2)
    own, own_scale = _beta_exact_reference(cs, ells, z, lam, window, k2 * np.pi)
    edge, edge_scale = _beta_exact_reference(cs, ells, z, lam, window, k2 * np.pi,
                                             edge=z_hi + 0.5 * k1)
    scale = np.where(clear, edge_scale, own_scale)
    _assert_within_reference_tolerance(got, np.where(clear, edge, own), scale, msg)
    return clear, scale


def test_beta_kernel_matches_complex_form_reference():
    rng = np.random.default_rng(5)
    e = rng.normal(0.0, 1.0, 60)
    # probes on both sides of |W b| = 60, at b = 0 and |b| < 1e-12, and the
    # largest spread the benchmark's estimates reach
    extra = np.concatenate([_EDGE * np.array([1.0 + 1e-9, 1.0 - 1e-9, -1.0 - 1e-9,
                                              -1.0 + 1e-9, 2.0, 0.5]),
                            [-0.5, 0.0, 3e-13, -4e-13, 5e5, -5e5]])
    ells = np.array([0.0, 7.0, -0.3, 0.5,  # ell = 0.5 puts a probe at y = 0 exactly
                     0.0,                  # ym = y - 2 EDGE straddles -EDGE
                     -5e5 + 2.0])          # top probe at y = 2 and ym in (0, 1e-12)
    y_top, k_top = 5e5 + ells[-1], 2.0 - 5e-13
    assert y_top == 2.0 and 0.0 < y_top - k_top < 1e-12
    strict = 0
    for lam in (1e-5, 1e-3, 0.1, 1.0, 50.0):
        z = np.concatenate([e + rng.exponential(1.0 / lam, e.size), extra])
        k1 = np.maximum(10.0, ells + z.max() + 5.0)
        k1[-2:] = 2.0 * _EDGE, k_top
        for c in (1e-3, 0.1, 10.0, 1e3):
            scale = _assert_kernel_matches_reference(np.full(ells.size, c), ells, z, lam, k1,
                                                     _W10, f"lambda_y={lam} c={c}")
            strict += int(np.sum(scale <= 1e5))
    assert strict >= 0.75 * 5 * 4 * ells.size


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(n_probes=st.integers(12, 300), mean_e=st.floats(-2.0, 1.0),
       spread=st.floats(0.01, 2.0), log_lam=st.floats(-5.0, math.log10(50.0)),
       log_c=st.floats(-3.0, 3.0), ell=st.floats(-2.0, 8.0),
       k2=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_beta_kernel_matches_reference_on_random_lanes(n_probes, mean_e, spread, log_lam,
                                                      log_c, ell, k2, seed):
    rng = np.random.default_rng(seed)
    lam = 10.0 ** log_lam
    w_cut = k2 * np.pi
    z = rng.normal(mean_e, spread, n_probes) + rng.exponential(1.0 / lam, n_probes)
    # probes at y on both sides of this cutoff's near/far boundary
    z[:4] = 60.0 / w_cut * np.array([1.0 + 1e-12, 1.0 - 1e-12, 1.5, 0.75]) - ell
    cs = 10.0 ** (log_c + np.array([-0.5, 0.0, 0.5]))
    ells = ell + np.array([0.0, 0.25, -0.25])
    k1 = np.maximum(10.0, ells + z.max() + 5.0)
    _assert_kernel_matches_reference(cs, ells, z, lam, k1, w_cut)


def test_beta_kernel_lanes_do_not_depend_on_their_batch():
    # lanes go through workspace blocks: a lane must not read what another
    # lane or an earlier block left there, so 2 blocks + 1 lane evaluated
    # together, one by one and reversed agree to the bit
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(0.3, 1.0, 200) + rng.exponential(0.5, 200),
                        [0.0, _EDGE, -_EDGE, 4e5]])
    rows = adaptation._BLOCK // z.size
    n = 2 * rows + 1
    cs = 10.0 ** rng.uniform(-3.0, 3.0, n)
    ells = rng.uniform(-1.0, 6.0, n)
    k1 = np.maximum(10.0, ells + z.max() + 5.0)
    batch = _kernel(cs, ells, z, 0.7, k1, _W10)
    single = np.array([_kernel(cs[i:i + 1], ells[i:i + 1], z, 0.7, k1[i:i + 1], _W10)[0]
                       for i in range(n)])
    rev = _kernel(cs[::-1].copy(), ells[::-1].copy(), z, 0.7, k1[::-1].copy(), _W10)[::-1]
    assert np.isfinite(batch).all()
    assert np.array_equal(batch, single)
    assert np.array_equal(batch, rev)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(k2=st.integers(1, 12), z=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
       shifts=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
       log_reach=st.floats(-3.0, 8.0))
@example(k2=10, z=[0.0, 0.3, -1.0], shifts=[0.0, 1.0, -0.5], log_reach=8.0)
def test_shifted_columns_match_libm(k2, z, shifts, log_reach):
    # probes z and per-row shifts s scaled so that the phases p = fl(W (z + s))
    # reach 10**log_reach of either sign, up to 1e8; the compensated columns
    # rotated by c = fl(W s) are libm's cos p and sin p, and where s = 0 or
    # z = 0 the residual d is 0 exactly and the columns are cos a and sin a
    w_cut = k2 * np.pi
    reach = 10.0 ** log_reach / (2.0 * w_cut)
    z = reach * np.array(z)
    s = reach * np.array(shifts)
    a = w_cut * z
    p = w_cut * (z + s[:, None])
    c = w_cut * s
    assert np.abs(p).max() <= 1.000001e8
    out, scratch = np.empty((2,) + p.shape), np.empty((3,) + p.shape)
    adaptation._shifted_columns(p, c[:, None], a, np.cos(a), np.sin(a), out, scratch)
    cos_c, sin_c = np.cos(c)[:, None], np.sin(c)[:, None]
    tol = 4.0 * np.finfo(float).eps
    np.testing.assert_allclose(out[0] * cos_c - out[1] * sin_c, np.cos(p), rtol=0.0, atol=tol)
    np.testing.assert_allclose(out[1] * cos_c + out[0] * sin_c, np.sin(p), rtol=0.0, atol=tol)
    exact = (s[:, None] == 0.0) | (z[None, :] == 0.0)
    assert (scratch[0][exact] == 0.0).all()
    assert np.array_equal(out[0][exact], np.broadcast_to(np.cos(a), p.shape)[exact])
    assert np.array_equal(out[1][exact], np.broadcast_to(np.sin(a), p.shape)[exact])


def test_beta_kernel_takes_sin_and_cos_once_per_probe_and_shift(monkeypatch):
    # a call takes cos and sin of every probe's phase W z once, of each
    # lane's two shifts and of its near points: O(probes + lanes) elements,
    # not cos and sin of every point of every lane
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(0.3, 30.0, 200) + rng.exponential(0.5, 200),
                        [0.0, _EDGE, -_EDGE, 4e5]])
    n = 2 * (adaptation._BLOCK // z.size) + 1
    cs = 10.0 ** rng.uniform(-3.0, 3.0, n)
    ells = rng.uniform(-1.0, 6.0, n)
    k1 = np.maximum(10.0, ells + z.max() + 5.0)
    y = z + ells[:, None]
    near = int(np.sum(np.abs(_W10 * y) < 60.0) + np.sum(np.abs(_W10 * (y - k1[:, None])) < 60.0))
    counts = {"sin": 0, "cos": 0}

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def sin(self, x, *args, **kwargs):
            counts["sin"] += np.size(x)
            return np.sin(x, *args, **kwargs)

        def cos(self, x, *args, **kwargs):
            counts["cos"] += np.size(x)
            return np.cos(x, *args, **kwargs)

    monkeypatch.setattr(adaptation, "np", CountingNumpy())
    got = _kernel(cs, ells, z, 0.7, k1, _W10)
    monkeypatch.undo()
    assert np.array_equal(got, _kernel(cs, ells, z, 0.7, k1, _W10))
    bound = z.size + 2 * n + near
    assert 0 < near and bound < n * z.size
    for name, count in counts.items():
        assert count <= bound, (name, count, bound)


def test_beta_shared_edge_matches_complex_form_reference():
    rng = np.random.default_rng(7)
    e = rng.normal(0.0, 1.0, 60)
    # probes on both sides of |W b| = 60 around y = 0
    extra = _EDGE * np.array([1.0 + 1e-9, 1.0 - 1e-9, -1.0 - 1e-9, -1.0 + 1e-9, 0.5])
    strict = lanes = 0
    for lam in (1e-5, 1e-3, 0.1, 1.0, 50.0):
        z = e + rng.exponential(1.0 / lam, e.size)
        # a dyadic top probe, so its edge point z_hi - (z_hi + 5) is -5 exactly
        z_hi = math.ceil(z.max()) + 0.5
        z = np.concatenate([z, extra, [z_hi - 6.0, z_hi]])
        assert z_hi - (z_hi + 5.0) == -5.0
        # two lanes at the minimum window, then clearance from just above it
        # to far beyond it; the fourth lane puts the probe z_hi - 6 at y = 0
        ells = np.array([0.0, 4.0, 5.25, 6.0, 12.0, 40.0]) - z_hi
        for k2 in (1, 2, 10):      # edge points near |W b| < 60 at k2 = 1 and 2
            for c in (1e-3, 0.1, 10.0, 1e3):
                clear, scale = _assert_window_lanes_match_reference(
                    np.full(ells.size, c), ells, z, lam, k2, f"lambda_y={lam} k2={k2} c={c}")
                assert clear.sum() == 4
                strict += int(np.sum(scale <= 1e5))
                lanes += ells.size
    assert strict >= 0.75 * lanes


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(n_probes=st.integers(12, 300), mean_e=st.floats(-2.0, 1.0),
       spread=st.floats(0.01, 2.0), log_lam=st.floats(-5.0, math.log10(50.0)),
       log_c=st.floats(-3.0, 3.0), clearance=st.floats(-8.0, 8.0),
       k2=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_beta_shared_edge_matches_reference_on_random_lanes(n_probes, mean_e, spread,
                                                           log_lam, log_c, clearance, k2,
                                                           seed):
    rng = np.random.default_rng(seed)
    lam = 10.0 ** log_lam
    z = rng.normal(mean_e, spread, n_probes) + rng.exponential(1.0 / lam, n_probes)
    cs = 10.0 ** (log_c + np.array([-0.5, 0.0, 0.5]))
    # windows ell + z_hi + 5 that pass the minimum (or fall short of it) by
    # the clearance and more
    ells = 5.0 - float(z.max()) + clearance * np.array([1.0, 2.0, 4.0])
    _assert_window_lanes_match_reference(cs, ells, z, lam, k2)


@pytest.mark.parametrize("lam", [1.3e-5, 4.1e-5])
def test_beta_kernel_matches_reference_at_default_scale(lam):
    # lambda_y at the default fixture's minimum and median, the top probe at
    # 5.4e5 as in trial 0, so phases reach 1.7e7 and, with the knees its
    # solver queries at tiny budgets, 2.8e8; lanes at the minimum window
    # (knees below 5 - z_hi) and lanes whose window takes the clearance
    rng = np.random.default_rng(19)
    z = np.concatenate([rng.normal(0.0, 0.5, 300) + rng.exponential(1.0 / lam, 300),
                        [5.4e5, 0.0, _EDGE]])
    z_hi = float(z.max())
    own = np.array([-9e6, -4.4e6, -z_hi - 1e3, -z_hi - 0.5, -z_hi + 2.0, -z_hi + 5.0])
    clear = np.array([-2.6e4, -30.0, 0.0, 0.5, 1.1, 4.5])
    ells = np.concatenate([own, clear])
    cs = np.tile([5e-7, 7e-6, 1e-3, 0.1, 0.3, 2.7], 2)
    k1 = np.maximum(10.0, ells + z_hi + 5.0)
    _assert_kernel_matches_reference(cs, ells, z, lam, k1, _W10, f"lambda_y={lam}")
    shared, _ = _assert_window_lanes_match_reference(cs, ells, z, lam, 10, f"lambda_y={lam}")
    assert np.array_equal(shared, np.arange(ells.size) >= own.size)


def test_beta_batch_lanes_do_not_depend_on_their_batch():
    # shared-edge and own-edge lanes go through workspace blocks of their
    # own: with more than one block of each, and edge points near enough for
    # the exact path at k2 = 2, every lane agrees to the bit evaluated
    # together, one by one and reversed
    rng = np.random.default_rng(13)
    z = np.concatenate([rng.normal(0.3, 1.0, 200) + rng.exponential(0.5, 200),
                        [0.0, _EDGE, -_EDGE]])
    rows = adaptation._BLOCK // z.size
    n = 4 * rows + 3
    cs = 10.0 ** rng.uniform(-3.0, 3.0, n)
    ells = rng.uniform(-3.0, 3.0, n) + 5.0 - z.max()
    clear = adaptation._beta_window(ells, z.max(), 10) > 10
    assert clear.sum() > rows + 1 and (~clear).sum() > rows + 1

    def run(idx):
        return _deconv(cs[idx], ells[idx], z, 0.7, 10, 2)

    batch = run(np.arange(n))
    single = np.array([run([i])[0] for i in range(n)])
    rev = run(np.arange(n)[::-1])[::-1]
    assert np.isfinite(batch).all()
    assert np.array_equal(batch, single)
    assert np.array_equal(batch, rev)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(n_pairs=st.integers(2, 4), n_probes=st.integers(100, 400), per_pair=st.integers(3, 12),
       k2=st.sampled_from([2, 10]), seed=st.integers(0, 2 ** 32 - 1))
@example(n_pairs=3, n_probes=300, per_pair=12, k2=2, seed=1)
def test_beta_kernel_pairs_in_one_call_match_calls_per_pair(n_pairs, n_probes, per_pair, k2,
                                                           seed):
    # lanes of 2-4 pairs, each pair with its own probes, lambda_y and edge,
    # agree to the bit in one call and in a call per pair: shared-edge and
    # own-edge lanes, in workspace blocks that mix pairs, with near points
    # in every half at k2 = 2 (|b| < 9.5) and in y at k2 = 10
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(-4.0, 1.5, n_pairs)
    z = rng.normal(0.0, 1.0, (n_pairs, n_probes)) + rng.exponential(
        1.0 / np.maximum(lam, 0.2)[:, None], (n_pairs, n_probes))
    pair = rng.permutation(np.repeat(np.arange(n_pairs), per_pair))
    z_hi = z.max(axis=1)
    k1 = 10.0
    # every other lane of a pair takes the minimum window, the rest the clearance
    above = np.arange(pair.size) % 2 == 0
    ells = 0.5 * k1 - z_hi[pair] + np.where(above, rng.uniform(0.1, 3.0, pair.size),
                                            -rng.uniform(1.0, 3.0, pair.size))
    window = adaptation._beta_window(ells, z_hi[pair], k1)
    shared, edge = window > k1, z_hi + 0.5 * k1
    assert np.array_equal(shared, above)
    cs = 10.0 ** rng.uniform(-3.0, 2.0, pair.size)
    w_cut = k2 * np.pi
    got = adaptation._beta_exact(cs, ells, z, pair, lam[pair], window, w_cut, shared=shared,
                                 edge=edge)
    assert np.isfinite(got).all()
    for p in range(n_pairs):
        k = np.flatnonzero(pair == p)
        want = _kernel(cs[k], ells[k], z[p], lam[p], window[k], w_cut, shared=shared[k],
                       edge=edge[p])
        assert got[k].tobytes() == want.tobytes(), f"pair {p}"
    if k2 == 2:
        y = z[pair] + ells[:, None]
        assert np.any(np.abs(w_cut * y) < 60.0)
        assert np.any(np.abs(w_cut * (y - k1))[~shared] < 60.0)
        assert np.any(np.abs(w_cut * (z - edge[:, None])) < 60.0)


def test_beta_kernel_takes_near_points_in_few_calls(monkeypatch):
    # the near points of all blocks of a call are evaluated together, in
    # calls of at most _BLOCK / 2 points (each point takes E1 at two
    # arguments), not in a call per block of lanes: probes spread over
    # hundreds of units leave each lane a few near points, probes within a
    # few units of zero hundreds
    rng = np.random.default_rng(11)
    step = adaptation._BLOCK // 2
    sizes = []
    real = adaptation._near_terms

    def spy(b, *args):
        sizes.append(b.size)
        return real(b, *args)

    monkeypatch.setattr(adaptation, "_near_terms", spy)
    for spread, blocks in ((200.0, 4), (0.5, 6)):
        z = np.concatenate([rng.normal(0.3, 1.0, 200) + rng.exponential(spread, 200),
                            [0.0, _EDGE, -_EDGE, 4e5]])
        n = blocks * (adaptation._BLOCK // z.size) + 1
        cs = 10.0 ** rng.uniform(-3.0, 3.0, n)
        ells = rng.uniform(-1.0, 1.0, n)
        k1 = np.maximum(10.0, ells + z.max() + 5.0)
        sizes.clear()
        _kernel(cs, ells, z, 0.7, k1, _W10)
        near = int(np.sum(np.abs(_W10 * (z + ells[:, None])) < 60.0))
        assert sum(sizes) == near > 0
        assert len(sizes) <= math.ceil(near / step)
        assert max(sizes) <= step
    assert len(sizes) > 1


def test_beta_window_keeps_the_interference_tail():
    # a fixed window [0, k1] lost the probes once ell + z passed k1, and the
    # estimate climbed to 1 as interference grew
    ells = np.linspace(0.5, 12.0, 461)
    raw = beta(2.0, _ctx(_estimate(), 20.0), 1.0, ells, return_raw=True)[1]
    # no rise beyond the kernel's tail ripple
    assert np.max(raw - np.minimum.accumulate(raw)) <= 2e-3
    assert np.all(raw[ells >= 8.0] <= 0.01)


def test_beta_tracks_true_law():
    law = error_law("type1")
    rng = np.random.default_rng(31)
    z = law.sample(rng, 2000) + rng.exponential(1.0 / 20.0, size=2000)
    est = _estimate(z)
    ctx = _ctx(est, 20.0)

    def beta_true(c):
        f = lambda e: law.pdf(e) * np.exp(-c * max(e, 0.0))
        return integrate.quad(f, -6.0, 6.0, limit=400)[0]

    for c in (0.5, 2.0, 8.0):
        assert abs(beta(c, ctx, 1.0, 0.0) - beta_true(c)) < 0.04


def test_beta_limits_and_clamp():
    est = _estimate()
    ctx = _ctx(est, 20.0)
    assert abs(beta(1e-10, ctx, 1.0, 0.0) - 1.0) < 1e-6
    assert beta(1e5, ctx, 1.0, 0.0) < 0.05
    clamped, raw = beta(20.0, ctx, 1.0, 0.5, return_raw=True)
    assert raw < 0.0 and clamped == 0.0
    sweep = beta(np.geomspace(1e-3, 1e3, 50), ctx, 1.0, 0.0)
    assert np.all((sweep >= 0.0) & (sweep <= 1.0))


def test_beta_non_finite_satisfaction_surfaces():
    bad = _estimate([0.5, np.nan])
    with pytest.raises(NonFiniteSatisfaction):
        beta(1.0, _ctx(bad, 20.0), 1.0, 0.0)


# ------------------------------------------------------------------ E1 and Si

_EPS = np.finfo(float).eps


def _e1_grid():
    """Log-radius by angle grid on |zeta| < 60 over the closed first quadrant
    and the third quadrant approached from below the negative real axis, as
    zeta = -b (c + iW) reaches them, plus points on both sides of the
    series/continued-fraction switch |zeta| + Re zeta = 3 and just below
    the near/far switch |zeta| = 60."""
    r = np.geomspace(1e-6, 59.99, 90)
    th = np.concatenate([np.linspace(0.0, 0.5 * np.pi, 31),
                         -np.pi + np.geomspace(1e-12, 0.3, 12),
                         np.linspace(-np.pi + 0.35, -0.5 * np.pi, 20)])
    zeta = (r[:, None] * np.exp(1j * th[None, :])).ravel()
    # exact axes: the positive real and imaginary axes and the negative imaginary one
    zeta = np.concatenate([zeta, r + 0j, 1j * r, -1j * r])
    switch = []
    for a in np.geomspace(1.5001, 59.9, 40):
        for reach in (3.0 * (1.0 - 1e-12), 3.0 * (1.0 + 1e-12)):
            re = reach - a
            im = math.sqrt(a * a - re * re)
            switch += [complex(re, im)] if re >= 0.0 else [complex(re, im), complex(re, -im)]
    edge = 59.999999 * np.exp(1j * np.array([0.0, 0.3, 1.2, 0.5 * np.pi, -np.pi + 1e-9,
                                             -2.5, -0.5 * np.pi]))
    return np.concatenate([zeta, switch, edge])


def test_e1_scaled_matches_scipy_on_both_quadrants():
    zeta = _e1_grid()
    assert np.abs(zeta).max() < 60.0
    reach = np.abs(zeta) + zeta.real
    assert (reach <= 3.0).sum() > 500 and (reach > 3.0).sum() > 500
    got = adaptation._e1_scaled(zeta)
    want = np.exp(zeta) * special.exp1(zeta)
    # scipy's exp1 sums its power series where |zeta| <= 5, or Re zeta <
    # -2 |Im zeta| and |zeta| < 40; there it cancels like e^(|zeta| + Re
    # zeta), up to 1e-12 on this grid against 40-digit values, while this
    # kernel stays under 3e-15.  Elsewhere it takes its continued fraction.
    scipy_series = (np.abs(zeta) <= 5.0) | ((zeta.real < -2.0 * np.abs(zeta.imag))
                                            & (np.abs(zeta) < 40.0))
    tol = 1e-14 + np.where(scipy_series, 4.0 * _EPS * np.exp(reach), 0.0)
    err = np.abs(got - want) / np.abs(want)
    bad = err > tol
    assert not bad.any(), f"{zeta[bad][:5]}: rel err {err[bad][:5]} (tol {tol[bad][:5]})"
    assert err[~scipy_series].max() < 1e-14


def test_e1_term_counts_reach_long_references():
    # where scipy's exp1 is too coarse to tell, the truncations are checked
    # against themselves: the continued fraction at its level count against
    # 400 levels, the power series at its term count against 250 terms
    zeta = _e1_grid()
    reach = np.abs(zeta) + zeta.real
    frac = reach > 3.0
    z = zeta[frac]
    t = z + 801.0
    for k in range(400, 0, -1):
        t = z + (2.0 * k - 1.0) - k * k / t
    np.testing.assert_allclose(adaptation._e1_fraction(z, reach[frac]), 1.0 / t, rtol=1e-15)
    z = zeta[~frac]
    s = np.zeros_like(z)
    for k in range(250, 0, -1):
        s = s * z + (-1) ** k / (k * math.factorial(k))
    np.testing.assert_allclose(adaptation._e1_series(z),
                               np.exp(z) * (-np.euler_gamma - np.log(z) - s * z), rtol=1e-15)


def test_e1_scaled_points_do_not_depend_on_their_call():
    # each point's term count is its own, and levels shared by fewer points
    # run on shorter prefixes: together, one by one and in chunks of 7 the
    # values agree to the bit, far points included
    zeta = np.concatenate([_e1_grid()[::7], [60.0 + 1j, -70.0 - 1e-3j, 65j]])
    together = adaptation._e1_scaled(zeta)
    single = np.array([adaptation._e1_scaled(zeta[i:i + 1])[0] for i in range(zeta.size)])
    chunks = np.concatenate([adaptation._e1_scaled(zeta[i:i + 7])
                             for i in range(0, zeta.size, 7)])
    assert np.array_equal(together, single)
    assert np.array_equal(together, chunks)


def test_near_si_matches_scipy_sici():
    # with weight 0 the y term of a near point is 2 Si(W b) alone
    w_cut = _W10
    x = np.concatenate([np.geomspace(1e-300, 59.99, 600), [1e-13, 5e-13, 1.5, 3.0, 3.0001]])
    b = np.concatenate([x, -x, [0.0]]) / w_cut
    si = 0.5 * adaptation._near_terms(b, 0, np.full(b.size, 0.3), 0.0, 0.0, w_cut)
    want = special.sici(w_cut * b)[0]
    # Si = pi/2 + Im E1(ix) is good to a few ulp of pi/2, absolute; below
    # |x| = 1e-12 that is all of Si(x) ~ x
    np.testing.assert_allclose(si, want, rtol=1e-15, atol=1e-15)
    assert si[-1] == 0.0
    n = x.size
    assert np.array_equal(si[n:2 * n], -si[:n])


# ------------------------------------------------------------------ beta (gaussian)

def test_beta_gaussian_closed_form():
    fit = GaussianFit(mean_e=0.5, var_e=0.01)
    ctx = _ctx(fit, 20.0)
    np.testing.assert_allclose(beta(3.0, ctx, 1.0, -0.4, return_raw=True)[1],
                               0.7460701258779614, rtol=1e-12)

    def oracle(c, l, mu, s2):
        s = math.sqrt(s2)
        f = lambda e: (np.exp(-0.5 * (e - mu) ** 2 / s2) / np.sqrt(2 * np.pi * s2)
                       * np.exp(-c * max(e + l, 0.0)))
        return integrate.quad(f, mu - 12 * s, mu + 12 * s, points=[-l], limit=400)[0]

    for c in (0.5, 3.0, 25.0):
        _, raw = beta(c, ctx, 1.0, -0.4, return_raw=True)
        np.testing.assert_allclose(raw, oracle(c, -0.4, 0.5, 0.01), rtol=1e-9)


def _erfc_tail(z):
    """erfc(z) for z >= 0 from scipy's erfcx, with exp(-z^2) of an exactly
    split z^2 = zh^2 + (2 zh zl + zl^2): scipy's own erfc forms exp(-z^2)
    from a rounded z^2 and is off by up to z^2 eps relative, 5.6e-14 at
    z = 26 against 50-digit values."""
    big = z * 134217729.0
    zh = big - (big - z)
    zl = z - zh
    with np.errstate(under="ignore"):
        return special.erfcx(z) * np.exp(-zh * zh) * np.exp(-(2.0 * zh * zl + zl * zl))


def test_ndtr_and_log_ndtr_match_scipy():
    x = np.concatenate([-np.geomspace(1e4, 1e-300, 700), [0.0], np.geomspace(1e-300, 40.0, 700)])
    # each branch switch, its neighbours, and the infinities
    switch = [-1.0, -37.0, -37.5]
    x = np.concatenate([x, switch, np.nextafter(switch, -np.inf), np.nextafter(switch, np.inf),
                        [-np.inf, np.inf]])
    z = -np.sqrt(0.5) * x
    with np.errstate(invalid="ignore"):
        ndtr_ref = np.where(x < -1.0, 0.5 * _erfc_tail(z), special.ndtr(x))
        q = 0.5 * _erfc_tail(np.sqrt(0.5) * x)
        log_ref = np.where(x < 5.0, special.log_ndtr(x), np.log1p(-q))
    ndtr_ref[x == -np.inf], log_ref[x == np.inf] = 0.0, 0.0
    # below x = -37.5 Phi is subnormal or zero and carries no relative precision
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(qosmodel._ndtr(x), ndtr_ref, rtol=1e-14, atol=tiny)
    np.testing.assert_allclose(qosmodel._log_ndtr(x), log_ref, rtol=1e-14, atol=tiny)
    assert qosmodel._ndtr([-np.inf, np.inf]).tolist() == [0.0, 1.0]
    assert qosmodel._log_ndtr([-np.inf, np.inf]).tolist() == [-np.inf, 0.0]


def test_beta_gaussian_deep_tail():
    # at c = 500..5000 the log_ndtr argument lies far below -40, where erfc
    # underflows: log Phi's asymptotic series there cancels against c^2 s2/2
    fit = GaussianFit(mean_e=0.5, var_e=0.01)
    cs = np.array([500.0, 2000.0, 5000.0])
    ells = np.full(cs.size, -0.4)
    mu, s2 = fit.mean_e, fit.var_e
    s = math.sqrt(s2)
    arg = -(-ells - mu + cs * s2) / s
    assert np.all(arg < -40.0)
    expo = -cs * (ells + mu) + 0.5 * cs * cs * s2 + special.log_ndtr(arg)
    want = special.ndtr((-ells - mu) / s) + np.exp(np.minimum(expo, 0.0))
    np.testing.assert_allclose(adaptation._beta_batch_gaussian(cs, ells, mu, s2), want,
                               rtol=1e-12)


def test_beta_rejects_region_and_unknown_models():
    with pytest.raises(ConfigurationError):
        beta(1.0, _ctx(HprRegion(lo=-0.1, hi=0.4, coverage=0.96), 20.0), 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        beta(1.0, _ctx(types.SimpleNamespace(), 20.0), 1.0, 0.0)


@pytest.mark.parametrize("model", [_estimate(), GaussianFit(mean_e=0.5, var_e=0.01)],
                         ids=["deconv", "gaussian"])
def test_beta_over_slot_arrays_matches_scalar_calls(model):
    # the Gaussian knee carries the noise term, which depends on c
    ctx = _ctx(model, 20.0, d2=0.4256, sigma2=0.05)
    rng = np.random.default_rng(17)
    cs = 10.0 ** rng.uniform(-2.0, 1.0, 9)
    g2_v_hat, g2_cross_hat = rng.exponential(1.0, 9), rng.exponential(1.0, 9)
    clamped, raw = beta(cs, ctx, g2_v_hat, g2_cross_hat, return_raw=True)
    one = [beta(float(c), ctx, float(v), float(x), return_raw=True)
           for c, v, x in zip(cs, g2_v_hat, g2_cross_hat)]
    assert all(isinstance(b, float) and isinstance(r, float) for b, r in one)
    assert isinstance(beta(float(cs[0]), ctx, 1.0, 0.5), float)
    np.testing.assert_array_equal(clamped, [b for b, _ in one])
    np.testing.assert_array_equal(raw, [r for _, r in one])
    # a budget broadcasts against the reports, and reports against budgets
    np.testing.assert_array_equal(beta(cs[4], ctx, g2_v_hat, g2_cross_hat),
                                  beta(np.full(9, cs[4]), ctx, g2_v_hat, g2_cross_hat))
    grid = beta(cs[:, None], ctx, g2_v_hat[:3], g2_cross_hat[:3])
    assert grid.shape == (9, 3)
    np.testing.assert_array_equal(grid[:, 1], beta(cs, ctx, g2_v_hat[1], g2_cross_hat[1]))
    with pytest.raises(ConfigurationError):
        beta(cs, dataclasses.replace(ctx, estimate=HprRegion(lo=-0.1, hi=0.4, coverage=0.96)),
             g2_v_hat, g2_cross_hat)


# ------------------------------------------------------------------ c mapping

def test_c_param_scaling_and_ell():
    ctx = _ctx(_estimate(), 20.0, d2=0.4256, gamma_v=0.0767, l_cross=3e-9, l_v=2e-7)
    base = c_param(20.0, 100.0, ctx)
    np.testing.assert_allclose(c_param(40.0, 100.0, ctx), 2.0 * base, rtol=1e-12)
    np.testing.assert_allclose(c_param(20.0, 50.0, ctx), 2.0 * base, rtol=1e-12)
    want = 0.0767 * 20.0 * 3e-9 / (100.0 * 2e-7 * (1.0 - 0.4256))
    np.testing.assert_allclose(base, want, rtol=1e-12)
    lo, _, hi = _c_range(ctx)
    assert lo < hi
    np.testing.assert_allclose(lo, c_param(ctx.box[0], ctx.box[3], ctx), rtol=1e-12)
    np.testing.assert_allclose(hi, c_param(ctx.box[1], ctx.box[2], ctx), rtol=1e-12)
    # knee: reported cross fade minus the aged sidelink correction
    np.testing.assert_allclose(ell(2.0, ctx, 1.0, 0.7),
                               0.7 - (1.0 / 2.0) * 0.4256 / (1.0 - 0.4256), rtol=1e-12)
    assert ell(2.0, _ctx(_estimate(), 20.0), 1.0, 0.7) == 0.7


def test_box_corners_come_from_c_param():
    # on this context another rounding of the corners puts c_hi one ulp off
    ctx = _ctx(_estimate(), 20.0, d2=0.4256, gamma_v=0.0767, l_cross=3e-9, l_v=2e-7)
    pi_min, pi_max, pv_min, pv_max = ctx.box
    assert _c_range(ctx) == (c_param(pi_min, pv_max, ctx), c_param(pi_max, pv_max, ctx),
                             c_param(pi_max, pv_min, ctx))


def test_context_validates_aging():
    for bad in (1.0, 1.2, -0.05):
        with pytest.raises(ConfigurationError):
            _ctx(_estimate(), 20.0, d2=bad)


# ------------------------------------------------------------------ the solver

def _neg_mass_estimate(lam_y, rng):
    # all estimate mass below the window: satisfaction stays ~1 at any budget
    z = rng.normal(-3.0, 0.2, 400) + rng.exponential(1.0 / lam_y, size=400)
    return _estimate(z, lam=lam_y)


def test_bracket_root_matches_brentq_lane_by_lane():
    # decreasing curves with flat shoulders, like satisfaction against log c
    rng = np.random.default_rng(5)
    n = 40
    root = rng.uniform(-2.0, 2.0, n)
    slope = 10.0 ** rng.uniform(-0.5, 1.5, n)
    g = lambda x, k: 0.05 - 1.0 / (1.0 + 19.0 * np.exp(-slope[k] * (x - root[k])))
    a, b = np.full(n, -3.0), np.full(n, 3.0)
    lanes = np.arange(n)
    x, fx = _bracket_root(g, a, b, g(a, lanes), g(b, lanes))
    assert np.all(fx >= 0.0)
    np.testing.assert_array_equal(fx, g(x, lanes))
    for k in range(n):
        want = optimize.brentq(lambda t: g(np.array([t]), np.array([k]))[0], -3.0, 3.0,
                               xtol=1e-12)
        np.testing.assert_allclose(want, root[k], atol=1e-9)
        assert want - 1e-6 <= x[k] <= want + 1e-12, f"lane {k}"
    # a root sitting on the satisfied end is returned as is
    x0, f0 = _bracket_root(g, a[:1], b[:1], np.zeros(1), g(b[:1], lanes[:1]))
    assert x0[0] == a[0] and f0[0] == 0.0


def test_solver_rate_floor_and_ceiling_contract():
    est = _estimate()
    ctx = _ctx(est, 20.0)
    res = _solve_one(ctx, 0.1)
    c_l, c_u = res["c_l"], res["c_u"]
    # no rate requirement: floor sits on the box bound exactly
    lo, _, hi = _c_range(ctx)
    assert c_l == lo
    # the u-target misses the satisfaction target here, so c_u is the
    # searched ceiling
    assert res["feasible"] and lo < c_u < hi
    assert abs(beta(c_u, ctx, 1.0, 0.1) - ctx.prob_req) < 1e-4, "kept endpoint off target"
    assert beta(c_u, ctx, 1.0, 0.1) >= ctx.prob_req
    # explicit floor inside the box
    ctx2 = _ctx(est, 20.0, rate_gamma=0.5, l_v_rsu=0.2)
    want = 0.5 * 1.0 * 1.0 * 0.2 * 0.3 / (1.0 * 1.0 * 1.0 * 2.0)
    got_l = _solve_one(ctx2, 0.1, g2_v_rsu=0.3, g2_i=2.0)["c_l"]
    np.testing.assert_allclose(got_l, max(want, _c_range(ctx2)[0]), rtol=1e-12)


def test_solver_picks_floor_when_u_exceeds_one():
    ctx = _ctx(_neg_mass_estimate(34.85, np.random.default_rng(7)), 34.85,
               box=(10.0, 50.0, 1.0, 1.0))
    assert u_value(_c_range(ctx)[0], 34.85, 10) > 1.0
    res = _solve_one(ctx, 0.5)
    assert res["c_l"] == res["c_star"] == 10.0
    # the whole box meets the target: the floor is picked for u alone
    assert beta(50.0, ctx, 1.0, 0.5) >= ctx.prob_req
    p_v, p_i = _powers(ctx, 0.5)
    assert (p_v, p_i) == (1.0, 10.0)  # (pv_max, pi_min): lowest budget in the box


def test_solver_picks_ceiling_when_u_below_one():
    ctx = _ctx(_neg_mass_estimate(20.0, np.random.default_rng(8)), 20.0,
               box=(1e-4, 0.04, 1.0, 1.0))
    c_hi = _c_range(ctx)[2]
    assert u_value(c_hi, 20.0, 10) < 1.0
    p_v, p_i = _powers(ctx, 0.5)
    assert (p_v, p_i) == (1.0, 0.04)  # (pv_max, pi_max): highest budget in the box
    np.testing.assert_allclose(c_param(p_i, p_v, ctx), c_hi, rtol=1e-12)


def test_solver_bisects_to_unit_u():
    ctx = _ctx(_neg_mass_estimate(0.5, np.random.default_rng(9)), 0.5,
               box=(0.01, 4.0, 1.0, 1.0))
    p_v, p_i = _powers(ctx, 0.5)
    c_star = c_param(p_i, p_v, ctx)
    np.testing.assert_allclose(c_star, 0.05685619649520945, rtol=1e-6)
    assert abs(u_value(c_star, 0.5, 10) - 1.0) < 1e-6
    assert ctx.box[2] <= p_v <= ctx.box[3] and ctx.box[0] <= p_i <= ctx.box[1]


def test_solver_grid_optimality():
    rng = np.random.default_rng(42)
    for lam_y, d2, gch in [(0.5, 0.0, 0.5), (5.0, 0.4256, 0.9), (5.0, 0.2, 0.3),
                           (0.5, 0.4256, 1.4)]:
        ctx = _ctx(_neg_mass_estimate(lam_y, rng), lam_y, d2=d2, box=(0.01, 4.0, 1.0, 1.0))
        res = _solve_one(ctx, gch)
        c_l, c_u = res["c_l"], res["c_u"]
        c_star = c_param(res["p_i"], res["p_v"], ctx)
        assert c_l * (1 - 1e-9) <= c_star <= c_u * (1 + 1e-9)
        # the u-pick is optimal over the whole budget range above the floor
        grid = np.geomspace(c_l, _c_range(ctx)[2], 4001)
        u_min = np.abs(u_value(grid, lam_y, 10) - 1.0).min()
        assert abs(u_value(c_star, lam_y, 10) - 1.0) <= u_min + 1e-9


def test_solver_takes_dense_argmin_where_prop1_fails():
    # u peaks below one inside this box, so Prop. 1 fails and the pick is the
    # argmin of |u - 1| on a dense log grid, the peak, not an end of the box;
    # a Gaussian law far below the window satisfies every budget
    ctx = _ctx(GaussianFit(mean_e=-5.0, var_e=0.01), 50.0, box=(20.0, 300.0, 1.0, 1.0))
    c_lo, _, c_hi = _c_range(ctx)
    assert not prop1_holds(50.0, 10, c_lo, c_hi)
    t = np.linspace(0.0, 1.0, 1024)
    grid = np.exp(np.log(20.0) * (1.0 - t) + np.log(300.0) * t)
    k = np.argmin(np.abs(u_value(grid, 50.0, 10) - 1.0))
    assert 0 < k < grid.size - 1
    res = _solve_one(ctx, 0.5)
    assert res["feasible"]
    assert res["c_star"] == grid[k]


def test_solver_infeasible_fallback():
    ctx = _ctx(_estimate(), 20.0, rate_gamma=1e9)
    res = _solve_one(ctx, 0.1)
    assert res["c_l"] > res["c_u"]
    assert _powers(ctx, 0.1) == (ctx.box[3], ctx.box[0])  # (pv_max, pi_min)


def test_solver_region_model_rides_worst_case_budget():
    region = HprRegion(lo=-0.1, hi=0.4, coverage=0.96)
    ctx = _ctx(region, 20.0)
    q0 = -math.log(ctx.prob_req)
    want_cu = min(_c_range(ctx)[2], q0 / (0.5 + 0.4))
    np.testing.assert_allclose(_solve_one(ctx, 0.5)["c_u"], want_cu, rtol=1e-12)
    p_v, p_i = _powers(ctx, 0.5)
    np.testing.assert_allclose(c_param(p_i, p_v, ctx), want_cu, rtol=1e-12)
    # aged sidelink report shifts the worst-case knee
    ctx2 = _ctx(region, 20.0, d2=0.4256)
    c0 = 0.4256 * 0.8 / (1.0 - 0.4256)
    np.testing.assert_allclose(_solve_one(ctx2, 0.5, g2_v_hat=0.8)["c_u"],
                               min(_c_range(ctx2)[2], (q0 + c0) / 0.9), rtol=1e-12)


def test_solve_slots_matches_single_slot_solves():
    rng = np.random.default_rng(3)
    est = _estimate()
    base = _ctx(est, 20.0, d2=0.4256, rate_gamma=0.02, box=(0.05, 6.0, 0.5, 2.0))
    slots = {
        "g2_v_hat": rng.exponential(1.0, 6),
        "g2_cross_hat": rng.exponential(1.0, 6),
        "g2_i": rng.exponential(1.0, 6),
        "g2_v_rsu": rng.exponential(1.0, 6),
    }
    block = solve_slots(base, slots)
    for s in range(6):
        single = solve_slots(base, {k: np.array([v[s]]) for k, v in slots.items()})
        for key in ("c_l", "c_u", "c_star", "p_v", "p_i", "beta_star", "feasible"):
            np.testing.assert_allclose(block[key][s], single[key][0], rtol=1e-12,
                                       err_msg=f"slot {s} field {key}")


def test_solve_slots_finds_one_u_root_per_call(monkeypatch):
    # the u-target and the re-pick under the ceiling share one root of u = 1,
    # so a block's u evaluations do not grow with its slots
    ctx = _ctx(GaussianFit(mean_e=-0.5, var_e=0.04), 0.5, box=(0.01, 4.0, 1.0, 1.0))
    rng = np.random.default_rng(5)
    slots = {name: rng.exponential(1.0, 200)
             for name in ("g2_v_hat", "g2_cross_hat", "g2_i", "g2_v_rsu")}
    calls = []
    real = adaptation.u_value

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(adaptation, "u_value", spy)
    counts = []
    for n in (5, 200):
        calls.clear()
        res = solve_slots(ctx, {name: v[:n] for name, v in slots.items()})
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    # both picks ran: some slots keep the root, some take the ceiling below it
    ok = res["feasible"]
    assert np.any(res["c_star"][ok] == 0.05685619649520945)
    assert np.any(res["c_u"][ok] < 0.05685619649520945)


@pytest.mark.parametrize("allocator", ["gaussian", "proposed"])
def test_slot_decision_does_not_depend_on_its_block(monkeypatch, allocator):
    solved = []
    real = adaptation.solve_slots

    def spy(pair, slots):
        solved.append((pair, slots))
        return real(pair, slots)

    monkeypatch.setattr(adaptation, "solve_slots", spy)
    run_trial(SimConfig(adaptation_len=50, rng_seed=0), allocator, 0)
    monkeypatch.undo()
    # one call solves every pair of the trial
    assert len(solved) == 1
    pairs, slots = solved[0]
    assert pairs.size == 10
    every = solve_slots(pairs, slots)
    for i, pair in enumerate(pairs.contexts):
        col = {name: v[:, i] for name, v in slots.items()}
        block = solve_slots(pair, col)
        back = solve_slots(pair, {name: v[::-1] for name, v in col.items()})
        alone = [solve_slots(pair, {name: v[s:s + 1] for name, v in col.items()})
                 for s in range(col["g2_v_hat"].size)]
        for key, want in block.items():
            assert every[key][:, i].tobytes() == want.tobytes(), f"{key} of pair {i}, all pairs"
            assert back[key][::-1].tobytes() == want.tobytes(), f"{key} reversed"
            got = np.concatenate([res[key] for res in alone])
            assert got.tobytes() == want.tobytes(), f"{key} solved alone"


def _pairs_of_one_kind(kind):
    # three pairs with their own laws, rates, boxes and gains: the first
    # reaches the ceiling search, the second has a box where Prop. 1 fails,
    # so its u-pick is the dense argmin, and the third has infeasible floors
    rng = np.random.default_rng(31)
    if kind == "deconv":
        z = rng.normal(0.0, 0.5, 400) + rng.exponential(0.5, size=400)
        wide = error_law("type1").sample(rng, 400) + rng.exponential(1.0 / 0.03, size=400)
        models = [_estimate(z, lam=2.0), _neg_mass_estimate(50.0, rng), _estimate(wide, lam=0.03)]
        rates = (2.0, 50.0, 0.03)
    elif kind == "gaussian":
        models = [GaussianFit(mean_e=-0.5, var_e=0.04), GaussianFit(mean_e=-5.0, var_e=0.01),
                  GaussianFit(mean_e=0.5, var_e=0.01)]
        rates = (0.5, 50.0, 20.0)
    else:
        models = [HprRegion(lo=-0.1, hi=0.4, coverage=0.96),
                  HprRegion(lo=-1.0, hi=0.2, coverage=0.95),
                  HprRegion(lo=-0.5, hi=1.5, coverage=0.97)]
        rates = (0.5, 50.0, 20.0)
    return [_ctx(models[0], rates[0], box=(0.01, 4.0, 1.0, 1.0)),
            _ctx(models[1], rates[1], box=(20.0, 300.0, 1.0, 1.0)),
            _ctx(models[2], rates[2], d2=0.4256, sigma2=0.05, rate_gamma=3.0, l_cross=0.5,
                 box=(0.1, 10.0, 0.1, 10.0))]


@pytest.mark.parametrize("kind", ["deconv", "gaussian", "hpr"])
def test_solve_slots_over_pairs_matches_single_pair_solves(monkeypatch, kind):
    pairs = _pairs_of_one_kind(kind)
    rng = np.random.default_rng(7)
    slots = {name: rng.exponential(1.0, (60, len(pairs)))
             for name in ("g2_v_hat", "g2_cross_hat", "g2_i", "g2_v_rsu")}
    searched = []
    real = adaptation._bracket_root

    def spy(fun, a, *args):
        searched.append(a.size)
        return real(fun, a, *args)

    monkeypatch.setattr(adaptation, "_bracket_root", spy)
    every = solve_slots(PairTable(pairs), slots)
    monkeypatch.undo()
    for i, pair in enumerate(pairs):
        alone = solve_slots(pair, {name: v[:, i] for name, v in slots.items()})
        for key, want in alone.items():
            assert every[key].shape == (60, len(pairs))
            assert every[key][:, i].tobytes() == want.tobytes(), f"{key} of pair {i}"
    ok = every["feasible"]
    assert ok.any() and not ok.all()
    if kind != "hpr":
        # lanes reached the ceiling search, and the pair without Prop. 1
        # picked above its floor
        assert sum(searched) > 0
        c_lo, _, c_hi = _c_range(pairs[1])
        assert not prop1_holds(pairs[1].lambda_y, pairs[1].trunc_k2, c_lo, c_hi)
        assert np.any(ok[:, 1] & (every["c_star"][:, 1] > every["c_l"][:, 1]))


def test_solve_slots_rejects_pairs_that_cannot_share_a_call():
    slots = {name: np.ones((2, 2)) for name in ("g2_v_hat", "g2_cross_hat", "g2_i", "g2_v_rsu")}
    region = HprRegion(lo=-0.1, hi=0.4, coverage=0.96)
    for models in ([_estimate(), GaussianFit(mean_e=0.0, var_e=1.0)],
                   [GaussianFit(mean_e=0.0, var_e=1.0), region],
                   [_estimate(), _estimate(Z12[:6])]):
        with pytest.raises(ConfigurationError):
            solve_slots(PairTable([_ctx(model, 20.0) for model in models]), slots)
    with pytest.raises(ConfigurationError):
        solve_slots(PairTable([_ctx(_estimate(), 20.0), _ctx(_estimate(), 20.0, trunc_k2=5)]),
                    slots)


def _wide_spread_case():
    # a small nuisance rate spreads the probes over hundreds of units, far
    # past the minimum window; the satisfaction curve is then not monotone
    rng = np.random.default_rng(2024)
    lam_y = 0.03
    z = error_law("type1").sample(rng, 1000) + rng.exponential(1.0 / lam_y, size=1000)
    base = _ctx(_estimate(z, lam=lam_y), lam_y, d2=0.4256, rate_gamma=3.0,
                box=(0.1, 10.0, 0.1, 10.0))
    n = 120
    slots = {
        "g2_v_hat": rng.exponential(1.0, n),
        "g2_cross_hat": rng.exponential(1.0, n),
        "g2_i": rng.exponential(1.0, n),
        "g2_v_rsu": rng.exponential(1.0, n),
    }
    return base, slots


def test_solver_contract_on_wide_spread_estimate():
    base, slots = _wide_spread_case()
    n = slots["g2_v_hat"].size
    res = solve_slots(base, slots)
    lo, _, hi = _c_range(base)
    ok = res["feasible"]
    assert 0 < ok.sum() < n
    c_l, c_u, c_star = res["c_l"][ok], res["c_u"][ok], res["c_star"][ok]
    assert np.all(c_l <= c_star) and np.all(c_star <= c_u)
    assert np.all(res["beta_star"][ok] >= base.prob_req)
    pi_min, pi_max, pv_min, pv_max = base.box
    assert np.all((res["p_i"] >= pi_min) & (res["p_i"] <= pi_max))
    assert np.all((res["p_v"] >= pv_min) & (res["p_v"] <= pv_max))
    # every infeasible slot has a floor above the box or one that misses the target
    above = res["c_l"] > hi
    assert above.any() and not ok[above].any()
    inside = np.flatnonzero(~above)
    b_floor = beta(res["c_l"][inside], base, slots["g2_v_hat"][inside],
                   slots["g2_cross_hat"][inside])
    np.testing.assert_array_equal(ok[inside], b_floor >= base.prob_req)
    assert np.any(b_floor < base.prob_req)
    # infeasible slots fall back to the lowest budget
    assert np.all(res["c_star"][~ok] == lo)
    assert np.all(res["p_v"][~ok] == pv_max) and np.all(res["p_i"][~ok] == pi_min)


def test_solver_queries_only_deciding_budgets(monkeypatch):
    # c_hi decides nothing unless it is the u-target, and c_lo decides nothing
    # on an infeasible slot whose floor lies above it
    base, slots = _wide_spread_case()
    asked = []
    real = adaptation._beta_batch_deconv

    def spy(cs, ells, *args):
        asked.append((np.array(cs, dtype=float), np.array(ells, dtype=float)))
        return real(cs, ells, *args)

    monkeypatch.setattr(adaptation, "_beta_batch_deconv", spy)
    res = solve_slots(base, slots)
    monkeypatch.undo()
    d2 = base.delta2
    queried = set()
    for cs, ells in asked:
        for c, l in zip(cs, ells):
            # the lane whose reports give this knee at this budget
            lane = np.flatnonzero(slots["g2_cross_hat"]
                                  - (slots["g2_v_hat"] / c) * d2 / (1.0 - d2) == l)
            assert lane.size == 1
            queried.add((float(c), int(lane[0])))
    c_lo, _, c_hi = _c_range(base)
    c_l, ok = res["c_l"], res["feasible"]
    cand = np.flatnonzero(ok & (c_l < c_hi))
    one = PairTable([base])
    c_t = _u_pick(c_l[cand], np.full(cand.size, c_hi), one.take(np.zeros(cand.size, dtype=np.intp)),
                  np.full(cand.size, _u_root(one)[0]))
    at_hi = {k for c, k in queried if c == c_hi}
    assert at_hi <= set(cand[c_t == c_hi].tolist())
    above = np.flatnonzero(~ok & (c_l > c_lo))
    assert not any((c_lo, int(k)) in queried for k in above)
    # the case has candidates whose u-target is below c_hi, and infeasible
    # floors inside the box above c_lo
    assert np.any(c_t < c_hi) and np.any(c_l[above] <= c_hi)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(n_probes=st.integers(12, 400), mean_e=st.floats(-2.0, 0.5),
       spread=st.floats(0.01, 1.0), lam_y=st.floats(0.5, 50.0),
       d2=st.floats(0.0, 0.6), rate_gamma=st.floats(0.0, 1.0),
       pi_min=st.floats(0.01, 1.0), pi_span=st.floats(1.5, 1000.0),
       pv_min=st.floats(0.01, 1.0), pv_span=st.floats(1.5, 1000.0),
       seed=st.integers(0, 2 ** 32 - 1))
# here exp(log(c_l)) on the dense-argmin u-pick rounds one ulp below c_l
@example(n_probes=12, mean_e=-1.0, spread=0.25, lam_y=9.0, d2=0.125, rate_gamma=1.0,
         pi_min=1.0, pi_span=298.0, pv_min=1.0, pv_span=2.0, seed=3)
# here c_star = c_hi maps to a sidelink power one ulp below the box
@example(n_probes=12, mean_e=0.0, spread=1.0, lam_y=33.0, d2=0.59375, rate_gamma=0.0,
         pi_min=0.875, pi_span=2.0, pv_min=1.0, pv_span=2.0, seed=1)
def test_solver_invariants_on_random_estimates(n_probes, mean_e, spread, lam_y, d2,
                                               rate_gamma, pi_min, pi_span, pv_min,
                                               pv_span, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(mean_e, spread, n_probes) + rng.exponential(1.0 / lam_y, n_probes)
    box = (pi_min, pi_min * pi_span, pv_min, pv_min * pv_span)
    base = _ctx(_estimate(z, lam=lam_y), lam_y, d2=d2, rate_gamma=rate_gamma, box=box)
    slots = {name: rng.exponential(1.0, 8)
             for name in ("g2_v_hat", "g2_cross_hat", "g2_i", "g2_v_rsu")}
    res = solve_slots(base, slots)
    assert np.all((res["p_i"] >= box[0]) & (res["p_i"] <= box[1]))
    assert np.all((res["p_v"] >= box[2]) & (res["p_v"] <= box[3]))
    for k in np.flatnonzero(res["feasible"]):
        c_l, c_u, c_star = res["c_l"][k], res["c_u"][k], res["c_star"][k]
        assert c_l <= c_star <= c_u, f"slot {k}"
        reports = slots["g2_v_hat"][k], slots["g2_cross_hat"][k]
        assert beta(c_u, base, *reports) >= base.prob_req, f"slot {k}: beta at c_u"
        assert beta(c_star, base, *reports) >= base.prob_req, f"slot {k}: beta at c_star"
