import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from rv2x.channel import ChannelState, LargeScaleState, error_law
from rv2x.config import SimConfig
from rv2x.errors import ConfigurationError
from rv2x.adaptation import PairTable, true_satisfaction_prob
from rv2x.baselines import GaussianFit
from rv2x.qosmodel import (SINR_CAP, AllocationDecision, delay,
                           delay_outage_closed_form, hazard_rate, sinr, throughput)
from rv2x.scenario import qos_constants

CONSTANTS = qos_constants(SimConfig())
GAMMA_V, D_V = CONSTANTS


def _state(g2_i, g2_v_rsu, g2_v, g2_cross):
    # every field in pair order: column i is pair i and its matched uplink
    g2_i = np.asarray(g2_i, dtype=float)
    g2_v = np.asarray(g2_v, dtype=float)
    g2_cross = np.asarray(g2_cross, dtype=float)
    return ChannelState(g2_i=g2_i, g2_v_rsu=np.asarray(g2_v_rsu, dtype=float),
                        g2_v_hat=g2_v.copy(), g2_v=g2_v,
                        g2_cross_hat=g2_cross.copy(), g2_cross=g2_cross,
                        e_cross=np.zeros_like(g2_cross), e_direct=np.zeros_like(g2_v))


def _large(l_i, l_v, l_v_rsu, l_cross, delta=0.65):
    return LargeScaleState(l_i=np.asarray(l_i, dtype=float),
                           l_v=np.asarray(l_v, dtype=float),
                           l_v_rsu=np.asarray(l_v_rsu, dtype=float),
                           l_cross=np.asarray(l_cross, dtype=float), delta=delta)


def test_sinr_hand_evaluation():
    large = _large([2e-9, 3e-9], [5e-8, 6e-8], [1e-10, 2e-10],
                   [[4e-11, 5e-11], [6e-11, 7e-11]])
    # uplink 1 is reused by pair 0, uplink 0 by pair 1; fading and powers are
    # in pair order, so uplink 1 has g2_i 1.1 and sends 40 mW, uplink 0 has
    # 0.9 and sends 30 mW, and pair 0's cross gain from uplink 1 is 2.0
    state = _state([1.1, 0.9], [0.4, 0.6], [1.2, 0.8], [2.0, 1.5])
    alloc = AllocationDecision(pairing=np.array([1, 0]),
                               p_v_mw=np.array([10.0, 20.0]),
                               p_i_mw=np.array([40.0, 30.0]))
    sigma2 = 1e-11

    got_i = sinr("v2i", state, large, alloc, sigma2)
    # in pair order: entry 0 is uplink 1 (pair 0's), entry 1 is uplink 0
    want_i0 = 30.0 * 2e-9 * 0.9 / (20.0 * 2e-10 * 0.6 + sigma2)
    want_i1 = 40.0 * 3e-9 * 1.1 / (10.0 * 1e-10 * 0.4 + sigma2)
    np.testing.assert_allclose(got_i, [want_i1, want_i0], rtol=1e-12)

    got_v = sinr("v2v", state, large, alloc, sigma2)
    want_v0 = 10.0 * 5e-8 * 1.2 / (40.0 * 6e-11 * 2.0 + sigma2)
    want_v1 = 20.0 * 6e-8 * 0.8 / (30.0 * 5e-11 * 1.5 + sigma2)
    np.testing.assert_allclose(got_v, [want_v0, want_v1], rtol=1e-12)


def test_sinr_symmetry_near_one():
    large = _large([1.0], [1.0], [1.0], [[1.0]])
    state = _state([1.0], [1.0], [1.0], [1.0])
    alloc = AllocationDecision(pairing=np.array([0]), p_v_mw=np.array([5.0]),
                               p_i_mw=np.array([5.0]))
    got = sinr("v2v", state, large, alloc, 1e-15)
    np.testing.assert_allclose(got, 1.0, rtol=1e-12)


def test_sinr_degenerate_denominator_flagged():
    large = _large([1.0], [1.0], [1.0], [[1.0]])
    state = _state([1.0], [1.0], [1.0], [0.0])
    alloc = AllocationDecision(pairing=np.array([0]), p_v_mw=np.array([1.0]),
                               p_i_mw=np.array([1.0]))
    flags = {}
    got = sinr("v2v", state, large, alloc, 0.0, flags)
    assert got[0] == SINR_CAP
    assert flags["degenerate"] == 1
    # zero signal over a zero denominator stays zero
    state2 = _state([1.0], [1.0], [0.0], [0.0])
    got2 = sinr("v2v", state2, large, alloc, 0.0, {})
    assert got2[0] == 0.0


def test_sinr_negative_cross_gain_clamped_and_counted():
    large = _large([1.0], [1.0], [1.0], [[1.0]])
    state = _state([1.0], [1.0], [1.0], [-0.5])
    alloc = AllocationDecision(pairing=np.array([0]), p_v_mw=np.array([2.0]),
                               p_i_mw=np.array([3.0]))
    flags = {}
    got = sinr("v2v", state, large, alloc, 1e-3, flags)
    np.testing.assert_allclose(got, 2.0 / 1e-3, rtol=1e-12)
    assert flags["cross_clamped"] == 1


def test_phase_qos_equals_per_slot_calls():
    # S = 4 slots, N = M = 3, a non-identity matching and sigma2 = 0 so that
    # a clamped cross gain and a dead V2V-to-RSU gain give zero denominators
    rng = np.random.default_rng(21)
    s_len, n = 4, 3
    g2_cross = rng.exponential(1.0, (s_len, n))     # pair order: uplink pairing[i] -> pair i
    g2_v_rsu = rng.exponential(1.0, (s_len, n))
    pairing = np.array([2, 0, 1])
    g2_cross[1, 0] = -0.3                  # negative actual cross gain
    g2_cross[2, 1] = 0.0                   # zero cross gain
    g2_v_rsu[3, 2] = 0.0                   # uplink pairing[2] sees no interference
    g2_v = rng.exponential(1.0, (s_len, n))
    state = ChannelState(g2_i=rng.exponential(1.0, (s_len, n)), g2_v_rsu=g2_v_rsu,
                         g2_v_hat=g2_v.copy(), g2_v=g2_v,
                         g2_cross_hat=g2_cross.copy(), g2_cross=g2_cross,
                         e_cross=np.zeros_like(g2_cross), e_direct=np.zeros_like(g2_v))
    large = _large([2e-9, 3e-9, 4e-9], [5e-8, 6e-8, 7e-8], [1e-10, 2e-10, 3e-10],
                   rng.uniform(1e-11, 1e-10, (n, n)))
    p_v = rng.uniform(1.0, 100.0, (s_len, n))
    p_i = rng.uniform(1.0, 100.0, (s_len, n))
    for alloc, per_slot in (
            (AllocationDecision(pairing, p_v, p_i),
             lambda s: AllocationDecision(pairing, p_v[s], p_i[s])),
            (AllocationDecision(pairing, p_v[0], p_i[0]),      # one power set for the phase
             lambda s: AllocationDecision(pairing, p_v[0], p_i[0]))):
        flags = {}
        g_i = sinr("v2i", state, large, alloc, 0.0, flags)
        g_v = sinr("v2v", state, large, alloc, 0.0, flags)
        got = (g_i, g_v, throughput(g_i, 2e6), delay(g_v, 3200.0, 2e6))
        slot_flags = {}
        for s in range(s_len):
            one = ChannelState(**{f.name: getattr(state, f.name)[s]
                                  for f in dataclasses.fields(ChannelState)})
            w_i = sinr("v2i", one, large, per_slot(s), 0.0, slot_flags)
            w_v = sinr("v2v", one, large, per_slot(s), 0.0, slot_flags)
            want = (w_i, w_v, throughput(w_i, 2e6), delay(w_v, 3200.0, 2e6))
            for g, w in zip(got, want):
                assert g.shape == (s_len, n) and g[s].tobytes() == w.tobytes()
        assert flags == slot_flags
        assert flags["cross_clamped"] == 1 and flags["degenerate"] == 3


def test_sinr_unknown_kind():
    with pytest.raises(ConfigurationError):
        sinr("d2d", None, None, None, 0.0)


def test_throughput_and_delay_examples():
    np.testing.assert_allclose(throughput(1.0, 2e6), 2e6, rtol=1e-12)
    np.testing.assert_allclose(delay(GAMMA_V, 3200.0, 2e6), 15e-3, rtol=1e-12)
    np.testing.assert_allclose(delay(3.0, 3200.0, 2e6), 0.8e-3, rtol=1e-12)
    assert delay(0.0, 3200.0, 2e6) == np.inf


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1e9))
def test_delay_throughput_inverse_consistent(gamma):
    d = delay(gamma, 3200.0, 2e6)
    r = throughput(gamma, 2e6)
    np.testing.assert_allclose(d * r, 3200.0, rtol=1e-9)


def test_outage_closed_form_examples():
    surv = 1.0 - delay_outage_closed_form(1.0, 1.0, 1.0, 1.0, 0.0, GAMMA_V)
    np.testing.assert_allclose(surv, 0.9287314100385485, rtol=1e-12)
    assert abs(surv - 0.9288) < 1e-4
    assert delay_outage_closed_form(1.0, 1.0, 1.0, 1.0, 0.5, 0.0) == 0.0


def test_outage_closed_form_vs_monte_carlo():
    rng = np.random.default_rng(17)
    n = 200_000
    for _ in range(3):
        pv_lv = 10.0 ** rng.uniform(-7, -5)
        pi_li = 10.0 ** rng.uniform(-8, -6)
        s2 = 10.0 ** rng.uniform(-9, -8)
        thr = 10.0 ** rng.uniform(-1.5, 0.5)
        g = rng.exponential(1.0, n)
        h = rng.exponential(1.0, n)
        mc = np.mean(pv_lv * g < thr * (pi_li * h + s2))
        closed = delay_outage_closed_form(pv_lv, 1.0, pi_li, 1.0, s2, thr)
        se = math.sqrt(closed * (1.0 - closed) / n)
        assert abs(mc - closed) < 4.0 * se + 1e-12


def test_hazard_rate_noise_free_values():
    np.testing.assert_allclose(hazard_rate(1.0, 1.0, 1.0, 1.0, 0.0, CONSTANTS),
                               64.23250996716675, rtol=1e-12)


def test_hazard_rate_matches_finite_difference():
    cfg = SimConfig()
    b, d_bits, tau0 = cfg.bandwidth_hz, cfg.packet_bits, cfg.delay_req_s

    def fd(pv, lv, pi, li, s2, h=1e-9):
        def cdf(t):
            g = 2.0 ** (d_bits / (b * t)) - 1.0
            st_ = s2 / (pv * lv)
            rho = pi * li / (pv * lv)
            return math.exp(-st_ * g) / (1.0 + rho * g)
        return (cdf(tau0 + h) - cdf(tau0 - h)) / (2.0 * h) / (1.0 - cdf(tau0))

    rng = np.random.default_rng(23)
    for _ in range(5):
        pv, pi = 10.0 ** rng.uniform(0, 2), 10.0 ** rng.uniform(0, 2)
        lv, li = 10.0 ** rng.uniform(-8, -6), 10.0 ** rng.uniform(-8, -6)
        s2 = 10.0 ** rng.uniform(-9, -7)
        got = hazard_rate(pv, lv, pi, li, s2, CONSTANTS)
        want = fd(pv, lv, pi, li, s2)
        assert abs(got - want) / abs(want) < 1e-3


def test_hazard_rate_monotone_in_power_ratio():
    h1 = hazard_rate(2.0, 1.0, 1.0, 1.0, 0.0, CONSTANTS)
    h2 = hazard_rate(4.0, 1.0, 1.0, 1.0, 0.0, CONSTANTS)
    assert h2 > h1


def _trace_pairs(delta2=0.4260865731671351, l_v=1e-7, l_cross=1e-9):
    """A table of one pair, or of one pair per entry of the gains, with the
    fields the deviation trace reads; the model and the solver's fields are
    placeholders."""
    m = np.size(l_v)
    return PairTable([GaussianFit(0.0, 1.0)] * m, (1.0, 200.0, 1.0, 200.0), lambda_y=1.0,
                     delta2=delta2, gamma_v=GAMMA_V, sigma2=1e-11, l_v=l_v, l_cross=l_cross,
                     l_i=1e-9, l_v_rsu=1e-9, rate_gamma=1.0, prob_req=0.95, trunc_k1=10,
                     trunc_k2=10)


def _true(p_v, p_i, pairs, g2_v_hat, g2_cross_hat, law):
    """The one-pair table's probability as a float."""
    (p,) = true_satisfaction_prob(p_v, p_i, pairs, g2_v_hat, g2_cross_hat, law)
    return float(p)


def _at_budget(delta2, c, ell, p_v=50.0, g2_v_hat=1.0):
    """A one-pair table, reports and power pair whose budget is c and whose
    knee is ell: the uplink power sets c, and the reported cross gain then
    sets ell."""
    pairs = _trace_pairs(delta2=delta2)
    gamma_v, l_v, l_cross, sigma2 = (float(x[0]) for x in (pairs.gamma_v, pairs.l_v,
                                                           pairs.l_cross, pairs.sigma2))
    p_i = c * l_v * (1.0 - delta2) * p_v / (gamma_v * l_cross)
    g2_cross_hat = (ell + g2_v_hat * delta2 * p_v * l_v / (gamma_v * p_i * l_cross)
                    - sigma2 / (p_i * l_cross))
    return pairs, g2_v_hat, g2_cross_hat, p_v, p_i


def _quad_reference(pairs, g2_v_hat, g2_cross_hat, p_v, p_i, law):
    # the per-draw event integrated over each component's density: the
    # innovation clears the threshold with probability exp(-max(x, 0))
    delta2, gamma_v, l_v, l_cross, sigma2 = (float(x[0]) for x in (
        pairs.delta2, pairs.gamma_v, pairs.l_v, pairs.l_cross, pairs.sigma2))
    denom = p_v * l_v * (1.0 - delta2)
    total = 0.0
    for w, mu, s2 in zip(law.weights, law.means, law.variances):
        s = math.sqrt(s2)

        def integrand(e):
            x = (gamma_v * (p_i * l_cross * (g2_cross_hat + e) + sigma2)
                 - p_v * l_v * delta2 * g2_v_hat) / denom
            return math.exp(-0.5 * (e - mu) ** 2 / s2 - max(x, 0.0)) / math.sqrt(2.0 * math.pi * s2)

        # the kink where x crosses zero, inside the component's +-40 s span
        kink = (p_v * l_v * delta2 * g2_v_hat - gamma_v * sigma2) / (
            gamma_v * p_i * l_cross) - g2_cross_hat
        lo, hi = mu - 40.0 * s, mu + 40.0 * s
        kink = min(max(kink, lo), hi)
        for a, b in ((lo, kink), (kink, hi)):
            if b > a:
                total += w * integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13,
                                            limit=500)[0]
    return total


def test_true_satisfaction_prob_dominance():
    p = _true(1e4, 1e-6, _trace_pairs(), 1.0, 1.0, error_law("type1"))
    assert p > 0.99


_THREE_COMPONENTS = error_law("custom", weights=(0.2, 0.5, 0.3), means=(-0.3, 0.4, 1.5),
                              variances=(0.01, 0.09, 0.25))


def test_true_satisfaction_prob_vs_quadrature():
    for law in (error_law("type1"), error_law("type2"), _THREE_COMPONENTS):
        got, want = [], []
        for delta2 in (1e-9, 0.4260865731671351, 0.9):
            for c in (0.05, 1.0, 8.0, 30.0):
                for ell in (-8.0, -2.0, -0.6, 0.0, 0.7, 3.0):
                    pairs, v_hat, x_hat, p_v, p_i = _at_budget(delta2, c, ell)
                    got.append(_true(p_v, p_i, pairs, v_hat, x_hat, law))
                    want.append(_quad_reference(pairs, v_hat, x_hat, p_v, p_i, law))
        got, want = np.array(got), np.array(want)
        # the grid reaches both tails
        assert want.min() < 1e-10 and want.max() > 1.0 - 1e-10
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def _reference_mc(pairs, g2_v_hat, g2_cross_hat, p_v, p_i, law, n_draws, rng):
    # the per-draw event sampled directly: one choice and one normal for the
    # mixture, then the exponential innovation
    comp = rng.choice(len(law.weights), size=n_draws, p=law.weights)
    e_cross = rng.normal(law.means[comp], np.sqrt(law.variances[comp]))
    e_direct = rng.exponential(1.0, n_draws)
    d2 = pairs.delta2[0]
    lhs = p_v * pairs.l_v[0] * (d2 * g2_v_hat + (1.0 - d2) * e_direct)
    rhs = pairs.gamma_v[0] * (p_i * pairs.l_cross[0] * (g2_cross_hat + e_cross)
                              + pairs.sigma2[0])
    return (lhs >= rhs).mean(axis=-1)


@pytest.mark.parametrize("law", [error_law("type1"), error_law("type2"), _THREE_COMPONENTS],
                         ids=["type1", "type2", "custom3"])
def test_true_satisfaction_prob_vs_reference_mc(law):
    n = 1_000_000
    rng = np.random.default_rng(4)
    pairs = _trace_pairs(l_cross=3e-7)
    reports = 0.7, 1.3
    for p_v, p_i in ((50.0, 80.0), (80.0, 60.0), (30.0, 90.0)):
        want = _true(p_v, p_i, pairs, *reports, law)
        assert 0.01 < want < 0.99
        got = float(_reference_mc(pairs, *reports, p_v, p_i, law, n, rng))
        assert abs(got - want) < 4.0 * math.sqrt(want * (1.0 - want) / n)


def test_true_satisfaction_prob_arrays_match_scalar_calls():
    # entry (s, i) of a call on an M-pair table is the call on a one-pair
    # table of that entry's values
    law = _THREE_COMPONENTS
    s_len, m = 3, 5
    g = np.random.default_rng(5)
    l_v = 10.0 ** g.uniform(-7.5, -6.5, m)
    l_cross = l_v * 10.0 ** g.uniform(0.3, 1.0, m)
    g2_v_hat, g2_cross_hat = g.exponential(1.0, (s_len, m)), g.exponential(1.0, (s_len, m))
    p_v, p_i = g.uniform(10.0, 200.0, (s_len, m)), g.uniform(10.0, 200.0, (s_len, m))
    block = _trace_pairs(l_v=l_v, l_cross=l_cross)
    got = true_satisfaction_prob(p_v, p_i, block, g2_v_hat, g2_cross_hat, law)
    assert got.shape == (s_len, m)
    assert np.count_nonzero((got > 1e-3) & (got < 1.0 - 1e-3)) >= 3
    for s in range(s_len):
        got_row = true_satisfaction_prob(p_v[s], p_i[s], block, g2_v_hat[s], g2_cross_hat[s],
                                         law)
        assert got_row.shape == (m,) and got_row.tobytes() == got[s].tobytes()
        for i in range(m):
            one = _trace_pairs(l_v=l_v[i], l_cross=l_cross[i])
            want = _true(p_v[s, i], p_i[s, i], one, g2_v_hat[s, i], g2_cross_hat[s, i], law)
            assert want == got[s, i]


@settings(max_examples=150, deadline=None)
@given(law=st.sampled_from(["type1", "type2"]),
       delta2=st.floats(0.05, 0.95), l_v=st.floats(-8.0, -6.0), l_cross=st.floats(-10.0, -6.0),
       g2_v_hat=st.floats(0.01, 5.0), g2_cross_hat=st.floats(0.0, 5.0),
       p_v=st.floats(1.0, 200.0), p_i=st.floats(1.0, 200.0),
       up=st.floats(1.0, 4.0))
def test_true_satisfaction_prob_bounded_and_monotone(law, delta2, l_v, l_cross, g2_v_hat,
                                                     g2_cross_hat, p_v, p_i, up):
    # here the reported direct signal alone clears the noise threshold
    # (gamma_v sigma2 <= p_v l_v delta2 g2_v_hat), so a draw whose actual
    # cross gain is negative always satisfies and a higher uplink power can
    # only hurt; a higher sidelink power always helps
    law = error_law(law)
    pairs = _trace_pairs(delta2=delta2, l_v=10.0 ** l_v, l_cross=10.0 ** l_cross)
    reports = g2_v_hat, g2_cross_hat
    p = _true(p_v, p_i, pairs, *reports, law)
    assert 0.0 <= p <= 1.0
    # up to the rounding of the probability's two terms
    assert _true(p_v * up, p_i, pairs, *reports, law) >= p - 1e-13
    assert _true(p_v, p_i * up, pairs, *reports, law) <= p + 1e-13
