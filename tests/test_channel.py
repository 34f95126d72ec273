import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

from rv2x.channel import (_BUFFER_BYTES, ChannelState, ErrorDistribution, LargeScaleState,
                          _j0, build_large_scale, doppler_coefficient, error_law,
                          evolve_small_scale, pathloss_v2i_db,
                          pathloss_winner_b1_db)
from rv2x.config import SimConfig
from rv2x.errors import ConfigurationError
from rv2x.scenario import build_topology

FC = 5.9e9


def test_v2i_pathloss_values():
    np.testing.assert_allclose(pathloss_v2i_db(0.1), 90.5, rtol=1e-12)
    np.testing.assert_allclose(pathloss_v2i_db(1.0), 128.1, rtol=1e-12)
    np.testing.assert_allclose(pathloss_v2i_db(0.5), 116.7812721630343, rtol=1e-12)


def test_v2i_pathloss_monotone():
    d = np.linspace(0.05, 2.0, 200)
    pl = pathloss_v2i_db(d)
    assert np.all(np.diff(pl) > 0)


def test_b1_los_values():
    np.testing.assert_allclose(pathloss_winner_b1_db(60.0, True, FC),
                               74.67737387174573, rtol=1e-12)
    np.testing.assert_allclose(pathloss_winner_b1_db(70.0, True, FC),
                               77.35524545697027, rtol=1e-12)
    np.testing.assert_allclose(pathloss_winner_b1_db(80.0, True, FC),
                               79.67492333607773, rtol=1e-12)
    # short-range branch
    np.testing.assert_allclose(pathloss_winner_b1_db(10.0, True, FC),
                               65.13764014612251, rtol=1e-12)
    np.testing.assert_allclose(pathloss_winner_b1_db(19.0, True, FC),
                               71.46534688775172, rtol=1e-12)


def test_b1_los_hand_transcription():
    # independent arithmetic from the published coefficient table
    d = 70.0
    far = (40.0 * math.log10(d) + 9.45 - 17.3 * math.log10(1.5)
           - 17.3 * math.log10(1.5) + 2.7 * math.log10(FC / 1e9 / 5.0))
    np.testing.assert_allclose(pathloss_winner_b1_db(d, True, FC), far, rtol=1e-12)
    d = 10.0
    near = 22.7 * math.log10(d) + 41.0 + 20.0 * math.log10(FC / 1e9 / 5.0)
    np.testing.assert_allclose(pathloss_winner_b1_db(d, True, FC), near, rtol=1e-12)


def test_b1_nlos_value_and_dominance():
    nlos = pathloss_winner_b1_db(70.0, False, FC)
    np.testing.assert_allclose(nlos, 103.47047903771407, rtol=1e-12)
    assert nlos > pathloss_winner_b1_db(70.0, True, FC)


def test_b1_monotone_within_branch():
    d_far = np.linspace(25.0, 1000.0, 300)
    pl_far = np.array([pathloss_winner_b1_db(d, True, FC) for d in d_far])
    assert np.all(np.diff(pl_far) > 0)
    d_near = np.linspace(3.0, 19.0, 100)
    pl_near = np.array([pathloss_winner_b1_db(d, True, FC) for d in d_near])
    assert np.all(np.diff(pl_near) > 0)
    # the street-leg split puts the embedded breakpoint near 28 m
    d = np.linspace(30.0, 500.0, 200)
    pl_nlos = np.array([pathloss_winner_b1_db(x, False, FC) for x in d])
    assert np.all(np.diff(pl_nlos) > 0)


def test_b1_accepts_arrays():
    d = np.array([60.0, 70.0, 80.0])
    out = pathloss_winner_b1_db(d, True, FC)
    np.testing.assert_allclose(
        out, [74.67737387174573, 77.35524545697027, 79.67492333607773], rtol=1e-12)


def test_doppler_values():
    np.testing.assert_allclose(doppler_coefficient(10.0, FC, 1e-3),
                               0.6527530721238584, rtol=1e-12)
    assert doppler_coefficient(10.0, FC, 0.0) == 1.0
    # speed placing the argument exactly at the first Bessel zero
    c = 299792458.0
    v0 = 2.404825557695773 * c / (2.0 * math.pi * FC * 1e-3)
    assert abs(doppler_coefficient(v0, FC, 1e-3)) < 1e-10


def test_doppler_matches_power_series():
    # independent series evaluation of the zero-order Bessel function
    x = 2.0 * math.pi * 10.0 * FC * 1e-3 / 299792458.0
    term, total = 1.0, 1.0
    for k in range(1, 40):
        term *= -(x * x / 4.0) / (k * k)
        total += term
    np.testing.assert_allclose(doppler_coefficient(10.0, FC, 1e-3), total, rtol=1e-13)


def test_j0_matches_scipy_j0():
    # both Cephes branches, the x < 1e-5 shortcut, x = 5 where they meet,
    # the first three zeros and their neighbours, and the default argument
    cfg = SimConfig()
    f_d = cfg.speed_mps * cfg.carrier_freq_hz / 299792458.0
    x_default = 2.0 * np.pi * f_d * cfg.feedback_delay_s
    zeros = np.array([2.404825557695773, 5.520078110286311, 8.653727912911013])
    x = np.concatenate([np.linspace(0.0, 5.0, 4001), np.linspace(5.0, 60.0, 4001)[1:],
                        np.geomspace(60.0, 1e8, 200), [1e-300, 9.99e-6, 1e-5, x_default],
                        zeros, np.nextafter(zeros, 0.0), np.nextafter(zeros, 10.0),
                        np.nextafter(5.0, [0.0, 10.0])])
    got = np.array([_j0(v) for v in x.tolist()])
    want = special.j0(x)
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    # the rational branch is arithmetic only: bit for bit; the asymptotic one
    # goes through libm's cos and sin, within one ulp
    rational = x <= 5.0
    assert np.array_equal(got[rational], want[rational])
    assert ulps.max() <= 1.0, f"{np.sum(got != want)} of {x.size} differ, up to {ulps.max()} ulp"
    assert _j0(-3.0) == _j0(3.0) and _j0(0.0) == 1.0
    assert doppler_coefficient(cfg.speed_mps, cfg.carrier_freq_hz,
                               cfg.feedback_delay_s) == special.j0(x_default)


def test_doppler_bounded():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.uniform(0.0, 100.0)
        dt = rng.uniform(0.0, 0.1)
        assert abs(doppler_coefficient(v, FC, dt)) <= 1.0 + 1e-12


def test_error_law_presets():
    law1 = error_law("type1")
    np.testing.assert_allclose(law1.weights, [0.5, 0.5])
    np.testing.assert_allclose(law1.means, [0.2, 0.8])
    np.testing.assert_allclose(law1.variances, [0.04, 0.02])
    np.testing.assert_allclose(law1.mean(), 0.5, rtol=1e-12)
    law2 = error_law("type2")
    np.testing.assert_allclose(law2.weights, [0.4, 0.6])
    np.testing.assert_allclose(law2.means, [0.4, 0.6])
    np.testing.assert_allclose(law2.variances, [0.02, 0.04])
    np.testing.assert_allclose(law2.mean(), 0.52, rtol=1e-12)


def test_error_law_pdf_normalised():
    for name in ("type1", "type2"):
        law = error_law(name)
        total, _ = integrate.quad(lambda e: float(law.pdf(e)), -10.0, 10.0, limit=200)
        assert abs(total - 1.0) < 1e-6, f"{name} pdf must integrate to 1"


def test_error_law_custom_and_rejections():
    law = error_law("custom", weights=(0.3, 0.7), means=(-1.0, 2.0), variances=(0.5, 0.1))
    np.testing.assert_allclose(law.mean(), 0.3 * -1.0 + 0.7 * 2.0, rtol=1e-12)
    with pytest.raises(ConfigurationError):
        error_law("lognormal")
    with pytest.raises(ConfigurationError):
        error_law("custom", weights=(0.3, 0.6), means=(0.0, 1.0), variances=(0.1, 0.1))
    with pytest.raises(ConfigurationError):
        error_law("custom", weights=(0.5, 0.5), means=(0.0, 1.0), variances=(0.1, 0.0))
    with pytest.raises(ConfigurationError):
        ErrorDistribution(weights=np.array([1.0]), means=np.array([0.0]),
                          variances=np.array([-0.1]))


@pytest.mark.parametrize("bad", [
    dict(weights=(float("nan"), 1.0), means=(0.0, 1.0), variances=(0.1, 0.1)),
    dict(weights=(0.5, 0.5), means=(0.0, float("inf")), variances=(0.1, 0.1)),
    dict(weights=(0.5, 0.5), means=(float("nan"), 1.0), variances=(0.1, 0.1)),
    dict(weights=(0.5, 0.5), means=(0.0, 1.0), variances=(0.1, float("nan"))),
    dict(weights=(0.5, 0.5), means=(0.0, 1.0), variances=(0.1, float("inf"))),
])
def test_error_law_rejects_non_finite_parameters(bad):
    with pytest.raises(ConfigurationError, match="finite"):
        ErrorDistribution(**bad)


_THREE = dict(weights=(0.2, 0.5, 0.3), means=(-0.3, 0.4, 1.5), variances=(0.01, 0.2, 0.05))


def _reference_mixture(law, rng, size):
    # the stream the mixture is pinned to: one choice, then one normal
    comp = rng.choice(len(law.weights), size=size, p=law.weights)
    return rng.normal(law.means[comp], np.sqrt(law.variances[comp]))


@pytest.mark.parametrize("size", [7, (3, 4), (10, 1000)])
@pytest.mark.parametrize("name", ["type1", "type2", "custom"])
def test_sample_matches_choice_then_normal(name, size):
    law = error_law(name, **_THREE) if name == "custom" else error_law(name)
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    got = law.sample(rng, size)
    want = _reference_mixture(law, ref, size)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_error_law_sampling_moments():
    law = error_law("type1")
    rng = np.random.default_rng(123)
    draws = law.sample(rng, 200_000)
    mu = law.mean()
    var = float(np.sum(law.weights * (law.variances + law.means ** 2)) - mu ** 2)
    assert abs(draws.mean() - mu) < 4.0 * math.sqrt(var / draws.size)
    assert abs(draws.var() - var) < 0.01


def _unit_large(delta, n=2, m=2):
    return LargeScaleState(l_i=np.ones(n), l_v=np.ones(m), l_v_rsu=np.ones(m),
                           l_cross=np.ones((n, m)), delta=delta)


def _block_spanning(n, m):
    """A slot count that fills three of evolve_small_scale's draw buffers and
    part of a fourth, at N = n uplinks and M = m pairs."""
    block = _BUFFER_BYTES // (8 * (n + 3 * m + n * m))
    assert block >= 2
    return 3 * block + block // 2


def test_evolve_identities():
    law = error_law("type1")
    rng = np.random.default_rng(1)
    large = _unit_large(0.65, 3, 3)
    st = evolve_small_scale(large, law, rng, np.array([2, 0, 1]), 2)
    d2 = large.delta ** 2
    np.testing.assert_allclose(st.g2_v, d2 * st.g2_v_hat + (1 - d2) * st.e_direct,
                               rtol=1e-12)
    np.testing.assert_allclose(st.g2_cross, st.g2_cross_hat + st.e_cross, rtol=1e-12)
    for field in dataclasses.fields(ChannelState):
        assert getattr(st, field.name).shape == (2, 3), field.name


def test_evolve_full_correlation_keeps_report():
    law = error_law("type1")
    rng = np.random.default_rng(2)
    st = evolve_small_scale(_unit_large(1.0), law, rng, np.arange(2), 1)
    np.testing.assert_allclose(st.g2_v, st.g2_v_hat, rtol=1e-12)


def test_evolve_zero_error_law_keeps_cross_report():
    law = error_law("custom", weights=(1.0,), means=(0.0,), variances=(1e-30,))
    rng = np.random.default_rng(3)
    st = evolve_small_scale(_unit_large(0.65), law, rng, np.array([1, 0]), 1)
    np.testing.assert_allclose(st.g2_cross, st.g2_cross_hat, atol=1e-12)


def test_evolve_zero_correlation_mean():
    # fully aged sidelink is a fresh unit exponential
    law = error_law("type1")
    rng = np.random.default_rng(4)
    large = _unit_large(0.0, 1, 10_000)
    slots = 100
    st = evolve_small_scale(large, law, rng, np.zeros(10_000, dtype=int), slots)
    mean = st.g2_v.mean()
    n = slots * 10_000
    assert abs(mean - 1.0) < 3.0 / math.sqrt(n)


def test_evolve_reported_gains_are_unit_exponential():
    law = error_law("type1")
    rng = np.random.default_rng(5)
    large = _unit_large(0.65, 1, 100_000)
    st = evolve_small_scale(large, law, rng, np.zeros(100_000, dtype=int), 1)
    res = stats.kstest(st.g2_v_hat[0], "expon")
    assert res.pvalue > 1e-3, f"reported fading fails Exp(1) fit: {res}"
    assert abs(st.g2_v_hat.mean() - 1.0) < 3.0 / math.sqrt(100_000)


def test_evolve_lag_relation():
    law = error_law("type1")
    rng = np.random.default_rng(6)
    large = _unit_large(0.6527530721238584, 1, 200_000)
    st = evolve_small_scale(large, law, rng, np.zeros(200_000, dtype=int), 1)
    d2 = large.delta ** 2
    predicted = d2 * st.g2_v_hat.mean() + (1.0 - d2) * 1.0
    assert abs(st.g2_v.mean() - predicted) < 4.0 / math.sqrt(200_000)


def test_evolve_cross_gain_may_go_negative():
    law = error_law("custom", weights=(1.0,), means=(-5.0,), variances=(0.01,))
    rng = np.random.default_rng(7)
    st = evolve_small_scale(_unit_large(0.65, 4, 4), law, rng, np.array([3, 1, 0, 2]), 1)
    assert np.any(st.g2_cross < 0.0), "additive error must be allowed to drive the gain negative"


def test_evolve_deterministic_per_seed():
    law = error_law("type1")
    pairing = np.array([1, 2, 0])
    a = evolve_small_scale(_unit_large(0.65, 3, 3), law, np.random.default_rng(8), pairing, 1)
    b = evolve_small_scale(_unit_large(0.65, 3, 3), law, np.random.default_rng(8), pairing, 1)
    np.testing.assert_array_equal(a.g2_cross, b.g2_cross)
    np.testing.assert_array_equal(a.g2_v, b.g2_v)


def test_evolve_block_equals_consecutive_one_slot_calls():
    law = error_law("type1")
    large = _unit_large(0.65, 3, 4)
    pairing = np.array([1, 2, 0, 2])
    block = evolve_small_scale(large, law, np.random.default_rng(9), pairing, 5)
    rng = np.random.default_rng(9)
    singles = [evolve_small_scale(large, law, rng, pairing, 1) for _ in range(5)]
    for field in dataclasses.fields(ChannelState):
        got = getattr(block, field.name)
        want = np.concatenate([getattr(st, field.name) for st in singles])
        assert got.shape == want.shape and got.shape[0] == 5, field.name
        assert got.tobytes() == want.tobytes(), field.name


def test_evolve_draw_order_within_each_slot():
    # all N uplinks' g2_i, then g2_v_rsu, g2_v_hat, e_direct, the (N, M) cross
    # report and the (N, M) cross errors, slot after slot: every seeded
    # trajectory depends on this order.  Column i keeps uplink pairing[i] and
    # cross entry (pairing[i], i), over several draw buffers and a remainder.
    law = error_law("type2")
    n, m = 5, 6
    slots = _block_spanning(n, m)
    pairing = np.array([4, 0, 3, 1, 1, 2])
    cols = np.arange(m)
    block = evolve_small_scale(_unit_large(0.65, n, m), law, np.random.default_rng(10),
                               pairing, slots)
    rng = np.random.default_rng(10)
    for s in range(slots):
        for name, shape, keep in (("g2_i", n, pairing), ("g2_v_rsu", m, cols),
                                  ("g2_v_hat", m, cols), ("e_direct", m, cols),
                                  ("g2_cross_hat", (n, m), (pairing, cols))):
            want = rng.exponential(1.0, shape)[keep]
            assert getattr(block, name)[s].tobytes() == want.tobytes(), (name, s)
        want = law.sample(rng, (n, m))[pairing, cols]
        assert block.e_cross[s].tobytes() == want.tobytes(), s


def test_build_large_scale_zero_shadow_matches_pathloss():
    cfg = SimConfig(num_pairs=5, shadow_std_v2v_db=0.0, shadow_std_v2i_db=0.0,
                    shadow_std_nlos_db=0.0)
    top = build_topology(cfg, np.random.default_rng(10))
    large = build_large_scale(top, cfg, np.random.default_rng(11))
    np.testing.assert_allclose(
        large.l_i, 10.0 ** (-pathloss_v2i_db(top.d_v2i_m / 1000.0) / 10.0), rtol=1e-12)
    np.testing.assert_allclose(
        large.l_v, 10.0 ** (-pathloss_winner_b1_db(top.d_v2v_m, True, FC) / 10.0),
        rtol=1e-12)
    np.testing.assert_allclose(
        large.l_cross,
        10.0 ** (-pathloss_winner_b1_db(top.d_cross_m, False, FC) / 10.0), rtol=1e-12)
    np.testing.assert_allclose(large.delta, 0.6527530721238584, rtol=1e-12)


def test_build_large_scale_shapes_and_positivity():
    cfg = SimConfig(num_pairs=6)
    top = build_topology(cfg, np.random.default_rng(12))
    large = build_large_scale(top, cfg, np.random.default_rng(13))
    assert large.l_cross.shape == (6, 6)
    for arr in (large.l_i, large.l_v, large.l_v_rsu, large.l_cross):
        assert np.all(arr > 0)
    assert 0.0 < large.delta < 1.0


@pytest.mark.parametrize("name", ["type1", "custom"])
def test_evolve_matches_per_field_reference_loop(name):
    # every seeded trajectory is pinned to this per-slot loop of separate
    # calls, of which the matched entries (pairing[i], i) are kept
    law = error_law(name, **_THREE) if name == "custom" else error_law(name)
    n, m = 4, 5
    slots = _block_spanning(n, m)
    pairing = np.array([3, 0, 2, 0, 1])
    cols = np.arange(m)
    large = _unit_large(0.65, n, m)
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    got = evolve_small_scale(large, law, rng, pairing, slots)
    want = {k: [] for k in ("g2_i", "g2_v_rsu", "g2_v_hat", "e_direct",
                            "g2_cross_hat", "e_cross")}
    for _ in range(slots):
        want["g2_i"].append(ref.exponential(1.0, n)[pairing])
        want["g2_v_rsu"].append(ref.exponential(1.0, m))
        want["g2_v_hat"].append(ref.exponential(1.0, m))
        want["e_direct"].append(ref.exponential(1.0, m))
        want["g2_cross_hat"].append(ref.exponential(1.0, (n, m))[pairing, cols])
        want["e_cross"].append(_reference_mixture(law, ref, (n, m))[pairing, cols])
    want = {k: np.stack(v) for k, v in want.items()}
    d2 = large.delta * large.delta
    want["g2_v"] = d2 * want["g2_v_hat"] + (1.0 - d2) * want["e_direct"]
    want["g2_cross"] = want["g2_cross_hat"] + want["e_cross"]
    for field in dataclasses.fields(ChannelState):
        a, b = getattr(got, field.name), want[field.name]
        assert a.shape == b.shape == (slots, m), field.name
        assert a.tobytes() == np.ascontiguousarray(b).tobytes(), field.name
    assert rng.bit_generator.state == ref.bit_generator.state


def test_evolve_memory_scales_with_the_pairs_not_the_cross_field():
    # 20 pairs x 1,000 slots.  What the call must hold at once: its eight
    # (S, M) float64 outputs; at most three more (S, M) arrays of 8-byte
    # entries while it composes (the mixture's component indices, or the two
    # products of the aging mix); the three draw buffers, each at most
    # _BUFFER_BYTES; and 64 KiB for index arrays, views and the booleans of
    # the component lookup.  Keeping the (S, N, M) cross fields would take
    # about seven times this bound.
    n = m = 20
    slots = 1000
    large = _unit_large(0.65, n, m)
    law = error_law("type1")
    pairing = np.random.default_rng(13).permutation(m)
    rng = np.random.default_rng(14)
    evolve_small_scale(large, law, rng, pairing, 3)     # warm every code path
    bound = 11 * slots * m * 8 + 3 * _BUFFER_BYTES + 64 * 1024
    tracemalloc.start()
    try:
        st = evolve_small_scale(large, law, rng, pairing, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.g2_cross.shape == (slots, m)
    assert peak < bound, f"peak {peak} B against a bound of {bound} B"
