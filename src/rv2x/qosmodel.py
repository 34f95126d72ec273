"""Per-slot link quality: SINR, rate, delay, and satisfaction probabilities.

Closed forms in this module are for the matched-pair interference model: each
uplink sees exactly one sidelink interferer and vice versa.  The reference
fading law for the closed-form outage and hazard expressions is unit-mean
exponential on both the direct and the interfering squared gains.
"""

import dataclasses
import math

import numpy as np

from .errors import ConfigurationError

SINR_CAP = 1.0e30


@dataclasses.dataclass
class AllocationDecision:
    """Matching plus transmit powers, in pair order, for one slot (or a whole phase)."""

    pairing: np.ndarray   # (M,) V2I index matched to each V2V pair
    p_v_mw: np.ndarray    # (M,) or per slot (S, M)
    p_i_mw: np.ndarray    # (M,) or per slot (S, M): uplink power of pairing[i]


def sinr(link_kind, channel, large, alloc, sigma2, flags=None):
    """Matched-pair SINR for every link of one class, in pair order.

    Entry i of the result is V2V pair i's sidelink ("v2v") or its matched
    uplink ``pairing[i]`` ("v2i").  ``channel`` holds one slot or a block of
    slots (a leading slot axis), and the powers of ``alloc`` broadcast against
    it, so one call covers a whole phase.  Actual cross gains can dip below
    zero under the additive error model; they are clamped at zero here (a
    count is recorded in ``flags``).  A zero denominator is replaced by a large finite cap, also counted.
    """
    if link_kind not in ("v2i", "v2v"):
        raise ConfigurationError(f"unknown link kind {link_kind!r}")
    pairing = np.asarray(alloc.pairing)
    if link_kind == "v2i":
        num = alloc.p_i_mw * large.l_i[pairing] * channel.g2_i[..., pairing]
        den = alloc.p_v_mw * large.l_v_rsu * channel.g2_v_rsu + sigma2
    elif link_kind == "v2v":
        m = np.arange(pairing.shape[0])
        cross = channel.g2_cross[..., pairing, m]
        clamped = cross < 0.0
        if flags is not None and clamped.any():
            flags["cross_clamped"] = flags.get("cross_clamped", 0) + int(clamped.sum())
        num = alloc.p_v_mw * large.l_v * channel.g2_v
        den = alloc.p_i_mw * large.l_cross[pairing, m] * np.maximum(cross, 0.0) + sigma2

    degenerate = den <= 0.0
    if degenerate.any():
        if flags is not None:
            flags["degenerate"] = flags.get("degenerate", 0) + int(degenerate.sum())
        den = np.where(degenerate, 1.0, den)
        return np.where(degenerate, np.where(num > 0, SINR_CAP, 0.0), num / den)
    return num / den


def throughput(gamma, bandwidth_hz):
    """Shannon rate in bit/s."""
    return bandwidth_hz * np.log2(1.0 + np.maximum(np.asarray(gamma, dtype=float), 0.0))


def delay(gamma, packet_bits, bandwidth_hz):
    """Packet transmission delay in seconds; +inf at zero rate."""
    rate = throughput(gamma, bandwidth_hz)
    with np.errstate(divide="ignore"):
        return np.where(rate > 0.0, packet_bits / np.where(rate > 0, rate, 1.0), np.inf)


def delay_outage_closed_form(p_v, l_v, p_i, l_i, sigma2, gamma_thr):
    """P{sidelink SINR < gamma_thr} under unit-exponential direct and
    interfering gains with a single matched interferer."""
    s_tilde = sigma2 / (p_v * l_v)
    rho = (p_i * l_i) / (p_v * l_v)
    return 1.0 - np.exp(-s_tilde * gamma_thr) / (1.0 + rho * gamma_thr)


def hazard_rate(p_v, l_v, p_i, l_i, sigma2, constants):
    """Hazard rate of the delay at the budget: the conditional density of the
    delay at the threshold given the budget is violated.

    Derived from the closed-form delay CDF: with SINR survival
    S(g) = exp(-s*g) / (1 + r*g) the rate is d_v * (-S'(g)) / (1 - S(g))
    evaluated at g = gamma_v; the delay/SINR change of variables contributes
    exactly the constant d_v.
    """
    gamma_v, d_v = constants
    s_tilde = sigma2 / (p_v * l_v)
    rho = (p_i * l_i) / (p_v * l_v)
    surv = np.exp(-s_tilde * gamma_v) / (1.0 + rho * gamma_v)
    dens = np.exp(-s_tilde * gamma_v) * (rho + s_tilde * (1.0 + rho * gamma_v)) / (1.0 + rho * gamma_v) ** 2
    return d_v * dens / (1.0 - surv)


_LOG_NDTR_TAIL = -37.0  # erfc(-x/sqrt 2) leaves the normal floats below about -37.5
# (-1)^m (2m - 1)!! for m = 1..8: log Phi's asymptotic series in 1/x^2
_LOG_NDTR_SERIES = tuple((-1) ** m * math.prod(range(1, 2 * m, 2)) for m in range(1, 9))


def _erfc(x):
    """math.erfc over an array."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _ndtr(x):
    """Standard normal CDF, Phi(x) = erfc(-x/sqrt 2) / 2."""
    return 0.5 * _erfc(-np.sqrt(0.5) * np.asarray(x, dtype=float))


def _log_ndtr(x):
    """log Phi(x): log1p(-erfc(x/sqrt 2) / 2) for x > -1, log(erfc(-x/sqrt 2) / 2)
    down to -37, and below it -x^2/2 - ln(-x) - ln(2 pi)/2 + ln(1 + sum_m
    (-1)^m (2m-1)!! / x^(2m)), the erfc asymptotic series (DLMF 7.12.1) in
    8 terms, where erfc underflows."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    upper = x > -1.0
    tail = x < _LOG_NDTR_TAIL
    mid = ~upper & ~tail
    out[upper] = np.log1p(-0.5 * _erfc(np.sqrt(0.5) * x[upper]))
    out[mid] = np.log(0.5 * _erfc(-np.sqrt(0.5) * x[mid]))
    xt = x[tail]
    inv2 = 1.0 / (xt * xt)
    series = np.zeros_like(xt)
    for a in reversed(_LOG_NDTR_SERIES):
        series += a
        series *= inv2
    out[tail] = (-0.5 * xt * xt - np.log(-xt) - 0.5 * math.log(2.0 * math.pi)
                 + np.log1p(series))
    return out


def gaussian_satisfaction(cs, ells, mu, s2):
    """P{E >= c (e + ell)} for E ~ Exp(1) independent of e ~ N(mu, s2).

    The event holds outright where e <= e0 = -ell, and with probability
    exp(-c (e + ell)) above it, so the probability is
    Phi((e0 - mu)/s) + exp(-c (ell + mu) + c^2 s2/2) Q((e0 - mu + c s2)/s).
    The second term is taken through log Q, so that it stays finite where
    Q underflows and the exponential overflows.  ``cs`` and ``ells``
    broadcast, and so do ``mu`` and ``s2``, which may be per entry; c must
    be nonnegative.
    """
    cs = np.asarray(cs, dtype=float)
    ells = np.asarray(ells, dtype=float)
    s = np.sqrt(s2)
    e0 = -ells
    term1 = _ndtr((e0 - mu) / s)
    expo = (-cs * (ells + mu) + 0.5 * cs * cs * s2
            + _log_ndtr(-(e0 - mu + cs * s2) / s))
    return term1 + np.exp(np.minimum(expo, 0.0))


def true_satisfaction_prob(context, alloc, law):
    """True delay-satisfaction probability of a slot under the hidden law.

    ``context`` carries the constants ``delta2``, ``gamma_v`` and ``sigma2``
    and the per-pair large-scale gains ``l_v`` and ``l_cross`` and reported
    gains ``g2_v_hat`` and ``g2_cross_hat``; ``alloc`` is the (p_v, p_i) pair
    in milliwatt.  The per-pair values broadcast: scalars for one pair return
    a float, and arrays, such as (M,) for one slot or (S, M) for a block of
    slots, return an array of their shape.

    Under the additive error model, without clamping, the sidelink meets
    the SINR threshold when p_v l_v (delta2 g2_v_hat + (1 - delta2) E) >=
    gamma_v (p_i l_cross (g2_cross_hat + e) + sigma2), with the innovation
    E ~ Exp(1) and the cross error e drawn from ``law``.  That is
    E >= c (e + ell) at the budget c = gamma_v l_cross p_i / (l_v (1 - delta2)
    p_v) and the knee ell = g2_cross_hat - g2_v_hat delta2 p_v l_v /
    (gamma_v p_i l_cross) + sigma2 / (p_i l_cross), so the probability is the
    mixture's weighted sum of :func:`gaussian_satisfaction`.  At delta2 = 1
    there is no innovation and it is sum_k w_k Phi((-ell - mu_k)/s_k).
    """
    p_v, p_i = alloc
    c = context
    direct, cross = p_v * c.l_v, p_i * c.l_cross
    ells = c.g2_cross_hat - c.g2_v_hat * c.delta2 * direct / (c.gamma_v * cross) + c.sigma2 / cross
    components = zip(law.means, law.variances)
    if c.delta2 < 1.0:
        cs = c.gamma_v * cross / ((1.0 - c.delta2) * direct)
        probs = (gaussian_satisfaction(cs, ells, mu, s2) for mu, s2 in components)
    else:
        probs = (_ndtr((-ells - mu) / math.sqrt(s2)) for mu, s2 in components)
    p = sum(w * q for w, q in zip(law.weights, probs))
    return p if np.ndim(p) else float(p)
