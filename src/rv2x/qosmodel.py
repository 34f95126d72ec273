"""Per-slot link quality: SINR, rate, delay, and satisfaction probabilities.

Closed forms in this module are for the matched-pair interference model: each
uplink sees exactly one sidelink interferer and vice versa.  The reference
fading law for the closed-form outage and hazard expressions is unit-mean
exponential on both the direct and the interfering squared gains.
"""

import dataclasses

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


def true_satisfaction_prob_mc(context, alloc, law, n_draws, rng):
    """Monte Carlo estimate of the true delay-satisfaction probability.

    ``context`` carries the constants ``delta2``, ``gamma_v`` and ``sigma2``
    and the per-pair large-scale gains ``l_v`` and ``l_cross`` and reported
    gains ``g2_v_hat`` and ``g2_cross_hat`` of one slot; ``alloc`` is the
    (p_v, p_i) pair in milliwatt.  The per-pair values are scalars for one
    pair, which returns a float, or (M,) arrays, which return an (M,) array.
    Draws the hidden cross errors from ``law`` as one (M, n_draws) block,
    then the sidelink innovations from Exp(1) as another, and uses the
    additive error model without clamping.  A one-pair call therefore takes
    the same draws as ``law.sample(rng, n_draws)`` then
    ``rng.exponential(1.0, n_draws)``.
    """
    if n_draws < 1000:
        raise ConfigurationError("true_satisfaction_prob_mc needs n_draws >= 1000")
    p_v, p_i = alloc
    c = context
    per_pair = np.broadcast_arrays(
        p_v * c.l_v, p_i * c.l_cross, c.delta2 * c.g2_v_hat, c.g2_cross_hat)
    shape = per_pair[0].shape
    direct, cross, hat_v, hat_cross = (x.reshape(-1, 1) for x in per_pair)
    m = direct.shape[0]

    # rhs = gamma_v * (p_i * l_cross * (g2_cross_hat + e_cross) + sigma2) and
    # lhs = p_v * l_v * (delta2 * g2_v_hat + (1 - delta2) * e_direct), each
    # computed in place on its fresh draws one operation at a time in this
    # order, so every value equals the formula's bit for bit
    rhs = law.sample(rng, (m, n_draws))
    rhs += hat_cross
    rhs *= cross
    rhs += c.sigma2
    rhs *= c.gamma_v
    lhs = rng.standard_exponential((m, n_draws))
    lhs *= 1.0 - c.delta2
    lhs += hat_v
    lhs *= direct
    p = (lhs >= rhs).mean(axis=1)
    return p.reshape(shape) if shape else float(p[0])
