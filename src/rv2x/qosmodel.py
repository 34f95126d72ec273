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
    """Matching plus transmit powers for one slot (or a whole phase)."""

    pairing: np.ndarray   # (M,) V2I index matched to each V2V pair
    p_v_mw: np.ndarray    # (M,) or per slot (S, M)
    p_i_mw: np.ndarray    # (N,) or per slot (S, N)


def sinr(link_kind, channel, large, alloc, sigma2, flags=None):
    """Matched-pair SINR for every link of one class.

    ``channel`` holds one slot or a block of slots (a leading slot axis), and
    the powers of ``alloc`` broadcast against it, so one call covers a whole
    phase.  Actual cross gains can dip below zero under the additive error
    model; they are clamped at zero here (a count is recorded in ``flags``).
    A zero denominator is replaced by a large finite cap, also counted.
    """
    if link_kind not in ("v2i", "v2v"):
        raise ConfigurationError(f"unknown link kind {link_kind!r}")
    pairing = np.asarray(alloc.pairing)
    if link_kind == "v2i":
        num = alloc.p_i_mw * large.l_i * channel.g2_i
        interf = np.zeros_like(num)
        interf[..., pairing] = alloc.p_v_mw * large.l_v_rsu * channel.g2_v_rsu
        den = interf + sigma2
    elif link_kind == "v2v":
        m = np.arange(pairing.shape[0])
        cross = channel.g2_cross[..., pairing, m]
        clamped = cross < 0.0
        if flags is not None and clamped.any():
            flags["cross_clamped"] = flags.get("cross_clamped", 0) + int(clamped.sum())
        num = alloc.p_v_mw * large.l_v * channel.g2_v
        den = alloc.p_i_mw[..., pairing] * large.l_cross[pairing, m] * np.maximum(cross, 0.0) + sigma2

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


def hazard_rate_noise_free_approx(p_v, l_v, p_i, l_i, constants):
    """Interference-dominated small-survival approximation of the hazard rate.

    Linear in the received-power ratio o = p_v*l_v / (p_i*l_i).  The matching
    weights do not call it: ``absorption.edge_weight`` works from the
    capability bracket at the probing powers.
    """
    gamma_v, d_v = constants
    o = (p_v * l_v) / (p_i * l_i)
    return d_v * o / (gamma_v * gamma_v)


def true_satisfaction_prob_mc(context, alloc, law, n_draws, rng):
    """Monte Carlo estimate of the true delay-satisfaction probability.

    ``context`` carries the reported gains and constants for one pair and
    slot; ``alloc`` is the (p_v, p_i) pair in milliwatt.  Samples the hidden
    cross error from ``law`` and the sidelink innovation from Exp(1), using
    the additive error model without clamping.
    """
    if n_draws < 1000:
        raise ConfigurationError("true_satisfaction_prob_mc needs n_draws >= 1000")
    p_v, p_i = alloc
    e_cross = law.sample(rng, n_draws)
    e_direct = rng.exponential(1.0, n_draws)
    d2 = context.delta2
    lhs = p_v * context.l_v * (d2 * context.g2_v_hat + (1.0 - d2) * e_direct)
    rhs = context.gamma_v * (p_i * context.l_cross * (context.g2_cross_hat + e_cross) + context.sigma2)
    return float(np.mean(lhs >= rhs))
