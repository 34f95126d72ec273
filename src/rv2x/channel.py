"""Propagation: path loss, shadowing, CSI aging, and the hidden error laws.

Link-gain convention: a linear power gain h = L * |g|^2 where L collects path
loss and log-normal shadowing (redrawn once per epoch) and |g|^2 is the
squared small-scale fading magnitude (unit-mean exponential, redrawn every
slot).  Receivers co-located with the RSU measure their links perfectly;
the sidelink CSI ages over the feedback delay, and the cross channel from the
V2I transmitter into the V2V receiver is known only up to an additive error
whose law is hidden from the allocator.
"""

import dataclasses

import numpy as np
from scipy import special

from .errors import ConfigurationError

# WINNER+ B1 urban street constants, as fixed in the V2X evaluation codebases
# this model family is taken from: antenna heights 1.5 m at both ends, the
# breakpoint computed with 1 m of effective-height reduction, and the raw
# heights kept inside the far-range log terms.
_B1_H_BS = 1.5
_B1_H_MS = 1.5
_LIGHT_SPEED = 299792458.0


def pathloss_v2i_db(d_km):
    """Cellular uplink path loss in dB at distance d_km kilometers."""
    d = np.maximum(np.asarray(d_km, dtype=float), 1e-6)
    return 128.1 + 37.6 * np.log10(d)


def _b1_los_db(d, fc_ghz):
    d = np.maximum(np.asarray(d, dtype=float), 3.0)
    d_bp = 4.0 * (_B1_H_BS - 1.0) * (_B1_H_MS - 1.0) * fc_ghz * 1.0e9 / _LIGHT_SPEED
    near = 22.7 * np.log10(d) + 41.0 + 20.0 * np.log10(fc_ghz / 5.0)
    far = (40.0 * np.log10(d) + 9.45
           - 17.3 * np.log10(_B1_H_BS) - 17.3 * np.log10(_B1_H_MS)
           + 2.7 * np.log10(fc_ghz / 5.0))
    return np.where(d < d_bp, near, far)


def _b1_nlos_db(d1, d2, fc_ghz):
    """Around-the-corner loss for leg distances d1 (to the corner) and d2."""
    d2 = np.maximum(np.asarray(d2, dtype=float), 3.0)
    n_j = np.maximum(2.8 - 0.0024 * d2, 1.84)
    return (_b1_los_db(d1, fc_ghz) + 20.0 - 12.5 * n_j
            + 10.0 * n_j * np.log10(d2) + 3.0 * np.log10(fc_ghz / 5.0))


def pathloss_winner_b1_db(d_m, los, f_c_hz):
    """WINNER+ B1 street path loss in dB.

    For the NLOS case the scalar distance is split into two equal orthogonal
    legs (d/sqrt(2) each), so both leg orderings give the same loss and the
    model's minimum over them is that loss.
    """
    fc_ghz = f_c_hz / 1.0e9
    if los:
        return np.asarray(_b1_los_db(d_m, fc_ghz), dtype=float)
    leg = np.asarray(d_m, dtype=float) / np.sqrt(2.0)
    return np.asarray(_b1_nlos_db(leg, leg, fc_ghz), dtype=float)


def doppler_coefficient(speed_mps, f_c_hz, delta_t_s):
    """Temporal fading correlation: zeroth-order Bessel of 2*pi*f_D*dt."""
    f_d = speed_mps * f_c_hz / _LIGHT_SPEED
    return float(special.j0(2.0 * np.pi * f_d * delta_t_s))


# --------------------------------------------------------------------------- error laws


@dataclasses.dataclass
class ErrorDistribution:
    """Gaussian mixture for the cross-channel estimation error."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        if not (len(self.weights) == len(self.means) == len(self.variances) > 0):
            raise ConfigurationError("mixture parameter arrays must share a positive length")
        if not all(np.isfinite(a).all() for a in (self.weights, self.means, self.variances)):
            raise ConfigurationError("mixture parameters must be finite")
        if abs(self.weights.sum() - 1.0) > 1e-9 or (self.weights <= 0).any():
            raise ConfigurationError("mixture weights must be positive and sum to one")
        if (self.variances <= 0).any():
            raise ConfigurationError("mixture variances must be positive")

    def pdf(self, e):
        e = np.asarray(e, dtype=float)[..., None]
        comp = np.exp(-0.5 * (e - self.means) ** 2 / self.variances)
        comp /= np.sqrt(2.0 * np.pi * self.variances)
        return (self.weights * comp).sum(axis=-1)

    def mean(self):
        return float(self.weights @ self.means)

    def sample(self, rng, size):
        """``size`` draws from the mixture.

        Stream contract: the same raw draws, in the same order, as one
        ``rng.choice(len(weights), size, p=weights)`` followed by one
        ``rng.normal(means[comp], sqrt(variances[comp]))``, and the same
        values bit for bit: a uniform per draw picks the component, then a
        standard normal per draw is scaled and shifted.
        """
        u = rng.random(size)
        return self._compose(u, rng.standard_normal(size))

    def _compose(self, u, z):
        """Mixture values from component uniforms ``u`` and standard normals
        ``z`` of one shape; overwrites both and returns ``z``.

        The component is ``choice``'s inverse-CDF lookup,
        ``cdf.searchsorted(u, side="right")``, counted as the CDF edges at or
        below ``u`` (the last edge is 1 > u and never counts), and the value
        is ``normal``'s ``loc + scale * z``, so the result equals theirs.
        """
        cdf = self.weights.cumsum()
        cdf /= cdf[-1]
        comp = np.zeros(u.shape, dtype=np.intp)
        for edge in cdf[:-1]:
            comp += u >= edge
        # every index is in range, so "clip" only spares take a buffer
        z *= np.sqrt(self.variances).take(comp, out=u, mode="clip")
        z += self.means.take(comp, out=u, mode="clip")
        return z


def error_law(name, weights=(), means=(), variances=()):
    """The two hidden presets plus a custom mixture."""
    if name == "type1":
        return ErrorDistribution([0.5, 0.5], [0.2, 0.8], [0.04, 0.02])
    if name == "type2":
        return ErrorDistribution([0.4, 0.6], [0.4, 0.6], [0.02, 0.04])
    if name == "custom":
        return ErrorDistribution(weights, means, variances)
    raise ConfigurationError(f"unknown error law {name!r}")


# --------------------------------------------------------------------------- large scale


@dataclasses.dataclass
class LargeScaleState:
    """Linear large-scale gains (path loss * shadowing) for one epoch."""

    l_i: np.ndarray        # (N,)   V2I TX -> RSU
    l_v: np.ndarray        # (M,)   V2V TX -> V2V RX
    l_v_rsu: np.ndarray    # (M,)   V2V TX -> RSU
    l_cross: np.ndarray    # (N, M) V2I TX -> V2V RX
    delta: float           # fading correlation over the feedback delay


def build_large_scale(topology, config, rng):
    """Apply the per-class path-loss models and draw epoch shadowing."""
    fc = config.carrier_freq_hz

    def linear(db):
        return 10.0 ** (-db / 10.0)

    pl_i = pathloss_v2i_db(topology.d_v2i_m / 1000.0)
    pl_v = pathloss_winner_b1_db(topology.d_v2v_m, True, fc)
    pl_v_rsu = pathloss_winner_b1_db(topology.d_v2v_rsu_m, False, fc)
    pl_cross = pathloss_winner_b1_db(topology.d_cross_m, False, fc)

    n, m = pl_cross.shape
    sh_i = rng.normal(0.0, config.shadow_std_v2i_db, n)
    sh_v = rng.normal(0.0, config.shadow_std_v2v_db, m)
    sh_v_rsu = rng.normal(0.0, config.shadow_std_nlos_db, m)
    sh_cross = rng.normal(0.0, config.shadow_std_nlos_db, (n, m))

    delta = doppler_coefficient(config.speed_mps, fc, config.feedback_delay_s)
    return LargeScaleState(
        l_i=linear(pl_i - sh_i),
        l_v=linear(pl_v - sh_v),
        l_v_rsu=linear(pl_v_rsu - sh_v_rsu),
        l_cross=linear(pl_cross - sh_cross),
        delta=float(delta),
    )


# --------------------------------------------------------------------------- small scale


@dataclasses.dataclass
class ChannelState:
    """Squared fading magnitudes, reported and actual, for a block of S slots.

    :func:`evolve_small_scale` gives every array a leading slot axis; a
    single slot may also be held without it, as :func:`rv2x.qosmodel.sinr`
    takes either.
    """

    g2_i: np.ndarray           # (S, N)  uplink direct; reported == actual
    g2_v_rsu: np.ndarray       # (S, M)  V2V TX -> RSU; reported == actual
    g2_v_hat: np.ndarray       # (S, M)  sidelink direct, as reported
    g2_v: np.ndarray           # (S, M)  sidelink direct, actual after aging
    g2_cross_hat: np.ndarray   # (S, N, M) cross channel, as reported
    g2_cross: np.ndarray       # (S, N, M) actual = reported + hidden error (can be < 0)
    e_cross: np.ndarray        # (S, N, M) the hidden additive errors
    e_direct: np.ndarray       # (S, M)  the unit exponentials driving sidelink aging


def evolve_small_scale(large, law, rng, num_v2i, num_v2v, slots):
    """Draw ``slots`` consecutive slots of fading state.

    Reported gains are fresh unit exponentials each slot (squared magnitudes
    of unit complex-normal fades).  The actual sidelink gain mixes the report
    with an independent exponential through the squared aging coefficient;
    the actual cross gain adds a hidden mixture error to the report.

    Stream contract: each slot takes the same raw draws, in the same order,
    as per-field ``rng.exponential(1.0, shape)`` calls for ``g2_i``,
    ``g2_v_rsu``, ``g2_v_hat``, ``e_direct`` and ``g2_cross_hat``, then one
    ``law.sample(rng, (N, M))`` for ``e_cross``, and gives the same values
    bit for bit.  The consecutive exponentials are one fill per slot, and so
    are the mixture's uniforms and its normals; a block therefore equals
    that many one-slot calls on the same generator.
    """
    n, m = num_v2i, num_v2v
    ex = np.empty((slots, n + 3 * m + n * m))
    u = np.empty((slots, n * m))
    z = np.empty((slots, n * m))
    for s in range(slots):
        rng.standard_exponential(out=ex[s])
        rng.random(out=u[s])
        rng.standard_normal(out=z[s])
    g2_i, g2_v_rsu, g2_v_hat, e_direct, cross = np.split(
        ex, np.cumsum([n, m, m, m]), axis=1)
    g2_cross_hat = cross.reshape(slots, n, m)
    e_cross = law._compose(u, z).reshape(slots, n, m)
    # the uniforms are spent, so their buffer takes the actual cross gains
    g2_cross = np.add(g2_cross_hat, e_cross, out=u.reshape(slots, n, m))
    d2 = large.delta * large.delta
    return ChannelState(
        g2_i=g2_i,
        g2_v_rsu=g2_v_rsu,
        g2_v_hat=g2_v_hat,
        g2_v=d2 * g2_v_hat + (1.0 - d2) * e_direct,
        g2_cross_hat=g2_cross_hat,
        g2_cross=g2_cross,
        e_cross=e_cross,
        e_direct=e_direct,
    )
