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
import math

import numpy as np

from .errors import ConfigurationError

# WINNER+ B1 urban street constants, as fixed in the V2X evaluation codebases
# this model family is taken from: antenna heights 1.5 m at both ends, the
# breakpoint computed with 1 m of effective-height reduction, and the raw
# heights kept inside the far-range log terms.
_B1_H_BS = 1.5
_B1_H_MS = 1.5
_LIGHT_SPEED = 299792458.0
_BUFFER_BYTES = 1 << 16   # per fading draw buffer: below glibc's 128 KiB mmap threshold


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


# Cephes j0 (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989): a rational function of x^2 times the factors of the first two zeros
# on x <= 5, and beyond it the Hankel form with rational amplitude and phase.
_J0_DR1 = 5.78318596294678452118E0     # first zero squared
_J0_DR2 = 3.04712623436620863991E1     # second zero squared
_J0_RP = (-4.79443220978201773821E9, 1.95617491946556577543E12,
          -2.49248344360967716204E14, 9.70862251047306323952E15)
_J0_RQ = (1.0, 4.99563147152651017219E2, 1.73785401676374683123E5,
          4.84409658339962045305E7, 1.11855537045356834862E10,
          2.11277520115489217587E12, 3.10518229857422583814E14,
          3.18121955943204943306E16, 1.71086294081043136091E18)
_J0_PP = (7.96936729297347051624E-4, 8.28352392107440799803E-2,
          1.23953371646414299388E0, 5.44725003058768775090E0,
          8.74716500199817011941E0, 5.30324038235394892183E0,
          9.99999999999999997821E-1)
_J0_PQ = (9.24408810558863637013E-4, 8.56288474354474431428E-2,
          1.25352743901058953537E0, 5.47097740330417105182E0,
          8.76190883237069594232E0, 5.30605288235394617618E0,
          1.00000000000000000218E0)
_J0_QP = (-1.13663838898469149931E-2, -1.28252718670509318512E0,
          -1.95539544257735972385E1, -9.32060152123768231369E1,
          -1.77681167980488050595E2, -1.47077505154951170175E2,
          -5.14105326766599330220E1, -6.05014350600728481186E0)
_J0_QQ = (1.0, 6.43178256118178023184E1, 8.56430025976980587198E2,
          3.88240183605401609683E3, 7.24046774195652478189E3,
          5.93072701187316984827E3, 2.06209331660327847417E3,
          2.42005740240291393179E2)


def _polevl(x, coef):
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _j0(x):
    """Bessel J0 of a float, operation for operation as Cephes j0."""
    x = abs(x)
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _J0_DR1) * (z - _J0_DR2)
        return p * _polevl(z, _J0_RP) / _polevl(z, _J0_RQ)
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _polevl(q, _J0_QQ)
    xn = x - math.pi / 4.0
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * math.sqrt(2.0 / math.pi) / math.sqrt(x)


def doppler_coefficient(speed_mps, f_c_hz, delta_t_s):
    """Temporal fading correlation J0(2 pi f_D dt) (Jakes), with J0 from
    Cephes (``_j0``): its rational branch up to 2 pi f_D dt = 5, its
    asymptotic branch beyond."""
    f_d = speed_mps * f_c_hz / _LIGHT_SPEED
    return _j0(float(2.0 * np.pi * f_d * delta_t_s))


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
    """Squared fading magnitudes, reported and actual, for a block of S slots,
    in pair order.

    Column i of every array belongs to V2V pair i and its matched uplink: the
    matched-pair model gives a sidelink one cross link, so the unmatched
    entries of the N x M cross field are never kept.  :func:`evolve_small_scale`
    gives every array a leading slot axis; a single slot may also be held
    without it, as :func:`rv2x.qosmodel.sinr` takes either.
    """

    g2_i: np.ndarray           # (S, M)  matched uplink pairing[i] direct; reported == actual
    g2_v_rsu: np.ndarray       # (S, M)  V2V TX -> RSU; reported == actual
    g2_v_hat: np.ndarray       # (S, M)  sidelink direct, as reported
    g2_v: np.ndarray           # (S, M)  sidelink direct, actual after aging
    g2_cross_hat: np.ndarray   # (S, M)  matched cross link pairing[i] -> i, as reported
    g2_cross: np.ndarray       # (S, M)  actual = reported + hidden error (can be < 0)
    e_cross: np.ndarray        # (S, M)  the hidden additive errors of the matched cross links
    e_direct: np.ndarray       # (S, M)  the unit exponentials driving sidelink aging


def evolve_small_scale(large, law, rng, pairing, slots):
    """Draw ``slots`` consecutive slots of fading state for the pairs matched
    by ``pairing`` (pair i to uplink ``pairing[i]``).

    Reported gains are fresh unit exponentials each slot (squared magnitudes
    of unit complex-normal fades).  The actual sidelink gain mixes the report
    with an independent exponential through the squared aging coefficient;
    the actual cross gain adds a hidden mixture error to the report.

    Stream contract: each slot takes the same raw draws, in the same order,
    as per-field ``rng.exponential(1.0, shape)`` calls for all N uplinks'
    ``g2_i``, then ``g2_v_rsu``, ``g2_v_hat``, ``e_direct`` and the full
    (N, M) cross report, then one ``law.sample(rng, (N, M))`` for the cross
    errors.  Of these only the entries read are kept: uplink ``pairing[i]``
    and cross entry ``(pairing[i], i)`` of each slot, in column i, bit for
    bit.  The consecutive exponentials are one fill per slot, and so are the
    mixture's uniforms and its normals; a block therefore equals that many
    one-slot calls on the same generator.  The fills go through buffers of
    a few slots, and the mixture is composed on the kept entries alone.
    """
    pairing = np.asarray(pairing)
    n, m = large.l_i.shape[0], pairing.shape[0]
    width = n + 3 * m + n * m
    block = max(1, _BUFFER_BYTES // (8 * width))
    ex = np.empty((min(block, slots), width))
    u = np.empty((ex.shape[0], n * m))
    z = np.empty((ex.shape[0], n * m))
    fills = list(zip(ex, u, z))
    cols = np.arange(m)
    cross = pairing * m + cols   # entry (pairing[i], i) of a row-major (N, M) field
    g2_i, g2_v_rsu, g2_v_hat, e_direct, g2_cross_hat, u_kept, z_kept = (
        np.empty((slots, m)) for _ in range(7))
    picks = ((g2_i, ex, pairing), (g2_v_rsu, ex, n + cols), (g2_v_hat, ex, n + m + cols),
             (e_direct, ex, n + 2 * m + cols), (g2_cross_hat, ex, n + 3 * m + cross),
             (u_kept, u, cross), (z_kept, z, cross))
    for lo in range(0, slots, block):
        b = min(block, slots - lo)
        for e_row, u_row, z_row in fills[:b]:
            rng.standard_exponential(out=e_row)
            rng.random(out=u_row)
            rng.standard_normal(out=z_row)
        # every index is in range, so "clip" only spares take a buffer
        for out, buf, idx in picks:
            np.take(buf[:b], idx, axis=1, out=out[lo:lo + b], mode="clip")
    e_cross = law._compose(u_kept, z_kept)
    # the uniforms are spent, so their array takes the actual cross gains
    g2_cross = np.add(g2_cross_hat, e_cross, out=u_kept)
    d2 = large.delta * large.delta
    return ChannelState(g2_i, g2_v_rsu, g2_v_hat, d2 * g2_v_hat + (1.0 - d2) * e_direct,
                        g2_cross_hat, g2_cross, e_cross, e_direct)
