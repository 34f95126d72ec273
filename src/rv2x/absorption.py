"""Absorption phase: probing powers, error-density recovery, and matching.

During this phase every matched pair transmits at fixed probing powers chosen
from a hazard-rate retention constraint.  The receiver logs one scalar probe
per slot; after T slots a Fourier-kernel deconvolution turns the probe set
into a nonparametric estimate of the hidden cross-error density, and the
pair/channel assignment is chosen by exact minimum-weight matching on a
recoverability score.
"""

import dataclasses

import numpy as np

from . import channel as chan
from .errors import ConfigurationError, InfeasibleMatching
from .scenario import noise_power


def collect_sample(true_rss, nominal_rss, p_i_a, l_cross, p_v_a, l_v, delta, g2_v_hat):
    """Deconvolution probes from received-power residuals, elementwise.

    Rescales the RSS gap by the cross-link received power and adds back the
    reported sidelink contribution so the probe equals the hidden cross error
    plus an independent exponential of known rate.
    """
    scale = p_i_a * l_cross
    return (true_rss - nominal_rss) / scale + (p_v_a * l_v / scale) * (1.0 - delta * delta) * g2_v_hat


def _kernel(a, w_cut, lambda_y):
    """Closed-form inverse-transform kernel evaluated at a = z_k - e."""
    a = np.asarray(a, dtype=float)
    small = np.abs(a) < 1e-8
    safe = np.where(small, 1.0, a)
    wa = w_cut * safe
    sin_wa = np.sin(wa)
    out = (2.0 / lambda_y) * (sin_wa - wa * np.cos(wa)) / (safe * safe)
    out += 2.0 * sin_wa / safe
    # series limit at a -> 0: 2W + 2W^3 a / (3 lambda)
    out[small] = 2.0 * w_cut + 2.0 * w_cut ** 3 * a[small] / (3.0 * lambda_y)
    return out


_FAR_RADIUS = 16.0     # probes beyond this many half-spans of a call's points take the series
_TERMS = 16            # series terms: relative truncation (_TERMS + 1) 16^-_TERMS 16/15 ~ 1e-18
_BLOCK = 2 ** 15       # entries per row block of the per-entry sums


def estimate_pdf(estimate, e):
    """Raw deconvolution density estimate at points ``e`` (may be negative).

    The probes are split about the call's points: with c the midpoint of
    ``e`` and h its half-span (at least 1/W), a probe with
    ``|z - c| > _FAR_RADIUS * h`` is far from every point.  Its ``1/a`` and
    ``1/a^2`` (``a = z - e``) are Taylor series in ``(e - c)/(z - c)``, the
    far-field expansion of fast multipole methods (Greengard and Rokhlin
    1987), cut after ``_TERMS`` terms, where the truncation is below 1e-18
    relative.  So the far probes enter through the moments
    ``sum sin(Wz) t^q`` and ``sum cos(Wz) t^q`` with ``t = h/(z - c)``,
    taken in one matrix product, and a polynomial in ``(e - c)/h`` per
    point.  A call of at most ``_TERMS`` points takes no series: all its
    probes are close.

    The close probes are summed entry by entry, in row blocks of at most
    ``_BLOCK`` entries, split by ``|W a|``.  Far entries (``|W a| >= 1``)
    expand ``sin W(z - e)`` and ``cos W(z - e)`` by angle addition, so a
    block reduces to four row sums of ``sin Wz_k`` and ``cos Wz_k``
    weighted by ``1/(Wa)`` and ``1/(Wa)^2``, which the far moments join
    before the angle addition with ``sin We`` and ``cos We`` per point.
    Near entries go through ``_kernel`` itself.  The split exists because
    angle addition forms ``sin Wa`` as a difference of O(1) products: near
    ``a = 0`` that rounding is divided by ``a^2`` and scaled by
    ``2/lambda_y`` (lambda_y reaches 1e-6 on default trials), which would
    move the density visibly.

    Which probes are far depends on the call's span, so a point's value can
    move by rounding with the other points of its call.
    """
    z = estimate.samples
    if z.size == 0:
        raise ConfigurationError("estimate has no samples")
    e = np.atleast_1d(np.asarray(e, dtype=float))
    w_cut = estimate.trunc_k * np.pi
    lam = estimate.lambda_y
    sums = np.zeros((4, e.size))      # W^-j sum sin Wz / a^j and cos alike, j = 1, 2
    near = np.zeros(e.size)
    close = z
    if e.size > _TERMS:
        e_lo, e_hi = float(e.min()), float(e.max())
        c = 0.5 * (e_lo + e_hi)
        h = max(0.5 * (e_hi - e_lo), 1.0 / w_cut)
        far = np.abs(z - c) > _FAR_RADIUS * h
        close = z[~far]
        zf = z[far]
        # moments of sin Wz and cos Wz against t^q, q = 1 .. _TERMS + 1
        powers = np.vander(h / (zf - c), _TERMS + 2, increasing=True)[:, 1:]
        mom = np.stack([np.sin(w_cut * zf), np.cos(w_cut * zf)]) @ powers
        # 1/a = h^-1 sum_p v^p t^(p+1) and 1/a^2 = h^-2 sum_p (p+1) v^p t^(p+2)
        coef = np.concatenate([mom[:, :_TERMS] / (w_cut * h),
                               mom[:, 1:] * (np.arange(1, _TERMS + 1) / (w_cut * h) ** 2)])
        sums += coef @ np.vander((e - c) / h, _TERMS, increasing=True).T
    if close.size:
        wz = w_cut * close
        sin_wz, cos_wz = np.sin(wz), np.cos(wz)
        step = max(1, _BLOCK // close.size)
        buf = np.empty((min(step, e.size), close.size))
        for lo in range(0, e.size, step):
            block = e[lo:lo + step]
            wa = close[None, :] - block[:, None]
            wa *= w_cut
            idx = np.flatnonzero((wa < 1.0) & (wa > -1.0))     # near entries, row-major
            g, k = np.divmod(idx, close.size)
            near[lo:lo + step] = np.bincount(
                g, weights=_kernel(close[k] - block[g], w_cut, lam), minlength=block.size)
            wa.reshape(-1)[idx] = np.inf
            inv = np.divide(1.0, wa, out=wa)                 # 1 / (W a), 0 on near entries
            tmp = buf[:block.size]
            sums[0, lo:lo + step] += np.multiply(inv, sin_wz, out=tmp).sum(axis=1)
            sums[1, lo:lo + step] += np.multiply(inv, cos_wz, out=tmp).sum(axis=1)
            inv *= inv
            sums[2, lo:lo + step] += np.multiply(inv, sin_wz, out=tmp).sum(axis=1)
            sums[3, lo:lo + step] += np.multiply(inv, cos_wz, out=tmp).sum(axis=1)
    we = w_cut * e
    sin_we, cos_we = np.sin(we), np.cos(we)
    # sin W(z - e) = sin Wz cos We - cos Wz sin We, cos alike
    sin_1 = cos_we * sums[0] - sin_we * sums[1]              # W^-1 sum sin(Wa) / a
    cos_1 = cos_we * sums[1] + sin_we * sums[0]              # W^-1 sum cos(Wa) / a
    sin_2 = cos_we * sums[2] - sin_we * sums[3]              # W^-2 sum sin(Wa) / a^2
    out = (2.0 / lam) * w_cut ** 2 * (sin_2 - cos_1) + 2.0 * w_cut * sin_1 + near
    return out / (2.0 * np.pi * z.size)


@dataclasses.dataclass
class DeconvEstimate:
    """Recovered cross-error density for one pair.

    Keeps the raw probes so the estimate is exactly reproducible.
    """

    samples: np.ndarray
    lambda_y: float
    trunc_k: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float).ravel()
        if self.samples.size == 0:
            raise ConfigurationError("DeconvEstimate needs at least one sample")
        self.lambda_y = float(self.lambda_y)
        self.trunc_k = int(self.trunc_k)

    def pdf(self, e):
        return estimate_pdf(self, e)


def _capability_bracket(delta, o, k):
    beta = k * np.pi * (1.0 - delta * delta)
    bo = beta * o
    return np.sqrt(1.0 + bo * bo) + np.arcsinh(bo) / bo


def adaptation_capability_bound(delta, o, k, t):
    """Sampling-noise ceiling on the pointwise squared estimation error.

    Decreases as 1/T and grows with the received-power ratio o; the spectral
    tail of the hidden law is excluded (it is negligible for smooth mixtures
    at the default cutoff).
    """
    if not 0.0 <= delta < 1.0:
        raise ConfigurationError("delta must lie in [0, 1)")
    if o <= 0 or t < 1:
        raise ConfigurationError("o must be positive and t >= 1")
    return (k * k / (4.0 * t)) * _capability_bracket(delta, o, k) ** 2


def absorption_power(lambda_m, box):
    """Probing powers (p_i, p_v) minimising the recoverability score.

    ``box`` is (pi_min, pi_max, pv_min, pv_max).  The retention constraint
    fixes a floor on p_v/p_i; the score decreases with p_i/p_v, so the
    solution rides the floor (or the box corner when the floor is slack) and
    takes the largest transmit powers doing so.
    """
    pi_min, pi_max, pv_min, pv_max = box
    if not (0 < pi_min <= pi_max and 0 < pv_min <= pv_max):
        raise ConfigurationError("power box must satisfy 0 < min <= max")
    if not 0.0 <= lambda_m <= 1.0:
        raise ConfigurationError("retention weight must lie in [0, 1]")
    if lambda_m <= pi_min * pv_min / (pi_max * pv_max):
        return pi_max, pv_min
    if lambda_m <= pi_min / pi_max:
        return pi_max, pi_max * pv_max * lambda_m / pi_min
    return pi_min / lambda_m, pv_max


def hungarian_match(weights):
    """Exact minimum-weight perfect matching (rows -> columns), O(N^3).

    Shortest augmenting paths with row and column potentials (Jonker and
    Volgenant 1987, in the form of Crouse 2016): each row in turn is added
    by a Dijkstra search over reduced costs ``w - u - v``, and the
    potentials then certify that every edge of the matching is tight
    (reduced cost zero) and no reduced cost is negative.  ``+inf`` entries
    are forbidden edges; ``InfeasibleMatching`` is raised when no finite
    perfect matching exists.

    Ties are broken lexicographically: among the optimal matchings the
    lowest row gets the lowest column, then the next row, and so on.  Every
    optimal matching uses tight edges only, so each row in turn moves to
    its lowest tight column along an alternating path of tight edges over
    the rows not yet fixed.  An edge counts as tight when its reduced cost
    is at most ``1e-12 * N`` times the largest magnitude among its weight
    and its two potentials.  The scale is per entry because weights within
    one matrix span up to 24 orders of magnitude: a tolerance scaled by the
    largest weight of the matrix ties edges that are not tied and returns
    a costlier matching.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0] if w.ndim == 2 else -1
    if w.shape != (n, n):
        raise ConfigurationError("weight matrix must be square")
    if np.isnan(w).any() or np.isneginf(w).any():
        raise ConfigurationError("weights must be finite or +inf")

    u = np.zeros(n)
    v = np.zeros(n)
    col4row = np.full(n, -1, dtype=np.int64)
    row4col = np.full(n, -1, dtype=np.int64)
    for cur in range(n):
        dist = np.full(n, np.inf)         # shortest reduced path cost to each column
        path = np.full(n, -1, dtype=np.int64)
        done = np.zeros(n, dtype=bool)    # columns whose distance is final
        seen = []                         # rows reached besides ``cur``
        row, min_val = cur, 0.0
        while True:
            red = min_val + w[row] - u[row] - v
            better = (red < dist) & ~done
            dist[better] = red[better]
            path[better] = row
            open_dist = np.where(done, np.inf, dist)
            min_val = open_dist.min()
            if min_val == np.inf:
                raise InfeasibleMatching("no finite-weight perfect matching")
            ties = np.flatnonzero(open_dist == min_val)
            free = ties[row4col[ties] < 0]
            col = free[0] if free.size else ties[0]
            done[col] = True
            if row4col[col] < 0:
                break
            row = row4col[col]
            seen.append(row)
        u[cur] += min_val
        if seen:
            seen = np.array(seen)
            u[seen] += min_val - dist[col4row[seen]]
        v[done] -= min_val - dist[done]
        while True:  # flip the augmenting path ending at the free column
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == cur:
                break

    scale = np.maximum(np.abs(w), np.maximum(np.abs(u)[:, None], np.abs(v)[None, :]))
    tight = np.isfinite(w) & (w - u[:, None] - v[None, :] <= 1e-12 * n * scale)
    tight[np.arange(n), col4row] = True
    movable = np.ones(n, dtype=bool)      # rows whose column is not yet fixed
    for r in range(n):
        movable[r] = False
        c0 = col4row[r]
        lower = np.flatnonzero(tight[r, :c0])
        if lower.size:
            # columns from which an alternating path of tight edges over the
            # movable rows ends at c0: handing such a column to r frees c0
            step = tight[row4col] & movable[row4col][:, None]
            reach = np.zeros(n, dtype=bool)
            reach[c0] = True
            nxt = np.full(n, -1, dtype=np.int64)
            frontier = np.array([c0])
            while frontier.size:
                hit = step[:, frontier] & ~reach[:, None]
                new = np.flatnonzero(hit.any(axis=1))
                nxt[new] = frontier[hit[new].argmax(axis=1)]
                reach[new] = True
                frontier = new
            lower = lower[reach[lower]]
            if lower.size:
                row, col = r, lower[0]
                while True:
                    owner = row4col[col]
                    row4col[col] = row
                    col4row[row] = col
                    if col == c0:
                        break
                    row, col = owner, nxt[col]
    return col4row


@dataclasses.dataclass
class AbsorptionPlan:
    """Outcome of the probing phase for one epoch."""

    pairing: np.ndarray    # (M,) matched V2I index per pair
    p_i_mw: np.ndarray     # (M,) probing uplink power per matched pair
    p_v_mw: np.ndarray     # (M,)
    lambda_y: np.ndarray   # (M,) exponential rate of the nuisance component
    weights: np.ndarray    # (M, N) full matching-weight matrix


def run_absorption(large, config, law, rng):
    """Match pairs, probe for T slots, and recover per-pair error densities.

    Returns (plan, estimates, fading): ``fading`` is the
    :class:`rv2x.channel.ChannelState` of the T probing slots, from which the
    caller computes the probing phase's realised QoS.
    """
    m = large.l_v.shape[0]
    n = large.l_i.shape[0]
    if m != n:
        raise ConfigurationError("pair counts of both link classes must agree")
    lam = config.hr_weight
    box = (config.pi_min_mw, config.pi_max_mw, config.pv_min_mw, config.pv_max_mw)
    delta = large.delta
    k = config.trunc_k
    t_len = config.absorption_len
    sigma2 = noise_power(config)

    # pair i on channel j weighs the squared capability bracket at the
    # probing powers and its received-power ratio o[i, j]
    p_i, p_v = absorption_power(lam, box)
    ratio = p_v * large.l_v[:, None] / (p_i * large.l_cross.T)
    weights = _capability_bracket(delta, ratio, k) ** 2
    if config.identity_matching:
        pairing = np.arange(m)
    else:
        pairing = hungarian_match(weights)

    p_i_a, p_v_a = np.full(m, p_i, dtype=float), np.full(m, p_v, dtype=float)
    l_cross_pair = large.l_cross[pairing, np.arange(m)]
    lambda_y = p_i_a * l_cross_pair / (p_v_a * large.l_v * (1.0 - delta * delta))

    fading = chan.evolve_small_scale(large, law, rng, pairing, t_len)   # (T, M) columns
    rss = p_i_a * l_cross_pair * fading.g2_cross + p_v_a * large.l_v * fading.g2_v + sigma2
    nominal = (p_i_a * l_cross_pair * fading.g2_cross_hat + p_v_a * large.l_v * fading.g2_v_hat
               + sigma2)
    probes = collect_sample(rss, nominal, p_i_a, l_cross_pair, p_v_a,
                            large.l_v, delta, fading.g2_v_hat)

    estimates = [
        DeconvEstimate(samples=probes[:, i], lambda_y=float(lambda_y[i]), trunc_k=k)
        for i in range(m)
    ]
    plan = AbsorptionPlan(pairing=pairing, p_i_mw=p_i_a, p_v_mw=p_v_a,
                          lambda_y=lambda_y, weights=weights)
    return plan, estimates, fading
