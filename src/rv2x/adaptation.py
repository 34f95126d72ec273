"""Adaptation phase: per-slot power selection from the recovered error law.

Everything is driven by the interference-budget parameter c, proportional to
p_i/p_v.  Per slot the allocator:

1. bounds c from below by the uplink rate requirement and the power box,
2. declares the slot infeasible when that floor lies above the box or its
   satisfaction estimate misses the target probability,
3. picks the c above the floor whose noise-amplification functional u is
   closest to one, and keeps it when its satisfaction estimate meets the
   target.  u depends only on the pair, and where it rises with c (Prop. 1)
   the pick is one exact root of u = 1 per pair, found once per block of
   slots and clipped to each slot's bracket,
4. otherwise bounds c from above by the delay-satisfaction functional (the
   largest c whose satisfaction estimate still meets the target, found by a
   bracketing Brent-Dekker search between the floor and that pick) and picks
   again below the bound, falling back to the floor if the estimate dips
   below the target there.  Satisfaction is queried only at budgets that
   decide the deployed power: the floor, that pick and the search, and
5. maps c to box powers, preferring the highest feasible transmit powers.

The satisfaction functional folds the empirical characteristic function of
the probes into a truncated-frequency integral over the window x = e + ell in
[0, K], where K grows with ell so that the window always holds the shifted
probes (``_beta_window``).  It is evaluated per probe in closed form, from
sine and exponential integrals (``_beta_exact``), so its cost and accuracy do
not depend on how far the probes spread.

That kernel splits each probe's two points y = z + ell and the window edge
ym = y - K at |W b| = 60.  The far points, nearly all of them, take the
asymptotic series of E1 and of Si's auxiliary functions f and g in 1/b,
which turn a lane's sum into real moments of cos(W b), sin(W b) and 1
against powers of 1/b with per-lane weights.  The near points take E1 at
zeta = -b (c + iW) and Si(x) = pi/2 + Im E1(ix) from one evaluator,
``_e1_scaled``: E1's power series (DLMF 6.6.2) where |zeta| + Re zeta <= 3,
that is at small |zeta| or near the negative real axis, its continued
fraction (DLMF 6.9.1) elsewhere below |zeta| = 60, and the asymptotic
series beyond.  The S2(y) kernels of the flat and decaying pieces cancel
exactly and are never formed, and the two branch-cut jumps merge into one
exponential on the probes inside the window.  Where the window takes its
clearance, K = ell + max z + k1/2, the edge points z - (max z + k1/2) do
not depend on the lane: they are formed once per call, rounded once, and
their moments taken once, so such a lane pays per probe only for its points
y.  The far moments stand for cos and sin of exactly the rounded phases
W y and W ym that Si and S2 are given, yet no lane takes them point by
point: each phase is W z + W s + d for the lane's shift s, with a residual
d that TwoSum makes exact (``_shifted_columns``), so cos and sin of W z are
taken once per call and each lane's moments are rotated by its own W s.
The shared edge points, formed once per call, take theirs directly.
"""

import dataclasses
import math

import numpy as np

from . import qosmodel
from .absorption import DeconvEstimate
from .baselines import GaussianFit, HprRegion
from .errors import ConfigurationError, NonFiniteSatisfaction

_ROOT_REL_TOL = 1e-6    # root-search tolerance on c (log width); the kept
                        # endpoint always sits on the satisfied side
_ROOT_MAX_ITER = 100

_FAR = 60.0             # |W b| from which a probe point takes the asymptotic series
_E1_TERMS = 9           # terms of the asymptotic E1 series, as in _e1_scaled
_E1_SERIES = 3.0        # |zeta| + Re zeta up to which a near zeta takes E1's power series
# (-1)^k / (k k!) for k = 1..174, the most terms _e1_series takes below |zeta| = 60
_E1_SERIES_COEF = np.array([0.0] + [(-1) ** k / (k * math.factorial(k)) for k in range(1, 175)])
_EULER = 0.57721566490153286061     # Euler's constant gamma
_SI_TERMS = 7           # terms of each of Si's auxiliary series f and g in
                        # Si(x) = sgn(x) pi/2 - f cos x - g sin x (DLMF 6.12);
                        # within 3e-16 of 30-digit Si from |W b| = 60 on
_BLOCK = 2 ** 13        # lanes x probes per block of the beta workspace
_U_GRID = 129           # points per multisection round of the root of u = 1


@dataclasses.dataclass
class AdaptationContext:
    """One V2V pair's error model, link gains and QoS targets.

    ``estimate`` is the error model the allocator runs on: the
    deconvolution estimate, a Gaussian moment fit, or a high-probability
    region.  Nothing in it is per slot: a slot's fading reports are passed
    as arrays to ``solve_slots`` and ``beta``.
    """

    estimate: object
    lambda_y: float          # exponential rate of the probe nuisance component
    delta2: float            # squared fading-aging coefficient
    gamma_v: float           # sidelink SINR threshold
    sigma2: float            # noise power, mW
    l_v: float               # sidelink direct large-scale gain
    l_cross: float           # matched cross-link gain (V2I TX -> V2V RX)
    l_i: float               # uplink direct gain
    l_v_rsu: float           # V2V TX -> RSU gain
    rate_gamma: float        # uplink SINR floor from the rate requirement
    prob_req: float
    box: tuple               # (pi_min, pi_max, pv_min, pv_max) in mW
    trunc_k1: int
    trunc_k2: int

    def __post_init__(self):
        if not 0.0 <= self.delta2 < 1.0:
            raise ConfigurationError("aging coefficient must satisfy 0 <= delta^2 < 1")
        if not isinstance(self.estimate, (DeconvEstimate, GaussianFit, HprRegion)):
            raise ConfigurationError("unrecognised error-model object")


def c_param(p_i, p_v, pair):
    """Interference-budget parameter of a power pair."""
    return pair.gamma_v * pair.l_cross / (pair.l_v * (1.0 - pair.delta2)) * p_i / p_v


def _c_range(pair):
    """(c_lo, c_mid, c_hi): budgets at the box corners (pi_min, pv_max),
    (pi_max, pv_max) and (pi_max, pv_min)."""
    pi_min, pi_max, pv_min, pv_max = pair.box
    return (c_param(pi_min, pv_max, pair), c_param(pi_max, pv_max, pair),
            c_param(pi_max, pv_min, pair))


def ell(c, pair, g2_v_hat, g2_cross_hat):
    """Knee of the satisfaction profile at budget c for a slot's reported
    fading (noise term dropped)."""
    return g2_cross_hat - (g2_v_hat / c) * pair.delta2 / (1.0 - pair.delta2)


# --------------------------------------------------------------------- u functional


def u_value(c, lambda_y, k2):
    """Noise-amplification functional of the adaptation bound at budget c."""
    c = np.asarray(c, dtype=float)
    w = k2 * np.pi
    s = w / lambda_y
    t1 = math.sqrt(1.0 + s * s)
    t2 = math.log((t1 - 1.0) / s)
    root = np.sqrt(c * c + w * w)
    t3 = (c / lambda_y) * np.log((w + root) / c)
    t4 = (1.0 / c) * np.log(c * w / (root + w))
    return t1 + t2 + t3 + t4


def _prop1_lhs(x, lambda_y, k2):
    d = 1.0 / (k2 * np.pi)
    r = np.hypot(x, d)
    return x / r - np.log((x + r) / d) - lambda_y * x * x * np.log(x + r)


def check_prop1_condition(lambda_y, k2, c_grid):
    """Verify the sufficient monotonicity condition of u on a c-grid.

    Raises :class:`ConfigurationError` naming the violating point; returns
    True when the condition holds everywhere on the grid.
    """
    x = 1.0 / np.asarray(c_grid, dtype=float)
    lhs = _prop1_lhs(x, lambda_y, k2)
    bad = lhs > 0.0
    if bad.any():
        i = int(np.argmax(lhs))
        raise ConfigurationError(
            f"u-monotonicity condition fails at x = {x.flat[i]:.6g} "
            f"(lhs = {lhs.flat[i]:.3e}) for lambda_y = {lambda_y:.6g}, k2 = {k2}")
    return True


def prop1_holds(lambda_y, k2, c_lo, c_hi, n_grid=256):
    grid = np.geomspace(c_lo, c_hi, n_grid)
    return bool((_prop1_lhs(1.0 / grid, lambda_y, k2) <= 0.0).all())


# --------------------------------------------------------------------- beta: exact form


def _descending(terms):
    """Order of points by falling term count, the sorted counts, and for
    each level k the number of points with at least k terms: level k of a
    backward recurrence runs on that prefix of the sorted points."""
    ks = terms.astype(np.int16)         # a stable sort of int16 is a radix sort
    order = np.argsort(-ks, kind="stable")
    ks = ks[order]
    return order, ks, np.searchsorted(-ks, -np.arange(ks[0] + 1), side="right")


def _e1_series(z):
    """exp(z) E1(z) from E1(z) = -gamma - ln z - sum_{k>=1} (-z)^k / (k k!)
    (DLMF 6.6.2), by Horner in ceil(24 + 2.5 |z|) terms per point."""
    order, ks, counts = _descending(np.ceil(24.0 + 2.5 * np.abs(z)).astype(int))
    zs = z[order]
    s = np.zeros_like(zs)
    # never a complex multiply in place: on a one-element array NumPy then
    # rounds without the fused multiply-add it uses on longer ones, and a
    # point's value would depend on how many points share its level
    tmp = np.empty_like(zs)
    for k in range(ks[0], 0, -1):
        n = counts[k]
        np.multiply(s[:n], zs[:n], out=tmp[:n])
        np.add(tmp[:n], _E1_SERIES_COEF[k], out=s[:n])
    out = np.empty_like(z)
    out[order] = np.exp(zs) * (-_EULER - np.log(zs) - s * zs)
    return out


def _e1_fraction(z, reach):
    """exp(z) E1(z) = 1/(z+1- 1/(z+3- 4/(z+5- 9/(z+7- ...)))), the even part
    of DLMF 6.9.1, evaluated backward from level N = ceil(10 + 150 / reach).

    The tail below level N starts at its large-k form
    t_k = k + sqrt(k z) + z/2 - 1, which saves about a fifth of the levels.
    """
    order, ks, counts = _descending(np.ceil(10.0 + 150.0 / reach).astype(int))
    zs = z[order]
    k1 = ks + 1.0
    t = k1 + np.sqrt(k1 * zs) + 0.5 * zs - 1.0
    for k in range(ks[0], 0, -1):
        part = t[:counts[k]]
        np.divide(float(k * k), part, out=part)
        np.subtract(zs[:counts[k]], part, out=part)
        part += 2.0 * k - 1.0
    out = np.empty_like(z)
    out[order] = 1.0 / t
    return out


def _e1_scaled(zeta):
    """exp(zeta) E1(zeta) for nonzero zeta in the closed first quadrant or
    the third quadrant below the negative real axis.

    Each point takes one of three forms, chosen by itself alone, so its value
    does not depend on the other points of the call:

    - |zeta| >= 60: the asymptotic series sum_k (-1)^k k! / zeta^(k+1)
      (DLMF 6.12.1) in 9 terms;
    - otherwise, where L = |zeta| + Re zeta = 2 (Re sqrt zeta)^2 is at most
      3, which holds for |zeta| <= 1.5 and close to the negative real axis:
      the power series (``_e1_series``), whose cancellation grows like e^L;
    - elsewhere the continued fraction (``_e1_fraction``), whose error
      falls like exp(-2 sqrt(2 N L)) in N levels.

    Below |zeta| = 60 the relative error is under 3e-15 against 40-digit
    values on a log-radius by angle grid that straddles both switches.
    """
    out = np.empty(zeta.shape, dtype=complex)
    big = np.abs(zeta) >= 60.0
    zb = zeta[big]
    if zb.size:
        inv = 1.0 / zb
        # sum_{k<=8} (-1)^k k! / zeta^k by Horner, not in place (_e1_series)
        s = np.full_like(zb, 40320.0)
        for a in (-5040.0, 720.0, -120.0, 24.0, -6.0, 2.0, -1.0, 1.0):
            s = s * inv + a
        out[big] = inv * s
    zs = zeta[~big]
    if zs.size:
        reach = np.abs(zs) + zs.real
        series = reach <= _E1_SERIES
        near = np.empty_like(zs)
        if series.any():
            near[series] = _e1_series(zs[series])
        if not series.all():
            near[~series] = _e1_fraction(zs[~series], reach[~series])
        out[~big] = near
    return out


def _sine_kernel(b, w_cut):
    b = np.asarray(b, dtype=float)
    small = np.abs(b) < 1e-9
    safe = np.where(small, 1.0, b)
    out = 2.0 * np.sin(w_cut * safe) / safe
    if small.any():
        out[small] = 2.0 * w_cut * np.cos(w_cut * b[small])
    return out


def _far_weights(cs, w_cut, w_y, w_ym, w_s2):
    """Per-lane weights of the far-point moments, shape (lanes, 2, D + 1, 3).

    Axis 1 is the point (y, ym); row j of axis 2, j = 0..D with
    D = 2 * _SI_TERMS, weighs the moments of b^-j (row 0 of sgn(b)), and
    axis 3 the cosine, sine and constant column of the moments.
    A far point b of a lane contributes (+-)pi sgn(b) + cos(W b) C(1/b)
    + sin(W b) S(1/b).  C and S join three series in 1/b: the E1 series
    -sum_k k! (q b)^-(k+1) with q = c + iW, whose imaginary and real parts
    multiply cos and sin after the rotation by e^{iWb}, and Si's auxiliary
    functions f and g (Si(x) = sgn(x) pi/2 - f(x) cos x - g(x) sin x, DLMF
    6.12), plus the S2(ym) kernel 2 sin(W ym) / ym at power one.
    """
    deg = 2 * _SI_TERMS
    f = np.zeros(deg + 1)
    g = np.zeros(deg + 1)
    for k in range(_SI_TERMS):
        f[2 * k + 1] = (-1) ** k * math.factorial(2 * k) / w_cut ** (2 * k + 1)
        g[2 * k + 2] = (-1) ** k * math.factorial(2 * k + 1) / w_cut ** (2 * k + 2)
    inv_q = 1.0 / (cs + 1j * w_cut)
    e1 = np.zeros((cs.size, deg + 1), dtype=complex)
    power = inv_q
    for k in range(_E1_TERMS):
        e1[:, k + 1] = -math.factorial(k) * power
        power = power * inv_q
    out = np.zeros((cs.size, 2, deg + 1, 3))
    out[:, 0, :, 0] = 2.0 * w_y[:, None] * e1.imag - 2.0 * f
    out[:, 0, :, 1] = 2.0 * w_y[:, None] * e1.real - 2.0 * g
    out[:, 0, 0, 2] = math.pi
    out[:, 1, :, 0] = 2.0 * f - 2.0 * w_ym[:, None] * e1.imag
    out[:, 1, :, 1] = 2.0 * g - 2.0 * w_ym[:, None] * e1.real
    out[:, 1, 1, 1] += 2.0 * w_s2
    out[:, 1, 0, 2] = -math.pi
    return out


def _near_terms(b, edge, c, w, w_s2, w_cut):
    """Exact per-point terms of the probes with |W b| < 60, one per entry.

    ``edge`` marks the points ym among the points y, one flag per entry or
    one for all; ``w`` is 1 + c/lambda at a point y and (1 + c/lambda)
    e^{-cK} at a point ym.  Both integrals come from one ``_e1_scaled``
    call: E1(zeta) at zeta = -b (c + iW), and Si from Si(x) = pi/2 + Im
    E1(ix) at x = W |b| (DLMF 6.5), odd in x.  Si so formed is within about
    4e-16 absolute, which at |x| < 1e-3 is more than its relative
    precision: the terms it enters are absolute.
    """
    n = b.size
    x = w_cut * b
    zeta = -b * (c + 1j * w_cut)
    e1 = _e1_scaled(np.concatenate([np.where(zeta == 0, 1.0, zeta),
                                    1j * np.where(x == 0, 1.0, np.abs(x))]))
    m = np.where(np.abs(b) < 1e-12, 2.0 * np.arctan(w_cut / c),
                 -2.0 * np.imag(np.exp(1j * x) * e1[:n]))
    si = np.sign(x) * (0.5 * np.pi + np.imag(np.exp(-1j * np.abs(x)) * e1[n:]))
    out = 2.0 * si - w * m
    edge = np.broadcast_to(edge, b.shape)
    if edge.any():
        out[edge] = w_s2[edge] * _sine_kernel(b[edge], w_cut) - out[edge]
    return out


def _shifted_columns(p, c, a, cos_a, sin_a, out, scratch):
    """cos(p - c) and sin(p - c) into ``out``, from a = W z and its cos and sin.

    p = fl(W b) is the rounded phase of a point b = z + s, and c = fl(W s)
    the phase of its shift, one per row.  TwoSum (Knuth, TAOCP vol. 2,
    4.2.2) splits p - a exactly into fl(p - a) and its rounding error, and
    fl(p - a) - c is exact by Sterbenz's lemma unless c is within a few ulp
    of zero, so the residual d = p - a - c is formed to about an ulp of
    itself.  d is a few ulp of the largest of |p|, |a| and |c|: at most 2.9
    over three default-scale trials, whose phases reach 4.9e8, so |d| <
    1e-7 there.  The columns cos a - d (sin a + d/2 cos a) and
    sin a + d (cos a - d/2 sin a) drop only the terms in d^3, under 2e-22
    there.  Rotated by c they are cos and sin of the very rounded phase p.
    ``scratch`` is three rows shaped as p.
    """
    s, e, t = scratch
    np.subtract(p, a, out=s)            # TwoSum(p, -a): s + e = p - a exactly
    np.subtract(s, p, out=e)
    np.subtract(s, e, out=t)
    np.subtract(p, t, out=t)
    np.add(e, a, out=e)
    np.subtract(t, e, out=e)
    np.subtract(s, c, out=s)
    np.add(s, e, out=s)                 # d
    np.multiply(s, 0.5, out=e)
    np.multiply(e, cos_a, out=t)
    np.add(t, sin_a, out=t)
    np.multiply(t, s, out=t)
    np.subtract(cos_a, t, out=out[0])
    np.multiply(e, sin_a, out=t)
    np.subtract(cos_a, t, out=t)
    np.multiply(t, s, out=t)
    np.add(sin_a, t, out=out[1])


def _beta_exact(cs, ells, z, lambda_y, k1, w_cut, shared=None, edge=None):
    """Per-sample closed form of the satisfaction integral.

    For probe offset y = z + ell and ym = y - K the flat-window piece
    integrates to sine integrals Si(W b) and kernels S2(b) = 2 sin(W b) / b,
    and the decaying piece to vertical-path exponential integrals
    M(b) = -2 Im(e^{iWb} e^zeta E1(zeta)), zeta = -b (c + iW), whose
    branch-cut crossing adds 2 pi e^{-cb} on b >= 1e-12.  Per probe the two
    pieces sum to

        2 Si(W y) - 2 Si(W ym) + (1 - e^{-cK}) / lambda * S2(ym)
        + (1 + c/lambda) (e^{-cK} M(ym) - M(y)) + jumps:

    their -S2(y)/lambda and +S2(y)/lambda cancel exactly, and the two jumps
    cancel where both are present (e^{-cK} e^{-c ym} = e^{-cy}), leaving
    -2 pi (1 + c/lambda) e^{-cy} on ym < 1e-12 <= y, one exponential.

    A point with |W b| >= 60 is far: its E1 and Si take their asymptotic
    series in 1/b, so it contributes pi sgn(b) and cos(W b), sin(W b) times
    polynomials in 1/b whose coefficients depend only on the lane
    (``_far_weights``).  Summed over the lane's probes that is a weighted
    sum of moments of cos, sin and 1 against the powers of 1/b, one batched
    matrix product per block.  The near points (under 1% of them at the
    default scale) take E1 and Si from E1's power series or continued
    fraction (``_near_terms``), those of both halves of a block in one call.

    The lanes marked in ``shared`` have the window K = ell + ``edge``, so
    their edge points ym = z - edge do not depend on the lane.  Their far
    moments are taken once per call, and each such lane only contracts its
    weights with them; their near edge points, if any, still take the exact
    path lane by lane.  Their ym all lie below -k1/2, so only y >= 1e-12
    decides their jump.  The edge points are rounded once, as z - edge, not
    as (z + ell) - K: the two differ by an ulp of K, to which beta at small
    lambda is sensitive, not by accuracy.  The other lanes form ym = y - K
    themselves.

    The cos and sin columns are those of the rounded phases W y and W ym,
    the same numbers Si and the S2 kernel are given: at small lambda the
    S2(ym) weight (1 - e^{-cK}) / lambda reaches 1e5 and more, and would
    amplify a phase rounded once more, as plain angle addition from W z and
    W ell rounds it.  A lane reaches them from cos and sin of a = W z,
    taken once per call: each of its halves shifts the probes by s (ell for
    y, ell - K for ym), its phases are a + W s + d with a residual d that
    ``_shifted_columns`` forms exactly, and its moments are rotated by W s,
    so a lane takes sin and cos of its two shifts only.  The shared edge
    points are their own base, with s = 0 and d = 0, so their columns are
    cos and sin taken directly of their phases, once per call.  Every shared
    lane weighs their moments by that large S2 weight, and this keeps them
    bit for bit as before at no cost: formed from W z instead, their
    rounding moved beta by up to 2e-13 relative on a quarter of the default
    fixture's queries.

    Vectorised over lanes: each row is one (c, ell) query against all
    probes; ``k1`` is the window length K, per lane or one for all.  Lanes
    go through blocks of about ``_BLOCK`` elements in one workspace
    allocated per call, which every temporary of the block is written into,
    and each lane's value does not depend on the other lanes of its call.
    """
    n, t = cs.size, z.size
    out = np.empty(n)
    k1s = np.broadcast_to(np.asarray(k1, dtype=float), cs.shape)
    shared = np.zeros(n, dtype=bool) if shared is None else np.asarray(shared, dtype=bool)
    decay = np.exp(-cs * k1s)
    w_y = 1.0 + cs / lambda_y
    w_ym = w_y * decay
    w_s2 = (1.0 - decay) / lambda_y
    weights = _far_weights(cs, w_cut, w_y, w_ym, w_s2)
    deg = weights.shape[2] - 1

    rows = max(1, min(n, _BLOCK // max(t, 1)))
    work = np.empty((deg + 10, rows, t))
    powers, cols, (y, ym, tmp) = work[:deg + 1], work[deg + 1:deg + 4], work[deg + 4:deg + 7]
    cols[2] = 1.0
    # the probes' phases W z with their cos and sin, on every row: the
    # columns' arithmetic then runs on equal shapes, not broadcasts
    probes = work[deg + 7:]
    np.multiply(z, w_cut, out=probes[0, 0])
    np.cos(probes[0, 0], out=probes[1, 0])
    np.sin(probes[0, 0], out=probes[2, 0])
    probes[:, 1:] = probes[:, :1]
    masks = np.empty((2, rows, t), dtype=bool)
    moments = np.empty((2, rows, deg + 1, 3))

    def far_moments(b, shift, kind, base=probes):
        """Moments of the far points ``b``, the first rows of a workspace
        array holding the points of ``base`` (their phases, cos and sin)
        shifted by ``shift``, one per row, into ``moments[kind]``, and the
        flat indices of the near points, which they skip."""
        m = b.shape[0]
        pw, cl, tmp_b, mask_b = powers[:, :m], cols[:, :m], tmp[:m], masks[0, :m]
        np.multiply(b, w_cut, out=tmp_b)
        c = w_cut * shift
        # the powers beyond 1/b are formed after the columns: scratch till then
        _shifted_columns(tmp_b, c[:, None], *base[:, :m], cl[:2], pw[2:5])
        np.abs(tmp_b, out=tmp_b)
        np.less(tmp_b, _FAR, out=mask_b)
        near = np.flatnonzero(mask_b)
        np.sign(b, out=pw[0])
        np.divide(1.0, b, out=pw[1])
        if near.size:
            # the near points take the exact path and leave the moments
            np.copyto(pw[0], 0.0, where=mask_b)
            np.copyto(pw[1], 0.0, where=mask_b)
        for j in range(2, deg + 1):
            np.multiply(pw[j - 1], pw[1], out=pw[j])
        mom = moments[kind, :m]
        np.matmul(pw.transpose(1, 0, 2), cl.transpose(1, 2, 0), out=mom)
        # rotate the moments of cos(p - c) and sin(p - c) by c
        cos_c, sin_c = np.cos(c)[:, None], np.sin(c)[:, None]
        mc, ms = mom[:, :, 0] * cos_c, mom[:, :, 1] * cos_c
        mc -= mom[:, :, 1] * sin_c
        ms += mom[:, :, 0] * sin_c
        mom[:, :, 0], mom[:, :, 1] = mc, ms
        return mom, near

    def near_sums(b_y, lane_y, b_ym, lane_ym, g):
        """Exact terms of the near points y ``b_y`` and ym ``b_ym`` of a
        block, from one ``_near_terms`` call, each half summed onto its
        lanes (indices into the block's lanes ``g``)."""
        if not (b_y.size or b_ym.size):
            return np.zeros(g.size), np.zeros(g.size)
        lane = np.concatenate([lane_y, lane_ym])
        h = g[lane]
        edge_pt = np.arange(lane.size) >= lane_y.size
        vals = _near_terms(np.concatenate([b_y, b_ym]), edge_pt, cs[h],
                           np.where(edge_pt, w_ym[h], w_y[h]), w_s2[h], w_cut)
        return (np.bincount(lane_y, weights=vals[:lane_y.size], minlength=g.size),
                np.bincount(lane_ym, weights=vals[lane_y.size:], minlength=g.size))

    with np.errstate(divide="ignore", invalid="ignore"):
        if shared.any():
            np.subtract(z, edge, out=ym[0])
            # the edge points are their own base: d = 0, and their columns
            # are libm's cos and sin of their phases
            p_edge = w_cut * ym[:1]
            mom, near = far_moments(ym[:1], np.zeros(1), 1,
                                    np.stack([p_edge, np.cos(p_edge), np.sin(p_edge)]))
            edge_moments, edge_near = mom[0].copy(), ym[0, near].copy()
        for own_edge, lanes in ((True, np.flatnonzero(~shared)), (False, np.flatnonzero(shared))):
            for lo in range(0, lanes.size, rows):
                g = lanes[lo:lo + rows]
                m = g.size
                y_b, ym_b, tmp_b = y[:m], ym[:m], tmp[:m]
                mask_b, win_b = masks[0, :m], masks[1, :m]
                np.add(z, ells[g, None], out=y_b)
                mom_y, near_y = far_moments(y_b, ells[g], 0)
                np.greater_equal(y_b, 1e-12, out=win_b)
                if own_edge:
                    np.subtract(y_b, k1s[g, None], out=ym_b)
                    mom_ym, near_ym = far_moments(ym_b, ells[g] - k1s[g], 1)
                    np.less(ym_b, 1e-12, out=mask_b)
                    np.logical_and(win_b, mask_b, out=win_b)
                    b_ym, lane_ym = ym_b.reshape(-1)[near_ym], near_ym // t
                else:
                    b_ym, lane_ym = np.tile(edge_near, m), np.repeat(np.arange(m), edge_near.size)
                near_y_sum, near_ym_sum = near_sums(y_b.reshape(-1)[near_y], near_y // t,
                                                    b_ym, lane_ym, g)
                total = near_y_sum + np.einsum("ljk,ljk->l", mom_y, weights[g, 0])
                if own_edge:
                    total += near_ym_sum + np.einsum("ljk,ljk->l", mom_ym, weights[g, 1])
                else:
                    total += near_ym_sum
                    total += np.einsum("jk,ljk->l", edge_moments, weights[g, 1])
                # the merged branch-cut jumps
                np.multiply(y_b, -cs[g, None], out=tmp_b)
                np.exp(tmp_b, out=tmp_b, where=win_b)
                total -= 2.0 * np.pi * w_y[g] * np.sum(tmp_b, axis=1, where=win_b)
                out[g] = 1.0 - total / (2.0 * np.pi * t)
    return out


# --------------------------------------------------------------------- beta dispatch


def _beta_window(ells, z_hi, k1):
    """Length of the satisfaction window [0, K] for knees ``ells``.

    The window holds the shifted probe range up to ``ell + max z`` with a
    clearance of half ``k1`` beyond the top probe, so no probe's kernel is
    cut near its centre; ``k1`` is its minimum length.
    """
    return np.maximum(float(k1), ells + z_hi + 0.5 * k1)


def _beta_batch_deconv(cs, ells, estimate, lambda_y, k1, k2):
    """Raw satisfaction values for matched (c, ell) arrays."""
    cs = np.asarray(cs, dtype=float)
    ells = np.asarray(ells, dtype=float)
    z = np.asarray(estimate.samples, dtype=float)
    z_hi = float(z.max())
    window = _beta_window(ells, z_hi, k1)
    # lanes whose window takes the clearance share the edge z - (z_hi + k1/2)
    out = _beta_exact(cs, ells, z, lambda_y, window, k2 * np.pi,
                      shared=window > k1, edge=z_hi + 0.5 * k1)
    if not np.isfinite(out).all():
        raise NonFiniteSatisfaction(
            "satisfaction integral did not evaluate to finite values",
            diagnostics={"lambda_y": lambda_y, "bad": int(np.sum(~np.isfinite(out))),
                         "c_range": (float(cs.min()), float(cs.max())),
                         "ell_range": (float(ells.min()), float(ells.max()))})
    return out


def _beta_batch_gaussian(cs, ells_full, fit):
    """Closed-form satisfaction under a Gaussian error law.

    ``ells_full`` is the knee including the noise term; the satisfaction is
    P{E >= c (e + ell)} with E ~ Exp(1) and e ~ N(mean_e, var_e)
    (:func:`qosmodel.gaussian_satisfaction`).
    """
    return qosmodel.gaussian_satisfaction(cs, ells_full, fit.mean_e, fit.var_e)


def _p_i_of_c(cs, pair):
    """Uplink power deployed at budget c under the highest-power mapping."""
    pi_min, pi_max, pv_min, pv_max = pair.box
    c_lo, c_mid, _ = _c_range(pair)
    gain = pv_max * pair.l_v * (1.0 - pair.delta2) / (pair.gamma_v * pair.l_cross)
    return np.where(cs <= c_lo, pi_min, np.where(cs <= c_mid, cs * gain, pi_max))


def _beta_raw(pair, cs, g2_v_hat, g2_cross_hat):
    """Unclamped satisfaction at budgets ``cs`` for the matching reports."""
    est = pair.estimate
    ells = ell(cs, pair, g2_v_hat, g2_cross_hat)
    if isinstance(est, DeconvEstimate):
        return _beta_batch_deconv(cs, ells, est, pair.lambda_y, pair.trunc_k1, pair.trunc_k2)
    if isinstance(est, GaussianFit):
        shift = pair.sigma2 / (_p_i_of_c(cs, pair) * pair.l_cross)
        return _beta_batch_gaussian(cs, ells + shift, est)
    raise ConfigurationError("high-probability regions define no satisfaction curve")


def beta(c, pair, g2_v_hat, g2_cross_hat, return_raw=False):
    """Delay-satisfaction estimate at budget c, clamped to [0, 1].

    ``c`` broadcasts against a slot's reported sidelink and cross fading;
    the result is a float only when all three are scalars.
    """
    cs, g2_v_hat, g2_cross_hat = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (c, g2_v_hat, g2_cross_hat)))
    raw = _beta_raw(pair, cs.ravel(), g2_v_hat.ravel(), g2_cross_hat.ravel()).reshape(cs.shape)
    clamped = np.clip(raw, 0.0, 1.0)
    if not cs.ndim:
        raw, clamped = float(raw), float(clamped)
    return (clamped, raw) if return_raw else clamped


# --------------------------------------------------------------------- the solver


def solve_slots(pair, slots):
    """Vectorised per-pair solver over a block of slots.

    ``pair`` is an :class:`AdaptationContext`; ``slots`` maps the four
    reported fading names (``g2_v_hat``, ``g2_cross_hat``, ``g2_i``,
    ``g2_v_rsu``) to equal length arrays.  Returns per-slot arrays with the
    decision record fields.

    A slot is feasible when its rate floor c_l lies in the box and meets the
    satisfaction target there; on feasible slots c_l <= c_star <= c_u and the
    satisfaction at c_u and at c_star meets the target.  ``c_u`` is the
    highest budget the decision verified: the u-target c_t (the pick on
    [c_l, c_hi]) where c_t meets the target, else the satisfied end of the
    root search on [c_l, c_t], which is the satisfaction ceiling.  c_hi is
    not queried unless it is c_t, since a ceiling above c_t cannot change
    the pick.  Infeasible slots, decided before any search (floor above the
    box, or floor below the target), hold c_u = 0 and deploy (pv_max,
    pi_min) at c_star = c_lo; their ``beta_star`` is the satisfaction at
    c_lo where the floor is c_lo and was evaluated to decide, and NaN
    elsewhere (``beta`` at ``c_star`` fills it in).  For a high-probability
    region c_u is the closed-form worst-case ceiling clipped to the box, and
    ``beta_star`` its worst-case bound.
    """
    est = pair.estimate
    d2 = pair.delta2
    one_minus = 1.0 - d2
    g2_v_hat = np.asarray(slots["g2_v_hat"], dtype=float)
    g2_cross_hat = np.asarray(slots["g2_cross_hat"], dtype=float)
    g2_i = np.asarray(slots["g2_i"], dtype=float)
    g2_v_rsu = np.asarray(slots["g2_v_rsu"], dtype=float)

    pi_min, pi_max, pv_min, pv_max = pair.box
    c_lo, c_mid, c_hi = _c_range(pair)

    # rate floor; a dead uplink report pushes the floor to infinity
    with np.errstate(divide="ignore", invalid="ignore"):
        c_rate = (pair.rate_gamma * pair.gamma_v * pair.l_cross * pair.l_v_rsu * g2_v_rsu
                  / (one_minus * pair.l_v * pair.l_i * np.where(g2_i > 0, g2_i, np.nan)))
    c_rate = np.where(np.isfinite(c_rate), c_rate, np.inf)
    c_l = np.maximum(c_lo, c_rate)

    def beta_raw_at(cs, idx):
        return _beta_raw(pair, cs, g2_v_hat[idx], g2_cross_hat[idx])

    if isinstance(est, HprRegion):
        # the region's worst-case knee gives the ceiling in closed form
        q0 = -math.log(pair.prob_req)
        c0 = d2 * g2_v_hat / one_minus
        denom = g2_cross_hat + est.hi
        with np.errstate(divide="ignore"):
            c_cap = np.where(denom > 0, (q0 + c0) / denom, np.inf)
        c_u = np.minimum(c_hi, c_cap)
        feasible = c_l <= c_u
        c_star = np.where(feasible, c_u, c_lo)
    else:
        feasible, c_u, c_star, b_raw, b_l = _decide(beta_raw_at, c_l, c_hi, pair)
        # infeasible slots deploy the lowest budget, where beta is known
        # only if the floor sits there
        c_star = np.where(feasible, c_star, c_lo)
        b_raw = np.where(feasible, b_raw, np.where(c_l == c_lo, b_l, np.nan))

    # ---- map c to powers (highest-power preference) ----
    p_v = np.where(c_star <= c_mid, pv_max,
                   pair.gamma_v * pi_max * pair.l_cross / (c_star * pair.l_v * one_minus))
    p_i = _p_i_of_c(c_star, pair)
    # the map can round one ulp outside the box at its corners
    p_v = np.where(feasible, np.clip(p_v, pv_min, pv_max), pv_max)
    p_i = np.where(feasible, np.clip(p_i, pi_min, pi_max), pi_min)

    if isinstance(est, HprRegion):
        worst = c_star * (g2_cross_hat + est.hi) - d2 * g2_v_hat / one_minus
        b_raw = np.exp(-np.maximum(worst, 0.0))

    return {
        "c_l": c_l, "c_u": c_u, "c_star": c_star,
        "p_v": p_v, "p_i": p_i,
        "beta_star": np.clip(b_raw, 0.0, 1.0), "feasible": feasible,
    }


def _decide(beta_raw_at, c_l, c_hi, pair):
    """Feasibility, ceiling and budget of every slot, deciding before searching.

    A floor above the box is infeasible with no query, and so is a floor whose
    satisfaction misses the target.  On the other slots the u-target c_t is
    picked on [c_l, c_hi] and queried unless it is the floor; where it meets
    the target it is both c_u and c*.  Only where it misses does a root
    search on [c_l, c_t] find the ceiling c_u, and c* is then picked again on
    [c_l, c_u].  Both picks clip the pair's one root of u = 1 (``_u_root``),
    found once per call and only where some slot needs a pick, so a slot's
    decision does not depend on the other slots of its block.  No budget is
    queried that cannot change c*.  Returns
    (feasible, c_u, c_star, beta at c_star, beta at c_l); c_u is 0 and the
    betas NaN where nothing was evaluated.
    """
    target = pair.prob_req
    n = c_l.shape[0]
    c_u = np.zeros(n)
    c_star = np.full(n, np.nan)
    b_star = np.full(n, np.nan)
    b_l = np.full(n, np.nan)
    inside = np.flatnonzero(c_l <= c_hi)
    if inside.size:
        b_l[inside] = beta_raw_at(c_l[inside], inside)
    feasible = b_l >= target
    c_u[feasible] = c_l[feasible]
    c_star[feasible] = c_l[feasible]
    b_star[feasible] = b_l[feasible]

    j = np.flatnonzero(feasible & (c_l < c_hi))
    if not j.size:
        return feasible, c_u, c_star, b_star, b_l
    cl, bl = c_l[j], b_l[j]
    root = _u_root(pair)
    c_t = _u_pick(cl, np.full(j.size, c_hi), pair, root)
    b_t = bl.copy()
    q = c_t != cl
    if q.any():
        b_t[q] = beta_raw_at(c_t[q], j[q])
    c_u[j] = c_t
    c_star[j] = c_t
    b_star[j] = b_t

    # the target binds below the u-target: find the ceiling on [c_l, c_t]
    k = np.flatnonzero(b_t < target)
    if k.size:
        lanes, cl, bl = j[k], cl[k], bl[k]
        t_l = np.log(cl)
        t, f = _bracket_root(lambda x, m: beta_raw_at(np.exp(x), lanes[m]) - target,
                             t_l, np.log(c_t[k]), bl - target, b_t[k] - target)
        cu = np.where(t == t_l, cl, np.exp(t))
        bu = f + target
        cs = _u_pick(cl, cu, pair, root)
        bs = np.where(cs == cu, bu, np.where(cs == cl, bl, np.nan))
        q = np.isnan(bs)
        if q.any():
            bs[q] = beta_raw_at(cs[q], lanes[q])
        # an estimate that is not monotone can dip below the target inside
        # [c_l, c_u]; the floor meets it by construction
        dip = bs < target
        c_u[lanes] = cu
        c_star[lanes] = np.where(dip, cl, cs)
        b_star[lanes] = np.where(dip, bl, bs)
    return feasible, c_u, c_star, b_star, b_l


def _bracket_root(fun, a, b, fa, fb):
    """Brent-Dekker root search, as in ``scipy.optimize.brentq``, on many lanes.

    Lane k brackets a root of f between a[k] and b[k] with fa[k] >= 0 > fb[k];
    ``fun(x, lanes)`` evaluates f of the given lanes at the points x.  Each
    iteration takes an inverse quadratic or secant step where that shrinks
    the bracket fast enough, and bisects otherwise; a lane stops once its
    bracket is narrower than the root tolerance.  Returns the end of each
    final bracket on the f >= 0 side and f there.
    """
    root_at_a = fa == 0
    x_pre, x_cur = a.astype(float), np.where(root_at_a, a, b).astype(float)
    f_pre, f_cur = fa.astype(float), np.where(root_at_a, 0.0, fb).astype(float)
    x_blk, f_blk = np.zeros_like(x_pre), np.zeros_like(x_pre)
    s_pre, s_cur = np.zeros_like(x_pre), np.zeros_like(x_pre)
    delta = 0.5 * _ROOT_REL_TOL
    live = np.flatnonzero(~root_at_a)
    for _ in range(_ROOT_MAX_ITER):
        if not live.size:
            break
        xp, xc, xb = x_pre[live], x_cur[live], x_blk[live]
        fp, fc, fb = f_pre[live], f_cur[live], f_blk[live]
        sp, sc = s_pre[live], s_cur[live]
        # keep the bracket [x_cur, x_blk] with opposite signs at its ends
        flip = (fp != 0) & (fc != 0) & (np.signbit(fp) != np.signbit(fc))
        xb, fb = np.where(flip, xp, xb), np.where(flip, fp, fb)
        sp = sc = np.where(flip, xc - xp, sc)
        # x_cur is the end with the smaller residual
        swap = np.abs(fb) < np.abs(fc)
        xp, xc, xb = np.where(swap, xc, xp), np.where(swap, xb, xc), np.where(swap, xc, xb)
        fp, fc, fb = np.where(swap, fc, fp), np.where(swap, fb, fc), np.where(swap, fc, fb)
        x_pre[live], x_cur[live], x_blk[live] = xp, xc, xb
        f_pre[live], f_cur[live], f_blk[live] = fp, fc, fb

        s_bis = 0.5 * (xb - xc)
        go = (fc != 0) & (np.abs(s_bis) >= delta)
        live, xp, xc, xb = live[go], xp[go], xc[go], xb[go]
        fp, fc, fb, sp, sc, s_bis = fp[go], fc[go], fb[go], sp[go], sc[go], s_bis[go]
        if not live.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = -fc * (xc - xp) / (fc - fp)
            d_pre = (fp - fc) / (xp - xc)
            d_blk = (fb - fc) / (xb - xc)
            inverse_quad = -fc * (fb * d_blk - fp * d_pre) / (d_blk * d_pre * (fb - fp))
        s_try = np.where(xp == xb, secant, inverse_quad)
        short = ((np.abs(sp) > delta) & (np.abs(fc) < np.abs(fp))
                 & (2.0 * np.abs(s_try) < np.minimum(np.abs(sp), 3.0 * np.abs(s_bis) - delta)))
        s_pre[live] = np.where(short, sc, s_bis)
        step = np.where(short, s_try, s_bis)
        s_cur[live] = step
        step = np.where(np.abs(step) > delta, step, np.where(s_bis > 0, delta, -delta))
        x_pre[live], f_pre[live] = xc, fc
        x_cur[live] = xc + step
        f_cur[live] = fun(x_cur[live], live)
    # a lane cut by the iteration cap may not have renewed its bracket yet
    flip = (f_pre != 0) & (f_cur != 0) & (np.signbit(f_pre) != np.signbit(f_cur))
    x_blk, f_blk = np.where(flip, x_pre, x_blk), np.where(flip, f_pre, f_blk)
    sat = f_cur >= 0
    return np.where(sat, x_cur, x_blk), np.where(sat, f_cur, f_blk)


def _u_root(pair):
    """The budget where u crosses one on the pair's box, or None where the
    monotonicity condition of u (Prop. 1) fails there.

    u depends only on the pair, and where Prop. 1 holds it rises with c, so
    one root serves every slot.  Returns c_lo where u(c_lo) >= 1, inf where
    u(c_hi) < 1, and otherwise the double b in (c_lo, c_hi] with
    u(b) >= 1 > u(b-), b- the double just below b.  The search is a
    multisection over the bit patterns of the doubles, which for positive
    doubles are ordered as the doubles are: each round evaluates u on
    ``_U_GRID`` evenly spaced patterns of the bracket, in one call, and keeps
    the step where u first reaches one, until the bracket's ends are adjacent.
    u rounds each point alone, so a bracket end keeps its side of one.
    """
    lambda_y, k2 = pair.lambda_y, pair.trunc_k2
    c_lo, _, c_hi = _c_range(pair)
    if not prop1_holds(lambda_y, k2, c_lo, c_hi):
        return None
    a, b = (int(np.float64(c).view(np.int64)) for c in (c_lo, c_hi))
    while True:
        step = max((b - a) // (_U_GRID - 1), 1)
        bits = np.minimum(a + step * np.arange(_U_GRID, dtype=np.int64), b)
        bits[-1] = b
        cs = bits.view(np.float64)
        reached = u_value(cs, lambda_y, k2) >= 1.0
        k = int(np.argmax(reached))
        if k == 0:
            # only the first round holds c_lo and c_hi
            return c_lo if reached[0] else math.inf
        a, b = int(bits[k - 1]), int(bits[k])
        if b - a == 1:
            return float(cs[k])


def _u_pick(cl, cu, pair, root):
    """The budget in [cl, cu] whose u-functional is closest to one.

    Where Prop. 1 holds on the pair's box, ``root`` is the pair's crossing
    of u = 1 (``_u_root``) and the pick is that root clipped to each
    bracket.  Where it fails, ``root`` is None and the pick is a dense
    argmin of |u - 1| on each bracket.
    """
    if root is not None:
        return np.clip(root, cl, cu)
    t = np.linspace(0.0, 1.0, 1024)
    grid = np.exp(np.log(cl)[:, None] * (1.0 - t) + np.log(cu)[:, None] * t)
    err = np.abs(u_value(grid, pair.lambda_y, pair.trunc_k2) - 1.0)
    pick = grid[np.arange(grid.shape[0]), np.argmin(err, axis=1)]
    # exp(log(c)) can round one ulp outside [cl, cu]
    return np.clip(pick, cl, cu)
