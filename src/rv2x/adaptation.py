"""Adaptation phase: per-slot power selection from the recovered error law.

Everything is driven by the interference-budget parameter c, proportional to
p_i/p_v.  Per slot the allocator:

1. bounds c from below by the uplink rate requirement and the power box,
2. declares the slot infeasible when that floor lies above the box or its
   satisfaction estimate misses the target probability,
3. picks the c above the floor whose noise-amplification functional u is
   closest to one, and keeps it when its satisfaction estimate meets the
   target.  u depends only on the pair, and where it rises with c (Prop. 1)
   the pick is one exact root of u = 1 per pair, found once per solve for
   every pair that needs one and clipped to each slot's bracket,
4. otherwise bounds c from above by the delay-satisfaction functional (the
   largest c whose satisfaction estimate still meets the target, found by a
   bracketing Brent-Dekker search between the floor and that pick) and picks
   again below the bound, falling back to the floor if the estimate dips
   below the target there.  Satisfaction is queried only at budgets that
   decide the deployed power: the floor, that pick and the search, and
5. maps c to box powers, preferring the highest feasible transmit powers.

The solver runs on all slots of all pairs of a trial at once: each (slot,
pair) is one lane, and each stage (the floor, the pick and each step of the
search) is one satisfaction query over the lanes of every pair.

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
not depend on the lane: they are formed once per pair and call, rounded
once, and their moments taken once, so such a lane pays per probe only for
its points y.  The far moments stand for cos and sin of exactly the rounded phases
W y and W ym that Si and S2 are given, yet no lane takes them point by
point: each phase is W z + W s + d for the lane's shift s, with a residual
d that TwoSum makes exact (``_shifted_columns``), so cos and sin of W z are
taken once per pair and call and each lane's moments are rotated by its own
W s.  The shared edge points take theirs directly.  The near points of a
whole call are evaluated together, in chunks of ``_BLOCK`` E1 arguments.
"""

import copy
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


_PAIR_FIELDS = ("lambda_y", "delta2", "gamma_v", "sigma2", "l_v", "l_cross", "l_i",
                "l_v_rsu", "rate_gamma", "prob_req", "trunc_k1", "trunc_k2")
_MODEL_FIELDS = {DeconvEstimate: (), GaussianFit: ("mean_e", "var_e"), HprRegion: ("hi",)}


class PairTable:
    """The pairs of one solve as columns, the form the solver runs on.

    ``PairTable(contexts)`` keeps the M :class:`AdaptationContext` objects
    in ``contexts`` and holds one (M,) array per context field and per model
    parameter, ``box`` as four of them, and, for deconvolution estimates,
    the probes as one (M, t) array ``samples``.  ``c_param``, ``_c_range``,
    ``ell`` and ``_p_i_of_c`` read a table as they read one context, entry
    by entry.  The pairs must share one model type and, with deconvolution
    estimates, one probe count and the same truncations;
    ``ConfigurationError`` otherwise.
    """

    def __init__(self, contexts):
        self.contexts = tuple(contexts)
        kinds = [k for k in _MODEL_FIELDS
                 if self.contexts and all(isinstance(p.estimate, k) for p in self.contexts)]
        if not kinds:
            raise ConfigurationError("the pairs of one call need one error-model type")
        self.kind = kinds[0]
        self.size = len(self.contexts)
        for f in _PAIR_FIELDS:
            setattr(self, f, np.array([getattr(p, f) for p in self.contexts], dtype=float))
        for f in _MODEL_FIELDS[self.kind]:
            setattr(self, f, np.array([getattr(p.estimate, f) for p in self.contexts],
                                      dtype=float))
        self.box = tuple(np.array(side, dtype=float)
                         for side in zip(*(p.box for p in self.contexts)))
        self.samples = None
        if self.kind is DeconvEstimate:
            if len({(p.estimate.samples.size, p.trunc_k1, p.trunc_k2)
                    for p in self.contexts}) > 1:
                raise ConfigurationError(
                    "deconvolution pairs of one call need one probe count and truncation")
            self.samples = np.stack([p.estimate.samples for p in self.contexts])

    def take(self, idx):
        """The entries ``idx`` of every column, one per lane, as a table
        without contexts or probes."""
        lanes = copy.copy(self)
        lanes.contexts, lanes.samples, lanes.size = None, None, len(idx)
        lanes.box = tuple(side[idx] for side in self.box)
        for f in _PAIR_FIELDS + _MODEL_FIELDS[self.kind]:
            setattr(lanes, f, getattr(self, f)[idx])
        return lanes


# --------------------------------------------------------------------- u functional


def _u_head(s):
    """The terms of u that depend on the pair alone, at s = W / lambda_y."""
    t1 = math.sqrt(1.0 + s * s)
    return t1 + math.log((t1 - 1.0) / s)


def u_value(c, lambda_y, k2):
    """Noise-amplification functional of the adaptation bound at budget c.

    ``lambda_y`` and ``k2`` broadcast against ``c``, so columns of them
    evaluate one pair per row; the terms in them alone are taken with
    math's sqrt and log, once per entry of their broadcast.
    """
    c = np.asarray(c, dtype=float)
    w = np.multiply(k2, np.pi)
    s = np.divide(w, lambda_y)
    head = np.array([_u_head(x) for x in np.ravel(s).tolist()]).reshape(np.shape(s))
    root = np.sqrt(c * c + w * w)
    t3 = (c / lambda_y) * np.log((w + root) / c)
    t4 = (1.0 / c) * np.log(c * w / (root + w))
    return head + t3 + t4


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


def _far_terms(cs, ells, z, pair, k1s, shared, edges, weights, w_cut, queue):
    """The far sums and jump sums of ``_beta_exact``'s lanes, their near
    points handed to ``queue(points, lanes, is_ym)`` half by half.

    ``z`` holds one row of probes per pair and ``pair`` gives each lane's
    row; ``edges`` holds each row's edge, read for the ``shared`` lanes.
    Returns each lane's far sums of its y and ym halves, shape (2, lanes),
    and its sum of the jump exponentials.  The workspace lives only for
    this call, so the near points still queued when it returns are
    evaluated after it is given back.
    """
    n, t = cs.size, z.shape[1]
    deg = weights.shape[2] - 1
    rows = max(1, min(n, _BLOCK // max(t, 1)))
    work = np.empty((deg + 7, rows, t))
    powers, cols, (y, ym, tmp) = work[:deg + 1], work[deg + 1:deg + 4], work[deg + 4:]
    cols[2] = 1.0
    # per pair its probes z and their phases W z with cos and sin; a block
    # copies its lanes' rows of them into its own, so the columns'
    # arithmetic runs on equal shapes, not broadcasts
    base = np.empty((z.shape[0], 4, t))
    base[:, 0] = z
    np.multiply(base[:, 0], w_cut, out=base[:, 1])
    np.cos(base[:, 1], out=base[:, 2])
    np.sin(base[:, 1], out=base[:, 3])
    probes = np.empty((rows, 4, t))
    masks = np.empty((2, rows, t), dtype=bool)
    moments = np.empty((2, rows, deg + 1, 3))

    def far_moments(b, shift, kind):
        """Moments of the far points ``b``, the first rows of a workspace
        array holding the points of the probe rows (their phases, cos and
        sin) shifted by ``shift``, one per row, into ``moments[kind]``, and
        the flat indices of the near points, which they skip."""
        m = b.shape[0]
        pw, cl, tmp_b, mask_b = powers[:, :m], cols[:, :m], tmp[:m], masks[0, :m]
        np.multiply(b, w_cut, out=tmp_b)
        c = w_cut * shift
        # the powers beyond 1/b are formed after the columns: scratch till then
        _shifted_columns(tmp_b, c[:, None], *probes[:m, 1:].transpose(1, 0, 2), cl[:2],
                         pw[2:5])
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

    far = np.empty((2, n))
    jump = np.empty(n)
    sh = np.flatnonzero(shared)
    sp = np.flatnonzero(np.bincount(pair[sh], minlength=z.shape[0]))
    edge_moments = np.empty((z.shape[0], deg + 1, 3))
    edge_near = [np.empty(0)] * z.shape[0]
    for lo in range(0, sp.size, rows):
        ps = sp[lo:lo + rows]
        m = ps.size
        np.subtract(base[ps, 0], edges[ps, None], out=ym[:m])
        # the edge points are their own base: d = 0, and their columns
        # are libm's cos and sin of their phases, in the probe rows
        # before any block holds them
        np.multiply(ym[:m], w_cut, out=probes[:m, 1])
        np.cos(probes[:m, 1], out=probes[:m, 2])
        np.sin(probes[:m, 1], out=probes[:m, 3])
        mom, near_e = far_moments(ym[:m], np.zeros(m), 1)
        edge_moments[ps] = mom
        pts = np.split(ym[:m].reshape(-1)[near_e],
                       np.searchsorted(near_e // t, np.arange(1, m)))
        for p, points in zip(ps, pts):
            edge_near[p] = points
    held = np.full(rows, -1)            # the pair whose probes each block row holds
    for own_edge, lanes in ((True, np.flatnonzero(~shared)), (False, sh)):
        # in pair order, most blocks hold one pair and keep the rows before
        lanes = lanes[np.argsort(pair[lanes], kind="stable")]
        for lo in range(0, lanes.size, rows):
            g = lanes[lo:lo + rows]
            m = g.size
            y_b, ym_b, tmp_b = y[:m], ym[:m], tmp[:m]
            mask_b, win_b = masks[0, :m], masks[1, :m]
            if not np.array_equal(held[:m], pair[g]):
                np.take(base, pair[g], axis=0, out=probes[:m], mode="clip")
                held[:m] = pair[g]
            np.add(probes[:m, 0], ells[g, None], out=y_b)
            mom_y, near_y = far_moments(y_b, ells[g], 0)
            far[0, g] = np.einsum("ljk,ljk->l", mom_y, weights[g, 0])
            queue(y_b.reshape(-1)[near_y], g[near_y // t], False)
            np.greater_equal(y_b, 1e-12, out=win_b)
            if own_edge:
                np.subtract(y_b, k1s[g, None], out=ym_b)
                mom_ym, near_ym = far_moments(ym_b, ells[g] - k1s[g], 1)
                far[1, g] = np.einsum("ljk,ljk->l", mom_ym, weights[g, 1])
                queue(ym_b.reshape(-1)[near_ym], g[near_ym // t], True)
                np.less(ym_b, 1e-12, out=mask_b)
                np.logical_and(win_b, mask_b, out=win_b)
            # the merged branch-cut jumps
            np.multiply(y_b, -cs[g, None], out=tmp_b)
            np.exp(tmp_b, out=tmp_b, where=win_b)
            jump[g] = np.sum(tmp_b, axis=1, where=win_b)
    # each shared lane takes its pair's edge moments and near edge points
    for p in sp:
        g = sh[pair[sh] == p]
        far[1, g] = np.einsum("jk,ljk->l", edge_moments[p], weights[g, 1])
        queue(np.tile(edge_near[p], g.size), np.repeat(g, edge_near[p].size), True)
    return far, jump


def _beta_exact(cs, ells, z, pair, lambda_y, k1, w_cut, shared=None, edge=None):
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
    fraction (``_near_terms``): those of every block of the call are
    gathered and evaluated together, in chunks of ``_BLOCK`` / 2 points
    (``_BLOCK`` E1 arguments), and each value is added onto its lane's half
    in order, so a lane sums its points as one pass over them would.  They
    wait until the blocks' workspace is given back, so the chunks'
    temporaries and the workspace do not coexist: a chunk evaluated as soon
    as it fills raised the default scale's peak RSS by 1.4 MB.  A call
    there holds at most 16,129 near points.  Where more than 16 chunks
    wait, those chunks are evaluated at once, since the queue itself then
    costs more memory than the overlap would.

    The lanes marked in ``shared`` have the window K = ell + the edge of
    their pair, so their edge points ym = z - edge do not depend on the
    lane.  Their far moments are taken once per pair and call, and each
    such lane only contracts its weights with them; their near edge points,
    if any, still take the exact path lane by lane.  Their ym all lie below
    -k1/2, so only y >= 1e-12 decides their jump.  The edge points are
    rounded once, as z - edge, not as (z + ell) - K: the two differ by an
    ulp of K, to which beta at small lambda is sensitive, not by accuracy.
    The other lanes form ym = y - K themselves.

    The cos and sin columns are those of the rounded phases W y and W ym,
    the same numbers Si and the S2 kernel are given: at small lambda the
    S2(ym) weight (1 - e^{-cK}) / lambda reaches 1e5 and more, and would
    amplify a phase rounded once more, as plain angle addition from W z and
    W ell rounds it.  A lane reaches them from cos and sin of a = W z,
    taken once per pair and call: each of its halves shifts the probes by s
    (ell for y, ell - K for ym), its phases are a + W s + d with a residual
    d that ``_shifted_columns`` forms exactly, and its moments are rotated
    by W s, so a lane takes sin and cos of its two shifts only.  The shared
    edge points are their own base, with s = 0 and d = 0, so their columns
    are cos and sin taken directly of their phases, once per pair and call.
    Every shared lane weighs their moments by that large S2 weight, and
    this keeps them bit for bit as before at no cost: formed from W z
    instead, their rounding moved beta by up to 2e-13 relative on a quarter
    of the default fixture's queries.

    Vectorised over lanes: each row is one (c, ell) query against all
    probes of its pair.  ``z`` holds one row of probes per pair and
    ``pair`` gives each lane's row; ``lambda_y`` and ``k1``, the window
    length K, are per lane or one for all, and ``edge`` is per row of ``z``
    or one for all.  Lanes go through blocks of about ``_BLOCK``
    elements in one workspace allocated per call, which every temporary of
    the block is written into, and each lane's value does not depend on the
    other lanes of its call.
    """
    n = cs.size
    t = z.shape[1]
    pair = np.asarray(pair)
    # only the pairs with lanes in the call take their phases; found by
    # bincount, since np.unique's first call costs a process 2 MB of RSS
    has_lanes = np.bincount(pair, minlength=z.shape[0]) > 0
    used = np.flatnonzero(has_lanes)
    pair = (np.cumsum(has_lanes) - 1)[pair]
    k1s = np.broadcast_to(np.asarray(k1, dtype=float), cs.shape)
    shared = np.zeros(n, dtype=bool) if shared is None else np.asarray(shared, dtype=bool)
    decay = np.exp(-cs * k1s)
    w_y = 1.0 + cs / lambda_y
    w_ym = w_y * decay
    w_s2 = (1.0 - decay) / lambda_y
    weights = _far_weights(cs, w_cut, w_y, w_ym, w_s2)
    edges = np.broadcast_to(np.asarray(edge, dtype=float), z.shape[:1])[used]
    near = np.zeros((2, n))             # each lane's near sums of its y and ym halves
    step = _BLOCK // 2                  # points per _near_terms call: E1 at 2 each
    # near points not yet evaluated, (b, lane, is ym) by batch, and their count
    queued = [(np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=bool))]
    waiting = 0

    def evaluate(end):
        """The first ``end`` queued points, in chunks of ``step``, each value
        added onto its lane's half in queue order, so every lane sums its
        points in their order; the rest stays queued."""
        nonlocal waiting
        b, lane, is_ym = (np.concatenate(col) for col in zip(*queued))
        for lo in range(0, end, step):
            h, e = lane[lo:min(lo + step, end)], is_ym[lo:min(lo + step, end)]
            vals = _near_terms(b[lo:lo + h.size], e, cs[h], np.where(e, w_ym[h], w_y[h]),
                               w_s2[h], w_cut)
            np.add.at(near[0], h[~e], vals[~e])
            np.add.at(near[1], h[e], vals[e])
        queued[:] = [(b[end:], lane[end:], is_ym[end:])]
        waiting -= end

    def queue(points, lanes, is_ym):
        # held until the workspace is given back, unless 16 chunks wait
        nonlocal waiting
        queued.append((points, lanes, np.full(points.size, is_ym)))
        waiting += points.size
        if waiting >= 16 * step:
            evaluate(waiting - waiting % step)

    with np.errstate(divide="ignore", invalid="ignore"):
        far, jump = _far_terms(cs, ells, z[used], pair, k1s, shared, edges, weights, w_cut,
                               queue)
        evaluate(waiting)

        # each lane's total in the order of its terms: near y, far y, the ym
        # half, then the jumps
        total = near[0] + far[0]
        own = ~shared
        total[own] += near[1, own] + far[1, own]
        total[shared] += near[1, shared]
        total[shared] += far[1, shared]
        total -= 2.0 * np.pi * w_y * jump
        return 1.0 - total / (2.0 * np.pi * t)


# --------------------------------------------------------------------- beta dispatch


def _beta_window(ells, z_hi, k1):
    """Length of the satisfaction window [0, K] for knees ``ells``.

    The window holds the shifted probe range up to ``ell + max z`` with a
    clearance of half ``k1`` beyond the top probe, so no probe's kernel is
    cut near its centre; ``k1`` is its minimum length.
    """
    return np.maximum(float(k1), ells + z_hi + 0.5 * k1)


def _beta_batch_deconv(cs, ells, z, pair, lambda_y, k1, k2):
    """Raw satisfaction values for matched (c, ell) arrays.

    ``z`` holds one row of probes per pair and ``pair`` gives each query's
    row; ``lambda_y`` is per query or one for all.
    """
    cs = np.asarray(cs, dtype=float)
    ells = np.asarray(ells, dtype=float)
    z = np.asarray(z, dtype=float)
    z_hi = z.max(axis=1)
    window = _beta_window(ells, z_hi[pair], k1)
    # lanes whose window takes the clearance share their pair's edge z - (z_hi + k1/2)
    out = _beta_exact(cs, ells, z, pair, lambda_y, window, k2 * np.pi,
                      shared=window > k1, edge=z_hi + 0.5 * k1)
    if not np.isfinite(out).all():
        raise NonFiniteSatisfaction(
            "satisfaction integral did not evaluate to finite values",
            diagnostics={"lambda_y_range": (float(np.min(lambda_y)), float(np.max(lambda_y))),
                         "bad": int(np.sum(~np.isfinite(out))),
                         "c_range": (float(cs.min()), float(cs.max())),
                         "ell_range": (float(ells.min()), float(ells.max()))})
    return out


def _beta_batch_gaussian(cs, ells_full, mean_e, var_e):
    """Closed-form satisfaction under a Gaussian error law.

    ``ells_full`` is the knee including the noise term; the satisfaction is
    P{E >= c (e + ell)} with E ~ Exp(1) and e ~ N(mean_e, var_e)
    (:func:`qosmodel.gaussian_satisfaction`), the law's moments per query
    or one for all.
    """
    return qosmodel.gaussian_satisfaction(cs, ells_full, mean_e, var_e)


def _p_i_of_c(cs, pair):
    """Uplink power deployed at budget c under the highest-power mapping."""
    pi_min, pi_max, pv_min, pv_max = pair.box
    c_lo, c_mid, _ = _c_range(pair)
    gain = pv_max * pair.l_v * (1.0 - pair.delta2) / (pair.gamma_v * pair.l_cross)
    return np.where(cs <= c_lo, pi_min, np.where(cs <= c_mid, cs * gain, pi_max))


def _beta_raw(tab, pair, cs, g2_v_hat, g2_cross_hat):
    """Unclamped satisfaction of queries: query k asks pair ``pair[k]`` of
    the :class:`PairTable` ``tab`` at budget ``cs[k]`` for its reports."""
    lanes = tab.take(pair)
    ells = ell(cs, lanes, g2_v_hat, g2_cross_hat)
    if tab.kind is DeconvEstimate:
        return _beta_batch_deconv(cs, ells, tab.samples, pair, lanes.lambda_y,
                                  tab.trunc_k1[0], tab.trunc_k2[0])
    if tab.kind is GaussianFit:
        shift = lanes.sigma2 / (_p_i_of_c(cs, lanes) * lanes.l_cross)
        return _beta_batch_gaussian(cs, ells + shift, lanes.mean_e, lanes.var_e)
    raise ConfigurationError("high-probability regions define no satisfaction curve")


def beta(c, pair, g2_v_hat, g2_cross_hat, return_raw=False, pair_of=None):
    """Delay-satisfaction estimate at budget c, clamped to [0, 1].

    ``c`` broadcasts against a slot's reported sidelink and cross fading;
    the result is a float only when all three are scalars.  ``pair`` is
    one context, or a :class:`PairTable` with ``pair_of`` giving each
    query's pair (broadcast like the rest, 0 if omitted).
    """
    cs, g2_v_hat, g2_cross_hat = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (c, g2_v_hat, g2_cross_hat)))
    tab = pair if isinstance(pair, PairTable) else PairTable([pair])
    lane_pair = np.broadcast_to(np.asarray(0 if pair_of is None else pair_of, dtype=np.intp),
                                cs.shape).ravel()
    raw = _beta_raw(tab, lane_pair, cs.ravel(), g2_v_hat.ravel(),
                    g2_cross_hat.ravel()).reshape(cs.shape)
    clamped = np.clip(raw, 0.0, 1.0)
    if not cs.ndim:
        raw, clamped = float(raw), float(clamped)
    return (clamped, raw) if return_raw else clamped


# --------------------------------------------------------------------- the solver


def solve_slots(pairs, slots):
    """Vectorised solver over the slots of one or more pairs.

    ``pairs`` is a :class:`PairTable` of a trial's M contexts, whose pairs
    share one error-model type, and ``slots`` maps the four reported fading
    names (``g2_v_hat``, ``g2_cross_hat``, ``g2_i``, ``g2_v_rsu``) to (S, M)
    arrays, column i for pair i.  Returns (S, M) arrays with the decision
    record fields.  One context with (S,) arrays is the case M = 1, and
    returns (S,) arrays.  Every (slot, pair) is one lane of
    each satisfaction query, so a solver stage queries all pairs at once,
    and a lane's decision does not depend on the other lanes of its call.

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
    one = isinstance(pairs, AdaptationContext)
    tab = PairTable([pairs]) if one else pairs
    m = tab.size
    g2_v_hat, g2_cross_hat, g2_i, g2_v_rsu = (
        np.asarray(slots[name], dtype=float).reshape(-1, m)
        for name in ("g2_v_hat", "g2_cross_hat", "g2_i", "g2_v_rsu"))
    d2 = tab.delta2
    one_minus = 1.0 - d2

    pi_min, pi_max, pv_min, pv_max = tab.box
    c_lo, c_mid, c_hi = _c_range(tab)

    # rate floor; a dead uplink report pushes the floor to infinity
    with np.errstate(divide="ignore", invalid="ignore"):
        c_rate = (tab.rate_gamma * tab.gamma_v * tab.l_cross * tab.l_v_rsu * g2_v_rsu
                  / (one_minus * tab.l_v * tab.l_i * np.where(g2_i > 0, g2_i, np.nan)))
    c_rate = np.where(np.isfinite(c_rate), c_rate, np.inf)
    c_l = np.maximum(c_lo, c_rate)

    if tab.kind is HprRegion:
        # the region's worst-case knee gives the ceiling in closed form
        q0 = -np.array([math.log(p) for p in tab.prob_req.tolist()])
        c0 = d2 * g2_v_hat / one_minus
        denom = g2_cross_hat + tab.hi
        with np.errstate(divide="ignore"):
            c_cap = np.where(denom > 0, (q0 + c0) / denom, np.inf)
        c_u = np.minimum(c_hi, c_cap)
        feasible = c_l <= c_u
        c_star = np.where(feasible, c_u, c_lo)
    else:
        # lane k is slot k // m of pair k % m
        lane_pair = np.tile(np.arange(m), c_l.shape[0])
        v_hat, cross_hat = g2_v_hat.ravel(), g2_cross_hat.ravel()

        def beta_raw_at(cs, idx):
            return _beta_raw(tab, lane_pair[idx], cs, v_hat[idx], cross_hat[idx])

        feasible, c_u, c_star, b_raw, b_l = (
            x.reshape(c_l.shape)
            for x in _decide(beta_raw_at, c_l.ravel(), c_hi[lane_pair], tab, lane_pair))
        # infeasible slots deploy the lowest budget, where beta is known
        # only if the floor sits there
        c_star = np.where(feasible, c_star, c_lo)
        b_raw = np.where(feasible, b_raw, np.where(c_l == c_lo, b_l, np.nan))

    # ---- map c to powers (highest-power preference) ----
    p_v = np.where(c_star <= c_mid, pv_max,
                   tab.gamma_v * pi_max * tab.l_cross / (c_star * tab.l_v * one_minus))
    p_i = _p_i_of_c(c_star, tab)
    # the map can round one ulp outside the box at its corners
    p_v = np.where(feasible, np.clip(p_v, pv_min, pv_max), pv_max)
    p_i = np.where(feasible, np.clip(p_i, pi_min, pi_max), pi_min)

    if tab.kind is HprRegion:
        worst = c_star * (g2_cross_hat + tab.hi) - d2 * g2_v_hat / one_minus
        b_raw = np.exp(-np.maximum(worst, 0.0))

    res = {
        "c_l": c_l, "c_u": c_u, "c_star": c_star,
        "p_v": p_v, "p_i": p_i,
        "beta_star": np.clip(b_raw, 0.0, 1.0), "feasible": feasible,
    }
    return {key: val[:, 0] for key, val in res.items()} if one else res


def _decide(beta_raw_at, c_l, c_hi, tab, lane_pair):
    """Feasibility, ceiling and budget of every lane, deciding before searching.

    Lane k is a slot of pair ``lane_pair[k]`` of the table ``tab``, with
    floor ``c_l[k]`` and box top ``c_hi[k]``.  A floor above the box is
    infeasible with no query, and so is a floor whose satisfaction misses
    the target.  On the other lanes the u-target c_t is picked on
    [c_l, c_hi] and queried unless it is the floor; where it meets the
    target it is both c_u and c*.  Only where it misses does a root search
    on [c_l, c_t] find the ceiling c_u, and c* is then picked again on
    [c_l, c_u].  Both picks clip the pair's one root of u = 1
    (``_u_root``), found once per call for each pair where some lane needs
    a pick, so a lane's decision does not depend on the other lanes of its
    call.  Each stage queries all its lanes, of every pair, at once.  No
    budget is queried that cannot change c*.  Returns (feasible, c_u,
    c_star, beta at c_star, beta at c_l); c_u is 0 and the betas NaN where
    nothing was evaluated.
    """
    target = tab.prob_req[lane_pair]
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
    cl, bl, tj = c_l[j], b_l[j], target[j]
    need = np.flatnonzero(np.bincount(lane_pair[j], minlength=tab.size))
    roots = np.full(tab.size, np.nan)
    roots[need] = _u_root(tab.take(need))
    lanes = tab.take(lane_pair[j])
    root = roots[lane_pair[j]]
    c_t = _u_pick(cl, c_hi[j], lanes, root)
    b_t = bl.copy()
    q = c_t != cl
    if q.any():
        b_t[q] = beta_raw_at(c_t[q], j[q])
    c_u[j] = c_t
    c_star[j] = c_t
    b_star[j] = b_t

    # the target binds below the u-target: find the ceiling on [c_l, c_t]
    k = np.flatnonzero(b_t < tj)
    if k.size:
        lanes_k, cl, bl, tk = j[k], cl[k], bl[k], tj[k]
        t_l = np.log(cl)
        t, f = _bracket_root(lambda x, m: beta_raw_at(np.exp(x), lanes_k[m]) - tk[m],
                             t_l, np.log(c_t[k]), bl - tk, b_t[k] - tk)
        cu = np.where(t == t_l, cl, np.exp(t))
        bu = f + tk
        cs = _u_pick(cl, cu, lanes.take(k), root[k])
        bs = np.where(cs == cu, bu, np.where(cs == cl, bl, np.nan))
        q = np.isnan(bs)
        if q.any():
            bs[q] = beta_raw_at(cs[q], lanes_k[q])
        # an estimate that is not monotone can dip below the target inside
        # [c_l, c_u]; the floor meets it by construction
        dip = bs < tk
        c_u[lanes_k] = cu
        c_star[lanes_k] = np.where(dip, cl, cs)
        b_star[lanes_k] = np.where(dip, bl, bs)
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


def _u_root(pairs):
    """Where u crosses one on each pair's box, or NaN where the
    monotonicity condition of u (Prop. 1) fails there.

    ``pairs`` is a :class:`PairTable`, or its entries at some pair indices
    (``PairTable.take``); the result has one root per entry.  u depends
    only on the pair, and where Prop. 1 holds it rises with c, so one root
    serves every slot.  A root is c_lo where u(c_lo) >= 1, inf where
    u(c_hi) < 1, and otherwise the double b in (c_lo, c_hi] with
    u(b) >= 1 > u(b-), b- the double just below b.  The search is a
    multisection over the bit patterns of the doubles, which for positive
    doubles are ordered as the doubles are: each round evaluates u on
    ``_U_GRID`` evenly spaced patterns of every open bracket, one pair per
    row of one call, and keeps the step where u first reaches one, until
    the bracket's ends are adjacent.  u rounds each point alone, so a
    bracket end keeps its side of one.
    """
    c_lo, _, c_hi = _c_range(pairs)
    lam, k2 = pairs.lambda_y, pairs.trunc_k2
    roots = np.full(lam.size, np.nan)
    live = np.flatnonzero([prop1_holds(*p) for p in zip(lam.tolist(), k2.tolist(),
                                                        c_lo.tolist(), c_hi.tolist())])
    a, b = c_lo[live].view(np.int64), c_hi[live].view(np.int64)
    while live.size:
        step = np.maximum((b - a) // (_U_GRID - 1), 1)
        bits = np.minimum(a[:, None] + step[:, None] * np.arange(_U_GRID, dtype=np.int64),
                          b[:, None])
        bits[:, -1] = b
        cs = bits.view(np.float64)
        reached = u_value(cs, lam[live, None], k2[live, None]) >= 1.0
        k = np.argmax(reached, axis=1)
        # only the first round holds c_lo and c_hi
        first = k == 0
        roots[live[first]] = np.where(reached[first, 0], c_lo[live[first]], np.inf)
        rows = np.arange(live.size)
        a, b = bits[rows, k - 1], bits[rows, k]
        done = ~first & (b - a == 1)
        roots[live[done]] = cs[rows, k][done]
        keep = ~first & ~done
        live, a, b = live[keep], a[keep], b[keep]
    return roots


def _u_pick(cl, cu, pairs, root):
    """The budget in [cl, cu] whose u-functional is closest to one.

    Where Prop. 1 holds on a pair's box, ``root`` is the pair's crossing of
    u = 1 (``_u_root``) and the pick is that root clipped to each bracket.
    Where it fails, ``root`` is NaN and the pick is a dense argmin of
    |u - 1| on each bracket.  ``root`` and ``pairs``, the entries of a
    :class:`PairTable` (``PairTable.take``), hold one entry per bracket.
    """
    pick = np.clip(root, cl, cu)
    dense = np.flatnonzero(np.isnan(pick))
    if dense.size:
        lo, hi = cl[dense], cu[dense]
        lam, k2 = pairs.lambda_y[dense, None], pairs.trunc_k2[dense, None]
        t = np.linspace(0.0, 1.0, 1024)
        grid = np.exp(np.log(lo)[:, None] * (1.0 - t) + np.log(hi)[:, None] * t)
        err = np.abs(u_value(grid, lam, k2) - 1.0)
        # exp(log(c)) can round one ulp outside [cl, cu]
        pick[dense] = np.clip(grid[np.arange(dense.size), np.argmin(err, axis=1)], lo, hi)
    return pick
