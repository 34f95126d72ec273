"""Benchmark allocators: Gaussian moment fit and high-probability region.

Both reuse the absorption phase of the main pipeline (same probes, same
matching); they differ only in the error model driving the adaptation solve.
"""

import dataclasses

import numpy as np

from .errors import ConfigurationError

MIN_PROBES = 30     # fewest probes either fit accepts
VAR_FLOOR = 1e-6    # least error variance the Gaussian fit returns


@dataclasses.dataclass
class GaussianFit:
    """Single-Gaussian error model from probe moments."""

    mean_e: float
    var_e: float
    floored: bool = False
    n: int = 0


def fit_gaussian(samples, lambda_y):
    """Moment matching on probes z = e + Y, Y ~ Exp(lambda_y).

    Subtracts the known nuisance moments; a sample variance falling below
    the nuisance variance is floored (and flagged) rather than going
    negative.
    """
    z = np.asarray(samples, dtype=float)
    if z.size < MIN_PROBES:
        raise ConfigurationError(f"gaussian moment fit needs at least {MIN_PROBES} probes")
    mean_e = float(z.mean() - 1.0 / lambda_y)
    var_raw = float(z.var(ddof=1) - 1.0 / lambda_y ** 2)
    floored = var_raw < VAR_FLOOR
    return GaussianFit(mean_e=mean_e, var_e=max(var_raw, VAR_FLOOR),
                       floored=floored, n=int(z.size))


@dataclasses.dataclass
class HprRegion:
    """Central interval covering the probe-implied errors at the target level."""

    lo: float
    hi: float
    coverage: float
    n: int = 0


def fit_hpr(samples, lambda_y, prob_req):
    """Empirical central interval of the e-proxies z - E[Y].

    Quantile sides are rounded outward so the empirical coverage on the fit
    set is at least the target.
    """
    z = np.asarray(samples, dtype=float)
    if z.size < MIN_PROBES:
        raise ConfigurationError(f"region fit needs at least {MIN_PROBES} probes")
    proxies = z - 1.0 / lambda_y
    tail = 0.5 * (1.0 - prob_req)
    lo = float(np.quantile(proxies, tail, method="lower"))
    hi = float(np.quantile(proxies, 1.0 - tail, method="higher"))
    coverage = float(np.mean((proxies >= lo) & (proxies <= hi)))
    return HprRegion(lo=lo, hi=hi, coverage=coverage, n=int(z.size))
