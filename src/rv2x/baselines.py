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
    """Moment matching on each pair's probes z = e + Y, Y ~ Exp(lambda_y).

    ``samples`` is the (M, T) probe matrix and ``lambda_y`` the (M,) array
    of nuisance rates; returns the M fits in pair order.  Subtracts the
    known nuisance moments; a sample variance falling below the nuisance
    variance is floored (and flagged) rather than going negative.
    """
    z = np.ascontiguousarray(samples, dtype=float)   # a row reduction rounds as on its row alone
    if z.ndim != 2 or z.shape[1] < MIN_PROBES:
        raise ConfigurationError(f"gaussian moment fit needs (M, T) probes, T >= {MIN_PROBES}")
    mean_e = z.mean(axis=1) - 1.0 / lambda_y
    var_raw = z.var(axis=1, ddof=1) - 1.0 / lambda_y ** 2
    return [GaussianFit(mean_e=mu, var_e=max(v, VAR_FLOOR), floored=v < VAR_FLOOR,
                        n=z.shape[1])
            for mu, v in zip(mean_e.tolist(), var_raw.tolist())]


@dataclasses.dataclass
class HprRegion:
    """Central interval covering the probe-implied errors at the target level."""

    lo: float
    hi: float
    coverage: float
    n: int = 0


def fit_hpr(samples, lambda_y, prob_req):
    """Empirical central interval of each pair's e-proxies z - E[Y].

    ``samples`` is the (M, T) probe matrix and ``lambda_y`` the (M,) array
    of nuisance rates; returns the M regions in pair order.  Quantile sides
    are rounded outward so the empirical coverage on the fit set is at
    least the target.
    """
    z = np.ascontiguousarray(samples, dtype=float)   # as in fit_gaussian
    if z.ndim != 2 or z.shape[1] < MIN_PROBES:
        raise ConfigurationError(f"region fit needs (M, T) probes, T >= {MIN_PROBES}")
    proxies = z - (1.0 / lambda_y)[:, None]
    tail = 0.5 * (1.0 - prob_req)
    lo = np.quantile(proxies, tail, axis=1, method="lower")
    hi = np.quantile(proxies, 1.0 - tail, axis=1, method="higher")
    coverage = np.mean((proxies >= lo[:, None]) & (proxies <= hi[:, None]), axis=1)
    return [HprRegion(lo=a, hi=b, coverage=c, n=z.shape[1])
            for a, b, c in zip(lo.tolist(), hi.tolist(), coverage.tolist())]
