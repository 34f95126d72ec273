"""Run configuration: dataclass, validation, and flat-file parsing.

Config files are plain UTF-8 text with one ``key = value`` pair per line.
Blank lines and lines starting with ``#`` are ignored.  Unknown keys are an
error so typos do not silently fall back to defaults.
"""

import dataclasses
import math

from .channel import doppler_coefficient
from .errors import ConfigurationError

# 23 dBm in milliwatt; the default upper transmit power for both link classes.
_P_MAX_DEFAULT_MW = 10.0 ** (23.0 / 10.0)

_ERROR_LAWS = ("type1", "type2", "custom")
_PLACEMENTS = ("street_uniform", "disk_uniform")


@dataclasses.dataclass
class SimConfig:
    """All tunables of the simulator.  Defaults reproduce the evaluation setup."""

    # scenario
    num_pairs: int = 10                 # M = N: V2V pairs sharing V2I uplink resources
    area_side_m: float = 400.0
    manhattan_spacing_m: float = 100.0  # street grid pitch
    v2v_dist_lo_m: float = 60.0
    v2v_dist_hi_m: float = 80.0
    v2i_placement: str = "street_uniform"

    # radio
    bandwidth_hz: float = 2.0e6
    carrier_freq_hz: float = 5.9e9
    noise_psd_dbm_hz: float = -174.0
    shadow_std_v2v_db: float = 4.0      # direct V2V (LOS)
    shadow_std_v2i_db: float = 8.0      # V2I uplink
    shadow_std_nlos_db: float = 8.0     # interference cross links

    # mobility / CSI aging
    speed_mps: float = 10.0
    feedback_delay_s: float = 1.0e-3

    # QoS
    packet_bits: float = 3200.0
    delay_req_s: float = 15.0e-3
    rate_req_bps: float = 20.0e6
    prob_req: float = 0.95

    # estimator truncation orders
    trunc_k: int = 10     # density-estimate kernel cutoff
    trunc_k1: int = 10    # minimum length of the satisfaction window [0, K]; K widens
                          # with the knee so the window holds every shifted probe
    trunc_k2: int = 10    # frequency cutoff of the satisfaction functional

    # phase lengths (slots)
    absorption_len: int = 1000
    matching_horizon: int = 1000
    adaptation_len: int = 200

    # transmit power box, milliwatt
    pv_min_mw: float = 10.0
    pv_max_mw: float = _P_MAX_DEFAULT_MW
    pi_min_mw: float = 10.0
    pi_max_mw: float = _P_MAX_DEFAULT_MW

    # hazard-rate retention weight (uniform across pairs)
    hr_weight: float = 0.5

    # replace the optimized matching with the identity permutation (ablation)
    identity_matching: bool = False

    # hidden interference-error law
    error_law: str = "type1"
    custom_weights: tuple = ()
    custom_means: tuple = ()
    custom_vars: tuple = ()

    # diagnostics
    deviation_trace: bool = True

    rng_seed: int = 0

    def validate(self):
        c = self
        for f in dataclasses.fields(c):
            value = getattr(c, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
        if not all(math.isfinite(x) for x in (*c.custom_weights, *c.custom_means, *c.custom_vars)):
            raise ConfigurationError("custom law weights, means and vars must be finite")
        checks = [
            (c.num_pairs >= 1, "num_pairs must be >= 1"),
            (c.area_side_m > 0, "area_side_m must be positive"),
            (c.manhattan_spacing_m > 0, "manhattan_spacing_m must be positive"),
            (c.manhattan_spacing_m <= c.area_side_m, "manhattan_spacing_m exceeds the area side"),
            (0 < c.v2v_dist_lo_m <= c.v2v_dist_hi_m, "V2V distance range is empty or non-positive"),
            (c.v2v_dist_hi_m <= c.area_side_m, "v2v_dist_hi_m exceeds the area side"),
            (c.v2i_placement in _PLACEMENTS, f"v2i_placement must be one of {_PLACEMENTS}"),
            (c.bandwidth_hz > 0, "bandwidth_hz must be positive"),
            (c.carrier_freq_hz > 0, "carrier_freq_hz must be positive"),
            (c.shadow_std_v2v_db >= 0, "shadow_std_v2v_db must be >= 0"),
            (c.shadow_std_v2i_db >= 0, "shadow_std_v2i_db must be >= 0"),
            (c.shadow_std_nlos_db >= 0, "shadow_std_nlos_db must be >= 0"),
            (c.speed_mps >= 0, "speed_mps must be >= 0"),
            (c.feedback_delay_s >= 0, "feedback_delay_s must be >= 0"),
            (c.packet_bits > 0, "packet_bits must be positive"),
            (c.delay_req_s > 0, "delay_req_s must be positive"),
            (c.rate_req_bps > 0, "rate_req_bps must be positive"),
            (0.0 < c.prob_req < 1.0, "prob_req must lie strictly inside (0, 1)"),
            (c.trunc_k > 0 and c.trunc_k1 > 0 and c.trunc_k2 > 0, "truncation orders must be positive"),
            (c.absorption_len >= 1, "absorption_len must be >= 1"),
            (c.absorption_len <= c.matching_horizon,
             "absorption_len must not exceed matching_horizon"),
            (c.adaptation_len >= 0, "adaptation_len must be >= 0"),
            (0 < c.pv_min_mw <= c.pv_max_mw, "V2V power box is empty or non-positive"),
            (0 < c.pi_min_mw <= c.pi_max_mw, "V2I power box is empty or non-positive"),
            (0.0 <= c.hr_weight <= 1.0, "hr_weight must lie in [0, 1]"),
            (c.error_law in _ERROR_LAWS, f"error_law must be one of {_ERROR_LAWS}"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigurationError(msg)
        # the sidelink innovation has weight 1 - delta^2: none is left to adapt to
        delta = doppler_coefficient(c.speed_mps, c.carrier_freq_hz, c.feedback_delay_s)
        if delta * delta >= 1.0:
            raise ConfigurationError(
                f"speed_mps = {c.speed_mps!r} and feedback_delay_s = {c.feedback_delay_s!r} "
                f"give a fading-aging coefficient delta = {delta!r}, but delta^2 must be < 1")
        if c.error_law == "custom":
            w, m, v = c.custom_weights, c.custom_means, c.custom_vars
            if not (len(w) and len(w) == len(m) == len(v)):
                raise ConfigurationError("custom law needs equal-length non-empty weights/means/vars")
            if any(x <= 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
                raise ConfigurationError("custom law weights must be positive and sum to 1")
            if any(x <= 0 for x in v):
                raise ConfigurationError("custom law variances must be positive")
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(SimConfig)}
_TUPLE_KEYS = ("custom_weights", "custom_means", "custom_vars")


def _parse_value(key, raw):
    f = _FIELDS[key]
    raw = raw.strip()
    if f.type == "bool" or isinstance(f.default, bool):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"cannot parse boolean for {key!r}: {raw!r}")
    if key in _TUPLE_KEYS:
        if not raw:
            return ()
        try:
            return tuple(float(tok) for tok in raw.split(","))
        except ValueError:
            raise ConfigurationError(f"{key!r} expects comma-separated numbers, got {raw!r}") from None
    if isinstance(f.default, int) and not isinstance(f.default, bool):
        try:
            return int(raw, 0)
        except ValueError:
            pass
        # allow things like 1e3 for slot counts
        try:
            val = float(raw)
        except ValueError:
            val = math.nan
        if not val.is_integer():
            raise ConfigurationError(f"{key!r} expects an integer, got {raw!r}")
        return int(val)
    if isinstance(f.default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigurationError(f"{key!r} expects a number, got {raw!r}") from None
    return raw


def load_config(path):
    """Parse a flat ``key = value`` file into a validated :class:`SimConfig`."""
    overrides = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            if key in overrides:
                raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
            overrides[key] = _parse_value(key, raw)
    return SimConfig(**overrides).validate()
