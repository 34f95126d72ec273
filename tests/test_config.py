import dataclasses

import pytest

from rv2x.config import SimConfig, load_config
from rv2x.errors import ConfigurationError
from rv2x.harness import main, run

_FLOAT_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if isinstance(f.default, float)]


def test_defaults_validate():
    cfg = SimConfig()
    assert cfg.validate() is cfg
    assert cfg.num_pairs == 10
    assert cfg.absorption_len == 1000
    assert cfg.adaptation_len == 200
    assert cfg.prob_req == 0.95
    assert cfg.pv_max_mw == pytest.approx(10.0 ** 2.3)


def test_load_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "num_pairs = 4\n"
        "absorption_len = 1e3\n"
        "matching_horizon = 1000\n"
        "deviation_trace = false\n"
        "error_law = custom\n"
        "custom_weights = 0.5, 0.5\n"
        "custom_means = 0.2, 0.8\n"
        "custom_vars = 0.04, 0.02\n"
        "hr_weight = 0.3\n",
        encoding="utf-8",
    )
    cfg = load_config(str(path))
    assert cfg.num_pairs == 4
    assert cfg.absorption_len == 1000 and isinstance(cfg.absorption_len, int)
    assert cfg.deviation_trace is False
    assert cfg.custom_weights == (0.5, 0.5)
    assert cfg.custom_means == (0.2, 0.8)
    assert cfg.custom_vars == (0.04, 0.02)
    assert cfg.hr_weight == 0.3


def test_load_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_paris = 4\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(str(path))


def test_load_rejects_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("num_pairs = 4\nnum_pairs = 5\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="duplicate"):
        load_config(str(path))


def test_load_rejects_missing_equals(tmp_path):
    path = tmp_path / "noeq.cfg"
    path.write_text("num_pairs 4\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(str(path))


def test_load_rejects_bad_number(tmp_path):
    path = tmp_path / "nan.cfg"
    path.write_text("bandwidth_hz = nan\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="finite"):
        load_config(str(path))


def test_load_rejects_fractional_int(tmp_path):
    path = tmp_path / "frac.cfg"
    path.write_text("absorption_len = 10.5\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="integer"):
        load_config(str(path))


@pytest.mark.parametrize("line", ["absorption_len = abc", "trunc_k1 = 1.5e"])
def test_load_rejects_non_numeric_int(tmp_path, line):
    # the float fallback for values like 1e3 used to let its own ValueError
    # escape, and the CLI exited 1 with a bare ValueError
    path = tmp_path / "text.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="integer"):
        load_config(str(path))
    code = main(["--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2


def test_load_bool_variants(tmp_path):
    for raw, want in (("true", True), ("1", True), ("on", True),
                      ("false", False), ("0", False), ("off", False)):
        path = tmp_path / f"b_{raw}.cfg"
        path.write_text(f"deviation_trace = {raw}\n", encoding="utf-8")
        assert load_config(str(path)).deviation_trace is want


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(num_pairs=0), "num_pairs"),
    (dict(manhattan_spacing_m=0.0), "manhattan_spacing_m"),
    (dict(absorption_len=2000, matching_horizon=1000), "matching_horizon"),
    (dict(prob_req=1.0), "prob_req"),
    (dict(prob_req=0.0), "prob_req"),
    (dict(hr_weight=1.5), "hr_weight"),
    (dict(pv_min_mw=50.0, pv_max_mw=10.0), "box"),
    (dict(pi_min_mw=0.0), "box"),
    (dict(v2v_dist_lo_m=0.0), "distance"),
    (dict(v2v_dist_hi_m=500.0), "area"),
    (dict(error_law="gauss"), "error_law"),
    (dict(adaptation_len=-1), "adaptation_len"),
    (dict(v2i_placement="ring"), "v2i_placement"),
    (dict(trunc_k2=0), "truncation"),
    (dict(speed_mps=0.0), "speed_mps.*feedback_delay_s"),
    (dict(feedback_delay_s=0.0), "speed_mps.*feedback_delay_s"),
    (dict(speed_mps=1e-9), "speed_mps.*feedback_delay_s"),
])
def test_validate_rejections(kwargs, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        SimConfig(**kwargs).validate()


def test_validate_accepts_wide_systems():
    config = SimConfig(num_pairs=40)
    assert config.validate() is config


def test_validate_custom_law():
    base = dict(error_law="custom")
    with pytest.raises(ConfigurationError):
        SimConfig(**base).validate()  # empty components
    with pytest.raises(ConfigurationError, match="sum to 1"):
        SimConfig(custom_weights=(0.5, 0.4), custom_means=(0.0, 1.0),
                  custom_vars=(0.1, 0.1), **base).validate()
    with pytest.raises(ConfigurationError, match="variances"):
        SimConfig(custom_weights=(0.5, 0.5), custom_means=(0.0, 1.0),
                  custom_vars=(0.1, 0.0), **base).validate()
    cfg = SimConfig(custom_weights=(0.5, 0.5), custom_means=(0.0, 1.0),
                    custom_vars=(0.1, 0.1), **base)
    assert cfg.validate() is cfg


@pytest.mark.parametrize("field, value", [
    ("custom_weights", (float("nan"), 1.0)),
    ("custom_weights", (float("inf"), 0.5)),
    ("custom_means", (0.0, float("nan"))),
    ("custom_means", (float("-inf"), 1.0)),
    ("custom_vars", (0.1, float("inf"))),
    ("custom_vars", (float("nan"), 0.1)),
])
def test_validate_rejects_non_finite_custom_law(field, value):
    params = dict(custom_weights=(0.5, 0.5), custom_means=(0.0, 1.0), custom_vars=(0.1, 0.1))
    params[field] = value
    with pytest.raises(ConfigurationError, match="finite"):
        SimConfig(error_law="custom", **params).validate()


@pytest.mark.parametrize("field", ["custom_weights", "custom_means", "custom_vars"])
def test_validate_rejects_non_finite_custom_entries_under_any_law(field):
    # the entries are parsed whatever the law, so a bad one is an error too
    with pytest.raises(ConfigurationError, match="finite"):
        SimConfig(error_law="type1", **{field: (float("nan"),)}).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_validate_rejects_non_finite_numbers(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        SimConfig(**{field: value}).validate()


def test_run_rejects_non_finite_numbers_before_any_trial():
    # a NaN noise density used to abort every trial inside beta instead
    config = SimConfig(num_pairs=3, absorption_len=100, matching_horizon=100,
                       adaptation_len=5, noise_psd_dbm_hz=float("nan"))
    with pytest.raises(ConfigurationError, match="finite"):
        run(config, "proposed", trials=1, threads=1)


@pytest.mark.parametrize("line", [
    "custom_weights = nan, 1.0",
    "custom_means = 0.0, inf",
    "custom_vars = -inf, 0.1",
])
def test_load_rejects_non_finite_tuple_values(tmp_path, line):
    path = tmp_path / "nan.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="finite"):
        load_config(str(path))


def test_load_rejects_non_numeric_tuple_values(tmp_path):
    path = tmp_path / "text.cfg"
    path.write_text("custom_means = 0.0, zero\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="custom_means"):
        load_config(str(path))
