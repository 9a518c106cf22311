"""Configuration parsing, validation, and unit conversions."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from udnsync.config import (ConfigError, FadingSpec, SimConfig, alpha_grid,
                            dbm_to_watts, parse_config_text)


def test_dbm_to_watts_known_points():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    # 23 dBm transmit power
    assert dbm_to_watts(23.0) == pytest.approx(0.19952623, rel=1e-7)
    assert dbm_to_watts(-math.inf) == 0.0


def test_default_config_is_valid():
    SimConfig().validate()


def test_subband_bandwidth_splits_system_bandwidth():
    cfg = SimConfig(system_bandwidth_hz=1e6, num_subbands=5)
    assert cfg.subband_bandwidth_hz == pytest.approx(2e5)


@pytest.mark.parametrize("kwargs", [
    dict(num_nodes=1),
    dict(num_subbands=0),
    dict(step_size=0.0),
    dict(step_size=1.0),
    dict(sd_tolerance=0.0),
    dict(max_iters=0),
    dict(power_grid_step=0.3),       # does not divide 1
    dict(power_grid_step=-0.1),
    dict(near_radius_m=50.0, far_radius_m=10.0),
    dict(payload_bits=0.0),
    dict(temp_range_c=(50.0, 0.0)),
    dict(iter_period=0.0),
])
def test_validate_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs).validate()


def test_validate_rejects_non_finite_numbers():
    base = SimConfig()
    names = [f.name for f in fields(SimConfig)
             if isinstance(getattr(base, f.name), float)]
    assert "power_grid_step" in names and "payload_bits" in names
    for value in (math.nan, math.inf, -math.inf):
        for name in names:
            with pytest.raises(ConfigError, match=name):
                replace(base, **{name: value}).validate()
        for temps in ((value, 50.0), (0.0, value)):
            with pytest.raises(ConfigError, match="temp_"):
                replace(base, temp_range_c=temps).validate()
        for kind in ("rayleigh", "nakagami"):
            with pytest.raises(ConfigError, match="finite"):
                FadingSpec(kind, value).validate()


def test_fading_spec_validation():
    FadingSpec("rayleigh", 1.0).validate()
    FadingSpec("nakagami", 3.0).validate()
    with pytest.raises(ConfigError):
        FadingSpec("rician", 1.0).validate()
    with pytest.raises(ConfigError):
        FadingSpec("rayleigh", 0.0).validate()
    with pytest.raises(ConfigError):
        FadingSpec("nakagami", 0.25).validate()


def test_with_overrides_revalidates():
    cfg = SimConfig()
    assert cfg.with_overrides(num_nodes=30).num_nodes == 30
    with pytest.raises(ConfigError):
        cfg.with_overrides(num_nodes=1)


def test_parse_config_text_round_trip():
    text = """
    # scenario: dense cluster
    num_nodes = 30
    num_subbands = 3
    tx_power_dbm = 20
    fading_kind = nakagami
    fading_param = 3
    temp_low_c = 10
    temp_high_c = 30
    """
    cfg = parse_config_text(text)
    assert cfg.num_nodes == 30
    assert cfg.num_subbands == 3
    assert cfg.tx_power_dbm == 20.0
    assert cfg.fading == FadingSpec("nakagami", 3.0)
    assert cfg.temp_range_c == (10.0, 30.0)


def test_parse_config_text_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("num_antennas = 4")


def test_parse_config_text_rejects_malformed_line():
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text("just some words")


def test_alpha_grid_inclusive_endpoints():
    grid = alpha_grid(0.0025)
    assert grid.size == 401
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert np.allclose(np.diff(grid), 0.0025)


def test_alpha_grid_coarse():
    assert np.allclose(alpha_grid(0.25), [0.0, 0.25, 0.5, 0.75, 1.0])
