"""Configuration parsing, validation, and unit conversions."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from udnsync.config import (ConfigError, SimConfig, dbm_to_watts,
                            parse_config_text)
from udnsync.scheduler import alpha_grid


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
    dict(path_loss_exp=0.0),         # a path gain of 1 at every distance
    dict(path_loss_exp=-2.0),        # an infinite self-gain
    dict(step_size=0.0),
    dict(step_size=1.0),
    dict(sd_tolerance=0.0),
    dict(max_iters=0),               # run_snapshot needs a budget
    dict(power_grid_step=0.3),       # does not divide 1
    dict(power_grid_step=-0.1),
    dict(near_radius_m=50.0, far_radius_m=10.0),
    dict(payload_bits=0.0),
    dict(temp_low_c=50.0, temp_high_c=0.0),
    dict(iter_period=0.0),
    dict(rng_seed=-1),
    dict(num_nodes=2),               # placement needs K >= 3
    dict(fading_kind="rician"),      # sample_gain draws no unknown kind
    dict(fading_kind="rayleigh", fading_param=0.0),
    dict(fading_kind="nakagami", fading_param=0.25),
    dict(power_grid_step=1.0000000001),  # 1/step rounds to 1
    dict(power_threshold_dbm=4000.0),    # watts overflow
    dict(tx_power_dbm=4000.0),
    dict(tx_power_dbm=-4000.0),          # 0 W
    dict(noise_density_dbm_hz=4000.0),
    dict(noise_density_dbm_hz=-4000.0),
])
def test_validate_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)


def test_validate_rejects_non_finite_numbers():
    base = SimConfig()
    names = [f.name for f in fields(SimConfig)
             if isinstance(getattr(base, f.name), float)]
    assert {"power_grid_step", "payload_bits", "fading_param", "temp_low_c",
            "temp_high_c"} <= set(names)
    for value in (math.nan, math.inf, -math.inf):
        for name in names:
            with pytest.raises(ConfigError, match=name):
                replace(base, **{name: value})


def test_validate_rejects_a_threshold_that_underflows_to_zero_watts():
    # below about -3,206 dBm, P0 rounds to 0 W, and a zero received power
    # would meet it without being a positive weight
    for dbm in (-3210.0, -1e6):
        with pytest.raises(ConfigError, match="power_threshold_dbm"):
            SimConfig(power_threshold_dbm=dbm)
    assert SimConfig(power_threshold_dbm=-3200.0).power_threshold_w > 0.0


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
    assert (cfg.fading_kind, cfg.fading_param) == ("nakagami", 3.0)
    assert (cfg.temp_low_c, cfg.temp_high_c) == (10.0, 30.0)


# a valid value other than the default for every SimConfig field
NON_DEFAULT = dict(
    num_nodes=30, num_subbands=3, tx_power_dbm=20.5,
    power_threshold_dbm=-120.25, path_loss_exp=3.5, step_size=0.5,
    sd_tolerance=2.5e-7, max_iters=700, max_snapshots=9, swap_max_iters=12,
    power_grid_step=0.125, system_bandwidth_hz=2e6,
    noise_density_dbm_hz=-170.5, payload_bits=4096.0, fading_kind="nakagami",
    fading_param=2.5, near_radius_m=5.0, far_radius_m=80.0,
    init_offset_max=1e-5, temp_low_c=-10.5, temp_high_c=35.0,
    temp_coeff_ppm_c2=-0.035, iter_period=2e-3, rng_seed=17,
)


def test_every_field_is_a_key_that_round_trips():
    default = SimConfig()
    assert set(NON_DEFAULT) == {f.name for f in fields(SimConfig)}
    for name, value in NON_DEFAULT.items():
        assert value != getattr(default, name), name
    text = "\n".join(f"{name} = {value}" for name, value in NON_DEFAULT.items())
    assert parse_config_text(text) == SimConfig(**NON_DEFAULT)


def test_parse_config_text_rejects_repeated_key():
    with pytest.raises(ConfigError, match="line 3: num_nodes repeats line 1"):
        parse_config_text("num_nodes = 30\nnum_subbands = 3\nnum_nodes = 90")


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
