"""Fading distributions, path loss, and noise power."""

import numpy as np
import pytest

from conftest import grid_topology
from udnsync.channel import (noise_power, sample_gain,
                             sample_interference_gains, sample_link_gains)
from udnsync.config import FadingSpec, SimConfig
from udnsync.graph import build_graph


def test_rayleigh_power_gain_moments(rng):
    g = sample_gain(FadingSpec("rayleigh", 2.0), rng, size=200_000)
    assert np.all(g >= 0)
    assert g.mean() == pytest.approx(2.0, rel=0.02)
    # exponential power gain: variance equals mean^2
    assert g.var() == pytest.approx(4.0, rel=0.05)


def test_nakagami_power_gain_moments(rng):
    for m in (1.0, 3.0):
        g = sample_gain(FadingSpec("nakagami", m), rng, size=200_000)
        assert g.mean() == pytest.approx(1.0, rel=0.02)
        # Gamma(m, 1/m) variance is 1/m: more LOS, less spread
        assert g.var() == pytest.approx(1.0 / m, rel=0.05)


def test_nakagami_m1_matches_rayleigh_distribution(rng):
    a = np.sort(sample_gain(FadingSpec("nakagami", 1.0), rng, size=50_000))
    b = np.sort(sample_gain(FadingSpec("rayleigh", 1.0), rng, size=50_000))
    # same law: quantiles line up
    assert np.allclose(np.quantile(a, [0.25, 0.5, 0.9]),
                       np.quantile(b, [0.25, 0.5, 0.9]), rtol=0.05)


def two_node_power(p_t, gain, dist, alpha):
    """Power node 1 receives from node 0 in a two-node graph."""
    topo = grid_topology(2, spacing=dist, jitter=0.0)
    gains = np.full((2, 2), gain)
    return build_graph(p_t, topo, gains, 0.0, alpha).power_matrix[1, 0]


def test_received_power_frozen_value():
    # 23 dBm, unit gain, 10 m, exponent 4 -> 0.19952623 * 1e-4 W
    p = two_node_power(SimConfig().tx_power_w, 1.0, 10.0, 4.0)
    assert p == pytest.approx(1.9952623e-05, rel=1e-6)


def test_received_power_scaling_law():
    assert two_node_power(1.0, 1.0, 2.0, 4.0) == pytest.approx(2.0 ** -4)
    assert (two_node_power(1.0, 1.0, 20.0, 4.0)
            / two_node_power(1.0, 1.0, 10.0, 4.0)) == pytest.approx(1 / 16)


def test_noise_power_frozen_value():
    # -174 dBm/Hz over 1 MHz (single sub-band)
    cfg = SimConfig(noise_density_dbm_hz=-174.0, system_bandwidth_hz=1e6,
                    num_subbands=1)
    assert noise_power(cfg) == pytest.approx(3.9810717e-15, rel=1e-6)


def test_noise_power_scales_with_subband_width():
    one = noise_power(SimConfig(num_subbands=1))
    five = noise_power(SimConfig(num_subbands=5))
    assert five == pytest.approx(one / 5)


def test_sample_channel_shapes(rng):
    cfg = SimConfig(num_nodes=12, num_subbands=4)
    assert sample_interference_gains(cfg, rng).shape == (12, 12)
    link_gains = sample_link_gains(cfg, 4, rng)
    assert link_gains.shape == (4, 4, 2)
    assert np.all(link_gains > 0)
