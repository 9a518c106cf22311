"""Fading distributions, path loss, and noise power."""

import numpy as np
import pytest

from conftest import grid_topology
from udnsync.channel import (sample_gain, sample_interference_gains,
                             sample_link_gains)
from udnsync.config import SimConfig
from udnsync.graph import build_graph, path_gain


def fading(kind, param):
    return SimConfig(fading_kind=kind, fading_param=param)


def test_rayleigh_power_gain_moments(rng):
    g = sample_gain(fading("rayleigh", 2.0), rng, size=200_000)
    assert np.all(g >= 0)
    assert g.mean() == pytest.approx(2.0, rel=0.02)
    # exponential power gain: variance equals mean^2
    assert g.var() == pytest.approx(4.0, rel=0.05)


def test_nakagami_power_gain_moments(rng):
    for m in (1.0, 3.0):
        g = sample_gain(fading("nakagami", m), rng, size=200_000)
        assert g.mean() == pytest.approx(1.0, rel=0.02)
        # Gamma(m, 1/m) variance is 1/m: more LOS, less spread
        assert g.var() == pytest.approx(1.0 / m, rel=0.05)


def test_nakagami_m1_matches_rayleigh_distribution(rng):
    a = np.sort(sample_gain(fading("nakagami", 1.0), rng, size=50_000))
    b = np.sort(sample_gain(fading("rayleigh", 1.0), rng, size=50_000))
    # same law: quantiles line up
    assert np.allclose(np.quantile(a, [0.25, 0.5, 0.9]),
                       np.quantile(b, [0.25, 0.5, 0.9]), rtol=0.05)


@pytest.mark.parametrize("kind,param", [
    ("rayleigh", 0.5), ("rayleigh", 1.0), ("rayleigh", 2.0), ("rayleigh", 4.0),
    ("nakagami", 1.0), ("nakagami", 3.0),
])
def test_sample_gain_bits_match_numpy_scaled_draws(kind, param):
    got = sample_gain(fading(kind, param), np.random.default_rng(5),
                      size=(7, 5))
    rng = np.random.default_rng(5)
    expected = (rng.exponential(param, size=(7, 5)) if kind == "rayleigh"
                else rng.gamma(param, 1.0 / param, size=(7, 5)))
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("kind,param", [
    ("rayleigh", 1.0), ("rayleigh", 2.0), ("nakagami", 0.5), ("nakagami", 3.0),
])
def test_interference_draw_into_a_buffer_equals_fresh_draw(kind, param):
    cfg = SimConfig(num_nodes=20, fading_kind=kind, fading_param=param)
    fresh_rng, buffer_rng = np.random.default_rng(8), np.random.default_rng(8)
    out = np.full((20, 20), np.nan)
    for _ in range(3):
        fresh = sample_interference_gains(cfg, fresh_rng)
        drawn = sample_interference_gains(cfg, buffer_rng, out=out)
        assert drawn is out
        assert np.array_equal(drawn.view(np.uint64), fresh.view(np.uint64))
    assert (buffer_rng.bit_generator.state
            == fresh_rng.bit_generator.state)


@pytest.mark.parametrize("kind,param", [
    ("rayleigh", 1.0), ("rayleigh", 0.5), ("nakagami", 1.0), ("nakagami", 2.5),
])
def test_stacked_interference_draw_equals_single_draws_in_turn(kind, param):
    # one (B, K, K) call holds the bits of B (K, K) draws in turn and
    # leaves the generator where they do
    cfg = SimConfig(num_nodes=20, fading_kind=kind, fading_param=param)
    single_rng, stack_rng = np.random.default_rng(5), np.random.default_rng(5)
    singles = np.stack([sample_interference_gains(cfg, single_rng)
                        for _ in range(7)])
    out = np.full((7, 20, 20), np.nan)
    stack = sample_interference_gains(cfg, stack_rng, out=out)
    assert stack is out
    assert np.array_equal(stack.view(np.uint64), singles.view(np.uint64))
    assert (stack_rng.bit_generator.state
            == single_rng.bit_generator.state)


def assert_received_power(p_t, gain, dist, alpha, expected):
    """Node 1 of a two-node graph hears node 0 at a threshold 1e-6 below
    ``expected`` and not at one 1e-6 above it."""
    topo = grid_topology(2, spacing=dist, jitter=0.0)
    link_gain, gains = path_gain(topo, alpha), np.full((2, 2), gain)
    for rel, edge in ((1 - 1e-6, True), (1 + 1e-6, False)):
        adjacency = build_graph(p_t, link_gain, gains, expected * rel)
        assert (adjacency[1, 0] > 0) == edge


def test_received_power_frozen_value():
    # 23 dBm, unit gain, 10 m, exponent 4 -> 0.19952623 * 1e-4 W
    assert_received_power(SimConfig().tx_power_w, 1.0, 10.0, 4.0,
                          1.9952623e-05)


def test_received_power_scaling_law():
    assert_received_power(1.0, 1.0, 2.0, 4.0, 2.0 ** -4)
    # doubling the distance divides the power by 2^4
    assert_received_power(1.0, 1.0, 10.0, 4.0, 1e-4)
    assert_received_power(1.0, 1.0, 20.0, 4.0, 1e-4 / 16)


def test_noise_power_frozen_value():
    # -174 dBm/Hz over 1 MHz (single sub-band)
    cfg = SimConfig(noise_density_dbm_hz=-174.0, system_bandwidth_hz=1e6,
                    num_subbands=1)
    assert cfg.noise_w == pytest.approx(3.9810717e-15, rel=1e-6)


def test_noise_power_scales_with_subband_width():
    one = SimConfig(num_subbands=1).noise_w
    five = SimConfig(num_subbands=5).noise_w
    assert five == pytest.approx(one / 5)


def test_sample_channel_shapes(rng):
    cfg = SimConfig(num_nodes=12, num_subbands=4)
    assert sample_interference_gains(cfg, rng).shape == (12, 12)
    link_gains = sample_link_gains(cfg, 4, rng)
    assert link_gains.shape == (4, 4, 2)
    assert np.all(link_gains > 0)
