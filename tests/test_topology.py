"""Node placement, triplet tiers, and clock initialization."""

import numpy as np
import pytest

from conftest import place_nodes_per_point, rng_with_zero_word
from udnsync.config import SimConfig
from udnsync.consensus import REFERENCE_TEMP_C, init_clocks
from udnsync.topology import place_nodes


def test_distance_matrix_symmetric_zero_diagonal(rng):
    topo = place_nodes(SimConfig(num_nodes=30), rng)
    d = topo.distance_matrix
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    off_diag = d[~np.eye(30, dtype=bool)]
    assert np.all(off_diag > 0)


def test_triplet_count_and_disjointness(rng):
    for k in (3, 10, 31):
        topo = place_nodes(SimConfig(num_nodes=k), rng)
        assert len(topo.triplets) == k // 3
        flat = [i for trip in topo.triplets for i in trip]
        assert len(set(flat)) == len(flat)


def test_tier_radii_respected(rng):
    cfg = SimConfig(num_nodes=60, near_radius_m=10.0, far_radius_m=100.0)
    for seed in range(5):
        topo = place_nodes(cfg, np.random.default_rng(seed))
        d = topo.distance_matrix
        for tx, strong, weak in topo.triplets:
            assert 0.0 < d[tx, strong] <= cfg.near_radius_m
            assert cfg.near_radius_m < d[tx, weak] <= cfg.far_radius_m


def test_initial_offsets_within_range(rng):
    cfg = SimConfig(num_nodes=200, init_offset_max=40e-6)
    state = init_clocks(cfg, rng)
    assert state.times.shape == (200,)
    assert np.all(state.times >= 0.0)
    assert np.all(state.times <= 40e-6)
    # a uniform draw over [0, 40us] should fill most of the range
    assert state.times.max() > 30e-6


def test_skew_model_frozen_values():
    # beta * (T - 25)^2 at the extremes of the 0..50 C range
    beta = SimConfig().temp_coeff_ppm_c2
    assert beta * (50.0 - REFERENCE_TEMP_C) ** 2 == pytest.approx(-26.25)
    assert beta * (0.0 - REFERENCE_TEMP_C) ** 2 == pytest.approx(-26.25)
    assert beta * (25.0 - REFERENCE_TEMP_C) ** 2 == 0.0


def test_skews_bounded_by_extreme_temperature(rng):
    cfg = SimConfig(num_nodes=500)
    state = init_clocks(cfg, rng)
    assert np.all(state.skews_ppm <= 0.0)
    assert np.all(state.skews_ppm >= -26.25)


def test_placement_deterministic_under_seed():
    cfg = SimConfig(num_nodes=30)
    a = place_nodes(cfg, np.random.default_rng(7))
    b = place_nodes(cfg, np.random.default_rng(7))
    assert np.array_equal(a.positions, b.positions)
    assert a.triplets == b.triplets


def assert_same_placement(config, make_rng):
    """place_nodes and the per-point loop give the same bits and leave
    their generators in the same state."""
    rng, reference_rng = make_rng(), make_rng()
    got = place_nodes(config, rng)
    want = place_nodes_per_point(config, reference_rng)
    assert np.array_equal(got.positions.view(np.uint64),
                          want.positions.view(np.uint64))
    assert np.array_equal(got.distance_matrix.view(np.uint64),
                          want.distance_matrix.view(np.uint64))
    assert got.triplets == want.triplets
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    return got


@pytest.mark.parametrize("k", [3, 4, 5, 60, 61, 62, 90, 250])
def test_place_nodes_equals_per_point_loop(k):
    cfg = SimConfig(num_nodes=k)
    for seed in range(40):
        assert_same_placement(cfg, lambda: np.random.default_rng(seed))


class ReplayedFractions:
    """Stands in for a generator: draw j of ``uniform`` takes the 53-bit
    fraction ``fractions[j]`` and scales it as numpy's ``uniform`` does."""

    def __init__(self, fractions):
        self.fractions = iter(fractions)

    def uniform(self, low, high):
        return low + (high - low) * next(self.fractions)


def test_place_nodes_redraws_a_radius_on_its_lower_end():
    # K=7 draws 14 values: (r, theta) for tx, strong, weak, tx, strong,
    # weak, leftover. A zero word at an odd index gives a valid angle of 0,
    # as in the per-point loop. At an even index it puts that radius on its
    # lower end (0 m, or near_radius_m for a weak receiver): place_nodes
    # draws that radius again from word 14, one word more than the batch,
    # and keeps every other value of the batch draw
    cfg = SimConfig(num_nodes=7)
    for index in range(14):
        assert rng_with_zero_word(index, index).random(index + 1)[-1] == 0.0
        if index % 2:
            topo = assert_same_placement(
                cfg, lambda: rng_with_zero_word(index, index))
        else:
            rng = rng_with_zero_word(index, index)
            reference_rng = rng_with_zero_word(index, index)
            topo = place_nodes(cfg, rng)
            fractions = reference_rng.random(15)
            fractions[index] = fractions[14]
            want = place_nodes_per_point(
                cfg, ReplayedFractions(fractions[:14]))
            assert np.array_equal(topo.positions.view(np.uint64),
                                  want.positions.view(np.uint64))
            assert np.array_equal(topo.distance_matrix.view(np.uint64),
                                  want.distance_matrix.view(np.uint64))
            assert (rng.bit_generator.state
                    == reference_rng.bit_generator.state)
        d = topo.distance_matrix
        for tx, strong, weak in topo.triplets:
            assert 0.0 < d[tx, strong] <= cfg.near_radius_m
            assert cfg.near_radius_m < d[tx, weak] <= cfg.far_radius_m
        assert np.linalg.norm(topo.positions[6]) > 0.0
