"""Thresholded interference digraph and row-normalized weights."""

import numpy as np
import pytest

from conftest import grid_topology
from udnsync.channel import sample_interference_gains
from udnsync.config import SimConfig
from udnsync.graph import (GraphError, build_graph, connectivity_factor,
                           graph_from_powers)


HAND_POWERS = np.array([
    [0.0, 4.0, 1.0],
    [2.0, 0.0, 2.0],
    [0.0, 3.0, 0.0],
])


def test_hand_example_adjacency():
    g = graph_from_powers(HAND_POWERS, p0=2.0)
    expected = np.array([
        [0.0, 1.0, 0.0],   # only the 4.0 edge survives the threshold
        [0.5, 0.0, 0.5],
        [0.0, 1.0, 0.0],
    ])
    assert np.allclose(g.adjacency, expected)
    assert np.flatnonzero(g.in_mask[0]).tolist() == [1]      # in-neighbors
    assert np.flatnonzero(g.in_mask[1]).tolist() == [0, 2]
    assert np.flatnonzero(g.in_mask[:, 2]).tolist() == [1]   # out-neighbors


def test_threshold_is_inclusive():
    g = graph_from_powers(HAND_POWERS, p0=2.0)
    assert g.in_mask[1, 0]          # exactly at the threshold
    assert not g.in_mask[0, 2]      # strictly below


def test_rows_sum_to_one_or_zero(rng):
    cfg = SimConfig(num_nodes=25, power_threshold_dbm=-60.0)
    topo = grid_topology(25, rng=rng)
    g = build_graph(cfg.tx_power_w, topo, sample_interference_gains(cfg, rng),
                    cfg.power_threshold_w, cfg.path_loss_exp)
    sums = g.adjacency.sum(axis=1)
    has_neighbors = g.in_mask.any(axis=1)
    assert np.allclose(sums[has_neighbors], 1.0)
    assert np.all(sums[~has_neighbors] == 0.0)
    assert np.all(np.diag(g.adjacency) == 0.0)


def test_zero_threshold_gives_complete_digraph(rng):
    cfg = SimConfig(num_nodes=10)
    topo = grid_topology(10, rng=rng)
    g = build_graph(cfg.tx_power_w, topo, sample_interference_gains(cfg, rng),
                    0.0, cfg.path_loss_exp)
    assert connectivity_factor(g) == pytest.approx(2.0)


def test_edge_count_monotone_in_threshold(rng):
    cfg = SimConfig(num_nodes=20)
    topo = grid_topology(20, rng=rng)
    gains = sample_interference_gains(cfg, rng)
    thresholds_dbm = np.array([-90.0, -70.0, -55.0, -45.0])
    cfs = []
    for p0_dbm in thresholds_dbm:
        p0 = 10 ** ((p0_dbm - 30) / 10)
        g = build_graph(cfg.tx_power_w, topo, gains, p0, cfg.path_loss_exp)
        cfs.append(connectivity_factor(g))
    assert all(a >= b for a, b in zip(cfs, cfs[1:]))
    assert cfs[0] > cfs[-1]


def test_connectivity_factor_requires_two_nodes():
    g = graph_from_powers(np.zeros((1, 1)), p0=1.0)
    with pytest.raises(GraphError):
        connectivity_factor(g)


def test_gain_shape_mismatch_rejected(rng):
    topo = grid_topology(5, rng=rng)
    with pytest.raises(GraphError):
        build_graph(1.0, topo, np.ones((4, 4)), 0.0)
