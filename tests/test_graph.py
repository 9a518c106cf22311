"""Thresholded interference digraph and row-normalized weights."""

import numpy as np
import pytest

from conftest import graph_from_powers, grid_topology, peak_traced_bytes
from udnsync.channel import sample_interference_gains
from udnsync.config import SimConfig
from udnsync.consensus import ClockState
from udnsync.graph import (GraphError, build_graph, connectivity_factor,
                           path_gain)
from udnsync.topology import place_nodes


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
    assert np.allclose(g, expected)
    assert np.flatnonzero(g[0]).tolist() == [1]      # in-neighbors
    assert np.flatnonzero(g[1]).tolist() == [0, 2]
    assert np.flatnonzero(g[:, 2]).tolist() == [1]   # out-neighbors


def test_threshold_is_inclusive():
    g = graph_from_powers(HAND_POWERS, p0=2.0)
    assert g[1, 0] > 0              # exactly at the threshold
    assert g[0, 2] == 0             # strictly below


def test_rows_sum_to_one_or_zero(rng):
    cfg = SimConfig(num_nodes=25, power_threshold_dbm=-60.0)
    topo = grid_topology(25, rng=rng)
    g = build_graph(cfg.tx_power_w, path_gain(topo, cfg.path_loss_exp),
                    sample_interference_gains(cfg, rng), cfg.power_threshold_w)
    sums = g.sum(axis=1)
    has_neighbors = (g > 0).any(axis=1)
    assert np.allclose(sums[has_neighbors], 1.0)
    assert np.all(sums[~has_neighbors] == 0.0)
    assert np.all(np.diag(g) == 0.0)


def test_zero_threshold_gives_complete_digraph(rng):
    cfg = SimConfig(num_nodes=10)
    topo = grid_topology(10, rng=rng)
    g = build_graph(cfg.tx_power_w, path_gain(topo, cfg.path_loss_exp),
                    sample_interference_gains(cfg, rng), 0.0)
    assert connectivity_factor(g) == pytest.approx(2.0)


def test_edge_count_monotone_in_threshold(rng):
    cfg = SimConfig(num_nodes=20)
    topo = grid_topology(20, rng=rng)
    gains = sample_interference_gains(cfg, rng)
    thresholds_dbm = np.array([-90.0, -70.0, -55.0, -45.0])
    cfs = []
    for p0_dbm in thresholds_dbm:
        p0 = 10 ** ((p0_dbm - 30) / 10)
        g = build_graph(cfg.tx_power_w, path_gain(topo, cfg.path_loss_exp),
                        gains, p0)
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
        build_graph(1.0, path_gain(topo, 4.0), np.ones((4, 4)), 0.0)


def _build_graph_reference(p_t, topology, gains, p0, path_loss_exp):
    """The graph as first written: path loss per call, masks by np.where."""
    dist = topology.distance_matrix
    safe_dist = np.where(dist > 0, dist, np.inf)
    power = np.array(p_t * gains * safe_dist ** (-path_loss_exp), dtype=float)
    np.fill_diagonal(power, 0.0)
    in_mask = power >= p0
    np.fill_diagonal(in_mask, False)
    thresholded = np.where(in_mask, power, 0.0)
    row_sums = thresholded.sum(axis=1, keepdims=True)
    adjacency = np.divide(thresholded, row_sums,
                          out=np.zeros_like(thresholded), where=row_sums > 0)
    return power, in_mask, adjacency


@pytest.mark.parametrize("k", [9, 90, 250])
def test_build_graph_bits_match_reference(k):
    cfg = SimConfig(num_nodes=k)
    rng = np.random.default_rng(k)
    topo = place_nodes(cfg, rng)
    gains = sample_interference_gains(cfg, rng)
    gain = path_gain(topo, cfg.path_loss_exp)
    power, _, _ = _build_graph_reference(cfg.tx_power_w, topo, gains, 0.0,
                                         cfg.path_loss_exp)
    # half the rows keep no neighbor at the median of the row maxima
    isolating = float(np.median(power.max(axis=1)))
    for p0 in (0.0, cfg.power_threshold_w, isolating):
        _, ref_mask, ref_adj = _build_graph_reference(
            cfg.tx_power_w, topo, gains, p0, cfg.path_loss_exp)
        g = build_graph(cfg.tx_power_w, gain, gains, p0)
        assert np.array_equal(g.view(np.uint64), ref_adj.view(np.uint64))
        # an edge is a positive weight: the reference's thresholded mask
        assert np.array_equal(g > 0, ref_mask)
        if p0 == isolating:
            isolated = ~(g > 0).any(axis=1)
            assert 0 < isolated.sum() < k
        # the reciprocal memory as first written
        state = ClockState(times=np.zeros(k), skews_ppm=np.zeros(k))
        state.remember(g)
        expected = np.where(ref_mask & ref_mask.T, ref_adj.T, 0.0)
        assert np.array_equal(state.memory.view(np.uint64),
                              expected.view(np.uint64))


def test_build_graph_leaves_its_inputs_unchanged():
    # run_sync shares one path gain across every build of a replication
    cfg = SimConfig(num_nodes=90)
    rng = np.random.default_rng(4)
    gain = path_gain(place_nodes(cfg, rng), cfg.path_loss_exp)
    gains = sample_interference_gains(cfg, rng)
    gain_bits = gain.view(np.uint64).copy()
    gains_bits = gains.view(np.uint64).copy()
    for p_t in (1.0, cfg.tx_power_w):
        for p0 in (0.0, cfg.power_threshold_w, np.inf):
            build_graph(p_t, gain, gains, p0)
            assert np.array_equal(gain.view(np.uint64), gain_bits)
            assert np.array_equal(gains.view(np.uint64), gains_bits)


def test_build_graph_into_a_buffer_equals_fresh_build():
    # into a separate buffer, and over the fading draw itself as the
    # consensus loop does; the graph's weights are the buffer
    cfg = SimConfig(num_nodes=90)
    rng = np.random.default_rng(6)
    gain = path_gain(place_nodes(cfg, rng), cfg.path_loss_exp)
    gains = sample_interference_gains(cfg, rng)
    for p0 in (0.0, cfg.power_threshold_w, np.inf):
        fresh = build_graph(cfg.tx_power_w, gain, gains, p0)
        out, own = np.full_like(gains, np.nan), gains.copy()
        for buffer, fading in ((out, gains), (own, own)):
            graph = build_graph(cfg.tx_power_w, gain, fading, p0, out=buffer)
            assert graph is buffer
            assert np.array_equal(graph.view(np.uint64),
                                  fresh.view(np.uint64))


@pytest.mark.parametrize("k", [60, 90, 250])
def test_stacked_build_equals_builds_slice_by_slice(k):
    # the row sums run over the last axis of the stack, in place
    cfg = SimConfig(num_nodes=k)
    rng = np.random.default_rng(k)
    gain = path_gain(place_nodes(cfg, rng), cfg.path_loss_exp)
    gains = np.stack([sample_interference_gains(cfg, rng) for _ in range(3)])
    for p0 in (0.0, cfg.power_threshold_w):
        singles = np.stack([build_graph(cfg.tx_power_w, gain, draw, p0)
                            for draw in gains])
        stack = gains.copy()
        graphs = build_graph(cfg.tx_power_w, gain, stack, p0, out=stack)
        assert graphs is stack
        assert np.array_equal(graphs.view(np.uint64),
                              singles.view(np.uint64))


def test_no_node_hears_itself_without_a_diagonal_fill():
    # path_gain is exactly 0 on the diagonal, so at a zero threshold every
    # off-diagonal pair is an edge and no self-loop is
    cfg = SimConfig(num_nodes=90)
    rng = np.random.default_rng(3)
    gain = path_gain(place_nodes(cfg, rng), cfg.path_loss_exp)
    assert np.all(np.diag(gain) == 0.0)
    graphs = build_graph(cfg.tx_power_w, gain,
                         np.stack([sample_interference_gains(cfg, rng)
                                   for _ in range(2)]), 0.0)
    for graph in graphs:
        assert np.all(np.diag(graph) == 0.0)
        assert connectivity_factor(graph) == pytest.approx(2.0)


def test_build_graph_allocates_one_float_buffer():
    # the powers become the weights in place: one K x K float array and
    # the threshold's bool mask measure 1.14 K^2 floats; a second mask
    # adds 0.125 and a second float array 1
    k = 250
    cfg = SimConfig(num_nodes=k)
    rng = np.random.default_rng(k)
    gain = path_gain(place_nodes(cfg, rng), cfg.path_loss_exp)
    gains = sample_interference_gains(cfg, rng)
    peak = peak_traced_bytes(lambda: build_graph(
        cfg.tx_power_w, gain, gains, cfg.power_threshold_w))
    assert peak < 1.2 * k * k * 8
