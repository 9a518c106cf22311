"""Thresholded interference digraph and consensus weights.

An edge j -> i exists when the interference power node i receives from
node j meets the power threshold. Row i of the adjacency matrix
distributes weight over i's incoming neighbors proportionally to their
received power, so rows with at least one incoming neighbor sum to 1.
Isolated nodes keep an all-zero row and simply hold their clock. A graph
keeps the neighbor mask and the weights, not the powers: each build
thresholds and normalizes one K x K buffer of received powers in place,
a fresh one or the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from udnsync.topology import Topology


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class InterferenceGraph:
    in_mask: np.ndarray        # (K, K) bool, [i, j] = j is incoming neighbor of i
    adjacency: np.ndarray      # (K, K) row-normalized weights

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]


def _threshold(power: np.ndarray, p0: float) -> InterferenceGraph:
    # takes ownership of ``power`` and makes it the adjacency in place; the
    # domain is finite, non-negative powers (what ``build_graph`` produces)
    np.fill_diagonal(power, 0.0)
    in_mask = power >= p0
    np.fill_diagonal(in_mask, False)
    np.copyto(power, 0.0, where=power < p0)
    row_sums = power.sum(axis=1, keepdims=True)
    # a row with no incoming neighbor is all zero and is divided by 1.0
    row_sums[row_sums == 0.0] = 1.0
    power /= row_sums
    return InterferenceGraph(in_mask=in_mask, adjacency=power)


def path_gain(topology: Topology, path_loss_exp: float) -> np.ndarray:
    """Pairwise d^-alpha; zero on the diagonal. Fixed for a topology."""
    dist = topology.distance_matrix
    return np.where(dist > 0, dist, np.inf) ** -path_loss_exp


def build_graph(p_t: float, path_gain: np.ndarray,
                interference_gains: np.ndarray, p0: float,
                out: np.ndarray | None = None) -> InterferenceGraph:
    """Received powers p_t * |h|^2 * d^-alpha, neighbor sets and weights.

    The powers, then the weights, go in ``out`` when it is given: a (K, K)
    float64 buffer, which may be ``interference_gains`` itself. A graph
    built into a caller's buffer is valid until the buffer is next written.
    """
    if interference_gains.shape != path_gain.shape:
        raise GraphError("gain matrix shape does not match topology")
    power = np.multiply(p_t, interference_gains, out=out)
    power *= path_gain
    return _threshold(power, p0)


def connectivity_factor(graph: InterferenceGraph) -> float:
    """Directed-degree sum over 2*C(K,2).

    Reported raw: a complete bidirectional digraph yields 2.0 because
    both edge directions are counted against the undirected pair count.
    """
    k = graph.num_nodes
    if k < 2:
        raise GraphError("connectivity factor needs K >= 2")
    num_edges = int(graph.in_mask.sum())
    return 2.0 * num_edges / (k * (k - 1))
