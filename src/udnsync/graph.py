"""Thresholded interference digraph and consensus weights.

An edge j -> i exists when the interference power node i receives from
node j meets the power threshold. Row i of the adjacency matrix
distributes weight over i's incoming neighbors proportionally to their
received power, so rows with at least one incoming neighbor sum to 1.
Isolated nodes keep an all-zero row and simply hold their clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from udnsync.topology import Topology


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class InterferenceGraph:
    power_matrix: np.ndarray   # (K, K) watts, P[i, j] = power i receives from j
    in_mask: np.ndarray        # (K, K) bool, [i, j] = j is incoming neighbor of i
    adjacency: np.ndarray      # (K, K) row-normalized weights

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]


def graph_from_powers(power: np.ndarray, p0: float) -> InterferenceGraph:
    """Threshold a received-power matrix and row-normalize the weights."""
    power = np.array(power, dtype=float)
    np.fill_diagonal(power, 0.0)
    in_mask = power >= p0
    np.fill_diagonal(in_mask, False)
    thresholded = np.where(in_mask, power, 0.0)
    row_sums = thresholded.sum(axis=1, keepdims=True)
    adjacency = np.divide(thresholded, row_sums,
                          out=np.zeros_like(thresholded), where=row_sums > 0)
    return InterferenceGraph(power_matrix=power, in_mask=in_mask,
                             adjacency=adjacency)


def build_graph(p_t: float, topology: "Topology", interference_gains: np.ndarray,
                p0: float, path_loss_exp: float = 4.0) -> InterferenceGraph:
    """Compute pairwise received powers, neighbor sets, and weights."""
    dist = topology.distance_matrix
    k = dist.shape[0]
    if interference_gains.shape != (k, k):
        raise GraphError("gain matrix shape does not match topology")
    safe_dist = np.where(dist > 0, dist, np.inf)
    power = p_t * interference_gains * safe_dist ** (-path_loss_exp)
    return graph_from_powers(power, p0)


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
