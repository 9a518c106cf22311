"""Thresholded interference digraph as its consensus weight matrix.

The graph is one (K, K) float64 array: row i distributes weight over i's
incoming neighbors proportionally to the power it receives from them, so
rows with at least one incoming neighbor sum to 1, and an edge j -> i is
``adjacency[i, j] > 0``. Isolated nodes keep an all-zero row and simply
hold their clock. Each build thresholds and normalizes one K x K buffer
of received powers in place, a fresh one or the caller's, or a stack of
them in one call.
"""

from __future__ import annotations

import numpy as np

from udnsync.topology import Topology


class GraphError(ValueError):
    pass


def path_gain(topology: Topology, path_loss_exp: float) -> np.ndarray:
    """Pairwise d^-alpha; zero on the diagonal, since ``path_loss_exp`` is
    positive. Fixed for a topology."""
    dist = topology.distance_matrix
    return np.where(dist > 0, dist, np.inf) ** -path_loss_exp


def build_graph(p_t: float, path_gain: np.ndarray,
                interference_gains: np.ndarray, p0: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """Weights of the received powers p_t * |h|^2 * d^-alpha at or above p0.

    ``interference_gains`` is one (K, K) draw or a (..., K, K) stack of
    them, and the graphs stack alike. The powers, then the weights, go in
    ``out`` (returned) when it is given: a float64 buffer of that shape,
    which may be ``interference_gains`` itself. ``path_gain`` is zero on
    the diagonal, as ``path_gain`` makes it, so no node hears itself. An
    edge is a positive weight, and so never a pair of zero power.
    """
    if interference_gains.shape[-2:] != path_gain.shape:
        raise GraphError("gain matrix shape does not match topology")
    power = np.multiply(p_t, interference_gains, out=out)
    power *= path_gain
    np.copyto(power, 0.0, where=power < p0)
    row_sums = power.sum(axis=-1, keepdims=True)
    # a row with no incoming neighbor is all zero and is divided by 1.0
    row_sums[row_sums == 0.0] = 1.0
    power /= row_sums
    return power


def connectivity_factor(adjacency: np.ndarray) -> float:
    """Directed edge count (positive weights) over C(K,2).

    Reported raw: a complete bidirectional digraph yields 2.0 because
    both edge directions are counted against the undirected pair count.
    """
    k = adjacency.shape[0]
    if k < 2:
        raise GraphError("connectivity factor needs K >= 2")
    return 2.0 * np.count_nonzero(adjacency) / (k * (k - 1))
