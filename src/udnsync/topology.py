"""Node geometry and TX-RX triplets.

The layout is a two-tier structure: each transmitter is dropped in a
circular region, its strong receiver within ``near_radius_m`` of it and
its weak receiver in the (near, far] annulus, which produces the
channel asymmetry the NOMA exchange phase exploits. Nodes left over
when K is not divisible by 3 join the consensus graph but carry no
exchange role.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from udnsync.config import SimConfig


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class Topology:
    positions: np.ndarray        # (K, 2) meters
    distance_matrix: np.ndarray  # (K, K) meters
    triplets: tuple[tuple[int, int, int], ...]  # (tx, strong_rx, weak_rx)


def _ring_point(rng: np.random.Generator, center: np.ndarray,
                r_min: float, r_max: float) -> np.ndarray:
    # open at r_min so the near/far tiers stay strictly separated
    while True:
        radius = rng.uniform(r_min, r_max)
        if radius > r_min:
            break
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return center + radius * np.array([np.cos(angle), np.sin(angle)])


def place_nodes(config: SimConfig, rng: np.random.Generator) -> Topology:
    """Drop K nodes and form floor(K/3) disjoint (tx, strong, weak) triplets."""
    k = config.num_nodes
    if k < 3:
        raise TopologyError("insufficient nodes: need K >= 3 to form a triplet")
    near, far = config.near_radius_m, config.far_radius_m

    n_triplets = k // 3
    positions = np.zeros((k, 2))
    triplets = []
    center = np.zeros(2)
    for t in range(n_triplets):
        tx, strong, weak = 3 * t, 3 * t + 1, 3 * t + 2
        tx_pos = _ring_point(rng, center, 0.0, far)
        positions[tx] = tx_pos
        positions[strong] = _ring_point(rng, tx_pos, 0.0, near)
        positions[weak] = _ring_point(rng, tx_pos, near, far)
        triplets.append((tx, strong, weak))
    for i in range(3 * n_triplets, k):
        positions[i] = _ring_point(rng, center, 0.0, far)

    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    return Topology(positions=positions, distance_matrix=dist,
                    triplets=tuple(triplets))
