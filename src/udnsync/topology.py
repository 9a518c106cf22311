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


@dataclass(frozen=True)
class Topology:
    positions: np.ndarray        # (K, 2) meters
    distance_matrix: np.ndarray  # (K, K) meters
    triplets: tuple[tuple[int, int, int], ...]  # (tx, strong_rx, weak_rx)


def place_nodes(config: SimConfig, rng: np.random.Generator) -> Topology:
    """Drop K nodes and form floor(K/3) disjoint (tx, strong, weak) triplets.

    Each node is a radius and an angle, drawn in node order (each
    triplet's transmitter, strong and weak receiver, then the leftovers),
    all in one draw. A radius on its lower end (only a draw of exactly 0
    lands there) is drawn again from the next words, which keeps the near
    and far tiers strictly apart.
    """
    k = config.num_nodes
    near, far = config.near_radius_m, config.far_radius_m

    end = 3 * (k // 3)
    low = np.zeros((k, 2))
    high = np.full((k, 2), 2.0 * np.pi)
    high[:, 0] = far
    high[1:end:3, 0] = near      # strong receivers: (0, near]
    low[2:end:3, 0] = near       # weak receivers: (near, far]
    radius, angle = rng.uniform(low, high).T
    while (hits := np.flatnonzero(radius <= low[:, 0])).size:
        radius[hits] = rng.uniform(low[hits, 0], high[hits, 0])
    positions = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)],
                                           axis=1)
    # receivers sit around their transmitter, the rest around the origin
    positions[1:end:3] += positions[0:end:3]
    positions[2:end:3] += positions[0:end:3]

    dx, dy = (np.subtract.outer(c, c) for c in positions.T)
    dx *= dx
    dx += dy * dy
    dist = np.sqrt(dx, out=dx)
    triplets = tuple((t, t + 1, t + 2) for t in range(0, end, 3))
    return Topology(positions=positions, distance_matrix=dist,
                    triplets=triplets)
