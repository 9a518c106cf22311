"""Shared builders and checkers for the test suite."""

import math
import tracemalloc

import numpy as np
import pytest

from udnsync.config import SimConfig
from udnsync.graph import build_graph
from udnsync.noma import (PairLink, rate, sinr_strong, sinr_strong_alone,
                          sinr_weak)
from udnsync.topology import Topology

# PCG64's 128-bit LCG multiplier (O'Neill 2014), as numpy's PCG64 uses it
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def grid_topology(k: int, spacing: float = 14.0, jitter: float = 3.0,
                  rng: np.random.Generator | None = None,
                  triplets=()) -> Topology:
    """Jittered square grid: bounded distance ratios, fast consensus mixing."""
    side = math.ceil(math.sqrt(k))
    pts = [[i * spacing, j * spacing]
           for i in range(side) for j in range(side)][:k]
    positions = np.array(pts, dtype=float)
    if rng is not None and jitter > 0:
        positions = positions + rng.uniform(-jitter, jitter, size=(k, 2))
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    return Topology(positions=positions, distance_matrix=dist,
                    triplets=tuple(triplets))


def _ring_point(rng: np.random.Generator, center: np.ndarray,
                r_min: float, r_max: float) -> np.ndarray:
    # open at r_min so the near/far tiers stay strictly separated
    while True:
        radius = rng.uniform(r_min, r_max)
        if radius > r_min:
            break
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return center + radius * np.array([np.cos(angle), np.sin(angle)])


def place_nodes_per_point(config: SimConfig,
                          rng: np.random.Generator) -> Topology:
    """``place_nodes`` as first written: one node at a time, each radius
    redrawn until it clears its lower end, distances from (K, K, 2)
    coordinate differences."""
    k = config.num_nodes
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


def rng_with_zero_word(seed: int, index: int) -> np.random.Generator:
    """A PCG64 generator whose 64-bit output number ``index`` (from 0) is
    zero, so that its draw number ``index`` is exactly the low end of a
    uniform interval. PCG64 steps its 128-bit LCG state and then outputs
    rotr(hi ^ lo, hi >> 58), which is zero when both halves are equal; the
    state is set that many LCG steps before such a state."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    half = (seed * 0x9E3779B97F4A7C15 + 1) % (1 << 64)
    value = (half << 64) | half
    inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(index + 1):
        value = (value - inc) * inverse % (1 << 128)
    state["state"]["state"] = value
    rng.bit_generator.state = state
    return rng


def graph_from_powers(power, p0: float) -> np.ndarray:
    """Threshold a received-power matrix and row-normalize the weights:
    ``build_graph`` at unit transmit power and unit fading gains, whose
    products leave every power unchanged."""
    power = np.asarray(power, dtype=float)
    return build_graph(1.0, power, np.ones_like(power), p0)


def peak_traced_bytes(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def small_config(**overrides) -> SimConfig:
    base = dict(num_nodes=9, num_subbands=2, max_iters=200, max_snapshots=2,
                noise_density_dbm_hz=-114.0)
    base.update(overrides)
    return SimConfig(**base)


def has_blocking_pair(assignment, times: np.ndarray) -> bool:
    """True if some triplet and sub-band mutually prefer each other."""
    num_t, num_s = times.shape
    t_sb = {t: s for s, t in assignment.sb_to_triplet.items()}
    for t in range(num_t):
        cur_t = times[t, t_sb[t]] if t in t_sb else math.inf
        for s in range(num_s):
            if t_sb.get(t) == s:
                continue
            holder = assignment.sb_to_triplet.get(s)
            cur_s = times[holder, s] if holder is not None else math.inf
            t_prefers = (times[t, s], s) < (cur_t, t_sb.get(t, num_s))
            s_prefers = (times[t, s], t) < ((cur_s, holder) if holder is not None
                                            else (math.inf, num_t))
            if t_prefers and s_prefers:
                return True
    return False


def bit_accumulation_times(link: PairLink,
                           tol=1e-13) -> tuple[float, float]:
    """(t_strong, t_weak) by bisection on delivered bits: independent of
    the closed-form branches."""
    r_weak = rate(sinr_weak(link), link.bandwidth_hz)
    r_shared = rate(sinr_strong(link), link.bandwidth_hz)
    r_alone = rate(sinr_strong_alone(link), link.bandwidth_hz)
    t_weak = link.payload_bits / r_weak

    def delivered(t):
        return (r_shared * min(t, t_weak)
                + r_alone * max(0.0, t - t_weak))

    lo, hi = 0.0, 1.0
    while delivered(hi) < link.payload_bits:
        hi *= 2.0
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2.0
        if delivered(mid) < link.payload_bits:
            lo = mid
        else:
            hi = mid
    return hi, t_weak


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
