"""Snapshot/iteration clock-alignment loop.

Each snapshot repeatedly redraws fading, rebuilds the interference
graph, and applies a weighted-averaging clock update until the timing
standard deviation meets the tolerance or the iteration budget runs
out. The proposed update averages the current incoming weight with the
reciprocal weight remembered from the previous synchronized snapshot;
that memory is refreshed exactly once, at snapshot end. Temperature
skew perturbs the clocks between snapshots, which is what forces the
network to re-synchronize repeatedly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from udnsync.config import SimConfig
from udnsync.graph import InterferenceGraph, build_graph

if TYPE_CHECKING:
    from udnsync.topology import Topology


class ConsensusError(ValueError):
    pass


# Clock spreads are tens of microseconds; a standard deviation this large
# means the averaging iteration is expanding (reciprocal-memory weights can
# push a node's total incoming weight above 1/eps on weight-concentrated
# layouts). The snapshot then stops early but is charged its full budget.
DIVERGENCE_SD_S = 1e3


@dataclass
class ClockState:
    times: np.ndarray                    # seconds, per node
    skews_ppm: np.ndarray                # temperature-driven skews
    prev_adjacency: np.ndarray | None = None  # weight memory from last snapshot
    prev_in_mask: np.ndarray | None = None    # incoming-neighbor sets of that snapshot

    def remember(self, graph: InterferenceGraph) -> None:
        self.prev_adjacency = graph.adjacency.copy()
        self.prev_in_mask = graph.in_mask.copy()


@dataclass
class SnapshotResult:
    sd_per_iteration: np.ndarray
    iterations_used: int
    converged: bool


@dataclass
class SyncTrace:
    snapshots: list[SnapshotResult] = field(default_factory=list)
    iter_period: float = 1e-3

    @property
    def iterations_used(self) -> np.ndarray:
        return np.array([s.iterations_used for s in self.snapshots])

    @property
    def converged(self) -> np.ndarray:
        return np.array([s.converged for s in self.snapshots])

    @property
    def mean_iterations(self) -> float:
        return float(self.iterations_used.mean())

    @property
    def mean_final_sd(self) -> float:
        return float(np.mean([s.sd_per_iteration[-1] for s in self.snapshots]))

    @property
    def algorithmic_time(self) -> float:
        return self.mean_iterations * self.iter_period

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["snapshot", "iteration", "sd_seconds"])
            for snap_idx, snap in enumerate(self.snapshots, start=1):
                for it_idx, sd in enumerate(snap.sd_per_iteration, start=1):
                    writer.writerow([snap_idx, it_idx, repr(float(sd))])


def timing_sd(times: np.ndarray) -> float:
    """Sample standard deviation of the clock vector (divisor K-1)."""
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ConsensusError("timing_sd needs K >= 2")
    return float(np.sqrt(((times - times.mean()) ** 2).sum() / (times.size - 1)))


def _apply_weights(times: np.ndarray, weights: np.ndarray,
                   eps: float) -> np.ndarray:
    # Jacobi-style: every node reads the frozen pre-update vector
    return times + eps * (weights @ times - weights.sum(axis=1) * times)


def update_baseline(state: ClockState, graph: InterferenceGraph,
                    eps: float) -> np.ndarray:
    """RSSI-only update: t_k += eps * sum_j a_kj (t_j - t_k)."""
    if not 0.0 < eps < 1.0:
        raise ConsensusError("step size must lie in (0, 1)")
    return _apply_weights(state.times, graph.adjacency, eps)


def proposed_weights(state: ClockState,
                     graph: InterferenceGraph) -> np.ndarray:
    """Average of current weights with remembered reciprocal weights.

    The memory term for pair (k, j) is the previous snapshot's a_jk,
    usable only where j was both an outgoing and incoming neighbor of k
    in that snapshot; elsewhere it contributes zero. No memory at all
    degenerates to a half-step of the baseline rule.
    """
    current = graph.adjacency
    if state.prev_adjacency is None:
        memory = np.zeros_like(current)
    else:
        bidirectional = state.prev_in_mask & state.prev_in_mask.T
        memory = np.where(bidirectional, state.prev_adjacency.T, 0.0)
    return (current + memory) / 2.0


def update_proposed(state: ClockState, graph: InterferenceGraph,
                    eps: float) -> np.ndarray:
    """Two-source update: t_k += eps * sum_j (a_kj + a_jk_prev)/2 (t_j - t_k)."""
    if not 0.0 < eps < 1.0:
        raise ConsensusError("step size must lie in (0, 1)")
    return _apply_weights(state.times, proposed_weights(state, graph), eps)


def run_snapshot(state: ClockState, config: SimConfig, topology: "Topology",
                 rng: np.random.Generator, rule: str = "proposed") -> SnapshotResult:
    """One synchronization period: iterate until sd <= delta or budget ends.

    On exit, the weight memory is refreshed from the final graph and the
    per-node skew drift for the snapshot's elapsed time is applied.
    """
    from udnsync.channel import sample_interference_gains

    if config.max_iters < 1:
        raise ConsensusError("no iteration budget")
    update = update_proposed if rule == "proposed" else update_baseline
    sds = []
    graph = None
    for _ in range(config.max_iters):
        gains = sample_interference_gains(config, rng)
        graph = build_graph(config.tx_power_w, topology, gains,
                            config.power_threshold_w, config.path_loss_exp)
        state.times = update(state, graph, config.step_size)
        sd = timing_sd(state.times)
        sds.append(sd)
        if sd <= config.sd_tolerance:
            break
        if not np.isfinite(sd) or sd > DIVERGENCE_SD_S:
            break
    diverged = not np.isfinite(sds[-1]) or sds[-1] > DIVERGENCE_SD_S
    iterations = config.max_iters if diverged else len(sds)
    converged = sds[-1] <= config.sd_tolerance
    state.remember(graph)
    elapsed = iterations * config.iter_period
    state.times = state.times + state.skews_ppm * 1e-6 * elapsed
    return SnapshotResult(sd_per_iteration=np.array(sds),
                          iterations_used=iterations, converged=converged)


def run_sync(config: SimConfig, topology: "Topology",
             rng: np.random.Generator, rule: str = "proposed",
             state: ClockState | None = None) -> SyncTrace:
    """Run T_max snapshots and aggregate iteration counts.

    The weight memory starts from a graph drawn before the first
    snapshot, standing in for an initially synchronized exchange.
    """
    from udnsync.channel import sample_interference_gains
    from udnsync.topology import init_clocks

    if state is None:
        state = init_clocks(config, rng)
    gains = sample_interference_gains(config, rng)
    state.remember(build_graph(config.tx_power_w, topology, gains,
                               config.power_threshold_w, config.path_loss_exp))
    trace = SyncTrace(iter_period=config.iter_period)
    for _ in range(config.max_snapshots):
        trace.snapshots.append(run_snapshot(state, config, topology, rng, rule))
    return trace
