"""The clock model (``ClockState``, ``init_clocks``) and the alignment loop.

Each snapshot repeatedly redraws fading, rebuilds the interference
graph, and applies a weighted-averaging clock update until the timing
standard deviation meets the tolerance or the iteration budget runs
out. The proposed update averages the current incoming weight with the
reciprocal weight remembered from the previous synchronized snapshot;
that memory is refreshed exactly once, at snapshot end. Temperature
skew perturbs the clocks between snapshots, which is what forces the
network to re-synchronize repeatedly.

``run_snapshot`` takes its fading from a zero-argument callable and
knows nothing of where the draws come from. In ``run_sync`` one worker
thread makes every fading draw, into two buffers used in turn, on the
same generator and in the same order. Where a next draw is certain to
follow (before the first snapshot and in every snapshot but the last),
the worker draws it ahead while the loop builds the graph over the
current draw in place and updates the clocks; elsewhere the loop waits
for its draw. So nothing is drawn past the end, and the stream and every
seeded output are those of drawing one at a time. With one more buffer
for the proposed weights and the memory refreshed in place, no iteration
allocates a K x K float array. The worker is joined before ``run_sync``
returns or raises.
"""

from __future__ import annotations

import csv
import queue
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

# every draw looks channel.sample_interference_gains up on the module, so
# a rebinding of that attribute (a tracing hook) is seen on every call
from udnsync import channel
from udnsync.config import SimConfig
from udnsync.graph import build_graph, path_gain
from udnsync.topology import Topology

REFERENCE_TEMP_C = 25.0  # TCXO turnover temperature


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
    memory: np.ndarray | None = None     # reciprocal weights of last snapshot

    def remember(self, adjacency: np.ndarray) -> None:
        """Keep this snapshot's reciprocal weights (see proposed_weights),
        in place once there is a memory: the transpose of the weights,
        zeroed where they are zero, holds exactly the bidirectional pairs.
        """
        if self.memory is None:
            self.memory = np.empty_like(adjacency)
        np.copyto(self.memory, adjacency.T)
        np.copyto(self.memory, 0.0, where=adjacency == 0.0)


def init_clocks(config: SimConfig, rng: np.random.Generator) -> ClockState:
    """Draw initial clock offsets and temperature-driven skews.

    Offsets are uniform on [0, init_offset_max] seconds. Each node's
    skew follows the quadratic TCXO model beta * (T - 25)^2 ppm with the
    node temperature uniform over the configured range.
    """
    k = config.num_nodes
    offsets = rng.uniform(0.0, config.init_offset_max, size=k)
    temps = rng.uniform(config.temp_low_c, config.temp_high_c, size=k)
    skews = config.temp_coeff_ppm_c2 * (temps - REFERENCE_TEMP_C) ** 2
    return ClockState(times=offsets, skews_ppm=skews)


@dataclass
class SnapshotResult:
    sd_per_iteration: np.ndarray
    iterations_used: int
    converged: bool


@dataclass
class SyncTrace:
    iter_period: float
    snapshots: list[SnapshotResult] = field(default_factory=list)

    @property
    def iterations_used(self) -> np.ndarray:
        return np.array([s.iterations_used for s in self.snapshots])

    @property
    def mean_iterations(self) -> float:
        return float(self.iterations_used.mean())

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
    if not 0.0 < eps < 1.0:
        raise ConsensusError("step size must lie in (0, 1)")
    # Jacobi-style: every node reads the frozen pre-update vector
    return times + eps * (weights @ times - weights.sum(axis=1) * times)


def update_baseline(state: ClockState, adjacency: np.ndarray,
                    eps: float) -> np.ndarray:
    """RSSI-only update: t_k += eps * sum_j a_kj (t_j - t_k)."""
    return _apply_weights(state.times, adjacency, eps)


def proposed_weights(state: ClockState, adjacency: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Average of current weights with remembered reciprocal weights.

    The memory term for pair (k, j) is the previous snapshot's a_jk,
    usable only where j was both an outgoing and incoming neighbor of k
    in that snapshot; elsewhere it contributes zero. No memory at all
    degenerates to a half-step of the baseline rule. The weights go in
    ``out``, a (K, K) float64 buffer, when it is given.
    """
    memory = 0.0 if state.memory is None else state.memory
    weights = np.add(adjacency, memory, out=out)
    weights *= 0.5
    return weights


def update_proposed(state: ClockState, adjacency: np.ndarray,
                    eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """Two-source update: t_k += eps * sum_j (a_kj + a_jk_prev)/2 (t_j - t_k);
    the weights are formed in ``out`` (see proposed_weights)."""
    weights = proposed_weights(state, adjacency, out)
    return _apply_weights(state.times, weights, eps)


class _FadingDraws:
    """The (K, K) fading draws of one replication, in the generator's order.

    The worker makes every draw, into two buffers used in turn. ``take``
    returns the next draw, in a buffer that stays valid until the next
    ``take``: the one drawn ahead, or else one it asks for and waits on.
    With ``ahead`` it also asks for the draw after it; ask only when a
    next ``take`` is certain to follow, and touch ``rng`` nowhere between
    construction and ``close``. The worker gets the buffer to fill, or
    None to stop, and replies None or the draw's exception, which
    ``take`` raises. ``close`` joins the worker; call it in a ``finally``.
    """

    def __init__(self, config: SimConfig, rng: np.random.Generator):
        self._config, self._rng = config, rng
        k = config.num_nodes
        self._buffers = [np.empty((k, k)), np.empty((k, k))]  # [taken, next]
        self._pending = False
        self._requests = queue.SimpleQueue()  # a buffer to fill, None to stop
        self._replies = queue.SimpleQueue()  # None, or the draw's error
        self._worker = threading.Thread(target=self._draw_ahead, daemon=True)
        self._worker.start()

    def take(self, ahead: bool) -> np.ndarray:
        if not self._pending:  # nothing drawn ahead: ask for it now
            self._requests.put(self._buffers[1])
        self._pending = False
        error = self._replies.get()
        if error is not None:
            raise error
        self._buffers.reverse()
        if ahead:
            self._requests.put(self._buffers[1])
            self._pending = True
        return self._buffers[0]

    def _draw_ahead(self) -> None:
        while (buffer := self._requests.get()) is not None:
            try:
                channel.sample_interference_gains(self._config, self._rng,
                                                  out=buffer)
            except BaseException as exc:  # raised by the next take
                self._replies.put(exc)
            else:
                self._replies.put(None)

    def close(self) -> None:
        self._requests.put(None)  # after any draw in flight
        self._worker.join()


def run_snapshot(state: ClockState, config: SimConfig, gain: np.ndarray,
                 next_fading: Callable[[], np.ndarray],
                 weights: np.ndarray | None = None) -> SnapshotResult:
    """One synchronization period: iterate until sd <= delta or budget ends.

    ``gain`` is the topology's path gain (``graph.path_gain``); each
    iteration calls ``next_fading`` for a (K, K) fading draw, builds the
    graph over it in place and applies ``update_proposed``, with the
    weights in ``weights`` (a (K, K) float64 scratch array; None makes a
    fresh one).

    On exit, the weight memory is refreshed from the final graph and the
    per-node skew drift for the snapshot's elapsed time is applied.
    """
    if weights is None:
        weights = np.empty_like(gain)
    p_t, p0 = config.tx_power_w, config.power_threshold_w
    sds = []
    for _ in range(config.max_iters):
        fading = next_fading()
        adjacency = build_graph(p_t, gain, fading, p0, out=fading)
        state.times = update_proposed(state, adjacency, config.step_size,
                                      out=weights)
        sd = timing_sd(state.times)
        sds.append(sd)
        diverged = not np.isfinite(sd) or sd > DIVERGENCE_SD_S
        if sd <= config.sd_tolerance or diverged:
            break
    iterations = config.max_iters if diverged else len(sds)
    converged = sds[-1] <= config.sd_tolerance
    state.remember(adjacency)
    elapsed = iterations * config.iter_period
    state.times = state.times + state.skews_ppm * 1e-6 * elapsed
    return SnapshotResult(sd_per_iteration=np.array(sds),
                          iterations_used=iterations, converged=converged)


def run_sync(config: SimConfig, topology: Topology,
             rng: np.random.Generator) -> SyncTrace:
    """Run T_max snapshots and aggregate iteration counts.

    The weight memory starts from a graph drawn before the first
    snapshot, standing in for an initially synchronized exchange. The
    path gain and the buffers are made once, here. It draws ahead before
    the first snapshot and in every snapshot but the last, where a next
    draw is certain to follow.
    """
    state = init_clocks(config, rng)
    gain = path_gain(topology, config.path_loss_exp)
    weights = np.empty_like(gain)
    trace = SyncTrace(iter_period=config.iter_period)
    draws = _FadingDraws(config, rng)
    try:
        fading = draws.take(ahead=True)
        state.remember(build_graph(config.tx_power_w, gain, fading,
                                   config.power_threshold_w, out=fading))
        for s in range(config.max_snapshots, 0, -1):
            trace.snapshots.append(run_snapshot(
                state, config, gain, partial(draws.take, s > 1), weights))
    finally:
        draws.close()
    return trace
