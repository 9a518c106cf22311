"""The clock model (``ClockState``, ``init_clocks``) and the alignment loop.

Each snapshot repeatedly redraws fading, rebuilds the interference
graph, and applies a weighted-averaging clock update until the timing
standard deviation meets the tolerance or the iteration budget runs
out. The proposed update averages the current incoming weight with the
reciprocal weight remembered from the previous synchronized snapshot;
that memory is refreshed exactly once, at snapshot end. Temperature
skew perturbs the clocks between snapshots, which is what forces the
network to re-synchronize repeatedly.

``run_snapshot`` takes its graphs from a zero-argument callable and
knows nothing of where they come from. In ``run_sync`` they come from
one Python generator, ``_graphs``. Taking its first graph starts a
worker thread that draws the fading in blocks of B = max(1, 2**16 // K**2)
draws, one call per (B, K, K) block, while the generator builds the
block before it into B graphs with one ``build_graph`` call and yields
them in turn. One block is drawn ahead, or two when a block is one draw
(K >= 182), so that there the worker runs ahead while a snapshot's end
holds up the iteration. The blocks drawn ahead at the end are never
used, and the one in use is seldom used up, so closing the generator
joins the worker and puts the random generator back at the state saved
before the first draw not taken: the stream and every seeded output are
those of drawing one at a time. No iteration allocates a K x K float
array, and the proposed update halves its step rather than its weights.
``run_sync`` closes the generator before it returns or raises.
"""

from __future__ import annotations

import csv
import math
import queue
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

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
        """Keep this snapshot's reciprocal weights (see update_proposed),
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
    k = times.size
    if k < 2:
        raise ConsensusError("timing_sd needs K >= 2")
    # the bits of ndarray.mean and of squaring into a new array
    deviation = times - np.add.reduce(times) / k
    deviation *= deviation
    return math.sqrt(np.add.reduce(deviation) / (k - 1))


def _check_step(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ConsensusError("step size must lie in (0, 1)")


def _apply_weights(times: np.ndarray, weights: np.ndarray,
                   eps: float) -> np.ndarray:
    # Jacobi-style: every node reads the frozen pre-update vector
    return times + eps * (weights @ times - weights.sum(axis=1) * times)


def update_baseline(state: ClockState, adjacency: np.ndarray,
                    eps: float) -> np.ndarray:
    """RSSI-only update: t_k += eps * sum_j a_kj (t_j - t_k)."""
    _check_step(eps)
    return _apply_weights(state.times, adjacency, eps)


def update_proposed(state: ClockState, adjacency: np.ndarray,
                    eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """Two-source update: t_k += eps * sum_j (a_kj + a_jk_prev)/2 (t_j - t_k).

    The memory term for pair (k, j) is the previous snapshot's a_jk,
    usable only where j was both an outgoing and incoming neighbor of k
    in that snapshot; elsewhere it contributes zero. No memory at all
    degenerates to a half-step of the baseline rule. The sum a + a_prev
    is formed in ``out``, a (K, K) float64 buffer, when it is given, and
    the halving goes into the step: scaling by a power of two is exact
    unless a result is subnormal, so the bits are those of halving the
    weights.
    """
    _check_step(eps)
    memory = 0.0 if state.memory is None else state.memory
    total = np.add(adjacency, memory, out=out)
    return _apply_weights(state.times, total, 0.5 * eps)


# Floats in one block of fading draws (0.5 MiB); a block holds at least
# one (K, K) draw
BLOCK_FLOATS = 1 << 16


def _graphs(config: SimConfig, rng: np.random.Generator, gain: np.ndarray):
    """The graphs of one replication, over its fading drawn in blocks.

    Each graph is valid until the next is taken. Taking the first starts
    the worker. It saves ``rng``'s state, fills the block it is handed in
    one call, and replies with the state and None or the draw's error,
    which is raised when the loop comes to that block. One block is in
    flight while another is in use, or two when a block is one draw, so
    that the worker can run ahead of a slow iteration. Touch ``rng``
    nowhere until the generator is closed. Closing joins the worker,
    after every block in flight is drawn, and puts ``rng`` at the state
    saved before the first draw not taken: the first block in flight's
    when the block in use is used up, else the block in use's followed
    by a redraw of its used draws.
    """
    k = config.num_nodes
    shape = (max(1, BLOCK_FLOATS // (k * k)), k, k)
    block = np.empty(shape)
    ahead = [np.empty(shape) for _ in range(1 + (shape[0] == 1))]  # in flight
    requests = queue.SimpleQueue()  # a buffer to fill, None to stop
    replies = queue.SimpleQueue()  # (saved state, None or error)

    def draw_ahead() -> None:
        while (buffer := requests.get()) is not None:
            state = rng.bit_generator.state
            try:
                channel.sample_interference_gains(config, rng, out=buffer)
            except BaseException as exc:  # raised in the loop
                replies.put((state, exc))
            else:
                replies.put((state, None))

    # the state before the block in use, and the graphs taken from it
    saved, used = rng.bit_generator.state, 0
    worker = threading.Thread(target=draw_ahead, daemon=True)
    worker.start()
    for buffer in ahead:
        requests.put(buffer)
    try:
        while True:
            saved, error = replies.get()
            used = 0
            if error is not None:
                raise error
            ahead.append(block)
            requests.put(block)
            block = ahead.pop(0)
            build_graph(config.tx_power_w, gain, block,
                        config.power_threshold_w, out=block)
            for used, graph in enumerate(block, start=1):
                yield graph
    finally:
        requests.put(None)  # after every draw in flight
        worker.join()
        if used == len(block):  # none of the next block taken
            saved, used = replies.get()[0], 0
        rng.bit_generator.state = saved
        if used:
            channel.sample_interference_gains(config, rng,
                                              out=ahead[0][:used])


def run_snapshot(state: ClockState, config: SimConfig,
                 next_graph: Callable[[], np.ndarray],
                 weights: np.ndarray | None = None) -> SnapshotResult:
    """One synchronization period: iterate until sd <= delta or budget ends.

    Each iteration calls ``next_graph`` for a (K, K) graph (see
    ``graph.build_graph``) and applies ``update_proposed``, with its
    ``out`` in ``weights`` (a (K, K) float64 scratch array; None makes a
    fresh one).

    On exit, the weight memory is refreshed from the final graph and the
    per-node skew drift for the snapshot's elapsed time is applied.
    """
    if weights is None:
        weights = np.empty((config.num_nodes, config.num_nodes))
    sds = []
    for _ in range(config.max_iters):
        adjacency = next_graph()
        state.times = update_proposed(state, adjacency, config.step_size,
                                      out=weights)
        sd = timing_sd(state.times)
        sds.append(sd)
        diverged = not math.isfinite(sd) or sd > DIVERGENCE_SD_S
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
             rng: np.random.Generator,
             gain: np.ndarray | None = None) -> SyncTrace:
    """Run T_max snapshots and aggregate iteration counts.

    The weight memory starts from a graph drawn before the first
    snapshot, standing in for an initially synchronized exchange. The
    buffers are made once, here, and so is the path gain unless the
    caller passes ``path_gain(topology, config.path_loss_exp)`` as
    ``gain``.
    """
    state = init_clocks(config, rng)
    if gain is None:
        gain = path_gain(topology, config.path_loss_exp)
    weights = np.empty_like(gain)
    trace = SyncTrace(iter_period=config.iter_period)
    graphs = _graphs(config, rng, gain)
    try:
        state.remember(next(graphs))
        for _ in range(config.max_snapshots):
            trace.snapshots.append(run_snapshot(
                state, config, graphs.__next__, weights))
    finally:
        graphs.close()
    return trace
