"""Weighted-averaging clock updates and the snapshot loop."""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import (graph_from_powers, grid_topology, peak_traced_bytes,
                      small_config)
from udnsync.channel import sample_interference_gains
from udnsync.config import SimConfig
from udnsync.consensus import (BLOCK_FLOATS, ClockState, ConsensusError,
                               init_clocks, run_snapshot, run_sync,
                               timing_sd, update_baseline, update_proposed)
from udnsync.graph import build_graph, path_gain
from udnsync.harness import preset
from udnsync.topology import place_nodes


def make_graph(cfg, topo, rng):
    return build_graph(cfg.tx_power_w, path_gain(topo, cfg.path_loss_exp),
                       sample_interference_gains(cfg, rng),
                       cfg.power_threshold_w)


def fresh_graphs(cfg, gain, rng, fading=None):
    """A ``run_snapshot`` graph source: a fresh fading draw, or one into
    ``fading``, with the graph built over it in place."""
    def next_graph():
        drawn = sample_interference_gains(cfg, rng, out=fading)
        return build_graph(cfg.tx_power_w, gain, drawn,
                           cfg.power_threshold_w, out=drawn)
    return next_graph


def test_timing_sd_frozen_value():
    assert timing_sd(np.array([0.0, 2.0])) == pytest.approx(np.sqrt(2.0))
    assert timing_sd(np.array([5.0, 5.0, 5.0])) == 0.0


def test_timing_sd_uses_sample_divisor():
    x = np.array([1.0, 2.0, 3.0, 10.0])
    assert timing_sd(x) == pytest.approx(np.std(x, ddof=1))


def test_timing_sd_rejects_single_clock():
    with pytest.raises(ConsensusError):
        timing_sd(np.array([1.0]))


def test_two_node_baseline_update_hand_value():
    # complete 2-node graph, eps=0.9: clocks [0, 10us] -> [9us, 1us]
    g = graph_from_powers(np.array([[0.0, 1.0], [1.0, 0.0]]), p0=0.5)
    state = ClockState(times=np.array([0.0, 10e-6]),
                       skews_ppm=np.zeros(2))
    out = update_baseline(state, g, eps=0.9)
    assert np.allclose(out, [9e-6, 1e-6])


def test_update_preserves_mean_on_doubly_stochastic_weights():
    g = graph_from_powers(np.array([[0.0, 1.0], [1.0, 0.0]]), p0=0.5)
    state = ClockState(times=np.array([3e-6, 7e-6]), skews_ppm=np.zeros(2))
    out = update_baseline(state, g, eps=0.7)
    assert out.mean() == pytest.approx(5e-6)


def test_step_size_bounds_enforced():
    g = graph_from_powers(np.array([[0.0, 1.0], [1.0, 0.0]]), p0=0.5)
    state = ClockState(times=np.zeros(2), skews_ppm=np.zeros(2))
    for eps in (0.0, 1.0, -0.1):
        with pytest.raises(ConsensusError):
            update_baseline(state, g, eps)
        with pytest.raises(ConsensusError):
            update_proposed(state, g, eps)


def test_proposed_without_memory_is_half_step_baseline(rng):
    cfg = small_config()
    topo = grid_topology(cfg.num_nodes, rng=rng)
    g = make_graph(cfg, topo, rng)
    times = rng.uniform(0, 40e-6, cfg.num_nodes)
    fresh = ClockState(times=times.copy(), skews_ppm=np.zeros(cfg.num_nodes))
    out = update_proposed(fresh, g, eps=0.9)
    # with zero memory the effective weights are exactly half the current ones
    expected = times + 0.9 * ((g / 2) @ times - (g / 2).sum(axis=1) * times)
    assert np.allclose(out, expected)


def test_memory_gated_by_bidirectional_neighbors():
    # previous snapshot: edge 0<-1 exists, edge 1<-0 does not, so the pair
    # was not bidirectional and contributes no reciprocal memory at all
    prev = graph_from_powers(np.array([[0.0, 4.0, 2.0],
                                       [0.0, 0.0, 3.0],
                                       [2.0, 2.0, 0.0]]), p0=2.0)
    cur = graph_from_powers(np.array([[0.0, 2.0, 2.0],
                                      [2.0, 0.0, 2.0],
                                      [2.0, 2.0, 0.0]]), p0=2.0)
    state = ClockState(times=np.zeros(3), skews_ppm=np.zeros(3))
    state.remember(prev)
    from udnsync.consensus import proposed_weights
    w = proposed_weights(state, cur)
    bidir = (prev > 0) & (prev > 0).T
    assert not bidir[0, 1]
    assert w[0, 1] == pytest.approx(cur[0, 1] / 2)
    # pair (0, 2) was bidirectional: memory term is the reverse weight
    assert bidir[0, 2]
    assert w[0, 2] == pytest.approx((cur[0, 2] + prev[2, 0]) / 2)


def test_snapshot_converges_on_grid(rng):
    cfg = small_config(num_nodes=25, max_iters=2000)
    gain = path_gain(grid_topology(25, rng=rng), cfg.path_loss_exp)
    state = init_clocks(cfg, rng)
    result = run_snapshot(state, cfg, fresh_graphs(cfg, gain, rng))
    assert result.converged
    assert result.sd_per_iteration[-1] <= cfg.sd_tolerance
    assert result.iterations_used == len(result.sd_per_iteration)


def test_snapshot_respects_iteration_budget(rng):
    cfg = small_config(num_nodes=25, max_iters=3)
    gain = path_gain(grid_topology(25, rng=rng), cfg.path_loss_exp)
    state = init_clocks(cfg, rng)
    result = run_snapshot(state, cfg, fresh_graphs(cfg, gain, rng))
    assert result.iterations_used == 3
    assert not result.converged


def test_skew_drift_applied_once_per_snapshot(rng):
    cfg = small_config(num_nodes=25, max_iters=2000)
    gain = path_gain(grid_topology(25, rng=rng), cfg.path_loss_exp)
    seed = rng.integers(1 << 31)
    runs = []
    for skew in (0.0, -10.0):
        r = np.random.default_rng(seed)
        state = init_clocks(cfg, r)
        state.skews_ppm = np.full(cfg.num_nodes, skew)
        res = run_snapshot(state, cfg, fresh_graphs(cfg, gain, r))
        runs.append((state.times.copy(), res.iterations_used))
    (t0, n0), (t1, n1) = runs
    assert n0 == n1  # identical in-snapshot trajectory
    drift = -10.0 * 1e-6 * n1 * cfg.iter_period
    assert np.allclose(t1 - t0, drift)


def test_sd_non_increasing_on_static_graph(rng):
    # fixed gains, repeated proposed updates: disagreement never grows
    cfg = small_config(num_nodes=25)
    topo = grid_topology(25, rng=rng)
    g = make_graph(cfg, topo, rng)
    state = ClockState(times=rng.uniform(0, 40e-6, 25),
                       skews_ppm=np.zeros(25))
    state.remember(g)
    sds = [timing_sd(state.times)]
    for _ in range(50):
        state.times = update_proposed(state, g, cfg.step_size)
        sds.append(timing_sd(state.times))
    assert all(a >= b - 1e-18 for a, b in zip(sds, sds[1:]))


def test_run_sync_trace_shape_and_csv(tmp_path, rng):
    cfg = small_config(num_nodes=16, max_snapshots=3, max_iters=500)
    topo = grid_topology(16, rng=rng)
    trace = run_sync(cfg, topo, rng)
    assert len(trace.snapshots) == 3
    assert trace.mean_iterations == pytest.approx(
        trace.iterations_used.mean())
    assert trace.algorithmic_time == pytest.approx(
        trace.mean_iterations * cfg.iter_period)
    out = tmp_path / "trace.csv"
    trace.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "snapshot,iteration,sd_seconds"
    assert len(lines) == 1 + int(trace.iterations_used.sum())


def test_run_sync_deterministic_under_seed():
    cfg = small_config(num_nodes=16, max_snapshots=2, max_iters=300)
    topo = grid_topology(16, rng=np.random.default_rng(3))
    a = run_sync(cfg, topo, np.random.default_rng(9))
    b = run_sync(cfg, topo, np.random.default_rng(9))
    assert np.array_equal(a.iterations_used, b.iterations_used)
    for snap_a, snap_b in zip(a.snapshots, b.snapshots, strict=True):
        assert np.array_equal(snap_a.sd_per_iteration, snap_b.sd_per_iteration)


def _snapshot_setup(k, iters):
    cfg = SimConfig(num_nodes=k, max_iters=iters)
    rng = np.random.default_rng(k)
    gain = path_gain(place_nodes(cfg, rng), cfg.path_loss_exp)
    state = init_clocks(cfg, rng)
    state.remember(build_graph(cfg.tx_power_w, gain,
                               sample_interference_gains(cfg, rng),
                               cfg.power_threshold_w))
    return cfg, rng, gain, state


def test_one_iteration_snapshot_allocation_budget():
    # with fresh draws and no weight buffer a snapshot makes two arrays,
    # the fading draw that becomes the graph and the proposed weights;
    # the memory is refreshed in place. With the threshold's bool mask
    # that measures 2.13 K^2 floats, and one more float array breaks it
    k = 250
    cfg, rng, gain, state = _snapshot_setup(k, 1)
    peak = peak_traced_bytes(lambda: run_snapshot(
        state, cfg, fresh_graphs(cfg, gain, rng)))
    assert peak < 2.8 * k * k * 8


def test_snapshot_in_held_buffers_allocates_no_float_matrix():
    # given its buffers, no iteration allocates a K x K float array, and
    # one bool mask at a time (the threshold's, or the memory's once per
    # snapshot) measures 0.14 K^2 floats; a second live mask breaks it
    k = 250
    cfg, rng, gain, state = _snapshot_setup(k, 5)
    fading, weights = np.empty_like(gain), np.empty_like(gain)
    memory = state.memory
    peak = peak_traced_bytes(lambda: run_snapshot(
        state, cfg, fresh_graphs(cfg, gain, rng, fading), weights))
    assert peak < 0.25 * k * k * 8
    assert state.memory is memory


def test_run_sync_uses_two_graph_buffers_in_turn_and_one_weight_buffer(
        monkeypatch):
    # the arrays are kept, so no freed one can lend its address to another.
    # Each graph is the next slice of a (B, K, K) block, and two block
    # buffers alternate while the next block is drawn
    seen = []

    def recording(state, adjacency, eps, out=None):
        seen.append((adjacency, out, state.memory))
        return update_proposed(state, adjacency, eps, out=out)

    monkeypatch.setattr("udnsync.consensus.update_proposed", recording)
    k = 90
    b = BLOCK_FLOATS // k ** 2  # 8 graphs a block, the memory's first
    cfg = small_config(num_nodes=k, max_snapshots=4, max_iters=5,
                       sd_tolerance=1e-15)
    topo = grid_topology(k, rng=np.random.default_rng(2))
    run_sync(cfg, topo, np.random.default_rng(3))
    assert len(seen) == 20  # three blocks: 1 + 20 graphs
    blocks = [graph.base for graph, _, _ in seen]
    assert len({id(block) for block in blocks}) == 2
    for taken, (graph, _, _) in enumerate(seen, start=1):
        block = blocks[taken - 1]
        assert block.shape == (b, k, k)
        assert graph.ctypes.data == (block.ctypes.data
                                     + taken % b * graph.nbytes)
        assert (block is blocks[0]) == (taken // b % 2 == 0)
    _, weights, memory = ({array.ctypes.data for array in column}
                          for column in zip(*seen))
    assert len(weights) == len(memory) == 1
    assert len(weights | memory) == 2
    assert all(out.base is None and mem.base is None
               for _, out, mem in seen)


def _serial_draws(cfg, seed, draws):
    """The generator after init_clocks and ``draws`` K x K draws in turn."""
    rng = np.random.default_rng(seed)
    init_clocks(cfg, rng)
    for _ in range(draws):
        sample_interference_gains(cfg, rng)
    return rng.bit_generator.state


@pytest.mark.parametrize("fading", [("rayleigh", 1.0), ("nakagami", 2.5)])
@pytest.mark.parametrize("snapshots,iters,tolerance,last_ends", [
    (1, 1, 1e-6, "budget"), (3, 2000, 1e-6, "converged"),
    (3, 4, 1e-15, "budget")])
def test_run_sync_leaves_the_generator_where_serial_draws_do(
        monkeypatch, fading, snapshots, iters, tolerance, last_ends):
    # one draw before the first snapshot and one per iteration run, in
    # order; the block drawn ahead past the last iteration, and the rest
    # of the block in use, would move the state. The worker draws every
    # block, the unused last one too, and the calling thread redraws the
    # used part of a part-used block after the join
    drawers = []

    def recording(config, rng, out=None):
        drawers.append(threading.current_thread())
        return sample_interference_gains(config, rng, out=out)

    monkeypatch.setattr("udnsync.channel.sample_interference_gains", recording)
    kind, param = fading
    cfg = small_config(num_nodes=25, max_snapshots=snapshots, max_iters=iters,
                       sd_tolerance=tolerance, fading_kind=kind,
                       fading_param=param)
    topo = grid_topology(25, rng=np.random.default_rng(2))
    rng = np.random.default_rng(7)
    trace = run_sync(cfg, topo, rng)
    last = trace.snapshots[-1]
    assert last.converged == (last_ends == "converged")
    if last_ends == "budget":
        assert len(last.sd_per_iteration) == iters
    run = sum(len(snap.sd_per_iteration) for snap in trace.snapshots)
    assert rng.bit_generator.state == _serial_draws(cfg, 7, 1 + run)
    blocks, left = divmod(1 + run, BLOCK_FLOATS // 25 ** 2)
    worker, caller = drawers[0], threading.current_thread()
    assert worker is not caller
    assert drawers == ([worker] * (blocks + bool(left) + 1)
                       + [caller] * bool(left))


@pytest.mark.parametrize("k", [60, 90])
@pytest.mark.parametrize("snapshots", [2, 3, 4, 5])
def test_run_sync_puts_the_generator_back_at_every_block_edge(k, snapshots):
    # budget-bound snapshots take 1 + snapshots * iters graphs, which ends
    # the last block in use at every slice, on a block edge (with the next
    # block drawn and unused) and part-way into a third block
    b = BLOCK_FLOATS // k ** 2  # 18 and 8
    topo = grid_topology(k, rng=np.random.default_rng(2))
    for iters in range(1, 2 * b + 2):
        cfg = small_config(num_nodes=k, max_snapshots=snapshots,
                           max_iters=iters, sd_tolerance=1e-15)
        rng = np.random.default_rng(7)
        trace = run_sync(cfg, topo, rng)
        assert all(len(snap.sd_per_iteration) == iters
                   for snap in trace.snapshots)
        assert (rng.bit_generator.state
                == _serial_draws(cfg, 7, 1 + snapshots * iters))


def _bounded(fn, timeout=60.0):
    """Run ``fn`` on a thread joined with a timeout, so a deadlock fails
    the test instead of hanging it; returns (value, exception)."""
    out = [None, None]

    def target():
        try:
            out[0] = fn()
        except Exception as exc:
            out[1] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "call did not return"
    return out


def test_run_sync_joins_its_worker():
    before = threading.enumerate()
    cfg = small_config(num_nodes=16, max_snapshots=3, max_iters=5)
    topo = grid_topology(16, rng=np.random.default_rng(2))

    def call():
        trace = run_sync(cfg, topo, np.random.default_rng(3))
        return trace, threading.active_count()

    (trace, on_return), error = _bounded(call)
    assert error is None and len(trace.snapshots) == 3
    assert on_return == len(before) + 1  # the calling thread alone
    assert threading.enumerate() == before


def _failing_draw(monkeypatch, nth):
    """Make the nth fading draw raise; returns the threads of the draws."""
    calls = []

    def failing(config, rng, out=None):
        calls.append(threading.current_thread())
        if len(calls) == nth:
            raise RuntimeError(f"draw {nth}")
        return sample_interference_gains(config, rng, out=out)

    monkeypatch.setattr("udnsync.channel.sample_interference_gains", failing)
    return calls


@pytest.mark.parametrize("nth,drawn", [(1, 0), (3, 16)],
                         ids=["first", "third"])
def test_worker_error_is_raised_by_run_sync(monkeypatch, nth, drawn):
    # the nth block's draw fails, and is raised when the loop comes to
    # it: the first block's at the memory's graph, before any graph is
    # taken, and the third at the 17th of 1 + 3 * 6 graphs of 8-graph
    # blocks. The generator is put back before that draw: for the first,
    # where init_clocks alone leaves it
    calls = _failing_draw(monkeypatch, nth)
    before = threading.active_count()
    cfg = small_config(num_nodes=90, max_snapshots=3, max_iters=6,
                       sd_tolerance=1e-15)
    topo = grid_topology(90, rng=np.random.default_rng(2))
    rng = np.random.default_rng(3)
    callers = []

    def call():
        callers.append(threading.current_thread())
        return run_sync(cfg, topo, rng)

    _, error = _bounded(call)
    assert isinstance(error, RuntimeError) and str(error) == f"draw {nth}"
    assert len(calls) == nth and set(calls) == {calls[0]}  # on the worker
    assert calls[0] is not callers[0]
    assert threading.active_count() == before
    assert rng.bit_generator.state == _serial_draws(cfg, 3, drawn)


def test_a_failed_draw_that_is_never_taken_is_not_raised(monkeypatch):
    # 1 + 3 * 5 graphs use up two blocks exactly, so the third block,
    # drawn ahead, fails unused
    _failing_draw(monkeypatch, 3)
    cfg = small_config(num_nodes=90, max_snapshots=3, max_iters=5,
                       sd_tolerance=1e-15)
    topo = grid_topology(90, rng=np.random.default_rng(2))
    rng = np.random.default_rng(3)
    trace, error = _bounded(lambda: run_sync(cfg, topo, rng))
    assert error is None
    assert trace.iterations_used.tolist() == [5, 5, 5]
    assert rng.bit_generator.state == _serial_draws(cfg, 3, 16)


def test_main_thread_error_while_a_draw_is_in_flight(monkeypatch):
    # the third build (the third block's, for the 17th graph) fails while
    # the fourth block's draw is in flight: it completes, no draw follows
    # it, and the generator is put back before the third block
    builds, draws = [], []

    def failing(*args, **kwargs):
        builds.append(None)
        if len(builds) == 3:
            raise RuntimeError("third build")
        return build_graph(*args, **kwargs)

    def counting(config, rng, out=None):
        draws.append(None)
        return sample_interference_gains(config, rng, out=out)

    monkeypatch.setattr("udnsync.consensus.build_graph", failing)
    monkeypatch.setattr("udnsync.channel.sample_interference_gains", counting)
    before = threading.enumerate()
    cfg = small_config(num_nodes=90, max_snapshots=2, max_iters=10,
                       sd_tolerance=1e-15)
    topo = grid_topology(90, rng=np.random.default_rng(2))
    rng = np.random.default_rng(3)
    _, error = _bounded(lambda: run_sync(cfg, topo, rng))
    assert isinstance(error, RuntimeError) and str(error) == "third build"
    assert threading.enumerate() == before
    assert len(draws) == 4
    assert rng.bit_generator.state == _serial_draws(cfg, 3, 16)


def test_concurrent_run_syncs_equal_serial_runs():
    # more callers than cores, switching threads often: each replication
    # keeps its own stream, so its trace and generator are those of a
    # run on its own. 1 + 3 * 7 graphs of 18-graph blocks put back a
    # part-used second block
    cfg = small_config(num_nodes=60, max_snapshots=3, max_iters=7,
                       sd_tolerance=1e-15, fading_kind="nakagami",
                       fading_param=2.5)
    topo = grid_topology(60, rng=np.random.default_rng(2))

    def replicate(seed):
        rng = np.random.default_rng(seed)
        trace = run_sync(cfg, topo, rng)
        return ([snap.sd_per_iteration for snap in trace.snapshots],
                rng.bit_generator.state)

    seeds = range(6)
    expected = [replicate(seed) for seed in seeds]
    results = [None] * len(seeds)

    def worker(i):
        results[i] = replicate(seeds[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(len(seeds))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for (sds, state), (want_sds, want_state) in zip(results, expected,
                                                    strict=True):
        assert state == want_state
        for got, want in zip(sds, want_sds, strict=True):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_buffered_update_equals_fresh_update(rng):
    cfg = small_config(num_nodes=25)
    topo = grid_topology(25, rng=rng)
    state = ClockState(times=rng.uniform(0, 40e-6, 25),
                       skews_ppm=np.zeros(25))
    state.remember(make_graph(cfg, topo, rng))
    graph = make_graph(cfg, topo, rng)
    out = np.full((25, 25), np.nan)
    fresh = update_proposed(state, graph, cfg.step_size)
    buffered = update_proposed(state, graph, cfg.step_size, out=out)
    assert np.array_equal(fresh.view(np.uint64), buffered.view(np.uint64))


@pytest.mark.parametrize("snapshots,iters", [(1, 1), (3, 40)])
def test_run_sync_computes_path_gain_once(monkeypatch, snapshots, iters):
    calls = []

    def counting(*args):
        calls.append(args)
        return path_gain(*args)

    monkeypatch.setattr("udnsync.consensus.path_gain", counting)
    monkeypatch.setattr("udnsync.graph.path_gain", counting)
    cfg = small_config(num_nodes=16, max_snapshots=snapshots, max_iters=iters)
    topo = grid_topology(16, rng=np.random.default_rng(2))
    trace = run_sync(cfg, topo, np.random.default_rng(3))
    assert len(trace.snapshots) == snapshots
    assert len(calls) == 1


GOLDEN_SYNC = Path(__file__).parent / "data" / "sync_fig6_full_seed6.csv"


def test_golden_full_scale_sync_trace(tmp_path):
    # Full-scale fig6 at fading mean 1.0 (K=250, 100 snapshots), seed 6,
    # as first recorded; compared as bytes, like the benchmark's digests
    cfg = preset("fig6", SimConfig(rng_seed=6), replications=1,
                 full_scale=True).config_at(1.0)
    rng = np.random.default_rng(6)
    trace = run_sync(cfg, place_nodes(cfg, rng), rng)
    out = tmp_path / "sync.csv"
    trace.to_csv(out)
    assert out.read_bytes() == GOLDEN_SYNC.read_bytes()
