"""Matching, swap improvement, split search, and round scheduling."""

import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (grid_topology, has_blocking_pair, peak_traced_bytes,
                      small_config)
from udnsync import scheduler
from udnsync.channel import sample_link_gains
from udnsync.config import SimConfig
from udnsync.noma import (KernelWorkspace, PairLink, RoundLinks,
                          noma_leg_times, noma_times, oma_leg_times,
                          oma_times, pair_completion_noma,
                          pair_completion_oma)
from udnsync.scheduler import (Assignment, SchedulerError, _match_lowest,
                               _match_stack, alpha_grid,
                               build_links, build_preferences,
                               grid_search_alpha, schedule_exchange,
                               stable_marriage, swap_until_stable, SwapStats)
from udnsync.topology import Topology, place_nodes


def make_links(gain_strong, gain_weak, noise_w=1e-9, tx_power_w=0.2,
               bandwidth_hz=2e5, payload_bits=1000.0):
    return RoundLinks(gain_strong=np.asarray(gain_strong, dtype=float),
                      gain_weak=np.asarray(gain_weak, dtype=float),
                      tx_power_w=tx_power_w, noise_w=noise_w,
                      bandwidth_hz=bandwidth_hz, payload_bits=payload_bits)


def random_links(rng, num_t, num_s, dist_scale=50.0):
    # effective gains shaped like faded path loss at tens of meters
    d_strong = rng.uniform(1.0, 10.0, size=(num_t, num_s))
    d_weak = rng.uniform(10.0, dist_scale, size=(num_t, num_s))
    gs = rng.exponential(1.0, size=(num_t, num_s)) * d_strong ** -4.0
    gw = rng.exponential(1.0, size=(num_t, num_s)) * d_weak ** -4.0
    return make_links(np.maximum(gs, gw), np.minimum(gs, gw),
                      noise_w=3.98e-15 * 2e5)


# ---------------------------------------------------------------------------
# link tables


def test_build_links_folds_path_loss(rng):
    cfg = small_config(num_nodes=6, num_subbands=2)
    topo = place_nodes(cfg, rng)
    fading = np.ones((len(topo.triplets), 2, 2))
    links = build_links(topo, cfg, fading)
    tx, strong, weak = topo.triplets[0]
    d = topo.distance_matrix
    assert links.gain_strong[0, 0] == pytest.approx(d[tx, strong] ** -4.0)
    assert links.gain_weak[0, 0] == pytest.approx(d[tx, weak] ** -4.0)


def test_build_links_reorders_roles_when_fading_inverts(rng):
    cfg = small_config(num_nodes=6, num_subbands=3)
    topo = place_nodes(cfg, rng)
    for seed in range(10):
        fading = np.random.default_rng(seed).exponential(
            1.0, size=(len(topo.triplets), 3, 2))
        links = build_links(topo, cfg, fading)
        assert np.all(links.gain_strong >= links.gain_weak)


def test_build_links_bits_match_per_triplet_loop():
    # the loop as first written, on NumPy scalars; an array power may
    # differ from it in the last bit
    cfg = SimConfig(num_nodes=90, num_subbands=5)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        topo = place_nodes(cfg, rng)
        fading = rng.exponential(1.0, size=(len(topo.triplets), 5, 2))
        dist, alpha = topo.distance_matrix, cfg.path_loss_exp
        eff = np.empty_like(fading)
        for t, (tx, strong, weak) in enumerate(topo.triplets):
            eff[t, :, 0] = fading[t, :, 0] * dist[tx, strong] ** (-alpha)
            eff[t, :, 1] = fading[t, :, 1] * dist[tx, weak] ** (-alpha)
        links = build_links(topo, cfg, fading)
        for got, want in ((links.gain_strong, eff.max(axis=2)),
                          (links.gain_weak, eff.min(axis=2))):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_build_links_requires_triplets(rng):
    cfg = small_config()
    topo = grid_topology(9, rng=rng, triplets=())
    with pytest.raises(SchedulerError):
        build_links(topo, cfg, np.ones((0, 2, 2)))


def test_build_links_rejects_non_finite_gain(rng):
    # a weak receiver placed on its transmitter: d = 0 gives d^-4 = inf,
    # outside the rate kernel's domain
    cfg = small_config()
    topo = grid_topology(9, rng=rng, triplets=((0, 1, 2),))
    topo.distance_matrix[0, 2] = topo.distance_matrix[2, 0] = 0.0
    with np.errstate(divide="ignore"), pytest.raises(SchedulerError):
        build_links(topo, cfg, np.ones((1, 2, 2)))


def test_vectorized_times_match_scalar_kernels(rng):
    links = random_links(rng, 4, 3)
    for a_s in (0.1, 0.5, 0.83):
        ts, tw = noma_leg_times(links, a_s)
        os, ow = oma_leg_times(links)
        for t in range(4):
            for s in range(3):
                pair = PairLink(links.gain_strong[t, s], links.gain_weak[t, s],
                                a_s, 1.0 - a_s, links.noise_w,
                                links.tx_power_w, links.bandwidth_hz,
                                links.payload_bits)
                ref = pair_completion_noma(pair)
                assert ts[t, s] == pytest.approx(ref.t_strong, rel=1e-12)
                assert tw[t, s] == pytest.approx(ref.t_weak, rel=1e-12)
                ref_o = pair_completion_oma(pair)
                assert os[t, s] == pytest.approx(ref_o.t_strong, rel=1e-12)
                assert ow[t, s] == pytest.approx(ref_o.t_weak, rel=1e-12)


def test_degenerate_splits_give_infinite_times(rng):
    links = random_links(rng, 2, 2)
    assert np.all(np.isinf(noma_times(links, 0.0)))  # strong leg starves
    assert np.all(np.isinf(noma_times(links, 1.0)))  # weak leg starves


def _noma_leg_times_reference(links, alpha_strong):
    """The rate kernel with explicit zero-rate guards and finiteness
    clean-ups, on fresh temporaries."""
    a_i, a_j = alpha_strong, 1.0 - alpha_strong
    p, s2, b, l = (links.tx_power_w, links.noise_w,
                   links.bandwidth_hz, links.payload_bits)
    gs, gw = links.gain_strong, links.gain_weak
    with np.errstate(divide="ignore", invalid="ignore"):
        r_strong = b * np.log2(1.0 + gs * a_i * p / (gs * a_j * p + s2))
        r_weak = b * np.log2(1.0 + gw * a_j * p / s2)
        r_alone = b * np.log2(1.0 + gs * a_i * p / s2)
        t_weak = np.where(r_weak > 0, l / r_weak, np.inf)
        direct = np.where(r_strong > 0, l / r_strong, np.inf)
        residual = np.where(r_alone > 0,
                            t_weak + (l - r_strong * t_weak) / r_alone, np.inf)
        t_strong = np.where(direct <= t_weak, direct, residual)
    t_strong = np.where(np.isfinite(t_strong), t_strong, np.inf)
    t_weak = np.where(np.isfinite(t_weak), t_weak, np.inf)
    return t_strong, t_weak


def test_kernel_equals_guarded_reference_bitwise():
    # zero gains on either leg, the starving splits 0 and 1, scalar and
    # (A, 1, 1) splits, and T != N
    rng = np.random.default_rng(47)
    checked = 0
    for i in range(300):
        num_t, num_s = (int(n) for n in rng.integers(1, 12, size=2))
        links = random_links(rng, num_t, num_s)
        gs, gw = links.gain_strong, links.gain_weak
        if i % 3 == 1:
            gw[rng.random(gw.shape) < 0.3] = 0.0
        elif i % 3 == 2:
            zero = rng.random(gs.shape) < 0.3
            gs[zero] = gw[zero] = 0.0
        step = (0.0025, 0.05, 0.25, 1.0)[i % 4]
        splits = [alpha_grid(step)[:, None, None], 0.0, 1.0,
                  float(rng.uniform())]
        for alpha in splits:
            got = noma_leg_times(links, alpha)
            want = _noma_leg_times_reference(links, alpha)
            for leg, ref in zip(got, want):
                assert leg.shape == ref.shape
                assert np.array_equal(leg.view(np.uint64),
                                      ref.view(np.uint64))
                checked += leg.size
    assert checked > 100_000


# ---------------------------------------------------------------------------
# preferences and deferred acceptance


def _deferred_acceptance_reference(times):
    """Triplet-proposing deferred acceptance on per-side preference lists."""
    num_t, num_s = times.shape
    triplet_prefs = [sorted(range(num_s), key=lambda s: (times[t, s], s))
                     for t in range(num_t)]
    sb_rank = []
    for s in range(num_s):
        order = sorted(range(num_t), key=lambda t: (times[t, s], t))
        sb_rank.append({t: r for r, t in enumerate(order)})
    next_choice = [0] * num_t
    holder = {}
    free = list(range(num_t - 1, -1, -1))  # pop() serves lowest index first
    while free:
        t = free.pop()
        prefs = triplet_prefs[t]
        while next_choice[t] < len(prefs):
            s = prefs[next_choice[t]]
            next_choice[t] += 1
            current = holder.get(s)
            if current is None:
                holder[s] = t
                break
            if sb_rank[s][t] < sb_rank[s][current]:
                holder[s] = t
                free.append(current)
                break
    return dict(sorted(holder.items()))


def test_preferences_ascending_time_with_index_ties():
    times = np.array([[3.0, 1.0, 2.0],
                      [5.0, 5.0, 5.0]])
    rows, cols = build_preferences(times)
    # equal times resolve toward the lower triplet, then the lower sub-band
    assert rows.tolist() == [0, 0, 0, 1, 1, 1]
    assert cols.tolist() == [1, 2, 0, 0, 1, 2]


def _random_times(rng, i):
    """Seeded 1-11 x 1-11 times: distinct values, integer ties, 40% inf,
    and ties plus inf, by i mod 4."""
    shape = tuple(int(n) for n in rng.integers(1, 12, size=2))
    if i % 2:
        times = rng.integers(0, 3, size=shape).astype(float)
    else:
        times = rng.uniform(0.1, 10.0, size=shape)
    if i % 4 >= 2:
        times[rng.random(shape) < 0.4] = np.inf
    return times


def test_greedy_matching_equals_deferred_acceptance():
    # distinct values, heavy ties, infinite times, and ties plus infinities
    rng = np.random.default_rng(2024)
    for i in range(2000):
        times = _random_times(rng, i)
        result = stable_marriage(*build_preferences(times)).sb_to_triplet
        assert list(result.items()) == list(
            _deferred_acceptance_reference(times).items())


def test_stable_marriage_single_pair():
    prefs, ranks = build_preferences(np.array([[1.0]]))
    assert stable_marriage(prefs, ranks).sb_to_triplet == {0: 0}


def test_stable_marriage_matches_brute_force_2x2():
    rng = np.random.default_rng(5)
    for _ in range(200):
        times = rng.uniform(1.0, 10.0, size=(2, 2))
        prefs, ranks = build_preferences(times)
        result = stable_marriage(prefs, ranks)
        assert not has_blocking_pair(result, times)
        # enumerate both perfect matchings; keep the stable ones
        stable = []
        for perm in ((0, 1), (1, 0)):
            cand = Assignment(sb_to_triplet={s: t for t, s in enumerate(perm)})
            if not has_blocking_pair(cand, times):
                stable.append(cand.sb_to_triplet)
        assert result.sb_to_triplet in stable


def test_stable_marriage_extra_subbands_leave_idle(rng):
    times = rng.uniform(1.0, 5.0, size=(2, 5))
    prefs, ranks = build_preferences(times)
    result = stable_marriage(prefs, ranks)
    assert sorted(result.sb_to_triplet.values()) == [0, 1]
    assert len(result.sb_to_triplet) == 2


def test_stable_marriage_extra_triplets_leave_unmatched(rng):
    times = rng.uniform(1.0, 5.0, size=(5, 2))
    prefs, ranks = build_preferences(times)
    result = stable_marriage(prefs, ranks)
    assert len(result.sb_to_triplet) == 2
    assert not has_blocking_pair(result, times)


def test_stable_marriage_never_blocks_randomized(rng):
    for _ in range(100):
        num_t = int(rng.integers(1, 8))
        num_s = int(rng.integers(1, 8))
        times = rng.uniform(0.1, 10.0, size=(num_t, num_s))
        prefs, ranks = build_preferences(times)
        assert not has_blocking_pair(stable_marriage(prefs, ranks), times)


def _full_walk_reference(rows, cols):
    """The greedy walk over every pair, with no early stop."""
    holder, matched = {}, set()
    for t, s in zip(rows.tolist(), cols.tolist()):
        if s not in holder and t not in matched:
            holder[s] = t
            matched.add(t)
    return dict(sorted(holder.items()))


def test_stable_marriage_stopping_at_full_side_equals_full_walk():
    # many more triplets than sub-bands, as in the round partition, and
    # the transpose; with distinct, tied and infinite times
    rng = np.random.default_rng(2027)
    for i in range(400):
        num_s = int(rng.integers(1, 6))
        num_t = num_s * int(rng.integers(4, 12))
        times = rng.uniform(0.1, 10.0, size=(num_t, num_s))
        if i % 2:
            times = np.round(times / 3.0)
        if i % 4 >= 2:
            times[rng.random(times.shape) < 0.4] = np.inf
        for tab in (times, times.T):
            prefs = build_preferences(tab)
            result = stable_marriage(*prefs).sb_to_triplet
            assert list(result.items()) == list(
                _full_walk_reference(*prefs).items())


# ---------------------------------------------------------------------------
# swap matching


def _swap_matching_round_reference(assignment, times, stats=None):
    """One swap step that rescans every matched pair per candidate."""
    matched = sorted(assignment.sb_to_triplet.items())  # (sb, triplet)
    idle = [s for s in range(times.shape[1])
            if s not in assignment.sb_to_triplet]
    current_max = assignment.max_time(times)
    best = None  # (resulting_max, new_mapping)
    n_swaps = 0

    for a in range(len(matched)):
        s1, t1 = matched[a]
        for b in range(a + 1, len(matched)):
            s2, t2 = matched[b]
            n_swaps += 1
            old1, old2 = times[t1, s1], times[t2, s2]
            new1, new2 = times[t1, s2], times[t2, s1]
            pareto = (new1 <= old1 and new2 <= old2
                      and (new1 < old1 or new2 < old2))
            others = max((times[t, s] for s, t in matched
                          if t not in (t1, t2)), default=0.0)
            result = max(others, float(new1), float(new2))
            if not pareto and not result < current_max:
                continue
            if best is None or result < best[0]:
                mapping = dict(assignment.sb_to_triplet)
                mapping[s1], mapping[s2] = t2, t1
                best = (result, mapping)
    for s1, t1 in matched:
        for s_idle in idle:
            others = max((times[t, s] for s, t in matched if t != t1),
                         default=0.0)
            result = max(others, float(times[t1, s_idle]))
            pareto = times[t1, s_idle] < times[t1, s1]
            if not pareto and not result < current_max:
                continue
            if best is None or result < best[0]:
                mapping = dict(assignment.sb_to_triplet)
                del mapping[s1]
                mapping[s_idle] = t1
                best = (result, mapping)

    if stats is not None:
        stats.iterations += 1
        stats.candidate_swaps_per_iteration.append(n_swaps)
    if best is None:
        return assignment
    if stats is not None:
        stats.accepted_swaps += 1
    return Assignment(sb_to_triplet=dict(sorted(best[1].items())))


def _swap_start(rng, i):
    """Times and a starting matching for the swap-step comparison. The
    start kind, (i // 4) mod 6, is independent of _random_times' kind,
    i mod 4, so each start meets every kind of times: a stable or a
    random matching (either may leave sub-bands idle); several matched
    pairs tied at the maximum; an infinite maximum; a matching smaller
    than both sides."""
    times = _random_times(rng, i)
    num_t, num_s = times.shape
    size = min(num_t, num_s)
    case = (i // 4) % 6
    if case == 3:
        size = int(rng.integers(0, size + 1))
    if case == 0:
        return times, stable_marriage(*build_preferences(times))
    cur = Assignment(sb_to_triplet=dict(sorted(zip(
        rng.permutation(num_s)[:size].tolist(),
        rng.permutation(num_t)[:size].tolist()))))
    pairs = [(t, s) for s, t in cur.sb_to_triplet.items()]
    if pairs and case == 4:
        # ties at the maximum, among the matched pairs and off them
        top = max(times[np.isfinite(times)].tolist(), default=1.0)
        for t, s in pairs[:int(rng.integers(1, len(pairs) + 1))]:
            times[t, s] = top
        times[rng.random(times.shape) < 0.2] = top
    elif pairs and case == 5:
        t, s = pairs[int(rng.integers(len(pairs)))]
        times[t, s] = np.inf
    return times, cur


def test_swap_step_equals_rescanning_reference():
    rng = np.random.default_rng(2025)
    steps = 0
    for i in range(1800):
        times, cur = _swap_start(rng, i)
        ref = cur
        for _ in range(30):
            new, stats = swap_until_stable(cur, times, max_iters=1)
            ref_stats = SwapStats()
            ref_new = _swap_matching_round_reference(ref, times, ref_stats)
            steps += 1
            assert list(new.sb_to_triplet.items()) == list(
                ref_new.sb_to_triplet.items())
            assert stats == ref_stats
            if new.sb_to_triplet == cur.sb_to_triplet:
                break
            cur, ref = new, ref_new
    assert steps > 4500


def _swap_loop_reference(assignment, times, max_iters):
    stats = SwapStats()
    for _ in range(max_iters):
        new = _swap_matching_round_reference(assignment, times, stats)
        if new.sb_to_triplet == assignment.sb_to_triplet:
            break
        assignment = new
    return assignment, stats


@pytest.mark.parametrize("cap", [1, 2, 3, 100])
def test_swap_loop_equals_reference_loop_under_cap(cap):
    # the loop stops at a fixed point or after `cap` steps, counting
    # every step it prices, the final no-move step included
    rng = np.random.default_rng(2026)
    for i in range(600):
        times, start = _swap_start(rng, i)
        out, stats = swap_until_stable(start, times, cap)
        ref, ref_stats = _swap_loop_reference(start, times, cap)
        assert list(out.sb_to_triplet.items()) == list(
            ref.sb_to_triplet.items())
        assert stats == ref_stats


def test_match_stack_equals_scalar_path():
    # same-shape tables of every _random_times kind, stacked 1-4 at a
    # time as they come, each stack under one of the caps
    rng = np.random.default_rng(2029)
    buckets: dict[tuple, list] = {}
    stacks = i = 0
    while stacks < 5000:
        times = _random_times(rng, i)
        i += 1
        bucket = buckets.setdefault(times.shape, [])
        bucket.append(times)
        if len(bucket) < 1 + stacks % 4:
            continue
        cap = (1, 2, 3, 100)[stacks // 4 % 4]
        owner, delay, iterations, accepted = _match_stack(np.stack(bucket),
                                                          cap)
        scalar = []
        for p, table in enumerate(bucket):
            assignment, stats = swap_until_stable(
                stable_marriage(*build_preferences(table)), table, cap)
            row = [-1] * table.shape[1]
            for s, t in assignment.sb_to_triplet.items():
                row[s] = t
            triplets = [t for t in row if t >= 0]
            assert len(set(triplets)) == len(triplets)
            assert owner[p].tolist() == row
            assert delay[p] == assignment.max_time(table)
            assert iterations[p] == stats.iterations
            assert accepted[p] == stats.accepted_swaps
            scalar.append((assignment.max_time(table), p, assignment, stats))
        # the chooser returns the lowest (delay, index) on either path,
        # whatever order the indices come in
        got = _match_lowest(np.stack(bucket), list(range(len(bucket)))[::-1],
                            cap)
        best = min(scalar, key=lambda match: match[:2])
        assert got[:2] == best[:2] and got[3] == best[3]
        assert list(got[2].sb_to_triplet.items()) == list(
            best[2].sb_to_triplet.items())
        bucket.clear()
        stacks += 1


def test_swap_exchange_improving_both_is_applied():
    times = np.array([[1.0, 5.0, 9.0],
                      [5.0, 1.0, 9.0],
                      [9.0, 9.0, 1.0]])
    start = Assignment(sb_to_triplet={0: 1, 1: 0, 2: 2})
    out, _ = swap_until_stable(start, times, max_iters=1)
    assert out.sb_to_triplet == {0: 0, 1: 1, 2: 2}


def test_swap_fixed_point_returned_unchanged():
    times = np.array([[1.0, 9.0], [9.0, 1.0]])
    start = Assignment(sb_to_triplet={0: 0, 1: 1})
    out, stats = swap_until_stable(start, times, max_iters=1)
    assert out.sb_to_triplet == start.sb_to_triplet
    assert stats.accepted_swaps == 0


def test_swap_rejects_degradation_that_raises_round_max():
    # triplet 0 would improve 5->1 but triplet 1 degrades 2->6 and the
    # round max rises 5->6: inadmissible under both rules
    times = np.array([[5.0, 1.0],
                      [6.0, 2.0]])
    start = Assignment(sb_to_triplet={0: 0, 1: 1})
    out, _ = swap_until_stable(start, times, max_iters=1)
    assert out.sb_to_triplet == {0: 0, 1: 1}


def test_swap_accepts_degradation_that_lowers_round_max():
    # triplet 1 degrades 2->3 but the round max falls 5->3: admissible
    times = np.array([[5.0, 1.0],
                      [3.0, 2.0]])
    start = Assignment(sb_to_triplet={0: 0, 1: 1})
    out, _ = swap_until_stable(start, times, max_iters=1)
    assert out.sb_to_triplet == {0: 1, 1: 0}


def test_relocation_to_idle_subband():
    times = np.array([[5.0, 1.0, 3.0]])
    start = Assignment(sb_to_triplet={0: 0})
    out, _ = swap_until_stable(start, times, max_iters=1)
    assert out.sb_to_triplet == {1: 0}


def test_candidate_exchange_count_is_pairs_of_matched():
    rng = np.random.default_rng(0)
    for num_t, num_s in ((2, 5), (4, 4), (6, 3)):
        times = rng.uniform(1.0, 9.0, size=(num_t, num_s))
        prefs, ranks = build_preferences(times)
        start = stable_marriage(prefs, ranks)
        _, stats = swap_until_stable(start, times, max_iters=1)
        matched = len(start.sb_to_triplet)
        assert stats.candidate_swaps_per_iteration == [
            matched * (matched - 1) // 2]


def test_swap_loop_monotone_and_terminates(rng):
    for _ in range(50):
        num_t = int(rng.integers(2, 7))
        num_s = int(rng.integers(2, 7))
        times = rng.uniform(0.1, 10.0, size=(num_t, num_s))
        start = Assignment(sb_to_triplet={
            s: t for s, t in enumerate(rng.permutation(num_t)[:num_s])
            if t < num_t})
        maxima = [start.max_time(times)]
        cur = start
        for _ in range(100):
            new, _ = swap_until_stable(cur, times, max_iters=1)
            if new.sb_to_triplet == cur.sb_to_triplet:
                break
            cur = new
            maxima.append(cur.max_time(times))
        assert all(a >= b for a, b in zip(maxima, maxima[1:]))
        # fixed point: a further call changes nothing
        again, _ = swap_until_stable(cur, times, max_iters=1)
        assert again.sb_to_triplet == cur.sb_to_triplet


def test_swap_until_stable_respects_cap(rng):
    times = rng.uniform(0.1, 10.0, size=(5, 5))
    start = Assignment(sb_to_triplet={s: s for s in range(5)})
    _, stats = swap_until_stable(start, times, max_iters=2)
    assert stats.iterations <= 2


def test_matching_sees_only_the_order_and_ties_of_times():
    # the stable matching and the swap loop only compare times: replacing
    # every time by its dense rank keeps the matching, the swaps and stats
    rng = np.random.default_rng(2028)
    unequal = 0
    for i in range(1500):
        num_t, num_s = (int(n) for n in rng.integers(1, 11, size=2))
        unequal += num_t != num_s
        times = rng.uniform(1.0, 4.0, size=(num_t, num_s))
        if i % 3:  # integer or one-decimal times: many ties
            times = np.round(times, i % 3 - 1)
        if i % 2:
            times[rng.random(times.shape) < 0.3] = np.inf
        inverse = np.unique(times, return_inverse=True)[1]
        ranks = inverse.reshape(times.shape) + 1.0
        _, _, assignment, stats = _match_lowest(times[None], [0], 100)
        _, _, rank_assignment, rank_stats = _match_lowest(ranks[None], [0],
                                                          100)
        assert list(assignment.sb_to_triplet.items()) == list(
            rank_assignment.sb_to_triplet.items())
        assert stats == rank_stats
    assert unequal > 1000


# ---------------------------------------------------------------------------
# grid search over the power split


def test_grid_search_single_pair_matches_fine_scan(rng):
    cfg = SimConfig(num_subbands=1)
    for _ in range(10):
        links = random_links(rng, 1, 1)
        outcome, _ = grid_search_alpha(links, cfg)
        best = outcome.round_max
        fine = float(noma_times(
            links, np.linspace(1e-4, 1 - 1e-4, 40001)[:, None, None]).min())
        # within one grid step of the continuous optimum
        assert best <= min(
            float(noma_times(links, a)[0, 0])
            for a in (outcome.alpha_strong - 0.0025,
                      outcome.alpha_strong,
                      outcome.alpha_strong + 0.0025)
            if 0 < a < 1)
        assert best == pytest.approx(fine, rel=5e-3)
        assert best >= fine - 1e-15


def test_grid_search_never_selects_starving_endpoints(rng):
    cfg = SimConfig(num_subbands=2)
    for _ in range(10):
        links = random_links(rng, 2, 2)
        outcome, _ = grid_search_alpha(links, cfg)
        assert 0.0 < outcome.alpha_strong < 1.0
        assert math.isfinite(outcome.round_max)


def test_grid_search_is_argmin_over_grid(rng):
    cfg = SimConfig(num_subbands=2, power_grid_step=0.05)
    links = random_links(rng, 2, 2)
    outcome, _ = grid_search_alpha(links, cfg)
    for a_s in np.linspace(0.05, 0.95, 19):
        times = noma_times(links, float(a_s))
        prefs, ranks = build_preferences(times)
        cand, _ = swap_until_stable(stable_marriage(prefs, ranks), times,
                                    cfg.swap_max_iters)
        assert outcome.round_max <= cand.max_time(times) + 1e-15


def _grid_search_reference(links, config, noma_times=noma_times):
    """The split search with one kernel call and one matching per grid
    point; returns (alpha or None, assignment, round max, swap stats)."""
    best = None
    for a_s in alpha_grid(config.power_grid_step):
        times = noma_times(links, float(a_s))
        assignment, stats = swap_until_stable(
            stable_marriage(*build_preferences(times)), times,
            config.swap_max_iters)
        delay = assignment.max_time(times)
        if best is None or delay < best[2]:
            best = (float(a_s), assignment, delay, stats)
    times = oma_times(links)
    assignment, stats = swap_until_stable(
        stable_marriage(*build_preferences(times)), times,
        config.swap_max_iters)
    if assignment.max_time(times) < best[2]:
        return None, assignment, assignment.max_time(times), stats
    return best


def _assert_equals_reference(outcome, reference):
    alpha, assignment, round_max, stats = reference
    assert outcome.alpha_strong == alpha
    assert list(outcome.assignment.sb_to_triplet.items()) == list(
        assignment.sb_to_triplet.items())
    assert outcome.round_max == round_max
    assert outcome.swap_stats == stats


def _decade_gains(links):
    """The same links with every gain rounded to a power of ten, so that
    many (triplet, sub-band) pairs share their times at every split."""
    return make_links(10.0 ** np.round(np.log10(links.gain_strong)),
                      10.0 ** np.round(np.log10(links.gain_weak)),
                      noise_w=links.noise_w)


@pytest.mark.parametrize("step", [0.0025, 0.05, 0.25])
def test_grid_search_equals_per_point_reference(step, monkeypatch):
    # and the walk's second step is at most one stack of rival points
    stacks, match_stack = [], scheduler._match_stack

    def counted(times, max_iters):
        stacks.append(times.shape)
        return match_stack(times, max_iters)

    monkeypatch.setattr(scheduler, "_match_stack", counted)
    rng = np.random.default_rng(31)
    cfg = SimConfig(power_grid_step=step)
    for num_t, num_s in ((1, 1), (2, 5), (3, 3), (4, 6), (5, 5), (6, 3),
                         (10, 10)):
        for _ in range(4):
            links = random_links(rng, num_t, num_s)
            for case in (links, _decade_gains(links)):
                stacks.clear()
                outcome, _ = grid_search_alpha(case, cfg)
                assert len(stacks) <= 1
                _assert_equals_reference(outcome,
                                         _grid_search_reference(case, cfg))


def _fake_kernel(monkeypatch, tensor, step):
    """Make the scheduler's kernel return ``tensor`` over the grid of
    ``step``; returns the same fake, which gives one point for a split."""
    def times(links, alpha_strong, workspace=None):
        if np.ndim(alpha_strong):
            return tensor
        return tensor[round(alpha_strong / step)]

    monkeypatch.setattr("udnsync.scheduler.noma_times", times)
    return times


# Two points with one preference order, (0,0) (1,0) (0,1) (1,1) (0,2)
# (1,2), that differ only in whether (0,1) ties (1,1). Both start from
# the stable matching {0: 0, 1: 1}. Untied, exchanging the two triplets
# lowers the maximum from 3 to 2.5; tied at 3, it cannot.
TIED = np.array([[1.0, 3.0, 9.0], [2.0, 3.0, 9.0]])
UNTIED = np.array([[1.0, 2.5, 9.0], [2.0, 3.0, 9.0]])


def test_grid_search_keys_matchings_by_ties_too(monkeypatch):
    # both bounds are 2, so the tied point is matched first (delay 3) and
    # the untied one as the rival stack; giving it the tied point's
    # matching would read 3 instead of 2.5 and keep the wrong split
    tensor = np.stack([TIED, UNTIED, np.full((2, 3), 20.0)])
    reference_times = _fake_kernel(monkeypatch, tensor, 0.5)
    links = make_links(np.zeros((2, 3)), np.zeros((2, 3)))  # OMA is inf
    cfg = SimConfig(power_grid_step=0.5)
    outcome, _ = grid_search_alpha(links, cfg)
    reference = _grid_search_reference(links, cfg, reference_times)
    assert reference[0] == 0.5 and reference[2] == 2.5
    _assert_equals_reference(outcome, reference)


def test_grid_search_matches_a_one_table_wave_on_the_scalar_path(
        monkeypatch):
    # the tied point is matched first and the untied one is its only
    # rival: a wave of one table, matched like the first point and OMA
    tensor = np.stack([TIED, UNTIED, np.full((2, 3), 20.0)])
    _fake_kernel(monkeypatch, tensor, 0.5)
    calls = []
    for name in ("swap_until_stable", "_match_stack"):
        original = getattr(scheduler, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(scheduler, name, counted)
    links = make_links(np.zeros((2, 3)), np.zeros((2, 3)))  # OMA is inf
    outcome, _ = grid_search_alpha(links, SimConfig(power_grid_step=0.5))
    assert calls == ["swap_until_stable"] * 3
    assert outcome.alpha_strong == 0.5 and outcome.round_max == 2.5


def test_grid_search_matches_later_points_in_one_wave(monkeypatch):
    # exact binary scalings of one table; every bound (2c) is below the
    # first point's delay (3), so the first step matches that point alone
    # and the second stacks the other four
    step = 0.25
    tensor = np.stack([TIED * c for c in (1.0, 1.0625, 1.125, 1.1875, 1.25)])
    _fake_kernel(monkeypatch, tensor, step)
    calls = {"build_preferences": [], "swap_until_stable": [],
             "_match_stack": []}
    for name in calls:
        original = getattr(scheduler, name)

        def counted(*args, name=name, original=original):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(scheduler, name, counted)
    links = make_links(np.zeros((2, 3)), np.zeros((2, 3)))  # OMA is inf
    outcome, _ = grid_search_alpha(links, SimConfig(power_grid_step=step))
    # the scalar path matches the first point and OMA; one stack the rest
    assert len(calls["build_preferences"]) == 2
    assert len(calls["swap_until_stable"]) == 2
    assert [args[0].shape for args in calls["_match_stack"]] == [(4, 2, 3)]
    assert outcome.alpha_strong == 0.0 and outcome.round_max == 3.0


def test_grid_search_ties_go_to_the_lowest_split(monkeypatch):
    # alpha=0.5 has the lowest bound but ties alpha=0 on delay, so the
    # walk must visit alpha=0 after it and keep the lower split
    tensor = np.stack([np.full((2, 3), 5.0),
                       np.array([[1.0, 5.0, 5.0], [1.0, 5.0, 5.0]]),
                       np.full((2, 3), 9.0)])
    monkeypatch.setattr("udnsync.scheduler.noma_times",
                        lambda links, alpha_strong, workspace=None: tensor)
    links = make_links(np.zeros((2, 3)), np.zeros((2, 3)))  # OMA is inf
    outcome, _ = grid_search_alpha(links, SimConfig(power_grid_step=0.5))
    assert outcome.alpha_strong == 0.0


def test_broadcast_kernel_is_bitwise_per_point(rng):
    for num_t, num_s in ((1, 1), (3, 5), (5, 5), (10, 10)):
        links = random_links(rng, num_t, num_s)
        for step in (0.0025, 0.05, 0.25):
            grid = alpha_grid(step)
            tensor = noma_times(links, grid[:, None, None])
            per_point = np.stack([noma_times(links, a) for a in grid.tolist()])
            assert tensor.shape == (len(grid), num_t, num_s)
            assert np.array_equal(tensor.view(np.uint64),
                                  per_point.view(np.uint64))


def _soiled_workspace(rng, size):
    """A workspace whose planes hold NaN, infinities and random bits and
    whose mask holds random bools."""
    workspace = KernelWorkspace()
    workspace.planes((size,))
    for plane in workspace.floats:
        plane.view(np.uint64)[:] = rng.integers(0, 2 ** 63, size,
                                                dtype=np.uint64)
        plane[::3] = np.nan
        plane[1::7] = -np.inf
    workspace.mask[:] = rng.random(size) < 0.5
    return workspace


def test_held_workspace_kernel_is_bitwise_fresh(rng):
    # the shapes and steps of test_broadcast_kernel_is_bitwise_per_point,
    # each on a soiled workspace sized for all triplets, also on a T < N
    # slice of them and at a scalar split; and all of them in turn on one
    # workspace that starts empty and grows as the shapes do
    grown = KernelWorkspace()
    for num_t, num_s in ((1, 1), (3, 5), (5, 5), (10, 10)):
        links = random_links(rng, num_t, num_s)
        for step in (0.0025, 0.05, 0.25):
            grid = alpha_grid(step)
            soiled = _soiled_workspace(rng, len(grid) * num_t * num_s)
            for case in (links, links.subset(np.arange(num_t // 2 + 1))):
                for alpha in (grid[:, None, None], 0.3):
                    fresh = noma_leg_times(case, alpha)
                    for workspace in (soiled, grown):
                        held = noma_leg_times(case, alpha, workspace)
                        for got, want in zip(held, fresh):
                            assert got.shape == want.shape
                            assert np.array_equal(got.view(np.uint64),
                                                  want.view(np.uint64))
                        pair = noma_times(case, alpha, workspace)
                        assert np.array_equal(
                            pair.view(np.uint64),
                            noma_times(case, alpha).view(np.uint64))


def test_held_workspace_kernel_allocates_no_plane():
    # over the full grid at 10 x 10 the kernel allocates no (A, T, N)
    # array; numpy's broadcast buffers measure 0.42 of one
    links = random_links(np.random.default_rng(5), 10, 10)
    grid = alpha_grid(0.0025)[:, None, None]
    workspace = KernelWorkspace()
    workspace.planes((grid.size, 10, 10))
    peak = peak_traced_bytes(lambda: noma_times(links, grid, workspace))
    assert peak < grid.size * 100 * 8


def test_workspace_grows_to_a_larger_shape():
    workspace = KernelWorkspace()
    workspace.planes((2, 5))
    *floats, mask = workspace.planes((3, 4))
    assert [plane.shape for plane in (*floats, mask)] == [(3, 4)] * 5
    for plane, small in zip(workspace.floats + (workspace.mask,),
                            workspace.planes((2, 5))):
        assert plane.size == 12 and np.shares_memory(small, plane)


def test_schedule_rounds_share_one_workspace(monkeypatch):
    # 10 triplets on 3 sub-bands: four rounds, the last of one triplet;
    # the results are kept, so no freed one can lend its address
    seen = []

    def recording(links, alpha_strong, workspace=None):
        times = noma_times(links, alpha_strong, workspace)
        seen.append((workspace, times))
        return times

    monkeypatch.setattr("udnsync.scheduler.noma_times", recording)
    cfg = SimConfig(num_nodes=30, num_subbands=3, power_grid_step=0.05,
                    noise_density_dbm_hz=-114.0)
    rng = np.random.default_rng(12)
    noma, _ = schedule_exchange(place_nodes(cfg, rng), cfg, rng)
    assert len(seen) == len(noma.rounds) == 4
    workspaces, results = zip(*seen)
    assert workspaces[0] is not None
    assert all(w is workspaces[0] for w in workspaces)
    assert len({times.ctypes.data for times in results}) == 1
    assert [times.shape[1] for times in results] == [3, 3, 3, 1]


def test_grid_search_orthogonal_outcome_is_the_fallback_matching(rng):
    # a unit step leaves only the two starving splits, so the orthogonal
    # fallback wins every round there
    for step in (0.05, 1.0):
        cfg = SimConfig(num_subbands=3, power_grid_step=step)
        for _ in range(10):
            links = random_links(rng, 3, 3)
            superposed, orthogonal = grid_search_alpha(links, cfg)
            times = oma_times(links)
            expected, _ = swap_until_stable(
                stable_marriage(*build_preferences(times)), times,
                cfg.swap_max_iters)
            assert orthogonal.alpha_strong is None
            assert orthogonal.assignment.sb_to_triplet == expected.sb_to_triplet
            assert orthogonal.round_max == expected.max_time(times)
            assert superposed.round_max <= orthogonal.round_max
            if step == 1.0:
                assert superposed is orthogonal


def test_grid_search_rejects_empty_grid():
    # alpha_grid takes a bare step, which no SimConfig has checked; a
    # step that does not divide 1 would give another grid
    for step in (0.0, -0.25, 1.5, math.inf, math.nan, 0.3, 0.4, 0.7):
        with pytest.raises(SchedulerError):
            alpha_grid(step)


# ---------------------------------------------------------------------------
# full schedule


def schedule_setup(rng, num_nodes, num_subbands):
    cfg = SimConfig(num_nodes=num_nodes, num_subbands=num_subbands,
                    noise_density_dbm_hz=-114.0)
    topo = place_nodes(cfg, rng)
    return cfg, topo


def test_single_round_when_triplets_fit(rng):
    cfg, topo = schedule_setup(rng, 9, 5)   # 3 triplets, 5 sub-bands
    noma, oma = schedule_exchange(topo, cfg, rng)
    assert len(noma.rounds) == 1
    assert len(oma.rounds) == 1
    assert len(noma.rounds[0].assignment.sb_to_triplet) == 3


def test_round_count_is_ceiling_of_ratio(rng):
    cfg, topo = schedule_setup(rng, 21, 3)  # 7 triplets over 3 sub-bands
    noma, _ = schedule_exchange(topo, cfg, rng)
    assert len(noma.rounds) == 3
    scheduled = sorted(int(t)
                       for rnd in noma.rounds
                       for t in (rnd.triplet_ids[v]
                                 for v in rnd.assignment.sb_to_triplet.values()))
    assert scheduled == list(range(7))      # each triplet exactly once


def _partition_rounds_setdiff(times):
    """``scheduler._partition_rounds`` as first written, with the matched
    triplets removed by ``np.setdiff1d``."""
    remaining = np.arange(times.shape[0])
    rounds = []
    while remaining.size:
        assignment = stable_marriage(*build_preferences(times[remaining]))
        matched = remaining[sorted(assignment.sb_to_triplet.values())]
        rounds.append(matched)
        remaining = np.setdiff1d(remaining, matched)
    return rounds


def test_partition_rounds_equal_the_setdiff_form():
    # up to K=250's 83 triplets, on 2 to 10 sub-bands
    rng = np.random.default_rng(29)
    for num_t in range(1, 84):
        for num_s in range(2, 11):
            times = oma_times(random_links(rng, num_t, num_s))
            rounds = scheduler._partition_rounds(times)
            want = _partition_rounds_setdiff(times)
            assert len(rounds) == len(want) == -(-num_t // num_s)
            for got, expected in zip(rounds, want):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)


def test_single_subband_serializes_all_triplets(rng):
    cfg, topo = schedule_setup(rng, 9, 1)
    noma, _ = schedule_exchange(topo, cfg, rng)
    assert len(noma.rounds) == 3
    assert noma.exchange_delay_total == pytest.approx(
        sum(r.round_max for r in noma.rounds))


def test_noma_beats_oma_and_is_deterministic():
    cfg = SimConfig(num_nodes=15, num_subbands=3,
                    noise_density_dbm_hz=-114.0)
    topo = place_nodes(cfg, np.random.default_rng(21))
    a_noma, a_oma = schedule_exchange(topo, cfg, np.random.default_rng(4))
    b_noma, b_oma = schedule_exchange(topo, cfg, np.random.default_rng(4))
    assert a_noma.exchange_delay_total <= a_oma.exchange_delay_total
    assert a_noma.exchange_delay_total == b_noma.exchange_delay_total
    assert ([r.alpha_strong for r in a_noma.rounds]
            == [r.alpha_strong for r in b_noma.rounds])
    assert a_oma.exchange_delay_total == b_oma.exchange_delay_total


def test_schedule_requires_triplets(rng):
    cfg = small_config()
    topo = grid_topology(9, rng=rng, triplets=())
    with pytest.raises(SchedulerError):
        schedule_exchange(topo, cfg, rng)


def test_outcome_csv_round_trip(tmp_path, rng):
    # a unit step leaves only the two starving splits, so every round
    # falls back to OMA and writes the orthogonal legs
    for step in (0.0025, 1.0):
        cfg, topo = schedule_setup(rng, 12, 2)
        cfg = replace(cfg, power_grid_step=step)
        noma, _ = schedule_exchange(topo, cfg, rng)
        out = tmp_path / "schedule.csv"
        noma.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("round,sub_band,triplet,alpha,"
                            "t_strong,t_weak,t_pair")
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == sum(len(r.assignment.sb_to_triplet)
                                for r in noma.rounds)
        for rec in body:
            assert float(rec[6]) == pytest.approx(
                max(float(rec[4]), float(rec[5])))
        if step == 1.0:
            rows = iter(body)
            for rnd in noma.rounds:
                assert rnd.alpha_strong is None
                t_strong, t_weak = oma_leg_times(rnd.links)
                for s, t in sorted(rnd.assignment.sb_to_triplet.items()):
                    rec = next(rows)
                    assert rec[3] == ""
                    assert float(rec[4]) == t_strong[t, s]
                    assert float(rec[5]) == t_weak[t, s]


GOLDEN_SCHEDULE = Path(__file__).parent / "data" / "schedule_k21_n3.csv"


def test_golden_schedule_csv(tmp_path):
    # K=21 (7 triplets) on 3 sub-bands, three NOMA rounds, as first
    # recorded; compared as bytes, like the benchmark's reference digests
    cfg = SimConfig(num_nodes=21, num_subbands=3, noise_density_dbm_hz=-114.0)
    topo = place_nodes(cfg, np.random.default_rng(21))
    noma, _ = schedule_exchange(topo, cfg, np.random.default_rng(4))
    out = tmp_path / "schedule.csv"
    noma.to_csv(out)
    assert out.read_bytes() == GOLDEN_SCHEDULE.read_bytes()


def brute_force_round_optimum(times, members):
    """Best max completion time over every injective assignment."""
    num_s = times.shape[1]
    best = math.inf
    size = min(len(members), num_s)
    for subset in itertools.combinations(members, size):
        for sbs in itertools.permutations(range(num_s), size):
            if len(subset) < len(members):
                continue  # all members must be placed when they fit
            best = min(best, max(times[t, s] for t, s in zip(subset, sbs)))
    return best


def test_swap_stable_rounds_near_brute_force_optimum():
    # 4 triplets on 2 sub-bands: verify stability and report the gap of
    # the swap-stable solution against exhaustive enumeration per round
    cfg = SimConfig(num_nodes=12, num_subbands=2,
                    noise_density_dbm_hz=-114.0)
    topo = place_nodes(cfg, np.random.default_rng(77))
    noma, _ = schedule_exchange(topo, cfg, np.random.default_rng(8))
    fading = sample_link_gains(cfg, len(topo.triplets),
                               np.random.default_rng(8))
    for rnd in noma.rounds:
        links_all = build_links(topo, cfg, fading)
        times = noma_times(links_all.subset(rnd.triplet_ids),
                           rnd.alpha_strong)
        members = list(range(len(rnd.triplet_ids)))
        opt = brute_force_round_optimum(times, members)
        assert rnd.round_max >= opt - 1e-15
        # stability: a further swap pass changes nothing
        again, _ = swap_until_stable(rnd.assignment, times, max_iters=1)
        assert again.sb_to_triplet == rnd.assignment.sb_to_triplet
