"""Matching, swap improvement, split search, and round scheduling."""

import itertools
import math

import numpy as np
import pytest

from conftest import grid_topology, small_config
from udnsync.channel import sample_link_gains
from udnsync.config import SimConfig, alpha_grid
from udnsync.noma import (PairLink, RoundLinks, noma_leg_times, noma_times,
                          oma_leg_times, oma_times, pair_completion_noma,
                          pair_completion_oma)
from udnsync.scheduler import (Assignment, SchedulerError, build_links,
                               build_preferences, grid_search_alpha,
                               has_blocking_pair, schedule_exchange,
                               stable_marriage, swap_matching_round,
                               swap_until_stable, SwapStats)
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
    topo = place_nodes(cfg.with_overrides(num_nodes=6), rng)
    fading = np.ones((len(topo.triplets), 2, 2))
    links = build_links(topo, cfg, fading)
    tx, strong, weak = topo.triplets[0]
    d = topo.distance_matrix
    assert links.gain_strong[0, 0] == pytest.approx(d[tx, strong] ** -4.0)
    assert links.gain_weak[0, 0] == pytest.approx(d[tx, weak] ** -4.0)


def test_build_links_reorders_roles_when_fading_inverts(rng):
    cfg = small_config(num_nodes=6, num_subbands=3)
    topo = place_nodes(cfg.with_overrides(num_nodes=6), rng)
    for seed in range(10):
        fading = np.random.default_rng(seed).exponential(
            1.0, size=(len(topo.triplets), 3, 2))
        links = build_links(topo, cfg, fading)
        assert np.all(links.gain_strong >= links.gain_weak)


def test_build_links_requires_triplets(rng):
    cfg = small_config()
    topo = grid_topology(9, rng=rng, triplets=())
    with pytest.raises(SchedulerError):
        build_links(topo, cfg, np.ones((0, 2, 2)))


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


def test_swap_step_equals_rescanning_reference():
    rng = np.random.default_rng(2025)
    steps = 0
    for i in range(1200):
        times = _random_times(rng, i)
        num_t, num_s = times.shape
        size = min(num_t, num_s)
        if i % 3:
            # a random partial matching, to start far from a fixed point
            cur = Assignment(sb_to_triplet=dict(sorted(zip(
                rng.permutation(num_s)[:size].tolist(),
                rng.permutation(num_t)[:size].tolist()))))
        else:
            cur = stable_marriage(*build_preferences(times))
        ref = cur
        stats, ref_stats = SwapStats(), SwapStats()
        for _ in range(30):
            new = swap_matching_round(cur, times, stats)
            ref_new = _swap_matching_round_reference(ref, times, ref_stats)
            steps += 1
            assert list(new.sb_to_triplet.items()) == list(
                ref_new.sb_to_triplet.items())
            assert stats == ref_stats
            if new.sb_to_triplet == cur.sb_to_triplet:
                break
            cur, ref = new, ref_new
    assert steps > 3000


def test_swap_exchange_improving_both_is_applied():
    times = np.array([[1.0, 5.0, 9.0],
                      [5.0, 1.0, 9.0],
                      [9.0, 9.0, 1.0]])
    start = Assignment(sb_to_triplet={0: 1, 1: 0, 2: 2})
    out = swap_matching_round(start, times)
    assert out.sb_to_triplet == {0: 0, 1: 1, 2: 2}


def test_swap_fixed_point_returned_unchanged():
    times = np.array([[1.0, 9.0], [9.0, 1.0]])
    start = Assignment(sb_to_triplet={0: 0, 1: 1})
    out = swap_matching_round(start, times)
    assert out is start


def test_swap_rejects_degradation_that_raises_round_max():
    # triplet 0 would improve 5->1 but triplet 1 degrades 2->6 and the
    # round max rises 5->6: inadmissible under both rules
    times = np.array([[5.0, 1.0],
                      [6.0, 2.0]])
    start = Assignment(sb_to_triplet={0: 0, 1: 1})
    out = swap_matching_round(start, times)
    assert out.sb_to_triplet == {0: 0, 1: 1}


def test_swap_accepts_degradation_that_lowers_round_max():
    # triplet 1 degrades 2->3 but the round max falls 5->3: admissible
    times = np.array([[5.0, 1.0],
                      [3.0, 2.0]])
    start = Assignment(sb_to_triplet={0: 0, 1: 1})
    out = swap_matching_round(start, times)
    assert out.sb_to_triplet == {0: 1, 1: 0}


def test_relocation_to_idle_subband():
    times = np.array([[5.0, 1.0, 3.0]])
    start = Assignment(sb_to_triplet={0: 0})
    out = swap_matching_round(start, times)
    assert out.sb_to_triplet == {1: 0}


def test_candidate_exchange_count_is_pairs_of_matched():
    rng = np.random.default_rng(0)
    for num_t, num_s in ((2, 5), (4, 4), (6, 3)):
        times = rng.uniform(1.0, 9.0, size=(num_t, num_s))
        prefs, ranks = build_preferences(times)
        start = stable_marriage(prefs, ranks)
        stats = SwapStats()
        swap_matching_round(start, times, stats)
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
            new = swap_matching_round(cur, times)
            if new.sb_to_triplet == cur.sb_to_triplet:
                break
            cur = new
            maxima.append(cur.max_time(times))
        assert all(a >= b for a, b in zip(maxima, maxima[1:]))
        # fixed point: a further call changes nothing
        assert swap_matching_round(cur, times).sb_to_triplet == cur.sb_to_triplet


def test_swap_until_stable_respects_cap(rng):
    times = rng.uniform(0.1, 10.0, size=(5, 5))
    start = Assignment(sb_to_triplet={s: s for s in range(5)})
    _, stats = swap_until_stable(start, times, max_iters=2)
    assert stats.iterations <= 2


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


def _grid_search_reference(links, config):
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


@pytest.mark.parametrize("step", [0.0025, 0.05, 0.25])
def test_grid_search_equals_per_point_reference(step):
    rng = np.random.default_rng(31)
    cfg = SimConfig(power_grid_step=step)
    for num_t, num_s in ((1, 1), (2, 5), (3, 3), (4, 6), (5, 5), (6, 3)):
        for _ in range(4):
            links = random_links(rng, num_t, num_s)
            outcome, _ = grid_search_alpha(links, cfg)
            alpha, assignment, round_max, stats = _grid_search_reference(
                links, cfg)
            assert outcome.alpha_strong == alpha
            assert list(outcome.assignment.sb_to_triplet.items()) == list(
                assignment.sb_to_triplet.items())
            assert outcome.round_max == round_max
            assert outcome.swap_stats == stats


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


def test_grid_search_rejects_empty_grid(rng):
    cfg = SimConfig()
    object.__setattr__(cfg, "power_grid_step", math.inf)
    with pytest.raises(SchedulerError):
        grid_search_alpha(random_links(rng, 1, 1), cfg)


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
    assert a_noma.alpha_strong == b_noma.alpha_strong
    assert a_oma.exchange_delay_total == b_oma.exchange_delay_total


def test_schedule_requires_triplets(rng):
    cfg = small_config()
    topo = grid_topology(9, rng=rng, triplets=())
    with pytest.raises(SchedulerError):
        schedule_exchange(topo, cfg, rng)


def test_outcome_csv_round_trip(tmp_path, rng):
    cfg, topo = schedule_setup(rng, 12, 2)
    noma, _ = schedule_exchange(topo, cfg, rng)
    out = tmp_path / "schedule.csv"
    noma.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "round,sub_band,triplet,alpha,t_strong,t_weak,t_pair"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == sum(len(r.assignment.sb_to_triplet)
                            for r in noma.rounds)
    for rec in body:
        assert float(rec[6]) == pytest.approx(
            max(float(rec[4]), float(rec[5])))


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
        again = swap_matching_round(rnd.assignment, times)
        assert again.sb_to_triplet == rnd.assignment.sb_to_triplet
