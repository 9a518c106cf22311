"""Acceptance gate: one test (and one pass/fail line under -v) per criterion.

Trend criteria compare seeded Monte-Carlo means at desk scale; property
criteria check matching stability, the candidate-swap bound, brute-force
optimality gaps, and the closed-form completion kernels against
independent oracles. Tolerances are stated inline next to each assert.
"""

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import grid_topology
from udnsync.channel import sample_interference_gains, sample_link_gains
from udnsync.config import FadingSpec, SimConfig
from udnsync.consensus import run_sync, timing_sd, update_proposed
from udnsync.graph import build_graph
from udnsync.harness import ExperimentSpec, run_experiment
from udnsync.noma import (PairLink, RoundLinks, noma_leg_times, noma_times,
                          oma_times, rate, sinr_strong, sinr_strong_alone,
                          sinr_weak)
from udnsync.scheduler import (Assignment, _partition_rounds, build_links,
                               build_preferences, grid_search_alpha,
                               has_blocking_pair, schedule_exchange,
                               stable_marriage, swap_matching_round,
                               swap_until_stable)
from udnsync.topology import init_clocks, place_nodes


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# clock-alignment criteria


def test_criterion_01_consensus_converges_within_budget():
    # K=50, threshold low enough for a fully bidirectional graph, offsets
    # U[0, 40us], step 0.9: timing SD reaches 1e-6 s within 5,000
    # iterations in 100/100 seeded replications, in under 10 s.
    cfg = SimConfig(num_nodes=50, power_threshold_dbm=-500.0,
                    max_iters=5000, max_snapshots=1)
    t0 = time.perf_counter()
    converged = 0
    topo = grid_topology(50, jitter=0.0)
    for child in np.random.SeedSequence(101).spawn(100):
        rng = np.random.default_rng(child)
        trace = run_sync(cfg, topo, rng)
        converged += int(trace.snapshots[0].converged)
    elapsed = time.perf_counter() - t0

    # on a static graph the SD sequence must be non-increasing
    rng = np.random.default_rng(999)
    gains = sample_interference_gains(cfg, rng)
    graph = build_graph(cfg.tx_power_w, topo, gains,
                        cfg.power_threshold_w, cfg.path_loss_exp)
    state = init_clocks(cfg, rng)
    state.remember(graph)
    sds = []
    for _ in range(200):
        state.times = update_proposed(state, graph, cfg.step_size)
        sds.append(timing_sd(state.times))
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(sds, sds[1:]))

    ok = converged == 100 and elapsed < 10.0 and monotone
    _report(1, ok, f"{converged}/100 converged, {elapsed:.1f}s, "
                   f"static-graph SD monotone: {monotone}")
    assert converged == 100
    assert elapsed < 10.0
    assert monotone


def test_criterion_02_sparser_graphs_converge_slower():
    # Raising the power threshold prunes edges; mean iterations to
    # converge over 50 replications must be strictly increasing across
    # the five-threshold sweep (Spearman rho = 1), in under 2 minutes.
    thresholds = (-55.0, -45.0, -36.0, -30.0, -24.0)
    t0 = time.perf_counter()
    means = []
    for point_seed, p0 in zip(np.random.SeedSequence(202).spawn(5),
                              thresholds):
        cfg = SimConfig(num_nodes=60, power_threshold_dbm=p0,
                        max_iters=5000, max_snapshots=1)
        topo = grid_topology(60, jitter=0.0)
        iters = []
        for child in point_seed.spawn(50):
            rng = np.random.default_rng(child)
            trace = run_sync(cfg, topo, rng)
            iters.append(trace.snapshots[0].iterations_used)
        means.append(float(np.mean(iters)))
    elapsed = time.perf_counter() - t0
    increasing = all(a < b for a, b in zip(means, means[1:]))
    ok = increasing and elapsed < 120.0
    _report(2, ok, f"mean iterations {['%.1f' % m for m in means]}, "
                   f"{elapsed:.0f}s")
    assert increasing  # strict ordering == Spearman rho of 1 over means
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# scheduling corpus shared by criteria 3, 7, and 8


@dataclass
class RoundRecord:
    links: object           # RoundLinks of this round's members
    alpha: float | None     # winning power split (None = orthogonal mode)
    noma_assignment: Assignment
    noma_stats: object
    noma_max: float
    oma_max: float


@dataclass
class InstanceRecord:
    num_triplets: int
    num_subbands: int
    rounds: list


@pytest.fixture(scope="module")
def scheduling_corpus():
    """1,000 randomized instances: 2-10 triplets on 1-5 sub-bands."""
    rng = np.random.default_rng(31337)
    instances = []
    for _ in range(1000):
        kp = int(rng.integers(2, 11))
        n = int(rng.integers(1, 6))
        cfg = SimConfig(num_nodes=3 * kp, num_subbands=n,
                        noise_density_dbm_hz=-114.0)
        topo = place_nodes(cfg, rng)
        links = build_links(topo, cfg, sample_link_gains(cfg, kp, rng))
        records = []
        for ids in _partition_rounds(links, oma_times(links)):
            sub = links.subset(ids)
            rnd = grid_search_alpha(sub, cfg)
            times_o = oma_times(sub)
            prefs, ranks = build_preferences(times_o)
            a_oma, _ = swap_until_stable(stable_marriage(prefs, ranks),
                                         times_o, cfg.swap_max_iters)
            records.append(RoundRecord(
                links=sub, alpha=rnd.alpha_strong,
                noma_assignment=rnd.assignment, noma_stats=rnd.swap_stats,
                noma_max=rnd.round_max, oma_max=a_oma.max_time(times_o)))
        instances.append(InstanceRecord(kp, n, records))
    return instances


def _round_times(record: RoundRecord) -> np.ndarray:
    if record.alpha is None:
        return oma_times(record.links)
    return noma_times(record.links, record.alpha)


def test_criterion_03_superposed_never_loses(scheduling_corpus):
    # NOMA exchange delay <= OMA exchange delay on 100% of instances.
    losses = 0
    for inst in scheduling_corpus:
        noma_total = sum(r.noma_max for r in inst.rounds)
        oma_total = sum(r.oma_max for r in inst.rounds)
        if noma_total > oma_total * (1.0 + 1e-12):
            losses += 1
    ok = losses == 0
    _report(3, ok, f"{len(scheduling_corpus) - losses}/"
                   f"{len(scheduling_corpus)} instances dominated "
                   f"(tolerance 1e-12 relative)")
    assert losses == 0


def _admissible_move_exists(assignment: Assignment,
                            times: np.ndarray) -> bool:
    """Independent enumeration of the swap admissibility rule."""
    matched = sorted(assignment.sb_to_triplet.items())
    idle = [s for s in range(times.shape[1])
            if s not in assignment.sb_to_triplet]
    cur_max = assignment.max_time(times)
    for (s1, t1), (s2, t2) in itertools.combinations(matched, 2):
        old1, old2 = times[t1, s1], times[t2, s2]
        new1, new2 = times[t1, s2], times[t2, s1]
        pareto = (new1 <= old1 and new2 <= old2
                  and (new1 < old1 or new2 < old2))
        others = max((times[t, s] for s, t in matched
                      if t not in (t1, t2)), default=0.0)
        if pareto or max(others, new1, new2) < cur_max:
            return True
    for s1, t1 in matched:
        for s in idle:
            others = max((times[t, s2] for s2, t in matched if t != t1),
                         default=0.0)
            if (times[t1, s] < times[t1, s1]
                    or max(others, times[t1, s]) < cur_max):
                return True
    return False


def test_criterion_07_swap_sequence_is_monotone_and_stable(scheduling_corpus):
    # Re-derive each round's swap trajectory at the chosen power split:
    # the round max never increases, the loop ends within the iteration
    # cap, and no admissible move survives at the fixed point.
    cap = SimConfig().swap_max_iters
    checked = bad = 0
    for inst in scheduling_corpus:
        for rec in inst.rounds:
            times = _round_times(rec)
            prefs, ranks = build_preferences(times)
            assignment = stable_marriage(prefs, ranks)
            maxima = [assignment.max_time(times)]
            for _ in range(cap):
                new = swap_matching_round(assignment, times)
                if new.sb_to_triplet == assignment.sb_to_triplet:
                    break
                assignment = new
                maxima.append(assignment.max_time(times))
            else:
                bad += 1
                continue
            checked += 1
            if any(b > a * (1.0 + 1e-12) for a, b in zip(maxima, maxima[1:])):
                bad += 1
            if _admissible_move_exists(assignment, times):
                bad += 1
            if not math.isclose(maxima[-1], rec.noma_max, rel_tol=1e-9):
                bad += 1  # trajectory must land on the recorded delay
    ok = bad == 0
    _report(7, ok, f"{checked} rounds re-derived, {bad} violations "
                   f"(cap {cap} iterations)")
    assert bad == 0


def test_criterion_08_candidate_bound_and_iteration_growth(scheduling_corpus):
    # (a) candidate swaps evaluated per iteration never exceed
    # 2 K'(K'-1); (b) with more sub-bands per round the swap-iteration
    # distribution shifts right (CDF dominance over 200 instances).
    over = 0
    for inst in scheduling_corpus:
        bound = 2 * inst.num_triplets * (inst.num_triplets - 1)
        for rec in inst.rounds:
            if any(c > bound
                   for c in rec.noma_stats.candidate_swaps_per_iteration):
                over += 1

    samples = {2: [], 4: []}
    rng = np.random.default_rng(808)
    for _ in range(200):
        seed = rng.integers(2 ** 63)
        for n in (2, 4):
            cfg = SimConfig(num_nodes=36, num_subbands=n,
                            noise_density_dbm_hz=-114.0)
            child = np.random.default_rng(seed)
            topo = place_nodes(cfg, child)
            noma, _ = schedule_exchange(topo, cfg, child)
            samples[n].extend(r.swap_stats.iterations for r in noma.rounds)
    lo = np.array(samples[2], dtype=float)
    hi = np.array(samples[4], dtype=float)
    support = np.unique(np.concatenate([lo, hi]))
    cdf = lambda x, v: float(np.mean(x <= v))
    dominated = all(cdf(hi, v) <= cdf(lo, v) + 1e-12 for v in support)
    shifted = dominated and hi.mean() > lo.mean()
    ok = over == 0 and shifted
    _report(8, ok, f"bound violations {over}; per-round swap iterations "
                   f"mean {lo.mean():.2f} (N=2) -> {hi.mean():.2f} (N=4), "
                   f"CDF dominance: {dominated}")
    assert over == 0
    assert shifted


def test_criterion_09_brute_force_blocking_and_gap():
    # Small instances (2-5 triplets, 1-3 sub-bands): the deferred
    # acceptance output has no blocking pair, and the swap-stable delay
    # is within 25% of the brute-force min-max optimum on >= 90% of 200
    # instances (regression tripwire, not an optimality claim).
    rng = np.random.default_rng(909)
    blocking = 0
    gaps = []
    for _ in range(200):
        kp = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        cfg = SimConfig(num_nodes=3 * kp, num_subbands=n,
                        noise_density_dbm_hz=-114.0)
        topo = place_nodes(cfg, rng)
        links = build_links(topo, cfg, sample_link_gains(cfg, kp, rng))
        total = optimum = 0.0
        for ids in _partition_rounds(links, oma_times(links)):
            sub = links.subset(ids)
            rnd = grid_search_alpha(sub, cfg)
            times = (oma_times(sub) if rnd.alpha_strong is None
                     else noma_times(sub, rnd.alpha_strong))
            prefs, ranks = build_preferences(times)
            if has_blocking_pair(stable_marriage(prefs, ranks), times):
                blocking += 1
            total += rnd.round_max
            k = len(rnd.assignment.sb_to_triplet)
            best = min(
                max(times[t, s] for t, s in enumerate(perm))
                for perm in itertools.permutations(range(times.shape[1]), k)
            ) if k else 0.0
            optimum += best
        gaps.append((total - optimum) / optimum)
    gaps = np.array(gaps)
    within = float(np.mean(gaps <= 0.25))
    ok = blocking == 0 and within >= 0.90
    _report(9, ok, f"blocking pairs {blocking}; gap mean "
                   f"{gaps.mean() * 100:.2f}% max {gaps.max() * 100:.2f}%, "
                   f"{within * 100:.0f}% of instances within 25%")
    assert blocking == 0
    assert within >= 0.90


# ---------------------------------------------------------------------------
# trend criteria (desk scale, seeded means)


def test_criterion_04_gain_shrinks_with_more_subbands():
    # K=90, sub-bands 5 -> 10 -> 15 at -114 dBm/Hz noise density: the
    # total-time gain of superposed over orthogonal access strictly
    # decreases across the 50-replication sweep means (ordering only).
    base = SimConfig(num_nodes=90, max_snapshots=1, max_iters=300,
                     noise_density_dbm_hz=-114.0, rng_seed=404)
    rows = run_experiment(ExperimentSpec("subband-trend", "num_subbands",
                                         (5, 10, 15), 50, base))
    assert all(r.error == "" for r in rows)
    gains = [r.noma_gain_pct for r in rows]
    decreasing = all(a > b for a, b in zip(gains, gains[1:]))
    _report(4, decreasing,
            f"gain% {['%.2f' % g for g in gains]} over N=(5, 10, 15)")
    assert decreasing


def test_criterion_05_gain_grows_with_network_size():
    # Doubling the node count doubles the exchange share of the total
    # synchronization time, so the total-time gain must increase.
    base = SimConfig(num_subbands=5, max_snapshots=1, max_iters=300,
                     noise_density_dbm_hz=-114.0, rng_seed=505)
    rows = run_experiment(ExperimentSpec("size-trend", "num_nodes",
                                         (60, 120), 50, base))
    assert all(r.error == "" for r in rows)
    gains = [r.noma_gain_pct for r in rows]
    increasing = gains[0] < gains[1]
    _report(5, increasing,
            f"gain% {['%.2f' % g for g in gains]} over K=(60, 120)")
    assert increasing


def _paired_fading_runs(kind: str, params, reps: int, seed: int):
    """Totals per fading parameter with shared per-replication topology."""
    base = SimConfig(num_nodes=60, num_subbands=5, max_snapshots=1,
                     max_iters=300, noise_density_dbm_hz=-134.0)
    totals = {p: {"noma": [], "oma": []} for p in params}
    for child in np.random.SeedSequence(seed).spawn(reps):
        topo_seed, *run_seeds = child.spawn(1 + len(params))
        topo = place_nodes(base, np.random.default_rng(topo_seed))
        for p, run_seed in zip(params, run_seeds):
            cfg = replace(base, fading=FadingSpec(kind, float(p)))
            rng = np.random.default_rng(run_seed)
            algo = run_sync(cfg, topo, rng).algorithmic_time
            noma, oma = schedule_exchange(topo, cfg, rng)
            totals[p]["noma"].append(algo + noma.exchange_delay_total)
            totals[p]["oma"].append(algo + oma.exchange_delay_total)
    return {p: (float(np.mean(v["noma"])), float(np.mean(v["oma"])))
            for p, v in totals.items()}


def test_criterion_06_less_fading_syncs_earlier_and_gains_more():
    # Nakagami m=3 (more line-of-sight) vs m=1: lower mean total sync
    # time and a larger superposition gain; raising the Rayleigh mean
    # gain lowers the mean total sync time. 50-replication means with
    # per-replication paired topologies.
    nak = _paired_fading_runs("nakagami", (1.0, 3.0), 50, 606)
    t1, o1 = nak[1.0]
    t3, o3 = nak[3.0]
    gain = lambda t, o: 100.0 * (o - t) / o
    faster = t3 < t1
    more_gain = gain(t3, o3) > gain(t1, o1)

    ray = _paired_fading_runs("rayleigh", (0.5, 1.0, 2.0, 4.0), 50, 616)
    ray_times = [ray[p][0] for p in (0.5, 1.0, 2.0, 4.0)]
    ray_decreasing = all(a > b for a, b in zip(ray_times, ray_times[1:]))

    ok = faster and more_gain and ray_decreasing
    _report(6, ok, f"sync time m=3 {t3:.6f}s vs m=1 {t1:.6f}s; gain% "
                   f"{gain(t3, o3):.3f} vs {gain(t1, o1):.3f}; Rayleigh-mean "
                   f"times {['%.5f' % t for t in ray_times]}")
    assert faster
    assert more_gain
    assert ray_decreasing


# ---------------------------------------------------------------------------
# numerical kernels


def _random_pair_link(rng) -> PairLink:
    gains = np.sort(rng.exponential(1.0, size=2))
    a_s = rng.uniform(0.01, 0.99)
    return PairLink(gain_strong=float(gains[1]), gain_weak=float(gains[0]),
                    alpha_strong=a_s, alpha_weak=1.0 - a_s,
                    noise_w=rng.uniform(0.01, 1.0),
                    tx_power_w=rng.uniform(0.5, 5.0),
                    bandwidth_hz=rng.uniform(0.5, 2.0),
                    payload_bits=rng.uniform(1.0, 100.0))


def _bit_accumulation_time(link: PairLink, tol=1e-13) -> float:
    """Bisection on delivered bits, independent of the piecewise form."""
    r_shared = rate(sinr_strong(link), link.bandwidth_hz)
    r_alone = rate(sinr_strong_alone(link), link.bandwidth_hz)
    t_weak = link.payload_bits / rate(sinr_weak(link), link.bandwidth_hz)
    delivered = lambda t: (r_shared * min(t, t_weak)
                           + r_alone * max(0.0, t - t_weak))
    lo, hi = 0.0, 1.0
    while delivered(hi) < link.payload_bits:
        hi *= 2.0
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if delivered(mid) < link.payload_bits else (lo, mid)
    return hi


def _kernel_legs(link: PairLink) -> tuple[float, float]:
    """(t_strong, t_weak) of one link from the scheduler's vectorized kernel."""
    links = RoundLinks(np.array([[link.gain_strong]]),
                       np.array([[link.gain_weak]]), link.tx_power_w,
                       link.noise_w, link.bandwidth_hz, link.payload_bits)
    t_strong, t_weak = noma_leg_times(links, link.alpha_strong)
    return float(t_strong[0, 0]), float(t_weak[0, 0])


def test_criterion_10_completion_kernel_matches_oracle():
    # The kernel the scheduler runs (noma_leg_times), on 10,000 random
    # links to 1e-9 relative, plus branch continuity at the strong-leg
    # crossing to 1e-9.
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(10000):
        link = _random_pair_link(rng)
        closed, _ = _kernel_legs(link)
        oracle = _bit_accumulation_time(link)
        worst = max(worst, abs(closed - oracle) / oracle)

    crossings = 0
    worst_gap = 0.0
    for _ in range(300):
        base = _random_pair_link(rng)

        def at(a_s):
            return replace(base, alpha_strong=a_s, alpha_weak=1.0 - a_s)

        def gap(a_s):
            link = at(a_s)
            r_s = rate(sinr_strong(link), link.bandwidth_hz)
            r_w = rate(sinr_weak(link), link.bandwidth_hz)
            return link.payload_bits / r_s - link.payload_bits / r_w

        lo, hi = 1e-6, 1.0 - 1e-6
        if gap(lo) * gap(hi) > 0:
            continue
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if gap(lo) * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        t_strong, t_weak = _kernel_legs(at(mid))
        worst_gap = max(worst_gap, abs(t_strong - t_weak) / t_weak)
        crossings += 1

    ok = worst < 1e-9 and crossings > 50 and worst_gap < 1e-9
    _report(10, ok, f"oracle max rel err {worst:.2e} on 10,000 links; "
                    f"{crossings} crossings, continuity err {worst_gap:.2e}")
    assert worst < 1e-9
    assert crossings > 50
    assert worst_gap < 1e-9
