"""SBS-to-sub-band scheduling for the information-exchange phase.

Per scheduling round, triplets are matched one-to-one onto sub-bands by
triplet-proposing deferred acceptance, then locally improved by Pareto
swaps: two matched triplets may exchange sub-bands when neither's
completion time worsens and at least one strictly improves; a matched
triplet may also relocate to an idle sub-band when that strictly helps
it. Because sub-bands are orthogonal and the co-receiver coupling is
internal to each triplet, untouched triplets are unaffected by a swap.

The power split shared by all triplets in a round is chosen by a grid
search over the inclusive {0, step, ..., 1} grid, minimizing the
round's maximum per-sub-band completion time. When triplets outnumber
sub-bands, unmatched triplets defer to later rounds and the total
exchange delay sums the round maxima.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from udnsync.channel import noise_power, sample_link_gains
from udnsync.config import SimConfig, alpha_grid
from udnsync.noma import (RoundLinks, noma_leg_times, noma_times,
                          oma_leg_times, oma_times)
from udnsync.topology import Topology


class SchedulerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# link tables


def build_links(topology: Topology, config: SimConfig,
                fading_gains: np.ndarray) -> RoundLinks:
    """Fold path loss into per-sub-band fading gains.

    Roles are re-ordered per sub-band so the stronger effective channel
    is always the strong receiver, even when fading momentarily inverts
    the tiers.
    """
    triplets = topology.triplets
    if not triplets:
        raise SchedulerError("topology has no TX-RX triplets")
    dist = topology.distance_matrix
    alpha = config.path_loss_exp
    eff = np.empty_like(fading_gains)
    for t, (tx, strong_rx, weak_rx) in enumerate(triplets):
        eff[t, :, 0] = fading_gains[t, :, 0] * dist[tx, strong_rx] ** (-alpha)
        eff[t, :, 1] = fading_gains[t, :, 1] * dist[tx, weak_rx] ** (-alpha)
    return RoundLinks(
        gain_strong=np.maximum(eff[:, :, 0], eff[:, :, 1]),
        gain_weak=np.minimum(eff[:, :, 0], eff[:, :, 1]),
        tx_power_w=config.tx_power_w,
        noise_w=noise_power(config),
        bandwidth_hz=config.subband_bandwidth_hz,
        payload_bits=config.payload_bits,
    )


# ---------------------------------------------------------------------------
# matching


@dataclass
class Assignment:
    """Partial one-to-one map sub-band -> triplet."""

    sb_to_triplet: dict[int, int] = field(default_factory=dict)

    def triplet_to_sb(self) -> dict[int, int]:
        return {t: s for s, t in self.sb_to_triplet.items()}

    def check(self) -> None:
        triplets = list(self.sb_to_triplet.values())
        if len(set(triplets)) != len(triplets):
            raise SchedulerError("assignment is not injective")

    def max_time(self, times: np.ndarray) -> float:
        if not self.sb_to_triplet:
            return 0.0
        return max(float(times[t, s]) for s, t in self.sb_to_triplet.items())


def build_preferences(times: np.ndarray):
    """Two-sided preference lists, ascending completion time, index ties.

    Returns (triplet_prefs, sb_prefs): triplet_prefs[t] is the sub-band
    order t proposes in; sb_prefs[s] maps each triplet to its rank at s.
    """
    num_t, num_s = times.shape
    triplet_prefs = [
        sorted(range(num_s), key=lambda s: (times[t, s], s))
        for t in range(num_t)
    ]
    sb_rank = []
    for s in range(num_s):
        order = sorted(range(num_t), key=lambda t: (times[t, s], t))
        rank = {t: r for r, t in enumerate(order)}
        sb_rank.append(rank)
    return triplet_prefs, sb_rank


def stable_marriage(triplet_prefs, sb_rank) -> Assignment:
    """Triplet-proposing deferred acceptance; sides may be unequal."""
    num_t = len(triplet_prefs)
    next_choice = [0] * num_t
    holder: dict[int, int] = {}
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
        # exhausted preferences: triplet stays unmatched (deferred)
    return Assignment(sb_to_triplet=dict(sorted(holder.items())))


def has_blocking_pair(assignment: Assignment, times: np.ndarray) -> bool:
    """True if some triplet and sub-band mutually prefer each other."""
    num_t, num_s = times.shape
    t_sb = assignment.triplet_to_sb()
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


@dataclass
class SwapStats:
    iterations: int = 0
    accepted_swaps: int = 0
    candidate_swaps_per_iteration: list[int] = field(default_factory=list)


def swap_matching_round(assignment: Assignment, times: np.ndarray,
                        stats: SwapStats | None = None) -> Assignment:
    """Apply the best admissible swap, or return the input unchanged.

    Candidates are sub-band exchanges between two matched triplets and
    relocations of a matched triplet to an idle sub-band. A candidate is
    admissible when it helps some involved triplet without hurting the
    other (Pareto), or when it strictly lowers the round's maximum
    per-sub-band time (the matching-level utility); the admissible
    candidate minimizing that maximum wins, ties broken by enumeration
    order (ascending indices, exchanges before relocations). The round
    maximum never increases, so the swap sequence terminates.
    """
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
    assert best[0] <= current_max + 0.0  # utility never degrades
    new = Assignment(sb_to_triplet=dict(sorted(best[1].items())))
    new.check()
    return new


def swap_until_stable(assignment: Assignment, times: np.ndarray,
                      max_iters: int) -> tuple[Assignment, SwapStats]:
    """Iterate swap_matching_round to a fixed point or the iteration cap."""
    stats = SwapStats()
    for _ in range(max_iters):
        new = swap_matching_round(assignment, times, stats)
        if new.sb_to_triplet == assignment.sb_to_triplet:
            break
        assignment = new
    return assignment, stats


# ---------------------------------------------------------------------------
# rounds, grid search, schedule


@dataclass
class RoundOutcome:
    assignment: Assignment
    alpha_strong: float | None      # None for the orthogonal baseline
    t_strong: dict[int, float]      # per sub-band
    t_weak: dict[int, float]
    t_pair: dict[int, float]
    round_max: float
    swap_stats: SwapStats
    triplet_ids: np.ndarray         # global triplet index per local row


@dataclass
class ScheduleOutcome:
    rounds: list[RoundOutcome] = field(default_factory=list)

    @property
    def exchange_delay_total(self) -> float:
        return float(sum(r.round_max for r in self.rounds))

    @property
    def alpha_strong(self) -> list[float | None]:
        return [r.alpha_strong for r in self.rounds]

    @property
    def swap_iterations_used(self) -> int:
        return max((r.swap_stats.iterations for r in self.rounds), default=0)

    @property
    def total_accepted_swaps(self) -> int:
        return sum(r.swap_stats.accepted_swaps for r in self.rounds)

    @property
    def candidate_swaps_evaluated(self) -> int:
        return sum(sum(r.swap_stats.candidate_swaps_per_iteration)
                   for r in self.rounds)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "sub_band", "triplet", "alpha",
                             "t_strong", "t_weak", "t_pair"])
            for i, rnd in enumerate(self.rounds, start=1):
                for s, t in sorted(rnd.assignment.sb_to_triplet.items()):
                    writer.writerow([
                        i, s, int(rnd.triplet_ids[t]),
                        "" if rnd.alpha_strong is None else rnd.alpha_strong,
                        repr(rnd.t_strong[s]), repr(rnd.t_weak[s]),
                        repr(rnd.t_pair[s]),
                    ])


def _round_outcome(links: RoundLinks, assignment: Assignment,
                   alpha_strong: float | None, stats: SwapStats,
                   triplet_ids: np.ndarray) -> RoundOutcome:
    if alpha_strong is None:
        leg_s, leg_w = oma_leg_times(links)
    else:
        leg_s, leg_w = noma_leg_times(links, alpha_strong)
    pair = np.maximum(leg_s, leg_w)
    t_strong = {s: float(leg_s[t, s]) for s, t in assignment.sb_to_triplet.items()}
    t_weak = {s: float(leg_w[t, s]) for s, t in assignment.sb_to_triplet.items()}
    t_pair = {s: float(pair[t, s]) for s, t in assignment.sb_to_triplet.items()}
    return RoundOutcome(assignment=assignment, alpha_strong=alpha_strong,
                        t_strong=t_strong, t_weak=t_weak, t_pair=t_pair,
                        round_max=assignment.max_time(pair),
                        swap_stats=stats, triplet_ids=triplet_ids)


def _match_round(times: np.ndarray, max_iters: int):
    prefs, ranks = build_preferences(times)
    assignment = stable_marriage(prefs, ranks)
    return swap_until_stable(assignment, times, max_iters)


def grid_search_alpha(links: RoundLinks, config: SimConfig,
                      triplet_ids: np.ndarray | None = None) -> RoundOutcome:
    """Pick the common power split minimizing the round's max pair time.

    Every grid point runs deferred acceptance plus the swap loop; the
    lowest-delay point wins, ties resolved toward the lower split. The
    orthogonal mode is evaluated as a fallback: on rounds whose pairs
    are too heterogeneous for any single split, the scheduler transmits
    orthogonally instead, so the superposed scheme never does worse
    than the baseline on the same round.
    """
    step = config.power_grid_step
    if not 0.0 < step <= 1.0:
        raise SchedulerError("empty power grid: step must lie in (0, 1]")
    grid = alpha_grid(step)
    if triplet_ids is None:
        triplet_ids = np.arange(links.num_triplets)
    best = None  # (delay, alpha, assignment, stats)
    for a_s in grid:
        times = noma_times(links, float(a_s))
        assignment, stats = _match_round(times, config.swap_max_iters)
        delay = assignment.max_time(times)
        if best is None or delay < best[0]:
            best = (delay, float(a_s), assignment, stats)
    fallback_times = oma_times(links)
    assignment, stats = _match_round(fallback_times, config.swap_max_iters)
    if assignment.max_time(fallback_times) < best[0]:
        best = (assignment.max_time(fallback_times), None, assignment, stats)
    delay, a_s, assignment, stats = best
    return _round_outcome(links, assignment, a_s, stats, triplet_ids)


def _oma_round(links: RoundLinks, config: SimConfig,
               triplet_ids: np.ndarray) -> RoundOutcome:
    times = oma_times(links)
    assignment, stats = _match_round(times, config.swap_max_iters)
    return _round_outcome(links, assignment, None, stats, triplet_ids)


def _partition_rounds(links: RoundLinks, times: np.ndarray) -> list[np.ndarray]:
    """Split triplets into ceil(T/N) rounds via deferred-acceptance deferral."""
    remaining = np.arange(links.num_triplets)
    rounds = []
    while remaining.size:
        sub = times[remaining]
        prefs, ranks = build_preferences(sub)
        assignment = stable_marriage(prefs, ranks)
        matched_local = sorted(assignment.sb_to_triplet.values())
        matched = remaining[matched_local]
        rounds.append(matched)
        remaining = np.setdiff1d(remaining, matched)
    return rounds


def schedule_exchange(topology: Topology, config: SimConfig,
                      rng: np.random.Generator
                      ) -> tuple[ScheduleOutcome, ScheduleOutcome]:
    """Schedule all triplets; returns (NOMA outcome, OMA outcome).

    Both schemes see the same fading realization, the same round
    membership (decided on split-free orthogonal times), and the same
    matching machinery, so the comparison isolates the access scheme
    and the superposed total provably never exceeds the orthogonal one.
    """
    if not topology.triplets:
        raise SchedulerError("no triplets to schedule")
    fading = sample_link_gains(config, len(topology.triplets), rng)
    links = build_links(topology, config, fading)
    rounds = _partition_rounds(links, oma_times(links))

    noma_outcome = ScheduleOutcome()
    oma_outcome = ScheduleOutcome()
    for ids in rounds:
        noma_outcome.rounds.append(
            grid_search_alpha(links.subset(ids), config, triplet_ids=ids))
        oma_outcome.rounds.append(_oma_round(links.subset(ids), config, ids))

    return noma_outcome, oma_outcome
