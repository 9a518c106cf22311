"""SBS-to-sub-band scheduling for the information-exchange phase.

Per scheduling round, triplets are matched one-to-one onto sub-bands by
the stable matching, then locally improved by Pareto swaps. The stable
matching is unique, because both sides rank a (triplet, sub-band) pair
by the same completion time, so a greedy walk over the pairs in
ascending time computes it. In a swap, two matched triplets exchange
sub-bands when neither's completion time worsens and at least one
strictly improves; a matched triplet may also relocate to an idle
sub-band when that strictly helps it. Because sub-bands are orthogonal
and the co-receiver coupling is internal to each triplet, untouched
triplets are unaffected by a swap, and one swap step costs O(n^2) in
the n matched triplets.

The power split shared by all triplets in a round is chosen by a grid
search over the inclusive {0, step, ..., 1} grid, minimizing the
round's maximum per-sub-band completion time; the grid's orthogonal
fallback matching is also the round's OMA outcome. The rate kernel runs
once per round over the whole grid. Grid points whose times have the
same dense rank share one matching run, and points whose lower bound
cannot beat the best delay so far are skipped; the search returns what
matching every point would. When triplets outnumber sub-bands,
unmatched triplets defer to later rounds and the total exchange delay
sums the round maxima.
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
    """Both sides' preferences as one order of the (triplet, sub-band)
    pairs: ascending time, ties by triplet then sub-band. Returns the
    triplet and sub-band index arrays (rows, cols) in that order."""
    order = np.argsort(times, axis=None, kind="stable")
    return np.divmod(order, times.shape[1])


def stable_marriage(rows, cols) -> Assignment:
    """The unique stable matching: walk the pairs in preference order and
    keep each whose triplet and sub-band are both free, since it is then
    the first remaining choice of both. Sides may be unequal."""
    holder: dict[int, int] = {}
    matched: set[int] = set()
    for t, s in zip(rows.tolist(), cols.tolist()):
        if s not in holder and t not in matched:
            holder[s] = t
            matched.add(t)
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

    A candidate touches at most two matched pairs, so the maximum over
    the untouched ones is the first of the three largest current times
    that it does not touch; one step costs O(n^2).
    """
    rows = times.tolist()
    matched = sorted(assignment.sb_to_triplet.items())  # (sb, triplet)
    idle = [s for s in range(times.shape[1])
            if s not in assignment.sb_to_triplet]
    current = [rows[t][s] for s, t in matched]
    current_max = max(current, default=0.0)
    top = sorted(range(len(current)), key=current.__getitem__,
                 reverse=True)[:3]

    def others(a: int, b: int = -1) -> float:
        for i in top:
            if i != a and i != b:
                return current[i]
        return 0.0

    best = None  # (resulting_max, from_sb, to_sb)
    n_swaps = 0

    for a, (s1, t1) in enumerate(matched):
        old1 = current[a]
        for b in range(a + 1, len(matched)):
            s2, t2 = matched[b]
            n_swaps += 1
            old2 = current[b]
            new1, new2 = rows[t1][s2], rows[t2][s1]
            pareto = (new1 <= old1 and new2 <= old2
                      and (new1 < old1 or new2 < old2))
            result = max(others(a, b), new1, new2)
            if not pareto and not result < current_max:
                continue
            if best is None or result < best[0]:
                best = (result, s1, s2)
    for a, (s1, t1) in enumerate(matched):
        for s_idle in idle:
            new1 = rows[t1][s_idle]
            result = max(others(a), new1)
            pareto = new1 < current[a]
            if not pareto and not result < current_max:
                continue
            if best is None or result < best[0]:
                best = (result, s1, s_idle)

    if stats is not None:
        stats.iterations += 1
        stats.candidate_swaps_per_iteration.append(n_swaps)
    if best is None:
        return assignment
    if stats is not None:
        stats.accepted_swaps += 1
    result, s1, s2 = best
    assert result <= current_max  # utility never degrades
    mapping = dict(assignment.sb_to_triplet)
    t1, t2 = mapping.pop(s1), mapping.pop(s2, None)
    mapping[s2] = t1
    if t2 is not None:
        mapping[s1] = t2
    new = Assignment(sb_to_triplet=dict(sorted(mapping.items())))
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
    assignment = stable_marriage(*build_preferences(times))
    return swap_until_stable(assignment, times, max_iters)


def grid_search_alpha(links: RoundLinks, config: SimConfig,
                      triplet_ids: np.ndarray | None = None
                      ) -> tuple[RoundOutcome, RoundOutcome]:
    """Pick the common power split minimizing the round's max pair time.

    The rate kernel runs once, over the whole grid. The lowest-delay
    point wins, ties resolved toward the lower split; each point's
    delay is its matching's maximum time at that split. The matching
    (stable matching plus swap loop) compares times only with each
    other, so points whose times have the same dense rank share one
    matching run. When every triplet fits on a sub-band, every triplet
    is matched, so the largest per-triplet minimum time bounds a point's
    delay from below; a point whose bound cannot beat the best delay so
    far is skipped without being matched.

    The orthogonal mode is evaluated as a fallback: on rounds whose
    pairs are too heterogeneous for any single split, the scheduler
    transmits orthogonally instead, so the superposed scheme never does
    worse than the baseline on the same round.

    Returns (superposed, orthogonal): the winning outcome and the
    fallback's own outcome, the same object when the fallback wins.
    """
    step = config.power_grid_step
    if not 0.0 < step <= 1.0:
        raise SchedulerError("empty power grid: step must lie in (0, 1]")
    grid = alpha_grid(step)
    if triplet_ids is None:
        triplet_ids = np.arange(links.num_triplets)
    all_times = noma_times(links, grid[:, None, None])  # (A, T, N)
    if links.num_triplets <= links.num_subbands:
        bounds = all_times.min(axis=2).max(axis=1).tolist()
    else:
        bounds = [-math.inf] * len(grid)
    matchings = {}  # dense rank of times -> (assignment, stats)
    best = None  # (delay, alpha, assignment, stats)
    for a_s, times, bound in zip(grid.tolist(), all_times, bounds):
        if best is not None and bound >= best[0]:
            continue
        key = np.unique(times, return_inverse=True)[1].tobytes()
        if key not in matchings:
            matchings[key] = _match_round(times, config.swap_max_iters)
        assignment, stats = matchings[key]
        delay = assignment.max_time(times)
        if best is None or delay < best[0]:
            best = (delay, a_s, assignment, stats)
    assignment, stats = _match_round(oma_times(links), config.swap_max_iters)
    orthogonal = _round_outcome(links, assignment, None, stats, triplet_ids)
    if orthogonal.round_max < best[0]:
        return orthogonal, orthogonal
    _, a_s, assignment, stats = best
    return (_round_outcome(links, assignment, a_s, stats, triplet_ids),
            orthogonal)


def _partition_rounds(links: RoundLinks, times: np.ndarray) -> list[np.ndarray]:
    """Split triplets into ceil(T/N) rounds: each round is the stable
    matching of the triplets left unmatched by the rounds before it."""
    remaining = np.arange(links.num_triplets)
    rounds = []
    while remaining.size:
        assignment = stable_marriage(*build_preferences(times[remaining]))
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
        superposed, orthogonal = grid_search_alpha(links.subset(ids), config,
                                                   triplet_ids=ids)
        noma_outcome.rounds.append(superposed)
        oma_outcome.rounds.append(orthogonal)

    return noma_outcome, oma_outcome
