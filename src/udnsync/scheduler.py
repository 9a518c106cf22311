"""SBS-to-sub-band scheduling for the information-exchange phase.

Per scheduling round, triplets are matched one-to-one onto sub-bands by
the stable matching, then locally improved by Pareto swaps. The stable
matching is unique, because both sides rank a (triplet, sub-band) pair
by the same completion time, so a greedy walk over the pairs in
ascending time computes it. In a swap, two matched triplets exchange
sub-bands when neither's completion time worsens and at least one
strictly improves; a matched triplet may also relocate to an idle
sub-band when that strictly helps it. The swap loop keeps the matching
as an owner list, the triplet on each sub-band or None, and every move
swaps two owners. Because sub-bands are orthogonal and the co-receiver
coupling is internal to each triplet, untouched triplets are unaffected
by a swap. So only the moves of the bottleneck triplet can lower the
round's maximum: a swap step prices those n - 1 exchanges and
relocations and takes the first that lowers the maximum most, and
failing that, the first Pareto move in enumeration order.

The power split shared by all triplets in a round is chosen by a grid
search over the inclusive {0, step, ..., 1} grid, minimizing the
round's maximum per-sub-band completion time; the grid's orthogonal
fallback matching is also the round's OMA outcome. The rate kernel runs
once per round over the whole grid, in one workspace that a schedule
holds for all its rounds. The walk matches the point with the lowest
bottleneck lower bound on its delay, then every point whose bound is
below that first delay, one table by the scalar walk and more as one
stack; no other point can win. A round outcome keeps its links, from
which ``ScheduleOutcome.to_csv`` derives the per-leg times it writes.
When triplets outnumber sub-bands, unmatched triplets defer to later
rounds and the total exchange delay sums the round maxima.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from udnsync.channel import sample_link_gains
from udnsync.config import SimConfig
from udnsync.noma import (KernelWorkspace, RoundLinks, noma_leg_times,
                          noma_times, oma_leg_times, oma_times)
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
    nodes = np.array(triplets)
    dist = topology.distance_matrix[nodes[:, :1], nodes[:, 1:]]
    alpha = config.path_loss_exp
    # scalar powers (libm's pow): the array power may differ in the last bit
    loss = np.reshape([d ** -alpha for d in dist.ravel()], (-1, 1, 2))
    eff = fading_gains * loss
    if not np.isfinite(eff).all():
        raise SchedulerError("non-finite effective gain, e.g. a receiver "
                             "placed on its transmitter")
    return RoundLinks(
        gain_strong=np.maximum(eff[:, :, 0], eff[:, :, 1]),
        gain_weak=np.minimum(eff[:, :, 0], eff[:, :, 1]),
        tx_power_w=config.tx_power_w,
        noise_w=config.noise_w,
        bandwidth_hz=config.subband_bandwidth_hz,
        payload_bits=config.payload_bits,
    )


# ---------------------------------------------------------------------------
# matching


@dataclass
class Assignment:
    """Partial one-to-one map sub-band -> triplet."""

    sb_to_triplet: dict[int, int] = field(default_factory=dict)

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
    the first remaining choice of both. Sides may be unequal; the walk
    stops once it holds min(T, N) pairs, as one side is then full and no
    later pair can be kept."""
    rows, cols = rows.tolist(), cols.tolist()
    size = min(max(rows), max(cols)) + 1
    holder: dict[int, int] = {}
    matched: set[int] = set()
    for t, s in zip(rows, cols):
        if s not in holder and t not in matched:
            holder[s] = t
            matched.add(t)
            if len(holder) == size:
                break
    return Assignment(sb_to_triplet=dict(sorted(holder.items())))


@dataclass
class SwapStats:
    iterations: int = 0
    accepted_swaps: int = 0
    candidate_swaps_per_iteration: list[int] = field(default_factory=list)


def swap_until_stable(assignment: Assignment, times: np.ndarray,
                      max_iters: int) -> tuple[Assignment, SwapStats]:
    """Apply the best admissible swap until none is left or the cap is hit.

    The loop runs on ``owner``, where ``owner[s]`` is the triplet on
    sub-band s or None when s is idle; a move swaps two owners. It is an
    exchange between two matched triplets, or a relocation of a matched
    triplet to an idle sub-band. A move is admissible when it helps some
    involved triplet without hurting the other (Pareto), or when it
    strictly lowers the round's maximum per-sub-band time; the
    admissible move minimizing that maximum wins, ties broken by
    enumeration order (ascending sub-bands, exchanges before
    relocations). The maximum never increases, so the loop terminates.

    A move that leaves the bottleneck pair k (the first matched pair at
    the maximum) in place cannot lower the maximum, and if Pareto it
    keeps it. So a step first prices only k's moves and takes the first
    that lowers the maximum most; failing that, every admissible move
    keeps the maximum, and the first Pareto move wins.
    """
    rows = times.tolist()
    owner: list[int | None] = [None] * times.shape[1]
    for s, t in assignment.sb_to_triplet.items():
        owner[s] = t
    n = len(assignment.sb_to_triplet)
    stats = SwapStats()
    for _ in range(max_iters):
        stats.iterations += 1
        stats.candidate_swaps_per_iteration.append(n * (n - 1) // 2)
        move = _best_move(rows, owner)
        if move is None:
            break
        s1, s2 = move
        owner[s1], owner[s2] = owner[s2], owner[s1]
        stats.accepted_swaps += 1
    return Assignment(sb_to_triplet={s: t for s, t in enumerate(owner)
                                     if t is not None}), stats


def _best_move(rows, owner):
    """The winning move (s1, s2) of one swap step, or None."""
    matched = [s for s, t in enumerate(owner) if t is not None]
    if not matched:
        return None
    idle = [s for s, t in enumerate(owner) if t is None]
    current = [rows[owner[s]][s] for s in matched]
    n = len(matched)
    top = sorted(range(n), key=current.__getitem__, reverse=True)[:3]
    k, best = top[0], current[top[0]]
    # the maximum over the pairs that a move of k leaves alone
    second = current[top[1]] if n > 1 else 0.0
    third = current[top[2]] if n > 2 else 0.0
    s_k = matched[k]
    row_k, move = rows[owner[s_k]], None
    for b, s2 in enumerate(matched):
        if b != k:
            result = max(third if b == top[1] else second, row_k[s2],
                         rows[owner[s2]][s_k])
            if result < best:
                best, move = result, (s_k, s2)
    for s2 in idle:
        result = max(second, row_k[s2])
        if result < best:
            best, move = result, (s_k, s2)
    if move is not None:
        return move
    for a, s1 in enumerate(matched):
        row1, old1 = rows[owner[s1]], current[a]
        for b in range(a + 1, n):
            s2 = matched[b]
            new1, new2, old2 = row1[s2], rows[owner[s2]][s1], current[b]
            if (new1 <= old1 and new2 <= old2
                    and (new1 < old1 or new2 < old2)):
                return s1, s2
    for a, s1 in enumerate(matched):
        row1, old1 = rows[owner[s1]], current[a]
        for s2 in idle:
            if row1[s2] < old1:
                return s1, s2
    return None


def _match_stack(times: np.ndarray, max_iters: int):
    """``swap_until_stable(stable_marriage(*build_preferences(t)), t,
    max_iters)`` for every table t of a (P, T, N) stack, as array
    operations over the stack. Returns (owner, delay, iterations,
    accepted): owner[p, s] is the triplet on sub-band s of table p, or -1
    when s is idle, delay[p] is the largest time that table p's matching
    holds, and the last two are each table's swap steps and accepted moves.
    """
    num_p, num_t, num_s = times.shape
    size, n = num_t * num_s, min(num_t, num_s)
    tables = np.arange(num_p)
    # the stable walk keeps, at each step, the free pair that comes first
    # in preference order: the least order position left once the rows
    # and columns already matched are blanked with a position past the end
    rank = np.empty((num_p, size), dtype=np.intp)
    rank[tables[:, None], np.argsort(times.reshape(num_p, size), axis=1,
                                     kind="stable")] = np.arange(size)
    rank = rank.reshape(times.shape)
    owner = np.full((num_p, num_s), -1)
    for _ in range(n):
        t, s = np.divmod(rank.reshape(num_p, size).argmin(axis=1), num_s)
        owner[tables, s] = t
        rank[tables, t, :] = size
        rank[tables, :, s] = size
    # the swap loop, one _best_move step for every table still moving. An
    # idle sub-band's owner, -1, indexes a phantom triplet whose times are
    # all -inf: its current time is below every matched one, so it is
    # never among the three largest, and exchanging k with it prices k's
    # relocation there, while a Pareto exchange with it is a relocation
    # that helps the other triplet.
    padded = np.concatenate([times, np.full((num_p, 1, num_s), -np.inf)],
                            axis=1)
    idle = n < num_s
    subbands = np.arange(num_s)
    iterations = np.zeros(num_p, dtype=np.intp)
    accepted = np.zeros(num_p, dtype=np.intp)
    active = tables
    for _ in range(max_iters):
        if not active.size:
            break
        iterations[active] += 1
        own = owner[active]
        rows = np.arange(active.size)
        # cost[p, s, s2]: the time of sub-band s's triplet on sub-band s2
        cost = padded[active[:, None], own]
        current = cost[:, subbands, subbands]
        # the bottleneck k and the two largest times after it, first
        # occurrences winning ties, as in _best_move's stable sort
        k = current.argmax(axis=1)
        best = current[rows, k]
        rest = current.copy()
        rest[rows, k] = -np.inf
        k2 = rest.argmax(axis=1)
        second = rest[rows, k2] if n > 1 else np.zeros(active.size)
        rest[rows, k2] = -np.inf
        third = rest.max(axis=1) if n > 2 else np.zeros(active.size)
        # the maximum after moving k to each sub-band, laid out as in
        # _best_move: exchanges by ascending sub-band, then relocations;
        # k's own entry is its current maximum, so it never wins
        value = np.maximum(
            np.where(subbands == k2[:, None], third[:, None], second[:, None]),
            np.maximum(cost[rows, k], cost[rows, :, k]))
        if idle:
            on = own >= 0
            value = np.concatenate([np.where(on, value, np.inf),
                                    np.where(on, np.inf, value)], axis=1)
        first = value.argmin(axis=1)
        moved = value[rows, first] < best
        flat = k * num_s + first % num_s
        if not moved.all():
            # failing that, the first Pareto exchange, then the first
            # relocation that helps, each in row-major (s1, s2) order; the
            # exchanges are symmetric in (s1, s2) and never (s, s), so the
            # first lies above the diagonal, where _best_move scans
            old1, old2 = current[:, :, None], current[:, None, :]
            swapped = cost.transpose(0, 2, 1)
            moves = ((cost <= old1) & (swapped <= old2)
                     & ((cost < old1) | (swapped < old2)))
            if idle:
                from_on = on[:, :, None]
                moves = np.concatenate([moves & from_on & on[:, None, :],
                                        moves & from_on & ~on[:, None, :]],
                                       axis=1)
            moves = moves.reshape(active.size, -1)
            pick = moves.argmax(axis=1)
            flat = np.where(moved, flat, pick % (num_s * num_s))
            moved |= moves[rows, pick]
        s1, s2 = np.divmod(flat[moved], num_s)
        active = active[moved]
        owner[active, s1], owner[active, s2] = (owner[active, s2],
                                                owner[active, s1])
        accepted[active] += 1
    delay = padded[tables[:, None], owner, subbands].max(axis=1)
    return owner, delay, iterations, accepted


def _match_lowest(times: np.ndarray, points: list[int], max_iters: int):
    """The lowest (delay, point) over the tables ``times[points]``, with
    its Assignment and SwapStats. One table takes the scalar path, more
    take one ``_match_stack`` call, whose fixed cost only many repay."""
    if len(points) == 1:
        table = times[points[0]]
        assignment, stats = swap_until_stable(
            stable_marriage(*build_preferences(table)), table, max_iters)
        return assignment.max_time(table), points[0], assignment, stats
    owner, delays, iters, accepted = _match_stack(times[points], max_iters)
    delay, point, p = min(zip(delays.tolist(), points, range(len(points))))
    assignment = Assignment(sb_to_triplet={
        s: t for s, t in enumerate(owner[p].tolist()) if t >= 0})
    n, steps = len(assignment.sb_to_triplet), int(iters[p])
    return delay, point, assignment, SwapStats(
        steps, int(accepted[p]), [n * (n - 1) // 2] * steps)


# ---------------------------------------------------------------------------
# rounds, grid search, schedule


@dataclass
class RoundOutcome:
    assignment: Assignment
    alpha_strong: float | None      # None for the orthogonal baseline
    round_max: float
    swap_stats: SwapStats
    triplet_ids: np.ndarray         # global triplet index per local row
    links: RoundLinks               # this round's triplets, local rows


@dataclass
class ScheduleOutcome:
    rounds: list[RoundOutcome] = field(default_factory=list)

    @property
    def exchange_delay_total(self) -> float:
        return float(sum(r.round_max for r in self.rounds))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "sub_band", "triplet", "alpha",
                             "t_strong", "t_weak", "t_pair"])
            for i, rnd in enumerate(self.rounds, start=1):
                legs = (oma_leg_times(rnd.links) if rnd.alpha_strong is None
                        else noma_leg_times(rnd.links, rnd.alpha_strong))
                for s, t in sorted(rnd.assignment.sb_to_triplet.items()):
                    t_strong, t_weak = (float(leg[t, s]) for leg in legs)
                    writer.writerow([
                        i, s, int(rnd.triplet_ids[t]),
                        "" if rnd.alpha_strong is None else rnd.alpha_strong,
                        repr(t_strong), repr(t_weak),
                        repr(max(t_strong, t_weak)),
                    ])


def _min_over(tensor: np.ndarray, axis: int) -> np.ndarray:
    """``tensor.min(axis)`` for a short axis, folded one slice at a time
    with ``np.minimum``; the same bits, since min only selects."""
    slices = np.moveaxis(tensor, axis, 0)
    out = slices[0].copy()
    for part in slices[1:]:
        np.minimum(out, part, out=out)
    return out


def alpha_grid(step: float) -> np.ndarray:
    """Inclusive power-split grid {0, step, ..., 1}."""
    if not 0.0 < step <= 1.0:
        raise SchedulerError("empty power grid: step must lie in (0, 1]")
    n = 1.0 / step
    if abs(n - round(n)) > 1e-9 * n:  # SimConfig.validate's tolerance
        raise SchedulerError("power grid step must divide 1 evenly")
    return np.linspace(0.0, 1.0, round(n) + 1)


def grid_search_alpha(links: RoundLinks, config: SimConfig,
                      triplet_ids: np.ndarray | None = None,
                      workspace: KernelWorkspace | None = None
                      ) -> tuple[RoundOutcome, RoundOutcome]:
    """Pick the common power split minimizing the round's max pair time.

    The rate kernel runs once, over the whole grid, in ``workspace``
    (see ``noma_leg_times``). The lowest-delay
    point wins, ties resolved toward the lower split; each point's
    delay is its matching's maximum time at that split. When T <= N
    every triplet is matched, and when T >= N every sub-band is, so the
    largest per-triplet (resp. per-sub-band) minimum time bounds a
    point's delay from below (Gross 1959), and a point whose (bound,
    index) is not below the best (delay, index) found cannot win.

    The walk matches the point lowest in (bound, index), then every other
    point whose (bound, index) is below that point's (delay, index). The
    points ascend in (bound, index), so each point left is at or above
    that first (delay, index), which the best only lowers, and none of
    them can win: the result is the argmin of (delay, index) over the
    whole grid, with the assignment and swap stats that matching that
    point alone gives. ``_match_lowest`` makes every matching, the
    orthogonal one too: one table by the scalar path, more as one stack.

    The orthogonal mode is evaluated as a fallback: on rounds whose
    pairs are too heterogeneous for any single split, the scheduler
    transmits orthogonally instead, so the superposed scheme never does
    worse than the baseline on the same round.

    Returns (superposed, orthogonal): the winning outcome and the
    fallback's own outcome, the same object when the fallback wins.
    """
    grid = alpha_grid(config.power_grid_step)
    if triplet_ids is None:
        triplet_ids = np.arange(links.num_triplets)
    all_times = noma_times(links, grid[:, None, None], workspace)  # (A, T, N)
    num_t, num_s = links.num_triplets, links.num_subbands
    bound = np.maximum(  # -inf where that side may be left partly unmatched
        _min_over(all_times, 2).max(axis=1) if num_t <= num_s else -np.inf,
        _min_over(all_times, 1).max(axis=1) if num_t >= num_s else -np.inf)
    bounds = bound.tolist()
    order = np.argsort(bound, kind="stable").tolist()
    max_iters = config.swap_max_iters
    best = _match_lowest(all_times, order[:1], max_iters)
    rivals = list(itertools.takewhile(lambda i: (bounds[i], i) < best[:2],
                                      order[1:]))
    if rivals:
        best = min(best, _match_lowest(all_times, rivals, max_iters),
                   key=lambda match: match[:2])
    oma = oma_times(links)
    delay, _, assignment, stats = _match_lowest(oma[None], [0], max_iters)
    orthogonal = RoundOutcome(assignment, None, delay, stats, triplet_ids,
                              links)
    if orthogonal.round_max < best[0]:
        return orthogonal, orthogonal
    delay, i, assignment, stats = best
    return (RoundOutcome(assignment, float(grid[i]), delay, stats,
                         triplet_ids, links),
            orthogonal)


def _partition_rounds(times: np.ndarray) -> list[np.ndarray]:
    """Split triplets into ceil(T/N) rounds: each round is the stable
    matching of the triplets left unmatched by the rounds before it."""
    remaining = np.arange(times.shape[0])
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
    One rate-kernel workspace serves every round.
    """
    fading = sample_link_gains(config, len(topology.triplets), rng)
    links = build_links(topology, config, fading)
    rounds = _partition_rounds(oma_times(links))
    workspace = KernelWorkspace()

    noma_outcome = ScheduleOutcome()
    oma_outcome = ScheduleOutcome()
    for ids in rounds:
        superposed, orthogonal = grid_search_alpha(links.subset(ids), config,
                                                   triplet_ids=ids,
                                                   workspace=workspace)
        noma_outcome.rounds.append(superposed)
        oma_outcome.rounds.append(orthogonal)

    return noma_outcome, oma_outcome
