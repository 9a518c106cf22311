"""Spans and counts around the public functions of each udnsync layer.

Hooks are installed from outside the package: each hooked name is
rebound in the module where its caller looks it up at call time (for
example ``run_snapshot`` imports ``udnsync.channel.sample_interference_gains``
on every call, and ``grid_search_alpha`` reads ``udnsync.scheduler.noma_times``
from its module globals). Nothing inside ``src/udnsync`` is edited.

A span is (name, start, end, parent span, replication id). Spans stay in
memory and are written out once, at the end of a run. Counts are read
off the objects the hooked functions return (``SyncTrace``,
``ScheduleOutcome``, ``SwapStats``, arrays) at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np


class HookError(RuntimeError):
    """A hook target is missing or not callable."""


class Tracer:
    """In-memory span recorder plus per-replication counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.replication_id = array("l")
        self.counts: list[Counter] = []
        self.hook_calls: Counter = Counter()   # per "module.name" rebound
        self.replication = -1
        self._stack: list[int] = []
        self._grid_matchings = 0
        self._grid_assignments: set | None = None

    def begin_replication(self, index: int) -> None:
        self.replication = index
        while len(self.counts) <= index:
            self.counts.append(Counter())

    def count(self, key: str, value: float = 1) -> None:
        self.counts[self.replication][key] += value

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.replication_id.append(self.replication)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent),
                 replication=np.asarray(self.replication_id))

    def span_totals(self, replications: int,
                    scale=None) -> dict[str, tuple[float, float]]:
        """Per span name: (busy seconds, self seconds), summed over spans of
        replications ``0 .. replications-1``, each optionally multiplied by
        its replication's ``scale``. Self time is busy time minus the time
        covered by direct child spans."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        children = np.zeros_like(dur)
        np.add.at(children, parent[has_parent], dur[has_parent])
        own = dur - children
        rep = np.asarray(self.replication_id)
        keep = rep < replications
        if scale is not None:
            factor = np.asarray(scale)[rep[keep]]
            dur, own = dur[keep] * factor, own[keep] * factor
        else:
            dur, own = dur[keep], own[keep]
        name_id = np.asarray(self.name_id)[keep]
        busy = np.bincount(name_id, dur, minlength=len(self.names))
        self_s = np.bincount(name_id, own, minlength=len(self.names))
        return {n: (float(busy[i]), float(self_s[i]))
                for i, n in enumerate(self.names)}

    def span_calls(self, replications: int) -> Counter:
        keep = np.asarray(self.replication_id) < replications
        ids = np.asarray(self.name_id)[keep]
        return Counter({self.names[i]: int(c)
                        for i, c in enumerate(np.bincount(ids, minlength=len(self.names)))})

    # grid_search_alpha: matchings run and distinct final assignments per call
    def grid_enter(self) -> None:
        self._grid_matchings = 0
        self._grid_assignments = set()

    def grid_exit(self) -> None:
        self.count("grid.calls")
        self.count("grid.matchings", self._grid_matchings)
        self.count("grid.distinct", len(self._grid_assignments))
        self._grid_assignments = None

    def grid_matching(self, assignment) -> None:
        if self._grid_assignments is not None:
            self._grid_matchings += 1
            self._grid_assignments.add(tuple(sorted(assignment.sb_to_triplet.items())))


# -- counters read off return values ---------------------------------------

def _count_gains(tracer, result):
    tracer.count("channel.gains_drawn", result.size)


def _count_cf(tracer, result):
    tracer.count("graph.connectivity_factor", result)


def _count_sync(tracer, trace):
    from udnsync.consensus import DIVERGENCE_SD_S

    for snap in trace.snapshots:
        final = snap.sd_per_iteration[-1]
        diverged = not np.isfinite(final) or final > DIVERGENCE_SD_S
        tracer.count("consensus.iterations_run", len(snap.sd_per_iteration))
        tracer.count("consensus.iterations_charged", snap.iterations_used)
        tracer.count("consensus.snapshots_converged", int(bool(snap.converged)))
        tracer.count("consensus.snapshots_diverged", int(diverged))
        tracer.count("consensus.snapshots_budget",
                     int(not snap.converged and not diverged))


def _count_cells(tracer, result):
    tracer.count("noma.kernel.cells", result.size)


def _count_schedule(tracer, result):
    noma, _oma = result
    tracer.count("scheduler.rounds", len(noma.rounds))
    tracer.count("scheduler.oma_fallback_rounds",
                 sum(r.alpha_strong is None for r in noma.rounds))


def _count_swap(tracer, result):
    assignment, stats = result
    tracer.count("scheduler.swap.iterations", stats.iterations)
    tracer.count("scheduler.swap.accepted", stats.accepted_swaps)
    tracer.count("scheduler.swap.candidates",
                 sum(stats.candidate_swaps_per_iteration))
    tracer.grid_matching(assignment)


# (module, name rebound there, span name, counter on the return value)
HOOKS = (
    ("udnsync.harness", "run_experiment", "harness.run_experiment", None),
    ("udnsync.harness", "emit_csv", "harness.emit_csv", None),
    ("udnsync.harness", "place_nodes", "topology.place_nodes", None),
    ("udnsync.harness", "sample_interference_gains", "channel.sample", _count_gains),
    ("udnsync.channel", "sample_interference_gains", "channel.sample", _count_gains),
    ("udnsync.scheduler", "sample_link_gains", "channel.sample", _count_gains),
    ("udnsync.harness", "build_graph", "graph.build", None),
    ("udnsync.consensus", "build_graph", "graph.build", None),
    ("udnsync.harness", "connectivity_factor", "graph.connectivity_factor", _count_cf),
    ("udnsync.harness", "run_sync", "consensus.run_sync", _count_sync),
    ("udnsync.consensus", "update_proposed", "consensus.update", None),
    ("udnsync.harness", "schedule_exchange", "scheduler.schedule_exchange",
     _count_schedule),
    ("udnsync.scheduler", "grid_search_alpha", "scheduler.grid", None),
    ("udnsync.scheduler", "noma_times", "noma.kernel", _count_cells),
    ("udnsync.scheduler", "oma_times", "noma.kernel", _count_cells),
    ("udnsync.scheduler", "build_preferences", "scheduler.preferences", None),
    ("udnsync.scheduler", "stable_marriage", "scheduler.deferred_acceptance", None),
    ("udnsync.scheduler", "swap_until_stable", "scheduler.swap", _count_swap),
)


def _wrap(tracer: Tracer, target: str, span: str, fn, counter):
    grid = span == "scheduler.grid"

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        tracer.hook_calls[target] += 1
        if grid:
            tracer.grid_enter()
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            if grid:
                tracer.grid_exit()
        if counter is not None:
            counter(tracer, result)
        return result

    return hooked


@contextlib.contextmanager
def hooks(tracer: Tracer, table=HOOKS):
    """Rebind every hooked name for the duration of the block.

    A missing or non-callable target raises ``HookError`` before any
    call is traced; every name rebound so far is restored, on error and
    on exit alike.
    """
    installed = []
    try:
        for module_name, attr, span, counter in table:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise HookError(f"hook target {module_name}.{attr} is missing "
                                f"or not callable; layer {span!r} cannot be traced")
            setattr(module, attr, _wrap(tracer, f"{module_name}.{attr}", span,
                                        original, counter))
            installed.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)


def unseen_hooks(tracer: Tracer, table=HOOKS) -> list[str]:
    """Hooked names that were never called. Each would leave its layer
    reading zero, for example after a function moves to another module
    while its old name stays importable."""
    return [f"{m}.{a}" for m, a, _, _ in table if not tracer.hook_calls[f"{m}.{a}"]]


# -- per-layer metrics ------------------------------------------------------

# (name, unit, better); mirrored by "per_layer" in BENCHMARK.json
PER_LAYER = (
    ("topology.place_nodes.calls", "count", "lower"),
    ("topology.place_nodes.s", "s", "lower"),
    ("channel.sample.calls", "count", "lower"),
    ("channel.sample.s", "s", "lower"),
    ("channel.gains_drawn", "count", "lower"),
    ("graph.build.calls", "count", "lower"),
    ("graph.build.s", "s", "lower"),
    ("graph.connectivity_factor", "ratio", "higher"),
    ("consensus.run_sync.s", "s", "lower"),
    ("consensus.self_s", "s", "lower"),
    ("consensus.update.calls", "count", "lower"),
    ("consensus.update.s", "s", "lower"),
    ("consensus.iterations_run", "count", "lower"),
    ("consensus.iterations_charged", "count", "lower"),
    ("consensus.iter_us", "us", "lower"),
    ("consensus.snapshots_converged", "count", "higher"),
    ("consensus.snapshots_budget", "count", "lower"),
    ("consensus.snapshots_diverged", "count", "lower"),
    ("noma.kernel.calls", "count", "lower"),
    ("noma.kernel.s", "s", "lower"),
    ("noma.kernel.cells", "count", "lower"),
    ("scheduler.schedule_exchange.s", "s", "lower"),
    ("scheduler.self_s", "s", "lower"),
    ("scheduler.rounds", "count", "lower"),
    ("scheduler.grid.points", "count", "lower"),
    ("scheduler.grid.distinct_assignments", "count", "lower"),
    ("scheduler.grid.useful_ratio", "ratio", "higher"),
    ("scheduler.oma_fallback_rounds", "count", "lower"),
    ("scheduler.preferences.calls", "count", "lower"),
    ("scheduler.preferences.s", "s", "lower"),
    ("scheduler.deferred_acceptance.calls", "count", "lower"),
    ("scheduler.deferred_acceptance.s", "s", "lower"),
    ("scheduler.swap.calls", "count", "lower"),
    ("scheduler.swap.s", "s", "lower"),
    ("scheduler.swap.iterations", "count", "lower"),
    ("scheduler.swap.accepted", "count", "lower"),
    ("scheduler.swap.candidates", "count", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.emit_csv.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def layer_metrics(tracer: Tracer, traced_s: list[float], untraced_s: list[float],
                  scale: list[float], count_reps: int) -> dict[str, float]:
    """Per-replication layer figures of a traced run.

    Times are calibrated (each replication's spans times its ``scale``;
    see ``calibration.py``) and average over every traced replication.
    Counts average over the first ``count_reps`` replications only, a
    prefix every run of the same seed completes, so they repeat exactly
    between runs. The overhead and coverage ratios use wall times.

    ``trace.coverage`` is the share of traced replication time spent in
    the self time of a span other than the harness entry: everything but
    ``run_experiment``'s own code and the untimed glue around it.
    """
    n = len(traced_s)
    totals = tracer.span_totals(n, scale)
    wall_totals = tracer.span_totals(n)
    calls = tracer.span_calls(count_reps)
    counts = sum(tracer.counts[:count_reps], Counter())
    all_iterations = sum(c["consensus.iterations_run"] for c in tracer.counts[:n])

    def busy(span):
        return totals.get(span, (0.0, 0.0))[0] / n

    def own(span):
        return totals.get(span, (0.0, 0.0))[1] / n

    values = {
        "consensus.self_s": own("consensus.run_sync"),
        "consensus.iter_us": 1e6 * busy("consensus.run_sync") * n / all_iterations,
        "scheduler.self_s": own("scheduler.schedule_exchange") + own("scheduler.grid"),
        "scheduler.grid.points": counts["grid.matchings"] / counts["grid.calls"],
        "scheduler.grid.distinct_assignments":
            counts["grid.distinct"] / counts["grid.calls"],
        "scheduler.grid.useful_ratio":
            counts["grid.distinct"] / counts["grid.matchings"],
        "harness.self_s": own("harness.run_experiment"),
        "trace.overhead_frac": sum(traced_s) / sum(untraced_s) - 1.0,
        "trace.coverage": sum(own for span, (_, own) in wall_totals.items()
                              if span != "harness.run_experiment") / sum(traced_s),
    }
    for name, _unit, _better in PER_LAYER:
        if name in values:
            continue
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls[stem] / count_reps
        elif kind == "s":
            values[name] = busy(stem)
        else:
            values[name] = counts[name] / count_reps
    return values


def layer_shares(tracer: Tracer, traced_s: list[float]) -> dict[str, float]:
    """Busy time of the two top layer spans and self time of every span
    name, as shares of traced wall time."""
    totals = tracer.span_totals(len(traced_s))
    total = sum(traced_s)
    shares = {f"{span}.busy": totals[span][0] / total
              for span in ("scheduler.schedule_exchange", "consensus.run_sync")
              if span in totals}
    for span, (busy, own) in sorted(totals.items()):
        shares[f"{span}.self"] = own / total
    return shares
