"""Benchmark workloads, the replication they time, and its output checks.

A workload is one sweep point of a harness preset. One replication is
one call of the public harness entry, ``run_experiment``, on an
``ExperimentSpec`` with that single sweep value and one replication,
followed by ``emit_csv`` of the returned row. Replication ``i`` of a run
with workload seed ``s`` uses ``rng_seed = s * SEED_STRIDE + i``, so the
same seed gives the same inputs and different seeds share none.

Import this module only after ``source.use_source_tree()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

from udnsync import harness
from udnsync.config import SimConfig

SEED_STRIDE = 1_000_000
REFERENCE_SEED = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    sweep_value: float
    full_scale: bool
    base: SimConfig
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "exchange-narrow", "fig5", 5, False, SimConfig(),
        "desk fig5 at 5 sub-bands: 6 rounds of 5x5 matchings at 402 grid "
        "points each; the rate kernel, preferences and deferred acceptance "
        "carry most of the scheduler time"),
    Workload(
        "exchange-wide", "fig5", 10, False, SimConfig(),
        "desk fig5 at 10 sub-bands: 3 rounds of 10x10 matchings; the "
        "O(n^3)-per-iteration swap loop dominates and its iteration count "
        "varies by seed"),
    Workload(
        "consensus-full", "fig6", 1.0, True, SimConfig(power_grid_step=0.25),
        "full-scale fig6 at fading mean 1.0 (K=250, 100 snapshots): channel "
        "draws, graph builds and consensus updates dominate; the coarse "
        "power grid keeps the exchange phase small"),
)}


def template_spec(workload: Workload) -> harness.ExperimentSpec:
    """The workload's validated single-point, single-replication spec."""
    spec = harness.preset(workload.preset, workload.base, replications=1,
                          full_scale=workload.full_scale)
    spec = dataclasses.replace(spec, sweep_values=(workload.sweep_value,))
    spec.validate()
    return spec


def replication_spec(template: harness.ExperimentSpec, seed: int,
                     index: int) -> harness.ExperimentSpec:
    config = dataclasses.replace(template.base_config,
                                 rng_seed=seed * SEED_STRIDE + index)
    return dataclasses.replace(template, base_config=config)


def replicate(spec: harness.ExperimentSpec, csv_path: Path) -> list:
    """The timed unit. Names are looked up on ``harness`` at call time so
    that tracing hooks installed there are seen."""
    rows = harness.run_experiment(spec)
    harness.emit_csv(rows, csv_path)
    return rows


def check_rows(rows: list, spec: harness.ExperimentSpec) -> list[str]:
    """Broken invariants of one replication's rows; empty when correct."""
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    row = rows[0]
    if row.error:
        return [f"error: {row.error}"]
    problems = []
    for field in dataclasses.fields(row):
        value = getattr(row, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{field.name} is {value!r}")
    if row.exchange_delay_noma > row.exchange_delay_oma:
        problems.append("exchange_delay_noma > exchange_delay_oma")
    if not 0.0 <= row.cf_mean <= 2.0:
        problems.append(f"cf_mean {row.cf_mean!r} outside [0, 2]")
    max_iters = spec.config_at(spec.sweep_values[0]).max_iters
    if row.n_avg > max_iters:
        problems.append(f"n_avg {row.n_avg!r} > max_iters {max_iters}")
    return problems


def reference_digest(template: harness.ExperimentSpec, csv_path: Path) -> str:
    """sha256 of the ``emit_csv`` bytes of the reference-seed replication."""
    replicate(replication_spec(template, REFERENCE_SEED, 0), csv_path)
    return hashlib.sha256(csv_path.read_bytes()).hexdigest()
