"""Experiment driver: sweeps, replications, and CSV emission.

An experiment sweeps one parameter over a list of values; each sweep
point runs independent replications that build a topology, run the
clock-alignment phase, and schedule the information exchange under both
access schemes. Total synchronization time is the algorithmic time (one
signaling period per averaging iteration) plus the exchange delay.
Replication seeds are spawned from the base seed, so results are
reproducible and independent of execution order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from udnsync.channel import sample_interference_gains
from udnsync.config import FadingSpec, SimConfig
from udnsync.consensus import run_sync
from udnsync.graph import build_graph, connectivity_factor
from udnsync.scheduler import schedule_exchange
from udnsync.topology import place_nodes

SWEEPABLE = ("power_threshold_dbm", "num_nodes", "num_subbands",
             "fading_mean", "nakagami_m")


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: str
    swept_parameter: str
    sweep_values: tuple
    replications: int
    base_config: SimConfig
    output_dir: str = "."

    def validate(self) -> None:
        if self.swept_parameter not in SWEEPABLE:
            raise HarnessError(
                f"unknown swept parameter {self.swept_parameter!r}; "
                f"choose one of {SWEEPABLE}")
        if not self.sweep_values:
            raise HarnessError("sweep values must be nonempty")
        if self.replications < 1:
            raise HarnessError("replications must be >= 1")
        self.base_config.validate()

    def config_at(self, value) -> SimConfig:
        name = self.swept_parameter
        if name == "fading_mean":
            overrides = {"fading": FadingSpec("rayleigh", float(value))}
        elif name == "nakagami_m":
            overrides = {"fading": FadingSpec("nakagami", float(value))}
        elif name in ("num_nodes", "num_subbands"):
            overrides = {name: int(value)}
        else:
            overrides = {name: float(value)}
        return self.base_config.with_overrides(**overrides)


@dataclass
class ResultRow:
    sweep_value: float
    cf_mean: float
    n_avg: float
    algorithmic_time: float
    exchange_delay_noma: float
    exchange_delay_oma: float
    t_sync_noma: float
    t_sync_oma: float
    noma_gain_pct: float
    t_sync_noma_ci: float = 0.0   # 1.96 * standard error across replications
    t_sync_oma_ci: float = 0.0
    error: str = ""


def _replicate(config: SimConfig, rng: np.random.Generator) -> dict:
    """One replication; returns the per-run metrics."""
    topology = place_nodes(config, rng)
    gains = sample_interference_gains(config, rng)
    graph = build_graph(config.tx_power_w, topology, gains,
                        config.power_threshold_w, config.path_loss_exp)
    cf = connectivity_factor(graph)
    trace = run_sync(config, topology, rng)
    noma, oma = schedule_exchange(topology, config, rng)
    return {
        "cf": cf,
        "n_avg": trace.mean_iterations,
        "algorithmic_time": trace.algorithmic_time,
        "delay_noma": noma.exchange_delay_total,
        "delay_oma": oma.exchange_delay_total,
    }


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Sweep, replicate, aggregate means and 95% half-widths per point.

    A failing sweep point yields a NaN-filled row carrying the error
    message instead of aborting the remaining points.
    """
    spec.validate()
    root = np.random.SeedSequence(spec.base_config.rng_seed)
    point_seeds = root.spawn(len(spec.sweep_values))
    rows = []
    for value, point_seed in zip(spec.sweep_values, point_seeds):
        try:
            config = spec.config_at(value)
            runs = []
            for child in point_seed.spawn(spec.replications):
                runs.append(_replicate(config, np.random.default_rng(child)))
            runs.sort(key=lambda r: tuple(r.values()))  # order-independent
            algo = float(np.mean([r["algorithmic_time"] for r in runs]))
            d_noma = float(np.mean([r["delay_noma"] for r in runs]))
            d_oma = float(np.mean([r["delay_oma"] for r in runs]))
            t_noma = np.array([r["algorithmic_time"] + r["delay_noma"]
                               for r in runs])
            t_oma = np.array([r["algorithmic_time"] + r["delay_oma"]
                              for r in runs])
            n = len(runs)
            ci = lambda x: (1.96 * float(x.std(ddof=1)) / math.sqrt(n)
                            if n > 1 else 0.0)
            rows.append(ResultRow(
                sweep_value=float(value),
                cf_mean=float(np.mean([r["cf"] for r in runs])),
                n_avg=float(np.mean([r["n_avg"] for r in runs])),
                algorithmic_time=algo,
                exchange_delay_noma=d_noma,
                exchange_delay_oma=d_oma,
                t_sync_noma=algo + d_noma,
                t_sync_oma=algo + d_oma,
                noma_gain_pct=100.0 * (d_oma - d_noma) / (algo + d_oma),
                t_sync_noma_ci=ci(t_noma),
                t_sync_oma_ci=ci(t_oma),
            ))
        except Exception as exc:  # record the failure, keep sweeping
            rows.append(ResultRow(sweep_value=float(value),
                                  cf_mean=math.nan, n_avg=math.nan,
                                  algorithmic_time=math.nan,
                                  exchange_delay_noma=math.nan,
                                  exchange_delay_oma=math.nan,
                                  t_sync_noma=math.nan, t_sync_oma=math.nan,
                                  noma_gain_pct=math.nan,
                                  error=f"{type(exc).__name__}: {exc}"))
    return rows


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write rows as UTF-8 CSV; float repr keeps round-trip fidelity."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([
                    repr(v) if isinstance(v, float) else v
                    for v in (getattr(row, c) for c in CSV_COLUMNS)
                ])
    except OSError as exc:
        raise HarnessError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path) -> list[ResultRow]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [ResultRow(**{c: r[c] if c == "error" else float(r[c])
                             for c in CSV_COLUMNS}) for r in reader]


# ---------------------------------------------------------------------------
# scenario presets (desk-scale shrink of the full-size reference setup)


# Network size, consensus budget and noise density per scale. A preset's own
# overrides are applied after these, because they define the experiment.
_DESK_SCALE = dict(num_nodes=60, max_snapshots=3, max_iters=300,
                   noise_density_dbm_hz=-114.0)
_FULL_SCALE = dict(num_nodes=250, max_snapshots=100, max_iters=20000,
                   noise_density_dbm_hz=-114.0)


def preset(name: str, base: SimConfig, replications: int = 50,
           full_scale: bool = False) -> ExperimentSpec:
    """Named experiment layouts.

    fig4: threshold sweep (connectivity vs iterations);
    fig5: sub-band count sweep at fixed network size;
    fig6: Rayleigh mean-gain sweep; fig7: Nakagami shape sweep;
    fig8: sub-band sweep sized for swap-iteration statistics.
    """
    scale = _FULL_SCALE if full_scale else _DESK_SCALE

    def config(**own) -> SimConfig:
        return base.with_overrides(**{**scale, **own})

    if name == "fig4":
        return ExperimentSpec(name, "power_threshold_dbm",
                              (-100.0, -90.0, -80.0, -70.0, -60.0),
                              replications, config(max_snapshots=1))
    if name == "fig5":
        return ExperimentSpec(name, "num_subbands", (5, 10, 15),
                              replications, config(num_nodes=90))
    if name == "fig6":
        return ExperimentSpec(name, "fading_mean", (0.5, 1.0, 2.0, 4.0),
                              replications, config())
    if name == "fig7":
        # the shape-parameter effect on the gain is clearest at low SNR
        return ExperimentSpec(name, "nakagami_m", (1.0, 3.0),
                              replications, config(noise_density_dbm_hz=-134.0))
    if name == "fig8":
        return ExperimentSpec(name, "num_subbands", (2, 3, 4),
                              replications, config(num_nodes=36))
    raise HarnessError(f"unknown preset {name!r}")


PRESETS = ("fig4", "fig5", "fig6", "fig7", "fig8")
