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
from dataclasses import dataclass, fields, replace

import numpy as np

from udnsync.channel import sample_interference_gains
from udnsync.config import FIELD_TYPES, SimConfig
from udnsync.consensus import run_sync
from udnsync.graph import build_graph, connectivity_factor, path_gain
from udnsync.scheduler import schedule_exchange
from udnsync.topology import place_nodes


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep; it checks itself when made, as its base config does."""

    scenario: str
    swept_parameter: str
    sweep_values: tuple
    replications: int
    base_config: SimConfig

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if FIELD_TYPES.get(self.swept_parameter) not in (int, float):
            raise HarnessError(
                f"cannot sweep {self.swept_parameter!r}: not an int or "
                f"float field of SimConfig")
        if self.swept_parameter == "rng_seed":
            raise HarnessError("cannot sweep 'rng_seed': replications are "
                               "seeded from the base config")
        if not self.sweep_values:
            raise HarnessError("sweep values must be nonempty")
        if FIELD_TYPES[self.swept_parameter] is int and not all(
                float(v).is_integer() for v in self.sweep_values):
            raise HarnessError(
                f"cannot sweep {self.swept_parameter!r} over "
                f"{self.sweep_values}: not all integral")
        if self.replications < 1:
            raise HarnessError("replications must be >= 1")
        for value in self.sweep_values:  # each point's config checks itself
            self.config_at(value)

    def config_at(self, value) -> SimConfig:
        """The base config with the swept field set to ``value``."""
        name = self.swept_parameter
        return replace(self.base_config, **{name: FIELD_TYPES[name](value)})


@dataclass
class ResultRow:
    sweep_value: float
    cf_mean: float = math.nan     # metrics stay NaN on a failed point
    n_avg: float = math.nan
    algorithmic_time: float = math.nan
    exchange_delay_noma: float = math.nan
    exchange_delay_oma: float = math.nan
    t_sync_noma: float = math.nan
    t_sync_oma: float = math.nan
    noma_gain_pct: float = math.nan
    t_sync_noma_ci: float = 0.0   # 1.96 * standard error across replications
    t_sync_oma_ci: float = 0.0
    error: str = ""


def _replicate(config: SimConfig, rng: np.random.Generator) -> tuple:
    """One replication: (cf, n_avg, algorithmic_time, delay_noma, delay_oma)."""
    topology = place_nodes(config, rng)
    gains = sample_interference_gains(config, rng)
    adjacency = build_graph(config.tx_power_w,
                            path_gain(topology, config.path_loss_exp), gains,
                            config.power_threshold_w)
    cf = connectivity_factor(adjacency)
    trace = run_sync(config, topology, rng)
    noma, oma = schedule_exchange(topology, config, rng)
    return (cf, trace.mean_iterations, trace.algorithmic_time,
            noma.exchange_delay_total, oma.exchange_delay_total)


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Sweep, replicate, aggregate means and 95% half-widths per point.

    A failing sweep point yields a NaN-filled row carrying the error
    message instead of aborting the remaining points.
    """
    root = np.random.SeedSequence(spec.base_config.rng_seed)
    point_seeds = root.spawn(len(spec.sweep_values))
    rows = []
    for value, point_seed in zip(spec.sweep_values, point_seeds):
        try:
            config = spec.config_at(value)
            runs = sorted(  # order-independent
                _replicate(config, np.random.default_rng(child))
                for child in point_seed.spawn(spec.replications))
            columns = np.array(runs).T  # one row per _replicate field
            cf, n_avg, algo, d_noma, d_oma = (float(c.mean()) for c in columns)
            t_noma = columns[2] + columns[3]  # algorithmic + exchange time
            t_oma = columns[2] + columns[4]
            n = len(runs)
            ci = lambda x: (1.96 * float(x.std(ddof=1)) / math.sqrt(n)
                            if n > 1 else 0.0)
            rows.append(ResultRow(
                sweep_value=float(value),
                cf_mean=cf,
                n_avg=n_avg,
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


# name -> (swept SimConfig field, sweep values, the preset's own overrides)
_PRESETS = {
    "fig4": ("power_threshold_dbm", (-100.0, -90.0, -80.0, -70.0, -60.0),
             dict(max_snapshots=1)),
    "fig5": ("num_subbands", (5, 10, 15), dict(num_nodes=90)),
    "fig6": ("fading_param", (0.5, 1.0, 2.0, 4.0),
             dict(fading_kind="rayleigh")),
    # noise 20 dB below the -114 dBm/Hz of both scales: a higher SNR
    "fig7": ("fading_param", (1.0, 3.0),
             dict(fading_kind="nakagami", noise_density_dbm_hz=-134.0)),
    "fig8": ("num_subbands", (2, 3, 4), dict(num_nodes=36)),
}
PRESETS = tuple(_PRESETS)


def preset(name: str, base: SimConfig, replications: int = 50,
           full_scale: bool = False) -> ExperimentSpec:
    """Named experiment layouts.

    fig4: threshold sweep (connectivity vs iterations);
    fig5: sub-band count sweep at fixed network size;
    fig6: Rayleigh mean-gain sweep; fig7: Nakagami shape sweep;
    fig8: sub-band sweep sized for swap-iteration statistics.

    The base carries the first sweep value, so the scenario's own value of
    the swept field need not suit the preset (fig7 on a Rayleigh mean 0.3).
    """
    if name not in _PRESETS:
        raise HarnessError(f"unknown preset {name!r}")
    swept, values, own = _PRESETS[name]
    scale = _FULL_SCALE if full_scale else _DESK_SCALE
    return ExperimentSpec(name, swept, values, replications,
                          replace(base, **{**scale, **own, swept: values[0]}))
