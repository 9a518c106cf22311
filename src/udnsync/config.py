"""Simulation configuration and unit conversions.

All radio quantities enter the simulator in dB units (dBm, dBm/Hz) and
are converted to linear watts at this boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path


def dbm_to_watts(dbm: float) -> float:
    """Convert a dBm level to watts. -inf maps to 0 W."""
    if dbm == -math.inf:
        return 0.0
    return 10.0 ** ((dbm - 30.0) / 10.0)


class ConfigError(ValueError):
    """Raised when a configuration violates its invariants."""


@dataclass(frozen=True)
class FadingSpec:
    """Small-scale fading model for power gains.

    kind 'rayleigh': power gain ~ Exponential(mean).
    kind 'nakagami': power gain ~ Gamma(shape=m, scale=1/m), unit mean,
    so the mean channel power is held constant across shape values.
    """

    kind: str = "rayleigh"
    param: float = 1.0  # exponential mean, or Nakagami shape m

    def validate(self) -> None:
        if self.kind not in ("rayleigh", "nakagami"):
            raise ConfigError(f"unknown fading kind {self.kind!r}")
        if not math.isfinite(self.param):
            raise ConfigError("fading param must be finite")
        if self.kind == "rayleigh" and self.param <= 0:
            raise ConfigError("rayleigh mean must be > 0")
        if self.kind == "nakagami" and self.param < 0.5:
            raise ConfigError("nakagami shape m must be >= 0.5")


@dataclass(frozen=True)
class SimConfig:
    """Every tunable of the simulator, with desk-scale defaults."""

    num_nodes: int = 60                  # K
    num_subbands: int = 5                # N
    tx_power_dbm: float = 23.0
    power_threshold_dbm: float = -110.0  # P0
    path_loss_exp: float = 4.0
    step_size: float = 0.9               # consensus epsilon
    sd_tolerance: float = 1e-6           # delta, seconds
    max_iters: int = 5000                # n_max per snapshot
    max_snapshots: int = 500             # T_max
    swap_max_iters: int = 100            # N_max
    power_grid_step: float = 0.0025
    system_bandwidth_hz: float = 1e6
    noise_density_dbm_hz: float = -174.0
    payload_bits: float = 1000.0         # L
    fading: FadingSpec = field(default_factory=FadingSpec)
    near_radius_m: float = 10.0
    far_radius_m: float = 100.0
    init_offset_max: float = 40e-6       # seconds
    temp_range_c: tuple[float, float] = (0.0, 50.0)
    temp_coeff_ppm_c2: float = -0.042    # beta
    iter_period: float = 1e-3            # seconds per consensus broadcast period
    rng_seed: int = 0

    # -- derived quantities -------------------------------------------------

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def power_threshold_w(self) -> float:
        return dbm_to_watts(self.power_threshold_dbm)

    @property
    def subband_bandwidth_hz(self) -> float:
        return self.system_bandwidth_hz / self.num_subbands

    def validate(self) -> None:
        # NaN fails every comparison below, so reject non-finite numbers first
        numbers = {f.name: getattr(self, f.name) for f in fields(self)
                   if isinstance(getattr(self, f.name), float)}
        numbers["temp_low_c"], numbers["temp_high_c"] = self.temp_range_c
        for name, value in numbers.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.num_nodes < 2:
            raise ConfigError("num_nodes must be >= 2")
        if self.num_subbands < 1:
            raise ConfigError("num_subbands must be >= 1")
        if not 0.0 < self.step_size < 1.0:
            raise ConfigError("step_size must lie in (0, 1)")
        if self.sd_tolerance <= 0:
            raise ConfigError("sd_tolerance must be > 0")
        for name in ("max_iters", "max_snapshots", "swap_max_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.power_grid_step <= 0:
            raise ConfigError("power_grid_step must be > 0")
        n = 1.0 / self.power_grid_step
        if abs(n - round(n)) > 1e-9 * n:
            raise ConfigError("power_grid_step must divide 1 evenly")
        if not 0 < self.near_radius_m < self.far_radius_m:
            raise ConfigError("need 0 < near_radius_m < far_radius_m")
        if self.system_bandwidth_hz <= 0:
            raise ConfigError("system_bandwidth_hz must be > 0")
        if self.payload_bits <= 0:
            raise ConfigError("payload_bits must be > 0")
        if self.init_offset_max < 0:
            raise ConfigError("init_offset_max must be >= 0")
        if self.temp_range_c[0] > self.temp_range_c[1]:
            raise ConfigError("temp_range_c must be (low, high)")
        if self.iter_period <= 0:
            raise ConfigError("iter_period must be > 0")
        self.fading.validate()

    def with_overrides(self, **kwargs) -> "SimConfig":
        cfg = replace(self, **kwargs)
        cfg.validate()
        return cfg


_INT_KEYS = {
    "num_nodes", "num_subbands", "max_iters", "max_snapshots",
    "swap_max_iters", "rng_seed",
}


def _number(kind, key: str, val: str, lineno: int):
    try:
        return kind(val)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be {kind.__name__}, "
                          f"got {val!r}") from None


def parse_config_text(text: str) -> SimConfig:
    """Parse a plain-text ``key = value`` scenario file into a SimConfig.

    Unknown keys are rejected. '#' starts a comment. Fading is given as
    ``fading_kind`` / ``fading_param``, the temperature range as
    ``temp_low_c`` / ``temp_high_c``.
    """
    known = {f.name for f in fields(SimConfig)} - {"fading", "temp_range_c"}
    values: dict[str, object] = {}
    fading_kind, fading_param = None, None
    temp_low, temp_high = None, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "fading_kind":
            fading_kind = val
        elif key == "fading_param":
            fading_param = _number(float, key, val, lineno)
        elif key == "temp_low_c":
            temp_low = _number(float, key, val, lineno)
        elif key == "temp_high_c":
            temp_high = _number(float, key, val, lineno)
        elif key in known:
            kind = int if key in _INT_KEYS else float
            values[key] = _number(kind, key, val, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    cfg = SimConfig(**values)  # type: ignore[arg-type]
    if fading_kind is not None or fading_param is not None:
        spec = FadingSpec(
            kind=fading_kind if fading_kind is not None else "rayleigh",
            param=fading_param if fading_param is not None else 1.0,
        )
        cfg = replace(cfg, fading=spec)
    if temp_low is not None or temp_high is not None:
        lo = temp_low if temp_low is not None else cfg.temp_range_c[0]
        hi = temp_high if temp_high is not None else cfg.temp_range_c[1]
        cfg = replace(cfg, temp_range_c=(lo, hi))
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> SimConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def alpha_grid(step: float):
    """Inclusive power-split grid {0, step, ..., 1}."""
    import numpy as np

    n = round(1.0 / step)
    return np.linspace(0.0, 1.0, n + 1)
