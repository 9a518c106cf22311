"""Simulation configuration, scenario files and unit conversions.

A scenario file holds flat ``key = value`` lines, and its keys are
exactly the fields of ``SimConfig``, so this module is the only one that
knows the format. All radio quantities enter the simulator in dB units
(dBm, dBm/Hz), and the properties ``tx_power_w``, ``power_threshold_w``
and ``noise_w`` are their only conversions to linear watts.

A ``SimConfig`` checks itself when it is made, by its constructor,
``dataclasses.replace`` or the parser, so every instance in the program
is valid and no later layer checks its fields again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path


def dbm_to_watts(dbm: float) -> float:
    """Convert a dBm level to watts. -inf maps to 0 W."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


class ConfigError(ValueError):
    """Raised when a configuration violates its invariants."""


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
    # 'rayleigh': power gain ~ Exponential(mean = fading_param);
    # 'nakagami': power gain ~ Gamma(m, 1/m) with m = fading_param, so the
    # mean channel power stays 1 across shape values
    fading_kind: str = "rayleigh"
    fading_param: float = 1.0
    near_radius_m: float = 10.0
    far_radius_m: float = 100.0
    init_offset_max: float = 40e-6       # seconds
    temp_low_c: float = 0.0
    temp_high_c: float = 50.0
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

    @property
    def noise_w(self) -> float:
        """Thermal noise power over one sub-band's bandwidth."""
        return dbm_to_watts(self.noise_density_dbm_hz) * self.subband_bandwidth_hz

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        # NaN fails every comparison below, so reject non-finite numbers first
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.num_nodes < 3:
            raise ConfigError("num_nodes must be >= 3")
        if self.num_subbands < 1:
            raise ConfigError("num_subbands must be >= 1")
        if self.path_loss_exp <= 0:  # path_gain's zero diagonal needs it
            raise ConfigError("path_loss_exp must be > 0")
        if not 0.0 < self.step_size < 1.0:
            raise ConfigError("step_size must lie in (0, 1)")
        if self.sd_tolerance <= 0:
            raise ConfigError("sd_tolerance must be > 0")
        for name in ("max_iters", "max_snapshots", "swap_max_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 < self.power_grid_step <= 1:
            raise ConfigError("power_grid_step must lie in (0, 1]")
        n = 1.0 / self.power_grid_step
        if abs(n - round(n)) > 1e-9 * n:
            raise ConfigError("power_grid_step must divide 1 evenly")
        if not 0 < self.near_radius_m < self.far_radius_m:
            raise ConfigError("need 0 < near_radius_m < far_radius_m")
        if self.system_bandwidth_hz <= 0:
            raise ConfigError("system_bandwidth_hz must be > 0")
        # edges need P0 > 0 W, and rates a finite, positive power and noise
        for name, power in (("tx_power_dbm", "tx_power_w"),
                            ("power_threshold_dbm", "power_threshold_w"),
                            ("noise_density_dbm_hz", "noise_w")):
            try:
                watts = getattr(self, power)
            except OverflowError:
                watts = math.inf
            if not 0.0 < watts < math.inf:
                raise ConfigError(f"{name} = {getattr(self, name)} gives "
                                  f"{watts} W, not a finite power > 0 W")
        if self.payload_bits <= 0:
            raise ConfigError("payload_bits must be > 0")
        if self.init_offset_max < 0:
            raise ConfigError("init_offset_max must be >= 0")
        if self.temp_low_c > self.temp_high_c:
            raise ConfigError("need temp_low_c <= temp_high_c")
        if self.iter_period <= 0:
            raise ConfigError("iter_period must be > 0")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")
        if self.fading_kind not in ("rayleigh", "nakagami"):
            raise ConfigError(f"unknown fading_kind {self.fading_kind!r}")
        if self.fading_kind == "rayleigh" and self.fading_param <= 0:
            raise ConfigError("rayleigh mean fading_param must be > 0")
        if self.fading_kind == "nakagami" and self.fading_param < 0.5:
            raise ConfigError("nakagami shape fading_param must be >= 0.5")


# Each field's value type, read by the scenario parser and by sweeps.
# Annotations are strings under postponed evaluation.
FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type]
               for f in fields(SimConfig)}


def parse_config_text(text: str) -> SimConfig:
    """Parse a plain-text ``key = value`` scenario file into a SimConfig.

    Each key is a ``SimConfig`` field and its value is converted to that
    field's type. Unknown and repeated keys are rejected, and '#' starts
    a comment.
    """
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        kind = FIELD_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: {key} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = kind(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} must be "
                              f"{kind.__name__}, got {val!r}") from None
    return SimConfig(**values)  # type: ignore[arg-type]


def load_config(path: str | Path) -> SimConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_config_text(text)
