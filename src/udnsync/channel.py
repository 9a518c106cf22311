"""Fading samplers and noise power."""

from __future__ import annotations

import numpy as np

from udnsync.config import FadingSpec, SimConfig, dbm_to_watts


def sample_gain(fading: FadingSpec, rng: np.random.Generator, size=None):
    """Sample power gains |h|^2.

    Rayleigh amplitude fading gives exponentially distributed power with
    the configured mean. Nakagami-m amplitude fading gives Gamma(m, 1/m)
    power with unit mean, so m only reshapes the distribution (m = 1
    recovers Exponential(1)).
    """
    fading.validate()
    if fading.kind == "rayleigh":
        return rng.exponential(fading.param, size=size)
    return rng.gamma(fading.param, 1.0 / fading.param, size=size)


def noise_power(config: SimConfig) -> float:
    """Thermal noise power over one sub-band's bandwidth, in watts."""
    return dbm_to_watts(config.noise_density_dbm_hz) * config.subband_bandwidth_hz


def sample_interference_gains(config: SimConfig,
                              rng: np.random.Generator) -> np.ndarray:
    k = config.num_nodes
    return sample_gain(config.fading, rng, size=(k, k))


def sample_link_gains(config: SimConfig, num_triplets: int,
                      rng: np.random.Generator) -> np.ndarray:
    return sample_gain(config.fading, rng,
                       size=(num_triplets, config.num_subbands, 2))
