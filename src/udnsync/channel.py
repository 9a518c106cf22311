"""Fading samplers."""

from __future__ import annotations

import numpy as np

from udnsync.config import SimConfig


def sample_gain(config: SimConfig, rng: np.random.Generator, size=None,
                out: np.ndarray | None = None):
    """Sample power gains |h|^2 under ``config.fading_kind``.

    Rayleigh amplitude fading gives exponentially distributed power with
    mean ``fading_param``. Nakagami-m amplitude fading with
    m = ``fading_param`` gives Gamma(m, 1/m) power with unit mean, so m
    only reshapes the distribution (m = 1 recovers Exponential(1)).

    The kind and parameter are not re-validated per draw: a
    ``SimConfig`` checks them when it is made.

    Each unit-scale fill is scaled in place unless the scale is 1.0: the
    bits of ``rng.exponential(mean)`` and ``rng.gamma(m, 1/m)``, drawn
    into the float64 array ``out`` when it is given.
    """
    kind, param = config.fading_kind, config.fading_param
    if kind == "rayleigh":
        gain, scale = rng.standard_exponential(size, out=out), param
    else:  # nakagami
        gain, scale = rng.standard_gamma(param, size, out=out), 1.0 / param
    if scale != 1.0:
        gain *= scale
    return gain


def sample_interference_gains(config: SimConfig, rng: np.random.Generator,
                              out: np.ndarray | None = None) -> np.ndarray:
    """A (K, K) fading draw, or a stack of them that fills ``out``, a
    (..., K, K) float64 array, when it is given (see sample_gain).

    A stack holds the bits of as many (K, K) draws made in turn, and
    leaves ``rng`` where they do.
    """
    k = config.num_nodes
    return sample_gain(config, rng, size=(k, k) if out is None else out.shape,
                       out=out)


def sample_link_gains(config: SimConfig, num_triplets: int,
                      rng: np.random.Generator) -> np.ndarray:
    return sample_gain(config, rng, size=(num_triplets, config.num_subbands, 2))
