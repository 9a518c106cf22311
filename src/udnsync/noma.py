"""Per-sub-band SINRs, rates, and pair completion times.

A scheduled transmitter superposes two power-weighted signals for its
strong and weak receivers on one sub-band. After successive
interference cancellation the weak receiver decodes interference-free,
while the strong receiver sees the weak signal as co-receiver
interference. Once the weak receiver's transfer finishes, the strong
link keeps the sub-band to itself and continues at its
interference-free rate with the same power coefficient.

The orthogonal baseline shares the same sub-band between the two
receivers with equal orthogonal (time-share) portions at full transmit
power, so each leg runs at half the effective bandwidth and the pair
finishes when the slower leg does.

The vectorized kernels over a (triplet, sub-band) table (``RoundLinks``,
``noma_leg_times``, ``oma_leg_times``) are what the scheduler runs. The
scalar ``PairLink`` functions evaluate the same formulas one link at a
time, with explicit errors for zero-rate legs; they are the reference
the kernels are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# vectorized kernels (the scheduler's production path)


@dataclass(frozen=True)
class RoundLinks:
    """Effective (path loss folded) power gains of triplets on sub-bands."""

    gain_strong: np.ndarray  # (T, N)
    gain_weak: np.ndarray    # (T, N)
    tx_power_w: float
    noise_w: float
    bandwidth_hz: float
    payload_bits: float

    @property
    def num_triplets(self) -> int:
        return self.gain_strong.shape[0]

    @property
    def num_subbands(self) -> int:
        return self.gain_strong.shape[1]

    def subset(self, triplet_idx) -> "RoundLinks":
        return RoundLinks(self.gain_strong[triplet_idx],
                          self.gain_weak[triplet_idx],
                          self.tx_power_w, self.noise_w,
                          self.bandwidth_hz, self.payload_bits)


def noma_leg_times(links: RoundLinks, alpha_strong: float):
    """(t_strong, t_weak) matrices for one common power split."""
    a_i, a_j = alpha_strong, 1.0 - alpha_strong
    p, s2, b, l = (links.tx_power_w, links.noise_w,
                   links.bandwidth_hz, links.payload_bits)
    gs, gw = links.gain_strong, links.gain_weak
    with np.errstate(divide="ignore", invalid="ignore"):
        r_strong = b * np.log2(1.0 + gs * a_i * p / (gs * a_j * p + s2))
        r_weak = b * np.log2(1.0 + gw * a_j * p / s2)
        r_alone = b * np.log2(1.0 + gs * a_i * p / s2)
        t_weak = np.where(r_weak > 0, l / r_weak, np.inf)
        direct = np.where(r_strong > 0, l / r_strong, np.inf)
        residual = np.where(r_alone > 0,
                            t_weak + (l - r_strong * t_weak) / r_alone, np.inf)
        t_strong = np.where(direct <= t_weak, direct, residual)
    t_strong = np.where(np.isfinite(t_strong), t_strong, np.inf)
    t_weak = np.where(np.isfinite(t_weak), t_weak, np.inf)
    return t_strong, t_weak


def noma_times(links: RoundLinks, alpha_strong: float) -> np.ndarray:
    t_strong, t_weak = noma_leg_times(links, alpha_strong)
    return np.maximum(t_strong, t_weak)


def oma_leg_times(links: RoundLinks):
    """Equal-share orthogonal legs at full power, per (triplet, sub-band)."""
    p, s2, b, l = (links.tx_power_w, links.noise_w,
                   links.bandwidth_hz, links.payload_bits)
    with np.errstate(divide="ignore"):
        r_strong = b * np.log2(1.0 + links.gain_strong * p / s2)
        r_weak = b * np.log2(1.0 + links.gain_weak * p / s2)
        t_strong = np.where(r_strong > 0, 2.0 * l / r_strong, np.inf)
        t_weak = np.where(r_weak > 0, 2.0 * l / r_weak, np.inf)
    return t_strong, t_weak


def oma_times(links: RoundLinks) -> np.ndarray:
    t_strong, t_weak = oma_leg_times(links)
    return np.maximum(t_strong, t_weak)


# ---------------------------------------------------------------------------
# scalar reference


class CompletionError(ValueError):
    """A zero-rate leg makes the transfer time infinite."""


@dataclass(frozen=True)
class PairLink:
    """Effective channel of one TX triplet on one sub-band.

    Gains are power gains with path loss folded in; gain_strong must
    dominate gain_weak. alpha_strong + alpha_weak <= 1.
    """

    gain_strong: float
    gain_weak: float
    alpha_strong: float
    alpha_weak: float
    noise_w: float
    tx_power_w: float
    bandwidth_hz: float
    payload_bits: float

    def __post_init__(self):
        if self.gain_strong < self.gain_weak:
            raise ValueError("gain_strong must be >= gain_weak")
        if self.alpha_strong < 0 or self.alpha_weak < 0:
            raise ValueError("power coefficients must be non-negative")
        if self.alpha_strong + self.alpha_weak > 1.0 + 1e-12:
            raise ValueError("power coefficients must sum to at most 1")
        if self.noise_w < 0 or self.tx_power_w <= 0:
            raise ValueError("bad power parameters")


@dataclass(frozen=True)
class PairTimes:
    t_strong: float
    t_weak: float

    @property
    def t_pair(self) -> float:
        return max(self.t_strong, self.t_weak)


def sinr_strong(link: PairLink) -> float:
    """Post-SIC SINR of the strong receiver, with co-RX interference."""
    interference = link.gain_strong * link.alpha_weak * link.tx_power_w
    denom = interference + link.noise_w
    if denom == 0.0:
        raise CompletionError("undefined SINR: zero noise and zero interference")
    return link.gain_strong * link.alpha_strong * link.tx_power_w / denom

def sinr_weak(link: PairLink) -> float:
    """Interference-free SINR of the weak receiver."""
    if link.noise_w == 0.0:
        raise CompletionError("undefined SINR: zero noise power")
    return link.gain_weak * link.alpha_weak * link.tx_power_w / link.noise_w


def sinr_strong_alone(link: PairLink) -> float:
    """Strong receiver's SINR once the weak transfer has finished.

    The power coefficient is kept, only the co-RX interference drops."""
    if link.noise_w == 0.0:
        raise CompletionError("undefined SINR: zero noise power")
    return link.gain_strong * link.alpha_strong * link.tx_power_w / link.noise_w


def rate(sinr: float, bandwidth_hz: float) -> float:
    """Shannon rate in bits/s; bandwidth 1 Hz recovers spectral efficiency."""
    if sinr < 0:
        raise ValueError("sinr must be >= 0")
    return bandwidth_hz * math.log2(1.0 + sinr)


def pair_completion_noma(link: PairLink) -> PairTimes:
    """Piecewise completion times of both legs under superposed access.

    The weak leg always takes L/R_weak. The strong leg takes L/R_strong
    if it finishes within the weak leg's window; otherwise the residual
    bits drain at the interference-free rate after the weak leg ends.
    """
    l = link.payload_bits
    r_weak = rate(sinr_weak(link), link.bandwidth_hz)
    r_strong = rate(sinr_strong(link), link.bandwidth_hz)
    r_alone = rate(sinr_strong_alone(link), link.bandwidth_hz)
    if r_weak <= 0.0 or r_strong <= 0.0:
        raise CompletionError("infinite completion: zero-rate leg")
    t_weak = l / r_weak
    if l / r_strong <= t_weak:
        t_strong = l / r_strong
    else:
        t_strong = t_weak + (l - r_strong * t_weak) / r_alone
    return PairTimes(t_strong=t_strong, t_weak=t_weak)


def pair_completion_oma(link: PairLink) -> PairTimes:
    """Orthogonal baseline: equal-share legs at full power, no power split."""
    if link.noise_w <= 0:
        raise CompletionError("undefined SINR: zero noise power")
    l = link.payload_bits
    r_strong = rate(link.gain_strong * link.tx_power_w / link.noise_w,
                    link.bandwidth_hz)
    r_weak = rate(link.gain_weak * link.tx_power_w / link.noise_w,
                  link.bandwidth_hz)
    if r_strong <= 0.0 or r_weak <= 0.0:
        raise CompletionError("infinite completion: zero-gain leg")
    return PairTimes(t_strong=2.0 * l / r_strong, t_weak=2.0 * l / r_weak)
