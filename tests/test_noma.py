"""SINRs, rates, and pair completion times on one sub-band."""

import math

import numpy as np
import pytest

from conftest import bit_accumulation_times
from udnsync.noma import (CompletionError, PairLink, pair_completion_noma,
                          pair_completion_oma, rate, sinr_strong,
                          sinr_strong_alone, sinr_weak)


def make_link(gain_strong=2.0, gain_weak=1.0, alpha_strong=0.6,
              noise_w=1.0, tx_power_w=1.0, bandwidth_hz=1.0,
              payload_bits=10.0):
    return PairLink(gain_strong=gain_strong, gain_weak=gain_weak,
                    alpha_strong=alpha_strong, alpha_weak=1.0 - alpha_strong,
                    noise_w=noise_w, tx_power_w=tx_power_w,
                    bandwidth_hz=bandwidth_hz, payload_bits=payload_bits)


def random_link(rng, noise_scale=1.0):
    gains = np.sort(rng.exponential(1.0, size=2))
    return make_link(gain_strong=gains[1], gain_weak=gains[0],
                     alpha_strong=rng.uniform(0.01, 0.99),
                     noise_w=noise_scale * rng.uniform(0.01, 1.0),
                     tx_power_w=rng.uniform(0.5, 5.0),
                     bandwidth_hz=rng.uniform(0.5, 2.0),
                     payload_bits=rng.uniform(1.0, 100.0))


def test_sinr_hand_values():
    link = make_link()
    # strong: 2*0.6 / (2*0.4 + 1);  weak: 1*0.4 / 1;  alone: 2*0.6 / 1
    assert sinr_strong(link) == pytest.approx(1.2 / 1.8)
    assert sinr_weak(link) == pytest.approx(0.4)
    assert sinr_strong_alone(link) == pytest.approx(1.2)


def test_rate_is_shannon():
    assert rate(1.0, 1.0) == pytest.approx(1.0)
    assert rate(3.0, 2.0) == pytest.approx(4.0)
    assert rate(0.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        rate(-0.1, 1.0)


def test_link_validation():
    with pytest.raises(ValueError):
        make_link(gain_strong=0.5, gain_weak=1.0)
    with pytest.raises(ValueError):
        PairLink(2.0, 1.0, 0.7, 0.5, 1.0, 1.0, 1.0, 10.0)  # splits sum > 1
    with pytest.raises(ValueError):
        make_link(tx_power_w=0.0)


def test_full_split_to_strong_starves_weak():
    link = make_link(alpha_strong=1.0)
    assert sinr_weak(link) == 0.0
    with pytest.raises(CompletionError):
        pair_completion_noma(link)


def test_zero_noise_rejected():
    link = make_link(noise_w=0.0, alpha_strong=1.0)
    with pytest.raises(CompletionError):
        sinr_strong(link)


def test_completion_matches_bit_accumulation_oracle():
    rng = np.random.default_rng(42)
    checked_late_branch = 0
    for _ in range(2000):
        link = random_link(rng)
        times = pair_completion_noma(link)
        t_strong_ref, t_weak_ref = bit_accumulation_times(link)
        assert times.t_weak == pytest.approx(t_weak_ref, rel=1e-9)
        assert times.t_strong == pytest.approx(t_strong_ref, rel=1e-9)
        if times.t_strong > t_weak_ref:
            checked_late_branch += 1
    # both branches of the piecewise formula must actually be exercised
    assert 0 < checked_late_branch < 2000


def test_branch_continuity_at_crossing():
    # solve for the split where the strong leg finishes exactly with the
    # weak one, then verify both branch expressions agree there
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(500):
        base = random_link(rng)

        def gap(a_s):
            link = make_link(gain_strong=base.gain_strong,
                             gain_weak=base.gain_weak, alpha_strong=a_s,
                             noise_w=base.noise_w, tx_power_w=base.tx_power_w,
                             bandwidth_hz=base.bandwidth_hz,
                             payload_bits=base.payload_bits)
            r_s = rate(sinr_strong(link), link.bandwidth_hz)
            r_w = rate(sinr_weak(link), link.bandwidth_hz)
            return link.payload_bits / r_s - link.payload_bits / r_w

        lo, hi = 1e-6, 1.0 - 1e-6
        if gap(lo) * gap(hi) > 0:
            continue
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if gap(lo) * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        link = make_link(gain_strong=base.gain_strong,
                         gain_weak=base.gain_weak, alpha_strong=mid,
                         noise_w=base.noise_w, tx_power_w=base.tx_power_w,
                         bandwidth_hz=base.bandwidth_hz,
                         payload_bits=base.payload_bits)
        times = pair_completion_noma(link)
        assert times.t_strong == pytest.approx(times.t_weak, rel=1e-9)
        hits += 1
    assert hits > 100


def test_oma_baseline_hand_value():
    link = make_link(gain_strong=3.0, gain_weak=1.0, noise_w=1.0,
                     tx_power_w=1.0, bandwidth_hz=1.0, payload_bits=10.0)
    times = pair_completion_oma(link)
    # each leg gets half the resource at full power: t = 2L / (B log2(1+gP/s))
    assert times.t_strong == pytest.approx(20.0 / math.log2(4.0))
    assert times.t_weak == pytest.approx(20.0 / math.log2(2.0))
    assert times.t_pair == times.t_weak


def _best_split_time(base, grid):
    best = math.inf
    for a_s in grid:
        link = make_link(gain_strong=base.gain_strong,
                         gain_weak=base.gain_weak, alpha_strong=a_s,
                         noise_w=base.noise_w, tx_power_w=base.tx_power_w,
                         bandwidth_hz=base.bandwidth_hz,
                         payload_bits=base.payload_bits)
        best = min(best, pair_completion_noma(link).t_pair)
    return best


def test_superposed_never_worse_than_orthogonal_at_best_split():
    # over the continuous split the superposed scheme dominates the
    # orthogonal baseline; the production grid (step 0.0025) may overshoot
    # by at most a grid-resolution sliver on near-tied low-SNR gains
    rng = np.random.default_rng(3)
    coarse = np.linspace(0.0, 1.0, 401)[1:-1]
    fine = np.linspace(1e-4, 1.0 - 1e-4, 20001)
    for i in range(300):
        base = random_link(rng)
        oma = pair_completion_oma(base).t_pair
        best = _best_split_time(base, coarse)
        assert best <= oma * (1.0 + 2e-4)
        if i % 20 == 0:  # fine scan is expensive, spot-check the strict claim
            assert _best_split_time(base, fine) <= oma * (1.0 + 1e-9)
