"""Swapping-rate comparison between the linear-optical and SFG-heralded schemes.

The linear-optical scheme has to attenuate the source behind the better
channel (p_A = eta_B p_B / eta_A) to reach its best fidelity, which costs
rate; the SFG scheme pays its conversion probability instead but can drive
both sources equally hard.  Under the attenuation convention the two rates
differ by exactly p_sfg * eta_A / eta_B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .photon_stats import SwapScenario, check_nonnegative, check_probability, p_from_epsilon


@dataclass(frozen=True)
class CrossoverResult:
    """Whether the SFG scheme out-rates the attenuated linear-optical one."""

    nlo_wins: bool
    ratio: float


def rate_lo(scenario: SwapScenario, clock: float) -> float:
    """Linear-optical swapping rate eta_A eta_B p_A p_B R_c, with the A-side
    pair probability replaced by the optimal-fidelity value eta_B p_B / eta_A,
    giving eta_B^2 p_B^2 R_c."""
    check_nonnegative(clock, "clock rate")
    if np.any(scenario.eta_a <= 0.0):
        raise DomainError("the attenuation convention needs eta_a > 0")
    flux_b = scenario.eta_b * p_from_epsilon(scenario.eps_b)
    return flux_b * flux_b * clock


def rate_nlo(scenario: SwapScenario, p_sfg: float, clock: float) -> float:
    """SFG-heralded swapping rate p_sfg eta_A eta_B p_A p_B R_c (no attenuation)."""
    check_nonnegative(clock, "clock rate")
    check_probability(p_sfg, "p_sfg")
    p_a, p_b = p_from_epsilon(scenario.eps_a), p_from_epsilon(scenario.eps_b)
    return p_sfg * scenario.eta_a * scenario.eta_b * p_a * p_b * clock


def crossover(p_sfg: float, eta_a: float, eta_b: float) -> CrossoverResult:
    """Rate-advantage test: the SFG scheme wins when p_sfg > eta_B / eta_A.

    Returns the verdict together with the ratio p_sfg * eta_A / eta_B, which
    equals rate_nlo / rate_lo when the linear-optical side runs attenuated
    and the SFG side runs at p_A = p_B.
    """
    check_probability(eta_a, "eta_a")
    check_probability(eta_b, "eta_b")
    check_probability(p_sfg, "p_sfg")
    if eta_b == 0.0:
        raise DomainError(f"eta_b must be > 0, got {eta_b}")
    ratio = p_sfg * eta_a / eta_b
    return CrossoverResult(nlo_wins=ratio > 1.0, ratio=ratio)

