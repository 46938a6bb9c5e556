"""Swapping-rate comparison between the linear-optical and SFG-heralded schemes.

The linear-optical scheme has to attenuate the source behind the better
channel (p_A = eta_B p_B / eta_A) to reach its best fidelity, which costs
rate; the SFG scheme pays its conversion probability instead but can drive
both sources equally hard.  Under the attenuation convention the two rates
differ by exactly p_sfg * eta_A / eta_B.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .lo_bsm import ONE_THIRD, p_for_balanced_smalleta, p_for_unbalanced_limit
from .nlo_bsm import p_for_target_fidelity
from .photon_stats import (
    SwapScenario,
    check_float_range,
    check_nonnegative,
    check_positive,
    check_probability,
    p_from_epsilon,
)


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
    check_positive(scenario.eta_a, "eta_a")  # the attenuation divides by it
    flux_b = scenario.eta_b * p_from_epsilon(scenario.eps_b)
    return check_float_range(flux_b * flux_b * clock, "rate_lo", scenario.eta_b, scenario.eps_b,
                             clock)


def rate_nlo(scenario: SwapScenario, p_sfg: float, clock: float) -> float:
    """SFG-heralded swapping rate p_sfg eta_A eta_B p_A p_B R_c (no attenuation)."""
    check_nonnegative(clock, "clock rate")
    check_probability(p_sfg, "p_sfg")
    p_a, p_b = p_from_epsilon(scenario.eps_a), p_from_epsilon(scenario.eps_b)
    rate = p_sfg * scenario.eta_a * scenario.eta_b * p_a * p_b * clock
    return check_float_range(rate, "rate_nlo", p_sfg, clock, *vars(scenario).values())


def crossover(p_sfg: float, eta_a: float, eta_b: float) -> CrossoverResult:
    """Rate-advantage test: the SFG scheme wins when p_sfg > eta_B / eta_A.

    Returns the verdict together with the ratio p_sfg * eta_A / eta_B, which
    equals rate_nlo / rate_lo when the linear-optical side runs attenuated
    and the SFG side runs at p_A = p_B.
    """
    check_probability(eta_a, "eta_a")
    check_probability(eta_b, "eta_b")
    check_probability(p_sfg, "p_sfg")
    check_positive(eta_b, "eta_b")
    ratio = p_sfg * eta_a / eta_b
    check_float_range(ratio, "crossover ratio p_sfg * eta_a / eta_b", p_sfg, eta_a)
    return CrossoverResult(nlo_wins=ratio > 1.0, ratio=ratio)


def matched_fidelity(delta: float) -> dict:
    """Pair probabilities at which each scheme reaches the same target fidelity.

    The SFG herald is inverted at 1/3; the linear-optical strong-loss curves
    touch 1/3 only at zero pumping, so they are inverted at 1/3 - delta.  Also
    returns the two-photon probability ratios (p_nlo / p_lo)^2.
    """
    f_lo = ONE_THIRD - delta
    p_nlo = p_for_target_fidelity(ONE_THIRD)
    p_balanced, p_unbalanced = p_for_balanced_smalleta(f_lo), p_for_unbalanced_limit(f_lo)
    # A target of 1/3, or one that rounds to it, inverts to p = 0; the balanced
    # curve's q = (3f)^(1/4) rounds to 1 before the unbalanced curve's does.
    if not p_balanced > 0.0:
        raise DomainError(f"delta must move the target fidelity below 1/3, got {delta!r}")
    return {
        "f_target_nlo": ONE_THIRD, "p_nlo": p_nlo,
        "f_target_lo": f_lo, "p_lo_balanced": p_balanced, "p_lo_unbalanced": p_unbalanced,
        "pair_prob_ratio_balanced": (p_nlo / p_balanced) ** 2,
        "pair_prob_ratio_unbalanced": (p_nlo / p_unbalanced) ** 2,
    }
