"""Swapping-rate comparison between the linear-optical and SFG-heralded schemes.

The linear-optical scheme reaches its best fidelity only when both arriving
fluxes match, so it attenuates the brighter source until eta_A p_A = eta_B p_B,
which costs rate; the SFG scheme pays its conversion probability instead but
drives both sources as they are.  The rate ratio is therefore
p_sfg max(eta_A p_A, eta_B p_B) / min(eta_A p_A, eta_B p_B).

The rates read a ``photon_stats.Link``, whose constructor checks p_sfg and
the clock, so they check neither again.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .lo_bsm import ONE_THIRD, p_for_balanced_smalleta, p_for_unbalanced_limit
from .nlo_bsm import p_for_target_fidelity
from .photon_stats import Link, SwapScenario, check_float_range, p_from_epsilon


def kept_source(scenario: SwapScenario):
    """The eps and arriving flux eta p of the source the linear-optical scheme
    keeps unattenuated: the dimmer one, B on a tie (scalars for scalar fields)."""
    flux_a = scenario.eta_a * p_from_epsilon(scenario.eps_a)
    flux_b = scenario.eta_b * p_from_epsilon(scenario.eps_b)
    keep_a = flux_a < flux_b
    return (np.where(keep_a, scenario.eps_a, scenario.eps_b)[()],
            np.where(keep_a, flux_a, flux_b)[()])


def rate_lo(link: Link) -> float:
    """Linear-optical swapping rate eta_A eta_B p_A p_B R_c with the brighter
    source attenuated until both arriving fluxes match, giving
    min(eta_A p_A, eta_B p_B)^2 R_c."""
    _, flux = kept_source(link.scenario)
    return check_float_range(flux * flux * link.clock, "rate_lo", link.clock,
                             *vars(link.scenario).values())


def rate_nlo(link: Link) -> float:
    """SFG-heralded swapping rate p_sfg eta_A eta_B p_A p_B R_c (no attenuation)."""
    s = link.scenario
    p_a, p_b = p_from_epsilon(s.eps_a), p_from_epsilon(s.eps_b)
    # p_sfg meets the clock first: left to right, a small p_sfg passed through a subnormal.
    rate = (link.p_sfg * link.clock) * ((s.eta_a * p_a) * (s.eta_b * p_b))
    return check_float_range(rate, "rate_nlo", link.p_sfg, link.clock, *vars(s).values())


def compare(link: Link) -> dict:
    """Both rates, their ratio rate_nlo / rate_lo and whether the SFG scheme wins
    (ratio > 1).  A link whose rate_lo is 0 has no ratio and is refused."""
    lo, nlo = rate_lo(link), rate_nlo(link)
    if lo == 0.0:
        raise DomainError("rate_lo is 0 (a dark channel, an unpumped source or a zero clock), "
                          "so the rates have no ratio")
    ratio = check_float_range(nlo / lo, "crossover_ratio", nlo)
    return {"rate_lo": lo, "rate_nlo": nlo, "crossover_ratio": ratio, "nlo_wins": bool(ratio > 1.0)}


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
