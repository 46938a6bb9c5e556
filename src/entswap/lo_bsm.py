"""Non-postselected fidelity of swapping heralded by a linear-optical BSM.

The analysis is source-statistics only: any event in which at least two
photons arrive at the measurement counts as a (possibly false) herald, and
the faithful events are exactly those where each source emitted a single
pair and both transmitted photons arrived.  Which interferometric circuit
implements the measurement is deliberately left unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedFidelityError
from .photon_stats import (SwapScenario, check_epsilon, check_float_range, check_positive,
                           check_probability, epsilon_from_p, p_for_target, side_terms)

ONE_THIRD = 1.0 / 3.0


@dataclass(frozen=True)
class LoFidelityReport:
    """Fidelity of one scenario together with the probabilities behind it.

    ``p_faithful`` is the both-single-pair, both-arrive probability and
    ``p_herald`` the probability of any >= 2-photon arrival event; the
    loss-dependent ceiling on ``fidelity`` is ``fidelity_upper_bound``.
    """

    fidelity: float
    p_faithful: float
    p_herald: float


def _herald_polynomial(ua: float, ub: float, a: float, b: float) -> float:
    # 1 - P0 - P1 rearranged over the common denominator (D_A D_B)^2 into a
    # sum of positive terms, so small-epsilon evaluation does not cancel:
    #   a^2 ub^2 + b^2 ua^2 + ab ua ub + 2 a^2 ub b + 2 a b^2 ua + a^2 b^2
    # The grouping below is bitwise symmetric under (a, ua) <-> (b, ub).
    x = a * ub
    y = b * ua
    ab = a * b
    return (x * x + y * y) + x * y + ab * ((2.0 * x + 2.0 * y) + ab)


def fidelity_upper_bound(scenario: SwapScenario) -> float:
    """Loss-dependent ceiling (1/3) (1 - eps_A(1-eta_A))^2 (1 - eps_B(1-eta_B))^2."""
    _, _, da = side_terms(scenario.eps_a, scenario.eta_a)
    _, _, db = side_terms(scenario.eps_b, scenario.eta_b)
    dd = da * db
    return ONE_THIRD * dd * dd


def fidelity_general(scenario: SwapScenario) -> LoFidelityReport:
    """Exact fidelity P(1|1,1|1) / (1 - P0 - P1) for arbitrary loss and pumping.

    Evaluated through the positive-term rearrangement of the herald
    probability, which is algebraically identical to 1 - P0 - P1 but stays
    accurate down to arbitrarily small pumping and loss.  Exactly symmetric
    under exchanging the A and B sides.
    """
    ua, a, da = side_terms(scenario.eps_a, scenario.eta_a)
    ub, b, db = side_terms(scenario.eps_b, scenario.eta_b)
    dd = da * db
    poly = _herald_polynomial(ua, ub, a, b)
    p_faithful = (ua * ub) * (a * b)
    check_float_range(p_faithful, "p_faithful", *vars(scenario).values())
    if np.any(poly <= 0.0):
        # A side is lit where its source is pumped into a transmitting channel; with
        # a side lit, the bracket is 0 only where that side's terms underflow.
        lit_a = np.minimum(scenario.eps_a, scenario.eta_a)
        lit_b = np.minimum(scenario.eps_b, scenario.eta_b)
        if np.any(np.maximum(lit_a, lit_b) == 0.0):
            raise UndefinedFidelityError(
                "herald probability is zero (no source pumped into a transmitting channel)"
            )
        raise DomainError("the herald probability underflows to 0; the pumping or the "
                          "transmission is too small")
    fidelity = p_faithful * (dd * dd) / poly
    return LoFidelityReport(
        fidelity=fidelity,
        p_faithful=p_faithful,
        p_herald=poly / (dd * dd),
    )


def fidelity_balanced_smalleta(p: float) -> float:
    """Strong-loss limit of the balanced case, as a function of pair probability:

        (1/3) * q^4,  q = 1 - eps, eps = epsilon_from_p(p)
    """
    q = 1.0 - epsilon_from_p(p)
    return ONE_THIRD * ((q * q) * (q * q))


def fidelity_unbalanced_limit(p_b: float) -> float:
    """Optimal fidelity when one channel is far lossier than the other:

        (1/3) * q_B^2,  q_B = 1 - eps_B, eps_B = epsilon_from_p(p_B)

    p_B is the pair probability of the source behind the lossier channel;
    the other source is assumed attenuated to the matching photon flux.
    """
    q = 1.0 - epsilon_from_p(p_b)
    return ONE_THIRD * q * q


def p_for_balanced_smalleta(f_target: float) -> float:
    """Pair probability at which the balanced strong-loss fidelity (1/3) q^4 hits
    a target in [1/48, 1/3]."""
    return p_for_target(f_target, 3.0, 0.25)


def p_for_unbalanced_limit(f_target: float) -> float:
    """Pair probability at which the attenuated unbalanced fidelity (1/3) q^2 hits
    a target in [1/12, 1/3]."""
    return p_for_target(f_target, 3.0, 0.5)


def optimal_epsilon_a(eps_b: float, eta_a: float, eta_b: float) -> float:
    """Conversion efficiency of source A that balances the arriving photon fluxes.

    Solves (1 - eps_B) eps_A eta_A = (1 - eps_A) eps_B eta_B exactly:

        eps_A = eps_B eta_B / ((1 - eps_B) eta_A + eps_B eta_B)

    At this point the general fidelity meets its loss-dependent ceiling up to
    corrections of order eps*eta.  For small efficiencies this reduces to
    p_A = (eta_B / eta_A) p_B, i.e. attenuating the source in the better
    channel to match the flux of the worse one.
    """
    check_epsilon(eps_b, "eps_b")
    check_probability(eta_a, "eta_a")
    check_probability(eta_b, "eta_b")
    check_positive(eta_a, "eta_a")
    u_b, flux_b, _ = side_terms(eps_b, eta_b)
    return flux_b / (u_b * eta_a + flux_b)
