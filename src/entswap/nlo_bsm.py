"""Fidelity of swapping heralded by sum-frequency generation of the two photons.

Each pair of photons (one per side) that reaches the nonlinear element
up-converts with probability p_sfg, so an arrival pattern of k and l photons
heralds with weight k*l*p_sfg: this weak-conversion herald is the model to
first order in p_sfg.  Multiphoton emissions on a single side never herald on
their own, which is what removes the 1/3 ceiling of the linear-optical
measurement: the heralded fidelity this herald gives,

    (1 - eps_A)^2 (1 - eps_B)^2

depends only on the source efficiencies.  It is independent of the channel
losses only at zeroth order in p_sfg: the fidelity's own first-order term
depends on them.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ModelValidityWarning, UndefinedFidelityError
from .photon_stats import SwapScenario, check_probability, p_for_target, side_terms

# Above this single-photon conversion probability the weak-interaction
# expansion behind the herald weights starts to be questionable unless the
# channels are very lossy; warn but keep computing.
WEAK_SFG_WARN_THRESHOLD = 0.1


def _check_p_sfg(p_sfg: float) -> None:
    check_probability(p_sfg, "p_sfg")
    if p_sfg > WEAK_SFG_WARN_THRESHOLD:
        warnings.warn(
            f"p_sfg = {p_sfg:g} is outside the weak-conversion regime; results "
            "remain valid only for very lossy channels or weak sources",
            ModelValidityWarning,
            stacklevel=3,
        )


def p_faithful_sfg(scenario: SwapScenario, p_sfg: float) -> float:
    """Herald probability of the faithful event (single pair each, both arrive)."""
    ea, eb, ha, hb = scenario.eps_a, scenario.eps_b, scenario.eta_a, scenario.eta_b
    ua, _, _ = side_terms(ea, ha)
    ub, _, _ = side_terms(eb, hb)
    return ua * ub * ea * eb * ha * hb * p_sfg


def p_total_sfg(scenario: SwapScenario, p_sfg: float) -> float:
    """Total herald probability, summed over every arrival pattern:

        p_sfg * eta_A * eta_B * eps_A/(1-eps_A) * eps_B/(1-eps_B)
    """
    _check_p_sfg(p_sfg)
    ea, eb, ha, hb = scenario.eps_a, scenario.eps_b, scenario.eta_a, scenario.eta_b
    ua, _, _ = side_terms(ea, ha)
    ub, _, _ = side_terms(eb, hb)
    return p_sfg * ha * hb * (ea / ua) * (eb / ub)


def check_p_sfg_heralds(p_sfg) -> None:
    """Refuse p_sfg = 0, at any grid point: nothing up-converts, so nothing heralds."""
    if np.any(p_sfg == 0.0):
        raise UndefinedFidelityError("p_sfg = 0 never heralds, so the fidelity is undefined")


def fidelity_nlo(scenario: SwapScenario) -> float:
    """Channel-independent heralded fidelity (1 - eps_A)^2 (1 - eps_B)^2."""
    ea, eb = scenario.eps_a, scenario.eps_b
    if np.any((ea == 0.0) | (eb == 0.0) | (scenario.eta_a == 0.0) | (scenario.eta_b == 0.0)):
        raise UndefinedFidelityError(
            "eps = 0 or eta = 0 never heralds, so the fidelity is undefined"
        )
    ua, _, _ = side_terms(ea, scenario.eta_a)
    ub, _, _ = side_terms(eb, scenario.eta_b)
    return (ua * ua) * (ub * ub)


def p_for_target_fidelity(f_target: float) -> float:
    """Pair probability at which two equal sources reach a target fidelity
    q^4 = (1 - eps)^4 in [1/16, 1]."""
    return p_for_target(f_target, 1.0, 0.25)
