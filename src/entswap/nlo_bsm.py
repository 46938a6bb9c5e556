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

import numpy as np

from .errors import UndefinedFidelityError
from .photon_stats import SwapScenario, p_for_target, side_terms


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
