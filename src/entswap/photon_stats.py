"""Photon-number statistics of down-conversion sources behind lossy channels.

A source with conversion efficiency ``eps`` emits n photon pairs with
probability (1-eps)*eps**n (a geometric distribution), and each photon sent
into a channel with transmission ``eta`` survives independently, so the
number of arrivals is a binomial thinning of the emission number.  The
scenario type and the domain checks defined here feed every fidelity formula
in :mod:`entswap.lo_bsm` and :mod:`entswap.nlo_bsm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DomainError

# The domain rules, one function each, for a float or an array of floats
# (check_count takes one count).  Each states the condition that must hold, so
# NaN, which fails every comparison, is rejected.  Errors name the key and the
# first failing value.


def _require(ok, value, rule: str) -> None:
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        first = np.asarray(value).flat[np.argmin(ok)].item()
        raise DomainError(f"{rule}, got {first}")


def check_probability(value, name: str) -> None:
    """Reject a transmission or p_sfg outside [0, 1]: "p_sfg must be in [0, 1], got nan"."""
    _require((0.0 <= value) & (value <= 1.0), value, f"{name} must be in [0, 1]")


def check_pair_probability(p, name: str) -> None:
    """Reject p outside [0, 1/4], allowing ulps above 1/4 so grids may end on it."""
    _require((0.0 <= p) & (p <= 0.25 + 1e-15), p, f"{name} must be in [0, 1/4]")


def check_epsilon(eps, name: str) -> None:
    """Reject a conversion efficiency outside [0, 1)."""
    _require((0.0 <= eps) & (eps < 1.0), eps, f"{name} must be in [0, 1)")


def check_nonnegative(value, name: str) -> None:
    """Reject a value that is negative or not finite: "gt must be finite and >= 0, got inf"."""
    _require((0.0 <= value) & (value < math.inf), value, f"{name} must be finite and >= 0")


def check_count(value, name: str, low: int, high: float = math.inf) -> int:
    """``value`` as an int: an integer in [low, high], numpy's included.

    A bool is refused, though Python counts True as 1, and so are 2.5 and 3.0.
    """
    bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer {bounds}, got {value!r}")
    if not low <= value <= high:
        raise DomainError(f"{name} must be {bounds}, got {value}")
    return int(value)


@dataclass(frozen=True)
class SwapScenario:
    """Two sources feeding one joint measurement through two lossy channels.

    ``eps_a``, ``eps_b`` are the conversion efficiencies in [0, 1), whose
    single-pair probability (1 - eps) eps never exceeds 1/4; ``eta_a``,
    ``eta_b`` the single-photon transmissions in [0, 1].  Fields may hold
    numpy arrays, so that one scenario stands for a sweep grid.
    """

    eps_a: float
    eps_b: float
    eta_a: float
    eta_b: float

    def __post_init__(self) -> None:
        check_epsilon(self.eps_a, "eps_a")
        check_epsilon(self.eps_b, "eps_b")
        check_probability(self.eta_a, "eta_a")
        check_probability(self.eta_b, "eta_b")

    @classmethod
    def from_values(cls, eps_a: float, eps_b: float, eta_a: float, eta_b: float) -> "SwapScenario":
        """The scenario of four positional values, in the constructor's order."""
        return cls(eps_a, eps_b, eta_a, eta_b)


def p_from_epsilon(eps: float) -> float:
    """Single-pair probability (1 - eps) * eps for conversion efficiency eps."""
    check_epsilon(eps, "epsilon")
    return (1.0 - eps) * eps


def epsilon_from_p(p: float) -> float:
    """Invert p = (1 - eps) * eps on the lower branch: eps = (1 - sqrt(1 - 4p)) / 2.

    Valid for 0 <= p <= 1/4; a few ulps of overshoot above 1/4 are tolerated
    so that swept grids may end exactly at the boundary.
    """
    check_pair_probability(p, "pair probability")
    return 0.5 * (1.0 - np.sqrt(np.maximum(0.0, 1.0 - 4.0 * p)))


def truncation_tail_bound(scenario: SwapScenario, n_max: int) -> float:
    """Upper bound on the probability mass with more than n_max pairs on either side.

    Geometric tails: eps**(N+1) / (1 - eps) per source, summed.
    """
    ea, eb = scenario.eps_a, scenario.eps_b
    return ea ** (n_max + 1) / (1.0 - ea) + eb ** (n_max + 1) / (1.0 - eb)
