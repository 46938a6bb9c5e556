"""Photon-number statistics of down-conversion sources behind lossy channels.

A source with conversion efficiency ``eps`` emits n photon pairs with
probability (1-eps)*eps**n (a geometric distribution), and each photon sent
into a channel with transmission ``eta`` survives independently, so the
number of arrivals is a binomial thinning of the emission number.  The
scenario and link types, the domain checks, the model's per-side terms and
tails and the target-fidelity inversion defined here feed every closed form in
:mod:`entswap.lo_bsm`, :mod:`entswap.nlo_bsm` and :mod:`entswap.rates` and the
oracle's tail bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DomainError

# The domain rules, one function each, for a float or an array of floats
# (check_count takes one count, check_float_range a computed result).  Each
# states the condition that must hold, so NaN, which fails every comparison, is
# rejected.  Errors name the key and the first failing value.
_SMALLEST_NORMAL = float(np.finfo(float).tiny)  # 2.2e-308


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


def check_lower_branch(eps, name: str) -> None:
    """Reject eps above 1/2, where a form in p = (1 - eps) eps would read 1 - eps."""
    _require(eps <= 0.5, eps, f"{name} must be <= 1/2")


def check_nonnegative(value, name: str) -> None:
    """Reject a value that is negative or not finite: "gt must be finite and >= 0, got inf"."""
    _require((0.0 <= value) & (value < math.inf), value, f"{name} must be finite and >= 0")


def check_positive(value, name: str) -> None:
    """Reject a value that is not > 0 or not finite: "q_b must be finite and > 0, got 0.0"."""
    _require((0.0 < value) & (value < math.inf), value, f"{name} must be finite and > 0")


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


def check_float_range(value, name: str, *factors):
    """``value``, a computed result, refused if it is not finite, or if it underflows
    below the smallest normal float (to 0, or to a subnormal short of digits) while
    none of ``factors`` is 0, the only way the result is exactly 0."""
    magnitude = abs(value)
    ok = magnitude >= _SMALLEST_NORMAL
    for factor in factors:
        ok = ok | (factor == 0.0)
    _require((magnitude < math.inf) & ok, value,
             f"{name} must be finite and, when no factor is 0, of magnitude >= 2.2e-308")
    return value


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


@dataclass(frozen=True)
class Link:
    """A scenario plus p_sfg and the clock, which no scenario holds: what the rates
    read, and what ``config.resolve_link`` builds."""

    scenario: SwapScenario
    p_sfg: float
    clock: float

    def __post_init__(self) -> None:
        check_probability(self.p_sfg, "p_sfg")
        check_nonnegative(self.clock, "clock rate")


def p_from_epsilon(eps: float) -> float:
    """Single-pair probability (1 - eps) * eps for conversion efficiency eps."""
    check_epsilon(eps, "epsilon")
    return (1.0 - eps) * eps


def epsilon_from_p(p: float) -> float:
    """Invert p = (1 - eps) * eps on the lower branch: eps = (1 - sqrt(1 - 4p)) / 2.

    Evaluated as 2p / (1 + sqrt(1 - 4p)), which does not cancel for small p,
    capped at 1/2.  Valid for 0 <= p <= 1/4; a few ulps of overshoot above 1/4
    are tolerated so that swept grids may end exactly at the boundary, where
    the cap keeps eps at 1/2.
    """
    check_pair_probability(p, "pair probability")
    return np.minimum(0.5, 2.0 * p / (1.0 + np.sqrt(np.maximum(0.0, 1.0 - 4.0 * p))))


def p_for_target(f_target: float, scale: float, power: float) -> float:
    """Pair probability p = (1 - q) q at which a curve f = q^(1/power) / scale of
    q = 1 - eps reaches ``f_target``: q = (scale f)^power on the lower branch
    [1/2, 1] (ulps above 1 allowed, so a curve's top inverts to p = 0), p read
    from ``p_from_epsilon`` at eps = 1 - q, which is exact there, so p is q (1 - q)
    rounded once.  Any other target raises ``DomainError``."""
    # A negative target would give a complex root and NaN fails every
    # comparison, so both take q = 0, which is out of reach.
    q = (scale * f_target) ** power if f_target >= 0.0 else 0.0
    if not 0.5 <= q <= 1.0 + 1e-15:
        raise DomainError(
            f"target fidelity {f_target:g} is outside the reachable range of this curve"
        )
    return p_from_epsilon(max(0.0, 1.0 - q))


def side_terms(eps, eta):
    """One side's u = 1 - eps, a = eps eta and D = u + a: P(k=0) = u/D, P(k=1) = a u/D^2."""
    u = 1.0 - eps
    a = eps * eta
    return u, a, u + a


def pair_tail(eps, n_max: int):
    """P(n > N) = eps^(N+1), the probability of more than N = n_max pairs."""
    return eps ** (n_max + 1)


def mean_arrival_tail(eps, eta, n_max: int):
    """The part of E[k] = a/u from more than N = n_max pairs, eta (1-eps) sum_{n > N} n eps^n."""
    # sum_{n > N} n eps^n = eps^{N+1} ((N+1)(1-eps) + eps) / (1-eps)^2
    tail_n = eps ** (n_max + 1) * ((n_max + 1) * (1.0 - eps) + eps) / (1.0 - eps) ** 2
    return eta * (1.0 - eps) * tail_n


def truncation_tail_bound(scenario: SwapScenario, n_max: int) -> float:
    """Upper bound on the probability mass with more than n_max pairs on either side."""
    return pair_tail(scenario.eps_a, n_max) + pair_tail(scenario.eps_b, n_max)
