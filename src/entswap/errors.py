"""Exception and warning types shared across the package.

Fidelities and probabilities are never reported as NaN: whenever a quantity
is mathematically undefined (zero herald probability, parameter outside its
domain) or a computed result over- or underflows the float range, a typed
exception is raised: sweeps fail loudly rather than report NaN, inf or a false 0.
"""

from __future__ import annotations


class EntswapError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EntswapError, ValueError):
    """A parameter is outside the mathematical domain of the requested quantity."""


class UndefinedFidelityError(DomainError):
    """The herald probability is zero, so the conditional fidelity is undefined."""


class ModelValidityError(EntswapError):
    """Inputs violate an assumption the model is derived under (e.g. a per-event
    herald weight exceeding 1)."""


class InsufficientStatisticsError(EntswapError):
    """A Monte Carlo run produced no herald events, so no estimate exists."""


class InputError(EntswapError, ValueError):
    """A state or basis argument is malformed (wrong basis, not a product state,
    dimension mismatch)."""


class TruncationError(EntswapError):
    """The requested Fock-space cutoff cannot contain the states reachable from
    the input, so the truncated evolution would leak norm."""


class ConfigError(EntswapError, ValueError):
    """A config file entry could not be parsed; the message names the offending key."""


class UsageError(EntswapError):
    """Bad flags or bad sweep/config entries; maps to exit code 1."""


class ModelValidityWarning(UserWarning):
    """Soft warning that inputs are near or beyond a model's comfort zone
    (large single-photon conversion probability, strongly unequal linewidths)."""
