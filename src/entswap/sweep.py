"""One-variable sweeps: a whole grid through the closed forms in one pass.

The link is resolved once, with the swept field set to the grid itself, and
each output column is one call of a closed form on that array.  The closed
forms use the same float operations for a float and for an array, so every
sweep value equals the scalar call at its grid point bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lo_bsm, nlo_bsm, rates
from .config import ConfigValue, read, resolve_link
from .errors import UsageError
from .photon_stats import (check_count, check_lower_branch, check_nonnegative, epsilon_from_p,
                           p_from_epsilon)

SWEEP_VARIABLES = ("p", "epsilon", "eta_a", "eta_b", "p_sfg")
SPEC_KEYS = ("variable", "start", "stop", "points", "scale", "outputs")
DEFAULT_OUTPUTS = ("f_nlo", "f_lo_balanced_smalleta", "f_lo_unbalanced", "lo_bound")


def _f_nlo(link):
    nlo_bsm.check_p_sfg_heralds(link.p_sfg)
    return nlo_bsm.fidelity_nlo(link.scenario)


def _limit_p(link):
    eps = rates.kept_source(link.scenario)[0]
    check_lower_branch(eps, "eps of the unattenuated source of a strong-loss limit column")
    return p_from_epsilon(eps)


# Each output column from the grid's link.
COLUMNS = {
    "f_lo_general": lambda link: lo_bsm.fidelity_general(link.scenario).fidelity,
    "f_lo_balanced_smalleta": lambda link: lo_bsm.fidelity_balanced_smalleta(_limit_p(link)),
    "f_lo_unbalanced": lambda link: lo_bsm.fidelity_unbalanced_limit(_limit_p(link)),
    "f_nlo": _f_nlo,
    "r_lo": lambda link: rates.rate_lo(link.scenario, link.clock),
    "r_nlo": lambda link: rates.rate_nlo(link.scenario, link.p_sfg, link.clock),
    "lo_bound": lambda link: lo_bsm.ONE_THIRD,
}
SWEEP_OUTPUTS = tuple(COLUMNS)

# Largest grid a sweep accepts.  At the limit, a sweep of all seven outputs
# peaks at about 44 MB resident as CSV and 74 MB as JSON, 29 MB of it the
# import (Python 3.11, numpy 2.4, Linux x86-64); --points 1e13 would ask
# numpy for an 80 TB grid.
POINTS_LIMIT = 100_000


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep request: one variable, a grid, fixed context, outputs."""

    variable: str
    start: float
    stop: float
    points: int
    scale: str
    fixed: dict[str, ConfigValue]
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise UsageError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        if not self.start < self.stop:
            raise UsageError(f"need start < stop, got {self.start} >= {self.stop}")
        check_nonnegative(self.start, "start")  # every sweep variable is >= 0
        check_nonnegative(self.stop, "stop")
        object.__setattr__(self, "points", check_count(self.points, "points", 2, POINTS_LIMIT))
        if self.scale not in ("linear", "log"):
            raise UsageError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise UsageError("log scale needs a positive range")
        unknown = [name for name in self.outputs if name not in SWEEP_OUTPUTS]
        if unknown:
            raise UsageError(f"unknown outputs {unknown}; available: {SWEEP_OUTPUTS}")
        if not self.outputs:
            raise UsageError("at least one output column is required")

    @classmethod
    def from_entries(cls, entries: dict[str, ConfigValue]) -> "SweepSpec":
        """The spec keys of merged config entries; every other entry is fixed context."""
        outputs = read(entries, "outputs") if "outputs" in entries else ",".join(DEFAULT_OUTPUTS)
        return cls(
            variable=read(entries, "variable"),
            start=read(entries, "start"),
            stop=read(entries, "stop"),
            points=read(entries, "points"),
            scale=read(entries, "scale") if "scale" in entries else "linear",
            fixed={key: value for key, value in entries.items() if key not in SPEC_KEYS},
            outputs=tuple(part.strip() for part in outputs.split(",") if part.strip()),
        )

    def grid(self) -> np.ndarray:
        if self.scale == "linear":
            values = np.linspace(self.start, self.stop, self.points)
        else:
            values = np.logspace(math.log10(self.start), math.log10(self.stop), self.points)
        # Pin the endpoints so boundary values (e.g. p = 1/4) stay exact.
        values[0], values[-1] = self.start, self.stop
        return values


def run_sweep(spec: SweepSpec) -> tuple[list[str], np.ndarray]:
    """The column names and the (points x columns) table of the grid and every
    requested output, rows in grid order.

    A swept value outside its domain fails the whole sweep, and the error
    names the first grid value that is.
    """
    grid = spec.grid()
    fields = ("eps_a", "eps_b") if spec.variable in ("p", "epsilon") else (spec.variable,)
    swept = epsilon_from_p(grid) if spec.variable == "p" else grid
    link = resolve_link(spec.fixed, dict.fromkeys(fields, swept))
    columns = [np.broadcast_to(COLUMNS[name](link), grid.shape) for name in spec.outputs]
    return [spec.variable, *spec.outputs], np.column_stack([grid, *columns])
