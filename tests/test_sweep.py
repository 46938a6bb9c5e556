"""A sweep over a grid gives the same bits as the scalar closed forms at each point."""

import pytest

from entswap.config import parse_config_text, resolve_link
from entswap.errors import DomainError, UndefinedFidelityError
from entswap.lo_bsm import (
    ONE_THIRD,
    fidelity_balanced_smalleta,
    fidelity_general,
    fidelity_unbalanced_limit,
)
from entswap.nlo_bsm import fidelity_nlo
from entswap.photon_stats import epsilon_from_p, p_from_epsilon
from entswap.rates import kept_source, rate_lo, rate_nlo
from entswap.sweep import SWEEP_OUTPUTS, SWEEP_VARIABLES, SweepSpec, run_sweep

FIXED = parse_config_text(
    "p_a = 0.01\np_b = 0.02\neta_a = 0.7\neta_b = 1e-3\np_sfg = 1e-3\nclock = 250 MHz"
)
# Enough points that a float/array rounding split as rare as 1 in 1000 shows.
POINTS = 5000
RANGES = {
    "p": (1e-4, 0.25),
    "epsilon": (1e-3, 0.45),
    "eta_a": (1e-6, 1.0),
    "eta_b": (1e-6, 1.0),
    "p_sfg": (1e-6, 1.0),
}


def _scalar_point(variable, x):
    """Every output at one grid value, through the scalar closed forms."""
    if variable in ("p", "epsilon"):
        eps = epsilon_from_p(x) if variable == "p" else x
        link = resolve_link(FIXED, {"eps_a": eps, "eps_b": eps})
    else:
        link = resolve_link(FIXED, {variable: x})
    s = link.scenario
    p_kept = p_from_epsilon(kept_source(s)[0])
    return {
        "f_lo_general": fidelity_general(s).fidelity,
        "f_lo_balanced_smalleta": fidelity_balanced_smalleta(p_kept),
        "f_lo_unbalanced": fidelity_unbalanced_limit(p_kept),
        "f_nlo": fidelity_nlo(s),
        "r_lo": rate_lo(s, link.clock),
        "r_nlo": rate_nlo(s, link.p_sfg, link.clock),
        "lo_bound": ONE_THIRD,
    }


@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_grid_equals_scalar_calls_bit_for_bit(variable):
    start, stop = RANGES[variable]
    spec = SweepSpec(variable, start, stop, POINTS, "log", FIXED, SWEEP_OUTPUTS)
    columns, rows = run_sweep(spec)
    assert columns == [variable, *SWEEP_OUTPUTS]
    assert len(rows) == POINTS
    for row in rows:
        expected = _scalar_point(variable, row[0])
        got = dict(zip(SWEEP_OUTPUTS, row[1:]))
        assert got == expected, row[0]


def test_swept_value_outside_domain_names_first_failing_point():
    # Grid 0.25, 0.5, ..., 1.5: 1.25 is the first transmission above 1.
    spec = SweepSpec("eta_b", 0.25, 1.5, 6, "linear", FIXED, ("f_lo_general",))
    with pytest.raises(DomainError, match=r"^eta_b must be in \[0, 1\], got 1.25$"):
        run_sweep(spec)


def test_only_f_nlo_refuses_p_sfg_zero():
    spec = SweepSpec("p_sfg", 0.0, 1.0, 3, "linear", FIXED, ("r_nlo",))
    assert run_sweep(spec)[1][0].tolist() == [0.0, 0.0]
    spec = SweepSpec("p_sfg", 0.0, 1.0, 3, "linear", FIXED, ("r_nlo", "f_nlo"))
    with pytest.raises(UndefinedFidelityError, match="p_sfg = 0 never heralds"):
        run_sweep(spec)
