"""Curated parameter presets, stored in the same text format users write.

Each preset is kept as config-file text and parsed through the regular
parser on access, so presets and user files can never drift apart in syntax.
"""

from __future__ import annotations

from .config import ConfigValue, parse_config_text
from .errors import ConfigError


_PRESET_TEXTS: dict[str, str] = {
    "fig2": """
# Fidelity-vs-pair-probability sweep, both sources driven equally.
# Default sweep grid: 200 log-spaced pair probabilities from 1e-3 to 1/4.
variable = p
start = 1e-3
stop = 0.25
points = 200
scale = log
outputs = f_nlo,f_lo_balanced_smalleta,f_lo_unbalanced,lo_bound
""",
    "ingap-ring": """
# InGaP microring design point: 5 um radius, telecom inputs, visible output.
# Design-point estimate, order 1e-3 conversion probability; the coupling
# rate is the SFG value (twice the second-harmonic rate).
g = 20 MHz
lambda_a = 1550 nm
lambda_b = 1550 nm
lambda_c = 775 nm
q_a = 4e5
q_b = 4e5
q_c = 1e5
""",
    "ingap-wg": """
# Phase-matched InGaP nanophotonic waveguide, 1 cm long.
# Full-bandwidth waveguide estimate, order 3e-5; efficiency quoted as
# 4x the measured second-harmonic efficiency.
eta_sfg = 500000 %/W/cm^2
accept = 6 GHz*cm
length = 1 cm
lambda = 1550 nm
""",
    "lnoi-ring": """
# Periodically-poled thin-film lithium niobate microring.
# Order-of-magnitude only: the conversion probability is quoted directly
# because the coupling rate and quality factors come from external device
# characterization not reproduced here.
p_sfg = 1e-4
""",
    "satellite": """
# Strongly asymmetric link: one channel near-lossless, the other ~50 dB down.
# Ground-to-satellite style asymmetry where the nonlinear scheme out-rates
# the attenuated linear-optical one by p_sfg * eta_a / eta_b = 100.
eta_a = 1
eta_b = 1e-5
p_a = 0.01
p_b = 0.01
p_sfg = 1e-3
clock = 1 GHz
""",
}

# Measured single-photon conversion probability demonstrated on a 10 um InGaP
# microring, echoed in device reports as a reference point.
DEMONSTRATED_RING_P_SFG = 4e-5


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESET_TEXTS))


def get_preset(name: str) -> dict[str, ConfigValue]:
    """The preset's entries, parsed as a config file would be."""
    if name not in _PRESET_TEXTS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return parse_config_text(_PRESET_TEXTS[name], source=f"<preset:{name}>")

