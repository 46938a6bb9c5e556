"""Single-photon up-conversion probability of nonlinear cavities and waveguides.

A triply-resonant chi(2) cavity with modes a, b (inputs) and c (sum
frequency) is described by coupled-mode theory.  All frequencies and rates
inside this module are angular (rad/s); lab conventions (quality factors,
ordinary frequencies in Hz, wavelengths in nm, %/W/cm^2 efficiencies) are
converted at the boundary, see :mod:`entswap.config`.

Conventions for the classical characterization link:

    P_c = eta_sfg * P_a * P_b        (outgoing SFG power vs pump powers)
    p_sfg = 4 g^2 / (kappa_a kappa_c)  (inherent single-photon probability)

with the two related through the cavity coupling factors, so a measured
eta_sfg can be turned into p_sfg without knowing g directly.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields

from .errors import DomainError, ModelValidityWarning
from .photon_stats import check_float_range, check_nonnegative, check_positive

# Exact SI values (2019 redefinition), written out so that importing this
# module loads no scipy; tests pin them to scipy.constants with ==.
_C_LIGHT = 299792458.0
_H_PLANCK = 6.62607015e-34
_HBAR = _H_PLANCK / (2.0 * math.pi)

# Fractional linewidth disparity between the two input modes beyond which the
# single-number p_sfg formula (which assumes kappa_a ~ kappa_b) gets flagged.
KAPPA_DISPARITY_WARN = 0.5


@dataclass(frozen=True)
class CavityParams:
    """Triply-resonant cavity in angular-frequency units (rad/s throughout).

    kappa_x is the total linewidth of mode x and kappa_xe its external
    (coupling) part.  Classical characterization drives modes a and b on
    resonance, so omega_c - omega_a - omega_b is the only detuning.
    """

    g: float
    omega_a: float
    omega_b: float
    omega_c: float
    kappa_a: float
    kappa_b: float
    kappa_c: float
    kappa_ae: float
    kappa_be: float
    kappa_ce: float

    def __post_init__(self) -> None:
        check_nonnegative(self.g, "g")
        for f in fields(self)[1:]:  # every field after g is a frequency or a linewidth
            check_positive(getattr(self, f.name), f.name)
        for ext, tot in (("kappa_ae", "kappa_a"), ("kappa_be", "kappa_b"), ("kappa_ce", "kappa_c")):
            ext_v, tot_v = getattr(self, ext), getattr(self, tot)
            if not ext_v <= tot_v:
                raise DomainError(f"need {ext} <= {tot}, got {ext_v} vs {tot_v}")


@dataclass(frozen=True)
class WaveguideParams:
    """Phase-matched waveguide in lab units.

    eta_sfg_norm: normalized efficiency in 1/(W cm^2) (percent already removed)
    spectral_acceptance: phase-matching bandwidth-length product in Hz*cm
    length: cm
    photon_frequency: Hz (ordinary frequency of the long-wavelength photon)
    """

    eta_sfg_norm: float
    spectral_acceptance: float
    length: float
    photon_frequency: float

    def __post_init__(self) -> None:
        for name in ("eta_sfg_norm", "spectral_acceptance", "photon_frequency"):
            check_positive(getattr(self, name), name)
        check_nonnegative(self.length, "length")


@contextmanager
def _in_float_range(name: str):
    """Refuse, as check_float_range refuses an infinite result, a computation of ``name``
    whose denominator underflows to 0, where Python raises ZeroDivisionError."""
    try:
        yield
    except ZeroDivisionError:
        check_float_range(math.inf, name)


def kappa_from_q(omega: float, q: float) -> float:
    """Linewidth kappa = omega / Q for a resonance at angular frequency omega."""
    check_positive(omega, "omega")
    check_positive(q, "q")
    return check_float_range(omega / q, "kappa")


def omega_from_wavelength_nm(wavelength_nm: float) -> float:
    """Angular frequency 2 pi c / lambda for a vacuum wavelength in nm."""
    check_positive(wavelength_nm, "wavelength_nm")
    with _in_float_range("omega"):
        return check_float_range(2.0 * math.pi * _C_LIGHT / (wavelength_nm * 1e-9), "omega")


def sfg_coupling_from_shg(g_shg: float) -> float:
    """Nonlinear coupling rate for SFG given the measured SHG rate (factor 2)."""
    check_nonnegative(g_shg, "g_shg")
    return 2.0 * g_shg


def sfg_efficiency_from_shg(eta_shg: float) -> float:
    """Normalized SFG efficiency given the measured SHG efficiency (factor 4)."""
    check_positive(eta_shg, "eta_shg")
    return 4.0 * eta_shg


def _drive_factor(cav: CavityParams, mismatch: float) -> float:
    """eta_sfg / g^2 at sum-frequency mismatch omega_c - omega_a - omega_b:

        (kappa_ae/2) / (kappa_a/2)^2 * (kappa_be/2) / (kappa_b/2)^2
            * (kappa_ce/2) / (mismatch^2 + (kappa_c/2)^2)
            * hbar omega_c / (hbar omega_a hbar omega_b)
    """
    half_a, half_b, half_c = cav.kappa_a / 2.0, cav.kappa_b / 2.0, cav.kappa_c / 2.0
    return (
        (cav.kappa_ae / 2.0) / (half_a * half_a)
        * (cav.kappa_be / 2.0) / (half_b * half_b)
        * (cav.kappa_ce / 2.0) / (mismatch * mismatch + half_c * half_c)
        * (_HBAR * cav.omega_c) / ((_HBAR * cav.omega_a) * (_HBAR * cav.omega_b))
    )


def eta_sfg_cavity(cav: CavityParams) -> float:
    """Classical conversion efficiency eta_sfg (per W) with a and b driven on
    resonance: g^2 times the drive factor at the cavity's sum-frequency mismatch.
    A mismatch far beyond kappa_c drives the efficiency to zero.
    """
    g2 = check_float_range(cav.g * cav.g, "eta_sfg", cav.g)
    with _in_float_range("eta_sfg"):
        eta = g2 * _drive_factor(cav, cav.omega_c - cav.omega_a - cav.omega_b)
    return check_float_range(eta, "eta_sfg", cav.g)


def p_sfg_cavity(cav: CavityParams) -> float:
    """Inherent single-photon conversion probability 4 g^2 / (kappa_a kappa_c).

    Applies to photons with bandwidth up to the cavity linewidth.  Derived
    assuming kappa_a ~ kappa_b; a strong disparity is flagged, not rejected.
    """
    disparity = abs(cav.kappa_a - cav.kappa_b) / cav.kappa_a
    if disparity > KAPPA_DISPARITY_WARN:
        warnings.warn(
            f"kappa_a and kappa_b differ by {disparity:.0%}; the single-number "
            "conversion probability assumes comparable input linewidths",
            ModelValidityWarning,
            stacklevel=2,
        )
    g2 = check_float_range(cav.g * cav.g, "p_sfg", cav.g)
    with _in_float_range("p_sfg"):
        p = check_float_range(4.0 * g2 / (cav.kappa_a * cav.kappa_c), "p_sfg", cav.g)
    if p > 1.0:
        warnings.warn(
            f"p_sfg = {p:g} exceeds 1; coupling too strong for the perturbative "
            "single-photon picture",
            ModelValidityWarning,
            stacklevel=2,
        )
    return p


def p_sfg_from_eta(cav: CavityParams, eta_sfg: float) -> float:
    """Single-photon conversion probability from a measured classical efficiency:
    g^2 = eta_sfg / (drive factor at zero mismatch), then 4 g^2 / (kappa_a kappa_c).

    Composing eta_sfg_cavity (frequency matched) with this map reproduces
    p_sfg_cavity; a below-ideal measured efficiency scales p_sfg down linearly.
    """
    check_nonnegative(eta_sfg, "eta_sfg")
    with _in_float_range("p_sfg"):
        g2 = check_float_range(eta_sfg / _drive_factor(cav, 0.0), "p_sfg", eta_sfg)
        p = 4.0 * g2 / (cav.kappa_a * cav.kappa_c)
    return check_float_range(p, "p_sfg", eta_sfg)


def p_sfg_waveguide(wg: WaveguideParams) -> float:
    """Single-photon conversion probability of a waveguide using its full
    phase-matching bandwidth:

        p_sfg = 2 pi * eta_sfg * h * nu * (acceptance) * L

    with eta_sfg in 1/(W cm^2), the acceptance in Hz*cm and L in cm, so the
    result is dimensionless.
    """
    p = (
        2.0
        * math.pi
        * wg.eta_sfg_norm
        * _H_PLANCK
        * wg.photon_frequency
        * wg.spectral_acceptance
        * wg.length
    )
    return check_float_range(p, "p_sfg", wg.length)
