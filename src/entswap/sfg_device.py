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
from .photon_stats import check_nonnegative

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
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value}")
        if not self.g >= 0.0:
            raise DomainError(f"g must be >= 0, got {self.g}")
        for name in ("omega_a", "omega_b", "omega_c", "kappa_a", "kappa_b", "kappa_c"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)}")
        for ext, tot in (("kappa_ae", "kappa_a"), ("kappa_be", "kappa_b"), ("kappa_ce", "kappa_c")):
            ext_v, tot_v = getattr(self, ext), getattr(self, tot)
            if not 0.0 < ext_v <= tot_v:
                raise DomainError(f"need 0 < {ext} <= {tot}, got {ext_v} vs {tot_v}")


@dataclass(frozen=True)
class SteadyState:
    """Static intracavity amplitudes (sqrt-photon units) under continuous drive."""

    amp_a: complex
    amp_b: complex
    amp_c: complex
    a_in: float
    b_in: float

    @property
    def n_a(self) -> float:
        return abs(self.amp_a) ** 2

    @property
    def n_b(self) -> float:
        return abs(self.amp_b) ** 2

    @property
    def n_c(self) -> float:
        return abs(self.amp_c) ** 2


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
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.length >= 0.0:
            raise DomainError(f"length must be >= 0, got {self.length}")


def _finite(value: float, name: str) -> float:
    """``value``, refused when the device parameters overflow a float."""
    if not math.isfinite(value):
        raise DomainError(f"{name} = {value}: the device parameters overflow a float")
    return value


@contextmanager
def _in_float_range(name: str):
    """Refuse, as DomainError, a computation of ``name`` that leaves the float range
    by raising: Python raises ZeroDivisionError where a denominator underflows to 0,
    and OverflowError where ``**`` or a complex ``abs`` overflows."""
    try:
        yield
    except (ZeroDivisionError, OverflowError):
        raise DomainError(
            f"{name}: an intermediate value underflows to 0 or overflows; "
            "the device parameters leave the float range"
        ) from None


def kappa_from_q(omega: float, q: float) -> float:
    """Linewidth kappa = omega / Q for a resonance at angular frequency omega."""
    if not q > 0.0:
        raise DomainError(f"quality factor must be > 0, got {q}")
    return omega / q


def omega_from_wavelength_nm(wavelength_nm: float) -> float:
    """Angular frequency 2 pi c / lambda for a vacuum wavelength in nm."""
    if not wavelength_nm > 0.0:
        raise DomainError(f"wavelength must be > 0, got {wavelength_nm}")
    with _in_float_range("omega"):
        return 2.0 * math.pi * _C_LIGHT / (wavelength_nm * 1e-9)


def sfg_coupling_from_shg(g_shg: float) -> float:
    """Nonlinear coupling rate for SFG given the measured SHG rate (factor 2)."""
    return 2.0 * g_shg


def sfg_efficiency_from_shg(eta_shg: float) -> float:
    """Normalized SFG efficiency given the measured SHG efficiency (factor 4)."""
    return 4.0 * eta_shg


def cavity_steady_state(cav: CavityParams, power_a: float, power_b: float) -> SteadyState:
    """Solve the coupled-mode equations, driven on resonance, to leading order in g/kappa.

    The input fluxes are a_in = sqrt(P_a / (hbar omega_a)) etc.; each input
    mode fills its Lorentzian independently and the sum-frequency amplitude
    follows from the product:

        a = i sqrt(kappa_ae/2) a_in / (kappa_a/2)
        c = -i g a b / (i (omega_c - omega_a - omega_b) + kappa_c/2)
    """
    check_nonnegative(power_a, "power_a")
    check_nonnegative(power_b, "power_b")
    with _in_float_range("the steady state"):
        a_in = (power_a / (_HBAR * cav.omega_a)) ** 0.5
        b_in = (power_b / (_HBAR * cav.omega_b)) ** 0.5
        amp_a = 1j * (cav.kappa_ae / 2.0) ** 0.5 * a_in / (cav.kappa_a / 2.0)
        amp_b = 1j * (cav.kappa_be / 2.0) ** 0.5 * b_in / (cav.kappa_b / 2.0)
        amp_c = -1j * cav.g * amp_a * amp_b / (
            1j * (cav.omega_c - cav.omega_a - cav.omega_b) + cav.kappa_c / 2.0
        )
        state = SteadyState(amp_a=amp_a, amp_b=amp_b, amp_c=amp_c, a_in=a_in, b_in=b_in)
        for name in ("n_a", "n_b", "n_c"):
            _finite(getattr(state, name), name)
    return state


def sfg_output_power(cav: CavityParams, power_a: float, power_b: float) -> float:
    """Outgoing SFG power P_c = (kappa_ce/2) hbar omega_c |c|^2 under both drives."""
    state = cavity_steady_state(cav, power_a, power_b)
    return _finite((cav.kappa_ce / 2.0) * _HBAR * cav.omega_c * state.n_c, "P_c")


def eta_sfg_cavity(cav: CavityParams) -> float:
    """Classical conversion efficiency eta_sfg (per W), driven on resonance:

        g^2 * (kappa_ae/2) / (kappa_a/2)^2
            * (kappa_be/2) / (kappa_b/2)^2
            * (kappa_ce/2) / ((omega_c - omega_a - omega_b)^2 + (kappa_c/2)^2)
            * hbar omega_c / (hbar omega_a hbar omega_b)

    A sum-frequency mismatch far beyond kappa_c drives the efficiency to zero.
    """
    mismatch = cav.omega_c - cav.omega_a - cav.omega_b
    half_a, half_b, half_c = cav.kappa_a / 2.0, cav.kappa_b / 2.0, cav.kappa_c / 2.0
    with _in_float_range("eta_sfg"):
        eta = (
            cav.g * cav.g
            * (cav.kappa_ae / 2.0) / (half_a * half_a)
            * (cav.kappa_be / 2.0) / (half_b * half_b)
            * (cav.kappa_ce / 2.0) / (mismatch * mismatch + half_c * half_c)
            * (_HBAR * cav.omega_c) / ((_HBAR * cav.omega_a) * (_HBAR * cav.omega_b))
        )
    return _finite(eta, "eta_sfg")


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
    with _in_float_range("p_sfg"):
        p = _finite(4.0 * cav.g * cav.g / (cav.kappa_a * cav.kappa_c), "p_sfg")
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

        p_sfg = eta_sfg * (kappa_a/2)^2 / (kappa_ae/2)
                        * (kappa_b/2)^2 / (kappa_be/2)
                        * kappa_c / (kappa_a * kappa_ce/2)
                        * hbar omega_a hbar omega_b / (hbar omega_c)

    Composing eta_sfg_cavity (on resonance, frequency matched) with this map
    reproduces 4 g^2 / (kappa_a kappa_c) identically; a below-ideal measured
    efficiency scales p_sfg down linearly.
    """
    if not eta_sfg >= 0.0:
        raise DomainError(f"eta_sfg must be >= 0, got {eta_sfg}")
    half_a, half_b = cav.kappa_a / 2.0, cav.kappa_b / 2.0
    with _in_float_range("p_sfg"):
        p = (
            eta_sfg
            * (half_a * half_a) / (cav.kappa_ae / 2.0)
            * (half_b * half_b) / (cav.kappa_be / 2.0)
            * cav.kappa_c / (cav.kappa_a * cav.kappa_ce / 2.0)
            * (_HBAR * cav.omega_a) * (_HBAR * cav.omega_b) / (_HBAR * cav.omega_c)
        )
    return _finite(p, "p_sfg")


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
    return _finite(p, "p_sfg")
