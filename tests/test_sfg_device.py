import dataclasses
import math

import numpy as np
import pytest
from scipy.constants import c as C_LIGHT
from scipy.constants import h as H_PLANCK
from scipy.constants import hbar as HBAR

from entswap import sfg_device
from entswap.errors import DomainError, ModelValidityWarning
from entswap.sfg_device import (
    CavityParams,
    WaveguideParams,
    cavity_steady_state,
    eta_sfg_cavity,
    kappa_from_q,
    omega_from_wavelength_nm,
    p_sfg_cavity,
    p_sfg_from_eta,
    p_sfg_waveguide,
    sfg_coupling_from_shg,
    sfg_efficiency_from_shg,
    sfg_output_power,
)

TWO_PI = 2.0 * math.pi


def test_si_constants_equal_scipy_exactly():
    # The module spells out the SI values so that importing it loads no scipy.
    assert sfg_device._C_LIGHT == C_LIGHT
    assert sfg_device._H_PLANCK == H_PLANCK
    assert sfg_device._HBAR == HBAR


def ingap_ring():
    omega_a = omega_from_wavelength_nm(1550.0)
    omega_b = omega_from_wavelength_nm(1550.0)
    return CavityParams(
        g=TWO_PI * 20e6,
        omega_a=omega_a,
        omega_b=omega_b,
        omega_c=omega_a + omega_b,
        kappa_a=kappa_from_q(omega_a, 4e5),
        kappa_b=kappa_from_q(omega_b, 4e5),
        kappa_c=kappa_from_q(omega_a + omega_b, 1e5),
        kappa_ae=kappa_from_q(omega_a, 8e5),
        kappa_be=kappa_from_q(omega_b, 8e5),
        kappa_ce=kappa_from_q(omega_a + omega_b, 2e5),
    )


def random_resonant_cavity(rng):
    omega_a = rng.uniform(0.5, 2.0) * 1e15
    omega_b = rng.uniform(0.5, 2.0) * 1e15
    kappa_a = rng.uniform(1e8, 1e11)
    kappa_b = kappa_a * rng.uniform(0.7, 1.4)
    kappa_c = rng.uniform(1e8, 1e11)
    return CavityParams(
        g=rng.uniform(1e5, 1e9),
        omega_a=omega_a,
        omega_b=omega_b,
        omega_c=omega_a + omega_b,
        kappa_a=kappa_a,
        kappa_b=kappa_b,
        kappa_c=kappa_c,
        kappa_ae=kappa_a * rng.uniform(0.1, 1.0),
        kappa_be=kappa_b * rng.uniform(0.1, 1.0),
        kappa_ce=kappa_c * rng.uniform(0.1, 1.0),
    )


class TestKappaFromQ:
    def test_telecom_mode(self):
        omega = TWO_PI * 193.41e12
        assert kappa_from_q(omega, 4e5) == pytest.approx(TWO_PI * 483.5e6, rel=1e-3)

    def test_visible_mode(self):
        omega = TWO_PI * 386.83e12
        assert kappa_from_q(omega, 1e5) == pytest.approx(TWO_PI * 3.868e9, rel=1e-3)

    def test_lossless_limit(self):
        assert kappa_from_q(TWO_PI * 2e14, 1e30) == pytest.approx(0.0, abs=1e-10)

    def test_invalid_q(self):
        with pytest.raises(DomainError):
            kappa_from_q(1e15, 0.0)
        with pytest.raises(DomainError):
            kappa_from_q(1e15, -2.0)


class TestSteadyState:
    def test_undriven_mode_stays_empty(self):
        cav = ingap_ring()
        state = cavity_steady_state(cav, 0.0, 1e-3)
        assert state.amp_a == 0.0
        assert state.amp_c == 0.0
        assert state.n_b > 0.0

    def test_on_resonance_photon_number(self):
        cav = ingap_ring()
        power = 1e-3
        state = cavity_steady_state(cav, power, 0.0)
        expected = (cav.kappa_ae / 2) / (cav.kappa_a / 2) ** 2 * power / (HBAR * cav.omega_a)
        assert state.n_a == pytest.approx(expected, rel=1e-12)

    def test_half_linewidth_detuning_halves_the_population(self):
        # A sum-frequency mode half a linewidth off omega_a + omega_b holds
        # half the photons; the input modes do not see it.
        base = ingap_ring()
        detuned = dataclasses.replace(base, omega_c=base.omega_c - base.kappa_c / 2)
        on = cavity_steady_state(base, 1e-3, 1e-3)
        off = cavity_steady_state(detuned, 1e-3, 1e-3)
        assert off.n_a == on.n_a
        # omega_c only stores the detuning to ~ulp(omega_c) absolute.
        assert off.n_c == pytest.approx(on.n_c / 2, rel=1e-9)

    def test_solution_satisfies_the_mode_equations(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            cav = random_resonant_cavity(rng)
            state = cavity_steady_state(cav, 2e-3, 5e-4)
            residual_a = (
                -(cav.kappa_a / 2) * state.amp_a
                + 1j * math.sqrt(cav.kappa_ae / 2) * state.a_in
            )
            residual_c = (
                -(1j * (cav.omega_c - cav.omega_a - cav.omega_b) + cav.kappa_c / 2)
                * state.amp_c
                - 1j * cav.g * state.amp_a * state.amp_b
            )
            scale_a = abs(state.amp_a) * cav.kappa_a
            scale_c = max(abs(state.amp_c) * cav.kappa_c, 1e-300)
            assert abs(residual_a) <= 1e-10 * scale_a
            assert abs(residual_c) <= 1e-10 * scale_c

    def test_sum_frequency_population_is_bilinear(self):
        cav = ingap_ring()
        reference = cavity_steady_state(cav, 1e-6, 1e-6).n_c
        for decades in (1, 2, 3):
            factor = 10.0**decades
            scaled_a = cavity_steady_state(cav, 1e-6 * factor, 1e-6).n_c
            scaled_b = cavity_steady_state(cav, 1e-6, 1e-6 * factor).n_c
            assert scaled_a == pytest.approx(factor * reference, rel=1e-9)
            assert scaled_b == pytest.approx(factor * reference, rel=1e-9)


class TestEfficiency:
    def test_far_detuning_kills_the_efficiency(self):
        base = ingap_ring()
        on_value = eta_sfg_cavity(base)
        detuned = dataclasses.replace(base, omega_c=base.omega_c + 1e6 * base.kappa_c)
        assert eta_sfg_cavity(detuned) < 1e-11 * on_value

    def test_on_resonance_product_form(self):
        cav = ingap_ring()
        expected = (
            cav.g**2
            * (cav.kappa_ae / 2) / (cav.kappa_a / 2) ** 2
            * (cav.kappa_be / 2) / (cav.kappa_b / 2) ** 2
            * (cav.kappa_ce / 2) / (cav.kappa_c / 2) ** 2
            * cav.omega_c / (HBAR * cav.omega_a * cav.omega_b)
        )
        assert eta_sfg_cavity(cav) == pytest.approx(expected, rel=1e-12)

    def test_power_relation(self):
        cav = ingap_ring()
        p_a, p_b = 2e-3, 7e-4
        assert sfg_output_power(cav, p_a, p_b) == pytest.approx(
            eta_sfg_cavity(cav) * p_a * p_b, rel=1e-10
        )


class TestConversionProbability:
    def test_ingap_design_point(self):
        value = p_sfg_cavity(ingap_ring())
        assert value == pytest.approx(8.554e-4, rel=1e-3)
        assert 5e-4 <= value <= 2e-3

    def test_zero_coupling(self):
        cav = ingap_ring()
        quiet = dataclasses.replace(cav, g=0.0)
        assert p_sfg_cavity(quiet) == 0.0

    def test_composition_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            cav = random_resonant_cavity(rng)
            composed = p_sfg_from_eta(cav, eta_sfg_cavity(cav))
            assert composed == pytest.approx(p_sfg_cavity(cav), rel=1e-12)

    def test_overcoupled_composition_unchanged(self):
        omega = omega_from_wavelength_nm(1550.0)
        cav = CavityParams(
            g=TWO_PI * 20e6,
            omega_a=omega,
            omega_b=omega,
            omega_c=2 * omega,
            kappa_a=kappa_from_q(omega, 4e5),
            kappa_b=kappa_from_q(omega, 4e5),
            kappa_c=kappa_from_q(2 * omega, 1e5),
            kappa_ae=kappa_from_q(omega, 4e5),
            kappa_be=kappa_from_q(omega, 4e5),
            kappa_ce=kappa_from_q(2 * omega, 1e5),
        )
        assert p_sfg_from_eta(cav, eta_sfg_cavity(cav)) == pytest.approx(
            p_sfg_cavity(cav), rel=1e-12
        )

    def test_degraded_efficiency_scales_linearly(self):
        cav = ingap_ring()
        ideal = eta_sfg_cavity(cav)
        assert p_sfg_from_eta(cav, ideal / 2) == pytest.approx(
            p_sfg_cavity(cav) / 2, rel=1e-12
        )

    def test_linewidth_disparity_warns(self):
        omega = omega_from_wavelength_nm(1550.0)
        cav = CavityParams(
            g=TWO_PI * 20e6,
            omega_a=omega,
            omega_b=omega,
            omega_c=2 * omega,
            kappa_a=kappa_from_q(omega, 4e5),
            kappa_b=kappa_from_q(omega, 4e4),
            kappa_c=kappa_from_q(2 * omega, 1e5),
            kappa_ae=kappa_from_q(omega, 8e5),
            kappa_be=kappa_from_q(omega, 8e4),
            kappa_ce=kappa_from_q(2 * omega, 2e5),
        )
        with pytest.warns(ModelValidityWarning):
            p_sfg_cavity(cav)

    def test_unphysical_probability_warns(self):
        omega = omega_from_wavelength_nm(1550.0)
        cav = CavityParams(
            g=1e12,
            omega_a=omega,
            omega_b=omega,
            omega_c=2 * omega,
            kappa_a=1e9,
            kappa_b=1e9,
            kappa_c=1e9,
            kappa_ae=5e8,
            kappa_be=5e8,
            kappa_ce=5e8,
        )
        with pytest.warns(ModelValidityWarning):
            assert p_sfg_cavity(cav) > 1.0


class TestWaveguide:
    def ingap_waveguide(self):
        return WaveguideParams(
            eta_sfg_norm=5e3,  # 500,000 %/W/cm^2
            spectral_acceptance=6e9,
            length=1.0,
            photon_frequency=C_LIGHT / 1550e-9,
        )

    def test_design_point(self):
        value = p_sfg_waveguide(self.ingap_waveguide())
        assert value == pytest.approx(2.4157e-5, rel=1e-3)
        assert 1.5e-5 <= value <= 4e-5

    def test_zero_length(self):
        wg = self.ingap_waveguide()
        short = WaveguideParams(wg.eta_sfg_norm, wg.spectral_acceptance, 0.0, wg.photon_frequency)
        assert p_sfg_waveguide(short) == 0.0

    def test_length_doubling(self):
        wg = self.ingap_waveguide()
        double = WaveguideParams(wg.eta_sfg_norm, wg.spectral_acceptance, 2.0, wg.photon_frequency)
        assert p_sfg_waveguide(double) == 2.0 * p_sfg_waveguide(wg)

    def test_dimensionless_by_unit_bookkeeping(self):
        # Tiny unit-exponent harness: every factor carries its dimensions and
        # the product must come out with none left over.
        def unit(value, **dims):
            return (value, dims)

        def multiply(*factors):
            value, dims = 1.0, {}
            for v, d in factors:
                value *= v
                for name, power in d.items():
                    dims[name] = dims.get(name, 0) + power
            return value, {k: v for k, v in dims.items() if v != 0}

        wg = self.ingap_waveguide()
        product = multiply(
            unit(2 * math.pi),
            unit(wg.eta_sfg_norm, W=-1, cm=-2),
            unit(H_PLANCK, J=1, s=1),
            unit(wg.photon_frequency, s=-1),
            unit(wg.spectral_acceptance, s=-1, cm=1),
            unit(wg.length, cm=1),
            unit(1.0, W=1, J=-1, s=1),  # 1 W = 1 J/s
        )
        value, leftover = product
        assert leftover == {}
        assert value == pytest.approx(p_sfg_waveguide(wg), rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            WaveguideParams(-1.0, 6e9, 1.0, 2e14)
        with pytest.raises(DomainError):
            WaveguideParams(5e3, 6e9, -1.0, 2e14)


class TestShgConversions:
    def test_coupling_doubles(self):
        assert sfg_coupling_from_shg(TWO_PI * 10e6) == TWO_PI * 20e6

    def test_efficiency_quadruples(self):
        assert sfg_efficiency_from_shg(1250.0) == 5000.0


class TestCavityValidation:
    def test_external_rate_cannot_exceed_total(self):
        omega = omega_from_wavelength_nm(1550.0)
        with pytest.raises(DomainError):
            CavityParams(
                g=1e6,
                omega_a=omega,
                omega_b=omega,
                omega_c=2 * omega,
                kappa_a=1e9,
                kappa_b=1e9,
                kappa_c=1e9,
                kappa_ae=2e9,
                kappa_be=5e8,
                kappa_ce=5e8,
            )

    def test_negative_coupling_rejected(self):
        omega = omega_from_wavelength_nm(1550.0)
        with pytest.raises(DomainError):
            CavityParams(
                g=-1.0,
                omega_a=omega,
                omega_b=omega,
                omega_c=2 * omega,
                kappa_a=1e9,
                kappa_b=1e9,
                kappa_c=1e9,
                kappa_ae=5e8,
                kappa_be=5e8,
                kappa_ce=5e8,
            )


WAVEGUIDE = WaveguideParams(5e3, 6e9, 1.0, C_LIGHT / 1550e-9)
NAN_INPUTS = [
    *(
        pytest.param(
            lambda name=f.name: dataclasses.replace(ingap_ring(), **{name: math.nan}),
            id=f"cavity-{f.name}",
        )
        for f in dataclasses.fields(CavityParams)
    ),
    *(
        pytest.param(
            lambda name=f.name: dataclasses.replace(WAVEGUIDE, **{name: math.nan}),
            id=f"waveguide-{f.name}",
        )
        for f in dataclasses.fields(WaveguideParams)
    ),
    pytest.param(lambda: kappa_from_q(1e15, math.nan), id="kappa-from-q"),
    pytest.param(lambda: omega_from_wavelength_nm(math.nan), id="omega-from-wavelength"),
    pytest.param(lambda: p_sfg_from_eta(ingap_ring(), math.nan), id="p-sfg-from-eta"),
    pytest.param(lambda: cavity_steady_state(ingap_ring(), math.nan, 1e-3), id="power-a"),
    pytest.param(lambda: cavity_steady_state(ingap_ring(), 1e-3, math.nan), id="power-b"),
]


@pytest.mark.parametrize("call", NAN_INPUTS)
def test_nan_rejected(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CavityParams)])
def test_cavity_rejects_infinite_fields(name, value):
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        dataclasses.replace(ingap_ring(), **{name: value})


OVERFLOW = "the device parameters overflow a float"


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: eta_sfg_cavity(dataclasses.replace(ingap_ring(), g=1e172)),
                     id="eta-sfg-cavity"),
        pytest.param(lambda: p_sfg_cavity(dataclasses.replace(ingap_ring(), g=1e172)),
                     id="p-sfg-cavity"),
        pytest.param(lambda: p_sfg_waveguide(WaveguideParams(1e200, 1e200, 1.0, 2e14)),
                     id="p-sfg-waveguide"),
        pytest.param(lambda: p_sfg_from_eta(ingap_ring(), 1e300), id="p-sfg-from-eta"),
    ],
)
def test_overflowing_result_is_refused(call):
    # Every field is finite; only the product leaves the float range.
    with pytest.raises(DomainError, match=OVERFLOW):
        call()


def tiny_linewidths(kappa):
    """The ring with every linewidth ``kappa``: squares of kappa/2 underflow to 0."""
    names = ("kappa_a", "kappa_b", "kappa_c", "kappa_ae", "kappa_be", "kappa_ce")
    return dataclasses.replace(ingap_ring(), **dict.fromkeys(names, kappa))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: eta_sfg_cavity(tiny_linewidths(1e-200)), id="eta-sfg-cavity"),
        pytest.param(lambda: p_sfg_cavity(tiny_linewidths(1e-200)), id="p-sfg-cavity"),
        pytest.param(lambda: p_sfg_from_eta(tiny_linewidths(5e-324), 1.0), id="p-sfg-from-eta"),
        pytest.param(lambda: cavity_steady_state(tiny_linewidths(5e-324), 1e-3, 1e-3),
                     id="steady-state-linewidth"),
        pytest.param(lambda: cavity_steady_state(ingap_ring(), 1e280, 1e280),
                     id="steady-state-photon-number"),
        pytest.param(lambda: omega_from_wavelength_nm(1e-316), id="omega-from-wavelength"),
    ],
)
def test_intermediate_underflow_or_overflow_is_refused(call):
    # Python raises ZeroDivisionError where a product in a denominator underflows
    # to 0, and OverflowError where a square overflows; both must come out typed.
    with pytest.raises(DomainError, match="the device parameters leave the float range"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: cavity_steady_state(ingap_ring(), math.inf, 1e-3),
                     "power_a must be finite and >= 0, got inf", id="power-a-inf"),
        pytest.param(lambda: cavity_steady_state(ingap_ring(), 1e-3, math.inf),
                     "power_b must be finite and >= 0, got inf", id="power-b-inf"),
        pytest.param(lambda: sfg_output_power(ingap_ring(), math.inf, 1e-3),
                     "power_a must be finite and >= 0, got inf", id="output-power-a-inf"),
        pytest.param(lambda: cavity_steady_state(ingap_ring(), 1e300, 1e300),
                     f"n_a = nan: {OVERFLOW}", id="steady-state-overflow"),
        pytest.param(lambda: sfg_output_power(ingap_ring(), 1e300, 1e300),
                     f"n_a = nan: {OVERFLOW}", id="output-overflow"),
    ],
)
def test_steady_state_never_returns_nan(call, message):
    # An infinite pump, or a photon flux P / (hbar omega) past the float range,
    # used to give n_c = nan.
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()
