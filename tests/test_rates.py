import math

import pytest

from entswap.errors import DomainError
from entswap.photon_stats import SwapScenario, epsilon_from_p, p_from_epsilon
from entswap.rates import crossover, rate_lo, rate_nlo


def scenario_from_p(p_a, p_b, eta_a, eta_b):
    return SwapScenario.from_values(epsilon_from_p(p_a), epsilon_from_p(p_b), eta_a, eta_b)


class TestRateLo:
    def test_symmetric_substitution(self):
        scen = scenario_from_p(0.01, 0.01, 0.3, 0.3)
        assert rate_lo(scen, 1e6) == pytest.approx(0.3**2 * 0.01**2 * 1e6, rel=1e-12, abs=0.0)

    def test_asymmetric_attenuated_value(self):
        scen = scenario_from_p(0.01, 0.01, 1.0, 1e-3)
        assert rate_lo(scen, 1e9) == pytest.approx(1e-6 * 1e-4 * 1e9, rel=1e-12, abs=0.0)

    def test_zero_clock(self):
        scen = scenario_from_p(0.01, 0.01, 0.5, 0.5)
        assert rate_lo(scen, 0.0) == 0.0

    def test_explicit_product_at_the_attenuated_p_a(self):
        # p_a = eta_b p_b / eta_a already, so the attenuation changes nothing.
        scen = scenario_from_p(0.005, 0.01, 0.6, 0.3)
        expected = 0.6 * 0.3 * p_from_epsilon(scen.eps_a) * p_from_epsilon(scen.eps_b) * 1e9
        assert rate_lo(scen, 1e9) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestRateNlo:
    def test_unit_conversion_probability(self):
        scen = scenario_from_p(0.01, 0.01, 0.6, 0.3)
        expected = 0.6 * 0.3 * p_from_epsilon(scen.eps_a) * p_from_epsilon(scen.eps_b) * 1e9
        assert rate_nlo(scen, 1.0, 1e9) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_asymmetric_value(self):
        scen = scenario_from_p(0.01, 0.01, 1.0, 1e-3)
        assert rate_nlo(scen, 1e-3, 1e9) == pytest.approx(
            1e-3 * 1e-3 * 1e-4 * 1e9, rel=1e-12, abs=0.0
        )

    def test_zero_conversion(self):
        scen = scenario_from_p(0.01, 0.01, 0.5, 0.5)
        assert rate_nlo(scen, 0.0, 1e9) == 0.0

    def test_linear_in_clock(self):
        scen = scenario_from_p(0.02, 0.03, 0.4, 0.9)
        assert rate_nlo(scen, 1e-3, 2e9) == 2.0 * rate_nlo(scen, 1e-3, 1e9)
        assert rate_lo(scen, 2e9) == 2.0 * rate_lo(scen, 1e9)


class TestCrossover:
    def test_strong_asymmetry_favors_nonlinear(self):
        result = crossover(1e-3, 1.0, 1e-5)
        assert result.nlo_wins
        assert result.ratio == 100.0

    def test_weak_conversion_loses(self):
        result = crossover(1e-8, 1.0, 1e-3)
        assert not result.nlo_wins
        assert result.ratio == pytest.approx(1e-5, rel=1e-12, abs=0.0)

    def test_boundary_is_strict(self):
        result = crossover(1e-3, 0.5, 5e-4)
        assert result.ratio == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert not result.nlo_wins

    def test_zero_eta_b_rejected(self):
        with pytest.raises(DomainError):
            crossover(1e-3, 0.5, 0.0)

    def test_ratio_past_the_float_range_rejected(self):
        # A subnormal eta_b used to give ratio = inf, written to JSON as Infinity.
        with pytest.raises(DomainError, match=r"of magnitude >= 2.2e-308, got inf$"):
            crossover(1e-3, 1.0, 1e-320)


class TestRateRatioIdentity:
    def test_ratio_equals_crossover_ratio(self):
        scen = scenario_from_p(0.01, 0.01, 1.0, 1e-5)
        ratio = rate_nlo(scen, 1e-3, 1e9) / rate_lo(scen, 1e9)
        assert ratio == pytest.approx(crossover(1e-3, 1.0, 1e-5).ratio, rel=1e-13, abs=0.0)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("clock", [math.nan, math.inf])
    def test_clock_rejected(self, clock):
        scen = scenario_from_p(0.01, 0.01, 0.5, 0.5)
        with pytest.raises(DomainError):
            rate_lo(scen, clock)
        with pytest.raises(DomainError):
            rate_nlo(scen, 1e-3, clock)

    @pytest.mark.parametrize("eta_a, eta_b", [(math.nan, 0.5), (0.5, math.nan)])
    def test_crossover_rejects_nan_transmission(self, eta_a, eta_b):
        with pytest.raises(DomainError):
            crossover(0.1, eta_a, eta_b)
