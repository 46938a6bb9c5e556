import math
from fractions import Fraction

import pytest

from entswap.errors import DomainError
from entswap.photon_stats import SwapScenario, epsilon_from_p, p_from_epsilon
from entswap.rates import compare, kept_source, rate_lo, rate_nlo


def scenario_from_p(p_a, p_b, eta_a, eta_b):
    return SwapScenario.from_values(epsilon_from_p(p_a), epsilon_from_p(p_b), eta_a, eta_b)


class TestRateLo:
    def test_symmetric_substitution(self):
        scen = scenario_from_p(0.01, 0.01, 0.3, 0.3)
        assert rate_lo(scen, 1e6) == pytest.approx(0.3**2 * 0.01**2 * 1e6, rel=1e-12, abs=0.0)

    def test_asymmetric_attenuated_value(self):
        scen = scenario_from_p(0.01, 0.01, 1.0, 1e-3)
        assert rate_lo(scen, 1e9) == pytest.approx(1e-6 * 1e-4 * 1e9, rel=1e-12, abs=0.0)

    def test_brighter_source_is_attenuated_on_either_side(self):
        # eta_b p_b = 1e-4 > eta_a p_a = 1e-5, so source B is the one attenuated.
        scen = scenario_from_p(1e-5, 0.01, 1.0, 1e-2)
        assert rate_lo(scen, 1e9) == pytest.approx(1e-10 * 1e9, rel=1e-12, abs=0.0)

    def test_kept_source_is_the_dimmer_one_b_on_a_tie(self):
        dim_a = scenario_from_p(1e-5, 0.01, 1.0, 1e-2)
        assert kept_source(dim_a) == (dim_a.eps_a, p_from_epsilon(dim_a.eps_a))
        dark = SwapScenario(0.1, 0.2, 0.0, 0.0)
        assert kept_source(dark) == (0.2, 0.0)
        # Scalars, not 0-d arrays, so that a JSON report can hold them.
        assert all(isinstance(value, float) for value in kept_source(dark))

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

    def test_small_p_sfg_keeps_its_digits(self):
        # On the satellite link, multiplying left to right took p_sfg * eta_a * eta_b
        # through a subnormal and returned 1.0000000000132873e-304.
        scen = scenario_from_p(0.01, 0.01, 1.0, 1e-5)
        factors = (1e-304, scen.eta_a, scen.eta_b, p_from_epsilon(scen.eps_a),
                   p_from_epsilon(scen.eps_b), 1e9)
        exact = math.prod(map(Fraction, factors))
        assert rate_nlo(scen, 1e-304, 1e9) == pytest.approx(float(exact), rel=2e-16, abs=0.0)

    def test_linear_in_clock(self):
        scen = scenario_from_p(0.02, 0.03, 0.4, 0.9)
        assert rate_nlo(scen, 1e-3, 2e9) == 2.0 * rate_nlo(scen, 1e-3, 1e9)
        assert rate_lo(scen, 2e9) == 2.0 * rate_lo(scen, 1e9)


class TestCrossover:
    def test_strong_asymmetry_favors_nonlinear(self):
        result = compare(scenario_from_p(0.01, 0.01, 1.0, 1e-5), 1e-3, 1e9)
        assert result["nlo_wins"]
        assert result["crossover_ratio"] == 100.0

    def test_weak_conversion_loses(self):
        result = compare(scenario_from_p(0.01, 0.01, 1.0, 1e-3), 1e-8, 1e9)
        assert not result["nlo_wins"]
        assert result["crossover_ratio"] == pytest.approx(1e-5, rel=1e-12, abs=0.0)

    def test_boundary_is_strict(self):
        # Both rates round alike here, so the ratio is exactly 1.
        result = compare(scenario_from_p(0.01, 0.01, 1.0, 0.5), 0.5, 1e9)
        assert result["crossover_ratio"] == 1.0
        assert not result["nlo_wins"]

    def test_zero_eta_b_rejected(self):
        with pytest.raises(DomainError, match="^rate_lo is 0 .*, so the rates have no ratio$"):
            compare(scenario_from_p(0.01, 0.01, 0.5, 0.0), 1e-3, 1e9)

    def test_ratio_past_the_float_range_rejected(self):
        # A subnormal eta_b used to give ratio = inf, written to JSON as Infinity;
        # rate_lo now underflows first and is refused.
        with pytest.raises(DomainError, match=r"^rate_lo .* of magnitude >= 2.2e-308, got 0.0$"):
            compare(scenario_from_p(0.01, 0.01, 1.0, 1e-320), 1e-3, 1e9)


class TestRateRatioIdentity:
    def test_ratio_equals_crossover_ratio(self):
        scen = scenario_from_p(0.01, 0.01, 1.0, 1e-5)
        ratio = rate_nlo(scen, 1e-3, 1e9) / rate_lo(scen, 1e9)
        assert ratio == pytest.approx(compare(scen, 1e-3, 1e9)["crossover_ratio"], rel=1e-13,
                                      abs=0.0)

    def test_mirrored_link_gives_the_same_rates(self):
        # The attenuation used to act on source A only: with A behind the lossier
        # channel rate_lo read 1e5 /s, i.e. p_a = 1000.
        forward = compare(scenario_from_p(0.01, 0.01, 1.0, 1e-5), 1e-3, 1e9)
        mirrored = compare(scenario_from_p(0.01, 0.01, 1e-5, 1.0), 1e-3, 1e9)
        for key in ("rate_lo", "rate_nlo", "crossover_ratio"):
            assert mirrored[key] == pytest.approx(forward[key], rel=1e-14, abs=0.0)
        assert mirrored["nlo_wins"] and forward["nlo_wins"]

    @pytest.mark.parametrize("p_a, p_b, eta_a, eta_b, p_sfg", [
        (1e-5, 0.01, 1.0, 1e-5, 2e-3), (0.01, 1e-5, 1.0, 1e-5, 2e-3),
        (0.2, 0.003, 0.07, 0.9, 0.4), (0.003, 0.2, 0.9, 0.07, 1e-4),
    ])
    def test_unequal_sources_ratio_and_verdict_are_the_rates(self, p_a, p_b, eta_a, eta_b, p_sfg):
        # On unequal sources the ratio used to be p_sfg eta_a / eta_b: 200, "nonlinear
        # scheme wins", above rates of 1e-5 and 2e-6 /s in the first row.
        scen = scenario_from_p(p_a, p_b, eta_a, eta_b)
        result = compare(scen, p_sfg, 1e9)
        assert result["rate_lo"] == rate_lo(scen, 1e9)
        assert result["rate_nlo"] == rate_nlo(scen, p_sfg, 1e9)
        assert result["crossover_ratio"] == result["rate_nlo"] / result["rate_lo"]
        assert result["nlo_wins"] == (result["crossover_ratio"] > 1.0)
        flux = sorted([eta_a * p_a, eta_b * p_b])
        assert result["crossover_ratio"] == pytest.approx(p_sfg * flux[1] / flux[0], rel=1e-12,
                                                          abs=0.0)


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
            compare(scenario_from_p(0.01, 0.01, eta_a, eta_b), 0.1, 1e9)
