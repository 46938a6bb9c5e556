import math

import numpy as np
import pytest

from entswap.errors import DomainError, UndefinedFidelityError
from entswap.lo_bsm import (
    ONE_THIRD,
    fidelity_balanced,
    fidelity_balanced_smalleta,
    fidelity_general,
    fidelity_leading_order,
    fidelity_leading_order_lossy,
    fidelity_unbalanced_limit,
    fidelity_upper_bound,
    optimal_epsilon_a,
    p_for_balanced_smalleta,
    p_for_unbalanced_limit,
    p_herald_lo,
)
from entswap.oracle import OracleConfig, exact_fidelity_lo
from entswap.photon_stats import (
    SwapScenario,
    epsilon_from_p,
    p_from_epsilon,
    p_one_arrival,
    p_zero_arrivals,
)


def scenario(eps_a, eps_b, eta_a, eta_b):
    return SwapScenario.from_values(eps_a, eps_b, eta_a, eta_b)


class TestLeadingOrder:
    @pytest.mark.parametrize("p", [1e-4, 0.01, 0.1, 0.25])
    def test_equal_sources_saturate_the_bound(self, p):
        assert fidelity_leading_order(p, p) == pytest.approx(ONE_THIRD, rel=1e-14)

    def test_doubled_source(self):
        assert fidelity_leading_order(0.05, 0.10) == pytest.approx(2.0 / 7.0, rel=1e-14)

    def test_extreme_imbalance(self):
        p = 0.01
        value = fidelity_leading_order(p, p * 1e-6)
        expected = 1e-6 / (1e-6 + 1.0 + 1e-12)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(1e-6, rel=1e-5)

    def test_both_zero_is_undefined(self):
        with pytest.raises(UndefinedFidelityError):
            fidelity_leading_order(0.0, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            fidelity_leading_order(0.3, 0.1)


class TestLeadingOrderLossy:
    @pytest.mark.parametrize("eta,p", [(0.5, 0.02), (0.1, 0.2), (0.9, 0.01)])
    def test_attenuated_source_saturates(self, eta, p):
        assert fidelity_leading_order_lossy(eta * p, p, eta) == pytest.approx(
            ONE_THIRD, rel=1e-13
        )

    def test_equal_driving_degrades_to_eta(self):
        eta = 1e-3
        value = fidelity_leading_order_lossy(0.01, 0.01, eta)
        assert value == pytest.approx(eta, rel=2 * eta + 1e-6)

    def test_balance_point_value(self):
        # p_a = eta * p_b exactly, so the three denominator terms are equal.
        assert fidelity_leading_order_lossy(0.01, 0.02, 0.5) == pytest.approx(
            ONE_THIRD, rel=1e-13
        )

    def test_zero_eta_is_undefined(self):
        with pytest.raises(UndefinedFidelityError):
            fidelity_leading_order_lossy(0.01, 0.01, 0.0)


class TestFidelityGeneral:
    def test_lossless_balanced_closed_form(self):
        for eps in (0.05, 0.1, 0.3):
            report = fidelity_general(scenario(eps, eps, 1.0, 1.0))
            assert report.fidelity == pytest.approx(
                (1 - eps) ** 2 / (3 - 2 * eps), rel=1e-13
            )

    def test_weak_pumping_approaches_the_ceiling(self):
        report = fidelity_general(scenario(1e-9, 1e-9, 1.0, 1.0))
        assert report.fidelity == pytest.approx(ONE_THIRD, rel=1e-8)

    def test_small_pumping_is_numerically_stable(self):
        # The herald probability is ~ 3 (eps eta)^2 here; a naive 1 - P0 - P1
        # evaluation would have lost every significant digit.
        report = fidelity_general(scenario(1e-9, 1e-9, 1e-3, 1e-3))
        assert report.p_herald == pytest.approx(3e-24, rel=1e-5)
        assert 0.0 < report.fidelity <= ONE_THIRD + 1e-12

    def test_matches_exact_sum_oracle(self):
        scen = scenario(0.2, 0.05, 0.3, 0.9)
        estimate = exact_fidelity_lo(scen, OracleConfig(n_max=200))
        assert fidelity_general(scen).fidelity == pytest.approx(
            estimate.value, abs=max(estimate.tail_bound, 1e-10)
        )

    def test_report_fields_are_consistent(self):
        scen = scenario(0.2, 0.1, 0.7, 0.4)
        report = fidelity_general(scen)
        assert report.p_faithful <= report.p_herald
        assert report.fidelity == pytest.approx(report.p_faithful / report.p_herald, rel=1e-12)
        assert report.fidelity <= report.bound <= ONE_THIRD + 1e-12
        herald_direct = 1.0 - p_zero_arrivals(scen) - p_one_arrival(scen)
        assert report.p_herald == pytest.approx(herald_direct, rel=1e-12)

    def test_no_heralds_is_undefined(self):
        with pytest.raises(UndefinedFidelityError):
            fidelity_general(scenario(0.0, 0.0, 0.5, 0.5))
        with pytest.raises(UndefinedFidelityError):
            fidelity_general(scenario(0.2, 0.2, 0.0, 0.0))

    def test_single_silent_source_gives_zero(self):
        # Double pairs from the active source still herald, so the fidelity is
        # defined and exactly zero.
        report = fidelity_general(scenario(0.2, 0.0, 0.5, 0.5))
        assert report.fidelity == 0.0
        assert report.p_herald > 0.0

    def test_exact_side_exchange_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            ea, eb = rng.uniform(0.0, 0.6, 2)
            ha, hb = rng.uniform(0.0, 1.0, 2)
            scen = scenario(float(ea), float(eb), float(ha), float(hb))
            try:
                direct = fidelity_general(scen)
            except UndefinedFidelityError:
                continue
            mirrored = fidelity_general(scen.swapped())
            assert direct.fidelity == mirrored.fidelity
            assert direct.p_herald == mirrored.p_herald


class TestUpperBound:
    def test_lossless_and_silent_limits(self):
        assert fidelity_upper_bound(scenario(0.3, 0.4, 1.0, 1.0)) == pytest.approx(
            ONE_THIRD, rel=1e-15
        )
        assert fidelity_upper_bound(scenario(0.0, 0.0, 0.2, 0.7)) == pytest.approx(
            ONE_THIRD, rel=1e-15
        )

    def test_bound_holds_on_random_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            ea, eb = rng.uniform(0.0, 0.7, 2)
            ha, hb = rng.uniform(0.0, 1.0, 2)
            scen = scenario(float(ea), float(eb), float(ha), float(hb))
            try:
                report = fidelity_general(scen)
            except UndefinedFidelityError:
                continue
            assert report.fidelity <= report.bound + 1e-12
            assert report.bound <= ONE_THIRD + 1e-12

    def test_near_saturation_at_the_balance_point(self):
        eps_b, eta_a, eta_b = 1e-4, 2e-3, 1e-3
        eps_a = optimal_epsilon_a(eps_b, eta_a, eta_b)
        scen = scenario(eps_a, eps_b, eta_a, eta_b)
        report = fidelity_general(scen)
        assert report.fidelity == pytest.approx(report.bound, rel=1e-6)


class TestBalanced:
    def test_lossless_reduction(self):
        for eps in (0.1, 0.25, 0.4):
            assert fidelity_balanced(eps, 1.0) == pytest.approx(
                (1 - eps) ** 2 / (3 - 2 * eps), rel=1e-14
            )

    def test_opaque_channel_limit(self):
        assert fidelity_balanced(0.1, 0.0) == pytest.approx((0.9**4) / 3.0, rel=1e-14)
        assert fidelity_balanced(0.1, 0.0) == pytest.approx(0.2187, abs=1e-10)

    def test_consistent_with_general(self):
        assert fidelity_balanced(0.2, 0.5) == pytest.approx(
            fidelity_general(scenario(0.2, 0.2, 0.5, 0.5)).fidelity, rel=1e-12
        )

    def test_zero_pumping_is_undefined(self):
        with pytest.raises(UndefinedFidelityError):
            fidelity_balanced(0.0, 0.5)


class TestStrongLossCurves:
    def test_balanced_smalleta_endpoints(self):
        assert fidelity_balanced_smalleta(0.0) == pytest.approx(ONE_THIRD, rel=1e-15)
        assert fidelity_balanced_smalleta(0.25) == pytest.approx(1.0 / 48.0, rel=1e-12)

    def test_balanced_smalleta_value(self):
        q = (1 + (1 - 0.04) ** 0.5) / 2
        assert fidelity_balanced_smalleta(0.01) == pytest.approx(q**4 / 3.0, rel=1e-14)

    def test_balanced_smalleta_is_the_strong_loss_limit(self):
        p = 0.05
        eps = epsilon_from_p(p)
        assert fidelity_balanced(eps, 1e-6) == pytest.approx(
            fidelity_balanced_smalleta(p), rel=1e-5
        )

    def test_unbalanced_endpoints(self):
        assert fidelity_unbalanced_limit(0.0) == pytest.approx(ONE_THIRD, rel=1e-15)
        assert fidelity_unbalanced_limit(0.25) == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_unbalanced_is_the_asymmetric_limit(self):
        p_b = 0.09
        eps_b = epsilon_from_p(p_b)
        eta_a, eta_b = 1e-2, 1e-4
        eps_a = optimal_epsilon_a(eps_b, eta_a, eta_b)
        value = fidelity_general(scenario(eps_a, eps_b, eta_a, eta_b)).fidelity
        assert value == pytest.approx(fidelity_unbalanced_limit(p_b), rel=0.02)


class TestOptimalAttenuation:
    def test_symmetric_channels(self):
        assert optimal_epsilon_a(0.17, 0.4, 0.4) == pytest.approx(0.17, rel=1e-14)

    def test_strongly_asymmetric_value(self):
        eps_a = optimal_epsilon_a(0.1, 1.0, 0.01)
        assert eps_a == pytest.approx(0.001 / 0.901, rel=1e-12)
        residual = (1 - 0.1) * eps_a * 1.0 - (1 - eps_a) * 0.1 * 0.01
        assert abs(residual) < 1e-15

    def test_small_pumping_flux_matching(self):
        eps_b, eta_a, eta_b = 1e-5, 0.8, 0.2
        eps_a = optimal_epsilon_a(eps_b, eta_a, eta_b)
        p_ratio = ((1 - eps_a) * eps_a) / ((1 - eps_b) * eps_b)
        assert p_ratio == pytest.approx(eta_b / eta_a, rel=1e-3)

    def test_grid_maximizer_matches(self):
        # The balance point maximizes the fidelity up to corrections of order
        # eps*eta, so at weak pumping it wins within one grid step.
        eps_b, eta_a, eta_b = 0.005, 0.1, 0.04
        best = optimal_epsilon_a(eps_b, eta_a, eta_b)
        grid = np.linspace(0.5 * best, 1.5 * best, 101)
        values = [
            fidelity_general(scenario(float(e), eps_b, eta_a, eta_b)).fidelity for e in grid
        ]
        spacing = grid[1] - grid[0]
        assert abs(float(grid[int(np.argmax(values))]) - best) <= spacing

    def test_monotone_beyond_the_optimum(self):
        eps_b, eta_a, eta_b = 0.2, 0.3, 0.7
        start = optimal_epsilon_a(eps_b, eta_a, eta_b)
        grid = np.linspace(start, 0.9, 200)
        values = [
            fidelity_general(scenario(float(e), eps_b, eta_a, eta_b)).fidelity for e in grid
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestNanRejected:
    # NaN fails every comparison, so each check must be written to reject it.
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: fidelity_balanced_smalleta(math.nan), id="balanced-smalleta"),
            pytest.param(lambda: fidelity_unbalanced_limit(math.nan), id="unbalanced-limit"),
            pytest.param(lambda: fidelity_leading_order(math.nan, 0.01), id="leading-order"),
            pytest.param(lambda: optimal_epsilon_a(0.1, math.nan, 0.5), id="optimal-eta-a-nan"),
            pytest.param(lambda: optimal_epsilon_a(0.1, 0.5, math.nan), id="optimal-eta-b-nan"),
            pytest.param(lambda: optimal_epsilon_a(0.1, 5.0, 0.5), id="optimal-eta-a-above-1"),
            # A fractional power of a negative target is complex, not an error.
            pytest.param(lambda: p_for_balanced_smalleta(-2.0 / 3.0), id="balanced-target-neg"),
            pytest.param(lambda: p_for_unbalanced_limit(-2.0 / 3.0), id="unbalanced-target-neg"),
        ],
    )
    def test_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestLeadingOrderConsistency:
    def test_general_converges_to_leading_order(self):
        # Scale both sources down with a fixed ratio and one lossless channel.
        eta = 0.37
        for scale in (1e-3, 1e-4, 1e-5):
            eps_a, eps_b = 2.0 * scale, 1.0 * scale
            scen = scenario(eps_a, eps_b, eta, 1.0)
            p_a, p_b = p_from_epsilon(scen.eps_a), p_from_epsilon(scen.eps_b)
            general = fidelity_general(scen).fidelity
            leading = fidelity_leading_order_lossy(p_b, p_a, eta)
            assert general == pytest.approx(leading, rel=30 * scale)


class TestHeraldProbability:
    def test_matches_complement_form(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            ea, eb = rng.uniform(0.05, 0.5, 2)
            ha, hb = rng.uniform(0.1, 1.0, 2)
            scen = scenario(float(ea), float(eb), float(ha), float(hb))
            complement = 1.0 - p_zero_arrivals(scen) - p_one_arrival(scen)
            assert p_herald_lo(scen) == pytest.approx(complement, rel=1e-10)


class TestTargetInversion:
    def test_balanced_round_trip(self):
        for f in (1.0 / 47.0, 0.1, 0.3, ONE_THIRD):
            p = p_for_balanced_smalleta(f)
            assert fidelity_balanced_smalleta(p) == pytest.approx(f, rel=1e-12)

    def test_unbalanced_round_trip(self):
        for f in (1.0 / 11.0, 0.2, 0.3, ONE_THIRD):
            p = p_for_unbalanced_limit(f)
            assert fidelity_unbalanced_limit(p) == pytest.approx(f, rel=1e-12)

    def test_unreachable_targets_rejected(self):
        with pytest.raises(DomainError):
            p_for_balanced_smalleta(1.0 / 50.0)
        with pytest.raises(DomainError):
            p_for_unbalanced_limit(0.4)
