import math
from fractions import Fraction

import numpy as np
import pytest

from entswap.errors import DomainError, UndefinedFidelityError
from entswap.lo_bsm import (
    ONE_THIRD,
    fidelity_balanced_smalleta,
    fidelity_general,
    fidelity_unbalanced_limit,
    fidelity_upper_bound,
    optimal_epsilon_a,
    p_for_balanced_smalleta,
    p_for_unbalanced_limit,
)
from entswap.oracle import OracleConfig, exact_fidelity_lo
from entswap.photon_stats import SwapScenario, epsilon_from_p, p_for_target, p_from_epsilon


def scenario(eps_a, eps_b, eta_a, eta_b):
    return SwapScenario.from_values(eps_a, eps_b, eta_a, eta_b)


def summed_zero_arrivals(scen, n_max):
    """Independent oracle: accumulate P(0|n, 0|m) term by term."""
    ea, eb, ha, hb = scen.eps_a, scen.eps_b, scen.eta_a, scen.eta_b
    total = 0.0
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            total += (
                (1 - ea) * ea**n * (1 - ha) ** n * (1 - eb) * eb**m * (1 - hb) ** m
            )
    return total


def summed_one_arrival(scen, n_max):
    """Independent oracle: accumulate the two exactly-one-arrival branches."""
    ea, eb, ha, hb = scen.eps_a, scen.eps_b, scen.eta_a, scen.eta_b
    total = 0.0
    for n in range(1, n_max + 1):
        for m in range(n_max + 1):
            total += (
                (1 - ea) * ea**n * n * ha * (1 - ha) ** (n - 1)
                * (1 - eb) * eb**m * (1 - hb) ** m
            )
    for n in range(n_max + 1):
        for m in range(1, n_max + 1):
            total += (
                (1 - ea) * ea**n * (1 - ha) ** n
                * (1 - eb) * eb**m * m * hb * (1 - hb) ** (m - 1)
            )
    return total


def summed_herald(scen, n_max=60):
    """1 - P0 - P1 from the term-by-term sums; the tails beyond n_max = 60
    are below 0.5**61 for eps <= 0.5."""
    return 1.0 - summed_zero_arrivals(scen, n_max) - summed_one_arrival(scen, n_max)


class TestFidelityGeneral:
    def test_lossless_balanced_closed_form(self):
        for eps in (0.05, 0.1, 0.3):
            report = fidelity_general(scenario(eps, eps, 1.0, 1.0))
            assert report.fidelity == pytest.approx(
                (1 - eps) ** 2 / (3 - 2 * eps), rel=1e-13, abs=0.0
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
        assert report.fidelity == pytest.approx(report.p_faithful / report.p_herald,
                                                rel=1e-12, abs=0.0)
        assert report.fidelity <= fidelity_upper_bound(scen) <= ONE_THIRD + 1e-12
        assert report.p_herald == pytest.approx(summed_herald(scen), rel=1e-12, abs=0.0)

    def test_no_heralds_is_undefined(self):
        with pytest.raises(UndefinedFidelityError):
            fidelity_general(scenario(0.0, 0.0, 0.5, 0.5))
        with pytest.raises(UndefinedFidelityError):
            fidelity_general(scenario(0.2, 0.2, 0.0, 0.0))

    @pytest.mark.parametrize(
        "p",
        [
            pytest.param(1e-159, id="p-faithful-subnormal"),
            pytest.param(1e-160, id="p-faithful-zero"),
            pytest.param(1e-300, id="herald-zero"),
            pytest.param(np.array([1e-3, 1e-100, 1e-160]), id="one-grid-point"),
        ],
    )
    def test_underflow_is_refused(self, p):
        # Subnormal terms gave 9.881e-06 at p = 1e-159 and 0.0 at 1e-160, where
        # the limit is 9.9999e-06; at 1e-300 no source was said to be pumped.
        eps = epsilon_from_p(p)
        with pytest.raises(DomainError, match="^p_faithful must be finite and, when no factor is 0, "
                           "of magnitude >= 2.2e-308, got") as info:
            fidelity_general(SwapScenario(eps, eps, 1.0, 1e-5))
        assert type(info.value) is DomainError

    def test_one_lit_side_whose_herald_underflows_is_refused(self):
        # Mathematically the fidelity is 0 here, but the herald probability
        # (1e-200)^2 rounds to 0, which is not a zero herald probability.
        with pytest.raises(DomainError, match="underflows"):
            fidelity_general(scenario(1e-200, 0.0, 1.0, 1.0))

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
            mirrored = fidelity_general(scenario(float(eb), float(ea), float(hb), float(ha)))
            assert direct.fidelity == mirrored.fidelity
            assert direct.p_herald == mirrored.p_herald


class TestUpperBound:
    def test_lossless_and_silent_limits(self):
        assert fidelity_upper_bound(scenario(0.3, 0.4, 1.0, 1.0)) == pytest.approx(
            ONE_THIRD, rel=1e-15, abs=0.0
        )
        assert fidelity_upper_bound(scenario(0.0, 0.0, 0.2, 0.7)) == pytest.approx(
            ONE_THIRD, rel=1e-15, abs=0.0
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
            assert report.fidelity <= fidelity_upper_bound(scen) + 1e-12
            assert fidelity_upper_bound(scen) <= ONE_THIRD + 1e-12

    def test_near_saturation_at_the_balance_point(self):
        eps_b, eta_a, eta_b = 1e-4, 2e-3, 1e-3
        eps_a = optimal_epsilon_a(eps_b, eta_a, eta_b)
        scen = scenario(eps_a, eps_b, eta_a, eta_b)
        report = fidelity_general(scen)
        assert report.fidelity == pytest.approx(fidelity_upper_bound(scen), rel=1e-6)


class TestBalanced:
    def test_consistent_with_general(self):
        # Equal sources and channels: (1-eps)^2 (1-eps+eps eta)^3 / (3(1-eps) + eps eta).
        eps, eta = 0.2, 0.5
        u, d = 1.0 - eps, 1.0 - eps + eps * eta
        assert fidelity_general(scenario(eps, eps, eta, eta)).fidelity == pytest.approx(
            u * u * d**3 / (3.0 * u + eps * eta), rel=1e-12, abs=0.0
        )


class TestStrongLossCurves:
    def test_balanced_smalleta_endpoints(self):
        assert fidelity_balanced_smalleta(0.0) == pytest.approx(ONE_THIRD, rel=1e-15, abs=0.0)
        assert fidelity_balanced_smalleta(0.25) == pytest.approx(1.0 / 48.0, rel=1e-12, abs=0.0)

    def test_balanced_smalleta_value(self):
        q = (1 + (1 - 0.04) ** 0.5) / 2
        assert fidelity_balanced_smalleta(0.01) == pytest.approx(q**4 / 3.0, rel=1e-14, abs=0.0)

    def test_balanced_smalleta_is_the_strong_loss_limit(self):
        p = 0.05
        eps = epsilon_from_p(p)
        value = fidelity_general(SwapScenario(eps, eps, 1e-6, 1e-6)).fidelity
        assert value == pytest.approx(fidelity_balanced_smalleta(p), rel=1e-5)

    def test_unbalanced_endpoints(self):
        assert fidelity_unbalanced_limit(0.0) == pytest.approx(ONE_THIRD, rel=1e-15, abs=0.0)
        assert fidelity_unbalanced_limit(0.25) == pytest.approx(1.0 / 12.0, rel=1e-12, abs=0.0)

    def test_both_curves_within_1e_15_of_a_50_digit_reference(self):
        mpmath = pytest.importorskip("mpmath")
        # Log-spaced over [1e-12, 1/4], 1/4 itself, and p just below 1/4, where sqrt(1 - 4p) -> 0.
        p = np.concatenate([np.logspace(-12, math.log10(0.25), 600), [0.25],
                            0.25 - np.logspace(-16, -3, 100)])
        balanced, unbalanced = fidelity_balanced_smalleta(p), fidelity_unbalanced_limit(p)
        with mpmath.workdps(50):
            for p_i, f_bal, f_unb in zip(p.tolist(), balanced.tolist(), unbalanced.tolist()):
                q = (1 + mpmath.sqrt(1 - 4 * mpmath.mpf(p_i))) / 2
                assert abs(f_bal - q**4 / 3) <= 1e-15 * q**4 / 3, p_i
                assert abs(f_unb - q**2 / 3) <= 1e-15 * q**2 / 3, p_i

    def test_unbalanced_is_the_asymmetric_limit(self):
        p_b = 0.09
        eps_b = epsilon_from_p(p_b)
        eta_a, eta_b = 1e-2, 1e-4
        eps_a = optimal_epsilon_a(eps_b, eta_a, eta_b)
        value = fidelity_general(scenario(eps_a, eps_b, eta_a, eta_b)).fidelity
        assert value == pytest.approx(fidelity_unbalanced_limit(p_b), rel=0.02)


class TestOptimalAttenuation:
    def test_symmetric_channels(self):
        assert optimal_epsilon_a(0.17, 0.4, 0.4) == pytest.approx(0.17, rel=1e-14, abs=0.0)

    def test_unpumped_source_b_gives_zero(self):
        # eps_b = 0 used to be refused, though a dark channel B, the same zero
        # flux, gave 0.0.
        assert optimal_epsilon_a(0.0, 1.0, 1.0) == 0.0 == optimal_epsilon_a(0.1, 1.0, 0.0)
        for bad in (math.nan, 1.0, -0.1):
            with pytest.raises(DomainError, match=rf"^eps_b must be in \[0, 1\), got {bad}$"):
                optimal_epsilon_a(bad, 1.0, 1.0)

    def test_strongly_asymmetric_value(self):
        eps_a = optimal_epsilon_a(0.1, 1.0, 0.01)
        assert eps_a == pytest.approx(0.001 / 0.901, rel=1e-12, abs=0.0)
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
            # Two-photon level with loss eta on the side of source A.
            leading = eta * p_a * p_b / (eta * p_a * p_b + p_b * p_b + eta * eta * p_a * p_a)
            assert general == pytest.approx(leading, rel=30 * scale)


class TestHeraldProbability:
    def test_matches_complement_form(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            ea, eb = rng.uniform(0.05, 0.5, 2)
            ha, hb = rng.uniform(0.1, 1.0, 2)
            scen = scenario(float(ea), float(eb), float(ha), float(hb))
            assert fidelity_general(scen).p_herald == pytest.approx(summed_herald(scen),
                                                                    rel=1e-10, abs=0.0)


class TestTargetInversion:
    def test_balanced_round_trip(self):
        for f in (1.0 / 47.0, 0.1, 0.3, ONE_THIRD):
            p = p_for_balanced_smalleta(f)
            assert fidelity_balanced_smalleta(p) == pytest.approx(f, rel=1e-12, abs=0.0)

    def test_unbalanced_round_trip(self):
        for f in (1.0 / 11.0, 0.2, 0.3, ONE_THIRD):
            p = p_for_unbalanced_limit(f)
            assert fidelity_unbalanced_limit(p) == pytest.approx(f, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("invert, lowest", [(p_for_balanced_smalleta, 1.0 / 48.0),
                                                (p_for_unbalanced_limit, 1.0 / 12.0)])
    def test_endpoints_of_each_curve(self, invert, lowest):
        # The lowest target is the curve at p = 1/4 (q = 1/2), the highest at p = 0.
        assert invert(lowest) == 0.25
        assert invert(ONE_THIRD) == 0.0

    @pytest.mark.parametrize("f_target, scale, power", [
        *((q, 1.0, 1.0) for q in (0.999999, 0.9999999999, 1.0 - 2.0**-40, math.nextafter(1.0, 0.0))),
        # rate-compare --delta 1e-9: both strong-loss curves at 1/3 - 1e-9, the SFG herald at 1/3.
        (ONE_THIRD - 1e-9, 3.0, 0.25), (ONE_THIRD - 1e-9, 3.0, 0.5), (ONE_THIRD, 1.0, 0.25),
    ])
    def test_pair_probability_is_q_times_one_minus_q_rounded_once(self, f_target, scale, power):
        # q (1 - q) does not cancel as q -> 1, where (1 - (2q - 1)^2) / 4 would.
        q = Fraction((scale * f_target) ** power)
        assert p_for_target(f_target, scale, power) == pytest.approx(float(q * (1 - q)),
                                                                     rel=1e-15, abs=0.0)

    def test_unreachable_targets_rejected(self):
        with pytest.raises(DomainError):
            p_for_balanced_smalleta(1.0 / 50.0)
        with pytest.raises(DomainError):
            p_for_unbalanced_limit(0.4)
        for bad in (0.0, -1.0, 1.5, math.nan):
            for invert in (p_for_balanced_smalleta, p_for_unbalanced_limit):
                with pytest.raises(DomainError):
                    invert(bad)
        with pytest.raises(DomainError):
            p_for_balanced_smalleta(1.0 / 49.0)
        with pytest.raises(DomainError):
            p_for_unbalanced_limit(1.0 / 17.0)
