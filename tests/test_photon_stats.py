import dataclasses
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import stats

from entswap.errors import DomainError
from entswap.photon_stats import (
    Link,
    SwapScenario,
    check_count,
    check_epsilon,
    check_float_range,
    check_nonnegative,
    check_pair_probability,
    check_positive,
    check_probability,
    epsilon_from_p,
    mean_arrival_tail,
    p_from_epsilon,
    pair_tail,
    side_terms,
    truncation_tail_bound,
)
from entswap.fock_sim import CUTOFF_LIMIT, herald_amplitude, sfg_evolve, tri_mode_state
from entswap.oracle import (
    N_MAX_LIMIT,
    SAMPLES_LIMIT,
    SCENARIOS_LIMIT,
    WORKERS_LIMIT,
    OracleConfig,
    _arrival_marginal,
    _arrival_table,
    _arrival_tables,
    _product_tail,
    random_scenarios,
)
from entswap.lo_bsm import fidelity_general, fidelity_upper_bound, optimal_epsilon_a
from entswap.nlo_bsm import fidelity_nlo
from entswap.rates import compare, rate_lo, rate_nlo
from entswap.sfg_device import (
    CavityParams,
    WaveguideParams,
    eta_sfg_cavity,
    kappa_from_q,
    omega_from_wavelength_nm,
    p_sfg_cavity,
    p_sfg_from_eta,
    p_sfg_waveguide,
    sfg_coupling_from_shg,
    sfg_efficiency_from_shg,
)
from entswap.sweep import POINTS_LIMIT, SweepSpec


def scenario(eps_a, eps_b, eta_a, eta_b):
    return SwapScenario.from_values(eps_a, eps_b, eta_a, eta_b)


def joint_arrival_pmf(scen, k, n, l, m):
    """P(k|n, l|m): source A emits n pairs of which k photons arrive, and B
    emits m of which l arrive, from the exact-sum oracle's per-side tables."""
    n_max = max(n, m)
    w_a, pmf_a = _arrival_table(scen.eps_a, scen.eta_a, n_max)
    w_b, pmf_b = _arrival_table(scen.eps_b, scen.eta_b, n_max)
    return w_a[n] * pmf_a[n, k] * w_b[m] * pmf_b[m, l]


class TestSwapScenario:
    def test_epsilon_bounds(self):
        SwapScenario(0.0, 0.999, 0.5, 0.5)
        with pytest.raises(DomainError, match=r"^eps_a must be in \[0, 1\), got 1.0$"):
            SwapScenario(1.0, 0.1, 0.5, 0.5)
        with pytest.raises(DomainError, match=r"^eps_b must be in \[0, 1\), got -0.1$"):
            SwapScenario(0.1, -0.1, 0.5, 0.5)

    def test_eta_bounds(self):
        SwapScenario(0.1, 0.1, 0.0, 1.0)
        with pytest.raises(DomainError, match=r"^eta_a must be in \[0, 1\], got 1.5$"):
            SwapScenario(0.1, 0.1, 1.5, 0.5)
        with pytest.raises(DomainError, match=r"^eta_b must be in \[0, 1\], got -0.2$"):
            SwapScenario(0.1, 0.1, 0.5, -0.2)


class TestPairNumberPmf:
    """The emission weights (1-eps) eps^n of the exact-sum oracle's table."""

    def test_vacuum_only_source(self):
        weights, _ = _arrival_table(0.0, 0.5, 3)
        assert weights[0] == 1.0
        assert weights[3] == 0.0

    def test_half_conversion_two_pairs(self):
        assert _arrival_table(0.5, 0.5, 2)[0][2] == pytest.approx(0.125, abs=1e-15)

    def test_single_pair_matches_p(self):
        weights, _ = _arrival_table(0.2764, 0.5, 1)
        assert weights[1] == pytest.approx(p_from_epsilon(0.2764), abs=1e-15)

    def test_sums_to_one(self):
        weights, _ = _arrival_table(0.4, 0.5, 399)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)


class TestEpsilonPConversions:
    def test_p_from_epsilon_values(self):
        assert p_from_epsilon(0.0) == 0.0
        assert p_from_epsilon(0.5) == 0.25
        assert p_from_epsilon(0.1) == pytest.approx(0.09, abs=1e-15)

    def test_epsilon_from_p_endpoints(self):
        assert epsilon_from_p(0.0) == 0.0
        assert epsilon_from_p(0.25) == pytest.approx(0.5, abs=1e-12)

    def test_epsilon_from_p_inverts(self):
        eps = epsilon_from_p(0.2)
        assert eps == pytest.approx(0.5 * (1.0 - math.sqrt(0.2)), abs=1e-15)
        assert (1 - eps) * eps == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.01, 0.26, 1.0, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            epsilon_from_p(bad)

    def test_round_trip_on_grid(self):
        for p in np.linspace(0.0, 0.25, 26):
            assert p_from_epsilon(epsilon_from_p(float(p))) == pytest.approx(float(p), abs=1e-12)

    @pytest.mark.parametrize("p", [0.25, 1e-3, 1e-10, 1e-17])
    def test_epsilon_from_p_matches_a_decimal_reference(self, p):
        # 0.5 * (1 - sqrt(1 - 4p)) cancels: it was off by 8.3e-8 relative at
        # p = 1e-10, and gave 0 at p = 1e-17.
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (1 - (1 - 4 * Decimal(p)).sqrt()) / 2
        assert epsilon_from_p(p) == pytest.approx(float(exact), rel=3e-16, abs=0.0)

    def test_overshoot_above_a_quarter_stays_at_one_half(self):
        assert epsilon_from_p(np.nextafter(0.25, 1.0)) == 0.5


class TestDomainChecksOnArrays:
    @pytest.mark.parametrize(
        "check, values, message",
        [
            pytest.param(
                lambda v: check_probability(v, "eta"), [0.5, 1.0, 1.25, 2.0],
                "eta must be in [0, 1], got 1.25", id="probability",
            ),
            pytest.param(
                lambda v: check_probability(v, "p_sfg"), [0.1, math.nan, 5.0], "got nan",
                id="probability-nan",
            ),
            pytest.param(
                lambda v: check_pair_probability(v, "p"), [0.0, 0.25, 0.3],
                "p must be in [0, 1/4], got 0.3", id="pair-probability",
            ),
            pytest.param(
                lambda v: check_epsilon(v, "eps"), [0.1, 1.0], "eps must be in [0, 1), got 1.0",
                id="epsilon",
            ),
            pytest.param(
                lambda v: check_nonnegative(v, "clock rate"), [1e9, -1.0, math.inf],
                "clock rate must be finite and >= 0, got -1.0", id="clock",
            ),
            pytest.param(
                lambda v: check_positive(v, "q_b"), [4e5, 0.0, math.inf],
                "q_b must be finite and > 0, got 0.0", id="positive",
            ),
            # A result of 0 is kept only where one of its factors is 0.
            pytest.param(
                lambda v: check_float_range(v, "rate", np.array([1.0, 0.0, 1.0, 0.0])),
                [-1.0, 0.0, 1e-310, math.inf], "rate must be finite and, when no factor is 0, "
                "of magnitude >= 2.2e-308, got 1e-310", id="float-range-subnormal",
            ),
            pytest.param(
                lambda v: check_float_range(v, "rate", np.array([1.0, 0.0, 0.0])),
                [3e-308, 0.0, math.nan], "got nan", id="float-range-nan-beside-a-zero-factor",
            ),
        ],
    )
    def test_first_failing_value_is_named(self, check, values, message):
        with pytest.raises(DomainError) as info:
            check(np.array(values))
        assert str(info.value).endswith(message)

    def test_arrays_inside_the_domain_pass(self):
        grid = np.linspace(0.0, 0.25, 11)
        check_probability(grid, "eta")
        check_pair_probability(grid, "p")
        check_epsilon(grid, "eps")
        check_nonnegative(grid, "clock rate")
        check_positive(grid[1:], "q")


# Every count a library call takes: the call on one count, a count it accepts,
# and the largest count it accepts (None where no limit is set).
COUNT_INPUTS = [
    pytest.param(lambda n: OracleConfig(n_max=n), 10, N_MAX_LIMIT, id="oracle-n_max"),
    pytest.param(lambda n: OracleConfig(samples=n), 10, SAMPLES_LIMIT, id="oracle-samples"),
    pytest.param(lambda n: OracleConfig(seed=n), 3, None, id="oracle-seed"),
    pytest.param(lambda n: OracleConfig(workers=n), 2, WORKERS_LIMIT, id="oracle-workers"),
    pytest.param(lambda n: random_scenarios(n, 0), 2, SCENARIOS_LIMIT, id="random-scenarios-count"),
    pytest.param(lambda n: random_scenarios(1, n), 3, None, id="random-scenarios-seed"),
    pytest.param(lambda n: SweepSpec("p", 1e-3, 0.2, n, "linear", {}, ("f_nlo",)), 10,
                 POINTS_LIMIT, id="sweep-points"),
    pytest.param(lambda n: tri_mode_state(n, 0, 0, 3), 2, 3, id="tri-mode-n_a"),
    pytest.param(lambda n: tri_mode_state(0, n, 0, 3), 2, 3, id="tri-mode-n_b"),
    pytest.param(lambda n: tri_mode_state(0, 0, n, 3), 2, 3, id="tri-mode-n_c"),
    pytest.param(lambda n: tri_mode_state(0, 0, 0, n), 2, CUTOFF_LIMIT, id="tri-mode-cutoff"),
    pytest.param(lambda n: sfg_evolve(tri_mode_state(1, 1, 0, 2), 0.1, n), 2, CUTOFF_LIMIT,
                 id="sfg-evolve-cutoff"),
    pytest.param(lambda n: herald_amplitude(n, 1, 0.01), 2, None, id="herald-n_a"),
    pytest.param(lambda n: herald_amplitude(1, n, 0.01), 2, None, id="herald-n_b"),
    pytest.param(lambda n: herald_amplitude(n, n, 0.01), 2, CUTOFF_LIMIT, id="herald-chain"),
]


@pytest.mark.parametrize("call, good, high", COUNT_INPUTS)
def test_every_count_input_takes_integers_in_range_only(call, good, high):
    # A bool used to pass as 0 or 1 (tri_mode_state(True, 0, 0, 2) had norm
    # sqrt(3)), a fractional sweep size failed inside np.linspace, and
    # tri_mode_state(0, 0, 0, 10**5) raised numpy's MemoryError.
    for bad in [True, False, 2.5, 3.0, -1, *([] if high is None else [high + 1])]:
        with pytest.raises(DomainError, match=f"got {bad!r}$"):
            call(bad)
    call(np.int64(good))


RING = CavityParams(1e8, 1.2e15, 1.2e15, 2.4e15, 3e9, 3e9, 2.4e10, 1.5e9, 1.5e9, 1.2e10)
GUIDE = WaveguideParams(5e3, 6e9, 1.0, 1.9e14)
LINK = SwapScenario(0.01, 0.01, 1.0, 1e-5)

# Every real a library call checks for sign: the call on one value, the name
# its errors give, a value it accepts, and whether 0 is refused (> 0) or
# accepted (>= 0).
SIGNED_INPUTS = [
    *(pytest.param(lambda v, name=f.name: dataclasses.replace(RING, **{name: v}), f.name,
                   getattr(RING, f.name), f.name != "g", id=f"cavity-{f.name}")
      for f in dataclasses.fields(CavityParams)),
    *(pytest.param(lambda v, name=f.name: dataclasses.replace(GUIDE, **{name: v}), f.name,
                   getattr(GUIDE, f.name), f.name != "length", id=f"waveguide-{f.name}")
      for f in dataclasses.fields(WaveguideParams)),
    pytest.param(lambda v: kappa_from_q(1.2e15, v), "q", 4e5, True, id="kappa-from-q"),
    pytest.param(omega_from_wavelength_nm, "wavelength_nm", 1550.0, True,
                 id="omega-from-wavelength"),
    pytest.param(lambda v: kappa_from_q(v, 4e5), "omega", 1.2e15, True, id="kappa-from-q-omega"),
    pytest.param(sfg_coupling_from_shg, "g_shg", 1e8, False, id="sfg-coupling-from-shg"),
    pytest.param(sfg_efficiency_from_shg, "eta_shg", 1250.0, True, id="sfg-efficiency-from-shg"),
    pytest.param(lambda v: p_sfg_from_eta(RING, v), "eta_sfg", 1e-3, False, id="p-sfg-from-eta"),
    # eta_a = 0 gives rate 0, as eta_b = 0 does: nothing divides by eta_a.
    pytest.param(lambda v: rate_lo(Link(dataclasses.replace(LINK, eta_a=v), 1e-3, 1e9)), "eta_a",
                 0.5, False, id="rate-lo-eta-a"),
    pytest.param(lambda v: Link(LINK, 1e-3, v), "clock rate", 1e9, False, id="link-clock"),
    pytest.param(lambda v: optimal_epsilon_a(0.1, v, 0.5), "eta_a", 0.5, True,
                 id="optimal-epsilon-a-eta-a"),
    pytest.param(lambda v: sfg_evolve(tri_mode_state(1, 1, 0, 2), v, 2), "gt", 0.1, False,
                 id="sfg-evolve-gt"),
    pytest.param(lambda v: herald_amplitude(1, 1, v), "gt", 0.1, False, id="herald-gt"),
]


@pytest.mark.parametrize("call, name, good, positive", SIGNED_INPUTS)
def test_every_signed_input_takes_finite_values_of_its_sign_only(call, name, good, positive):
    # kappa_from_q(1e15, inf) and omega_from_wavelength_nm(inf) used to return
    # 0.0, WaveguideParams took an infinite field, p_sfg_from_eta(cav, inf)
    # reported an overflow, and kappa_from_q(-1, 2) and
    # sfg_efficiency_from_shg(-1) returned -0.5 and -4.0.  A transmission above
    # is also checked to be in [0, 1], so its error names that interval.
    for bad in [*([0.0] if positive else []), -1.0, math.inf, math.nan]:
        with pytest.raises(DomainError, match=rf"^{name} must be .*, got {bad}$"):
            call(bad)
    call(np.float64(good))


@pytest.mark.parametrize("build, bad", [
    pytest.param(lambda v: Link(LINK, v, 1e9), 1.5, id="link"),
    pytest.param(lambda v: OracleConfig(p_sfg=v), 1.5, id="oracle-config"),
    pytest.param(lambda v: OracleConfig(p_sfg=v), math.nan, id="oracle-config-nan"),
])
def test_p_sfg_is_checked_where_its_object_is_built(build, bad):
    # The rates and the nlo estimators read p_sfg from a Link or an
    # OracleConfig, whose constructor is its one check.
    with pytest.raises(DomainError, match=rf"^p_sfg must be in \[0, 1\], got {bad}$"):
        build(bad)


# Every computed result check_float_range guards: the call on one value, the
# name its error gives, a value that takes the result out of the float range,
# and a zero factor, with which the result is exactly 0 (None where every
# factor must be > 0).
RESULTS = [
    pytest.param(lambda v: rate_lo(Link(dataclasses.replace(LINK, eta_b=v), 1e-3, 1e9)), "rate_lo",
                 1e-160, 0.0, id="rate-lo"),
    pytest.param(lambda v: rate_lo(Link(dataclasses.replace(LINK, eta_a=v), 1e-3, 1e9)), "rate_lo",
                 1e-160, 0.0, id="rate-lo-eta-a"),
    pytest.param(lambda v: rate_nlo(Link(LINK, v, 1e9)), "rate_nlo", 1e-310, 0.0, id="rate-nlo"),
    # Equal fluxes, so the ratio is p_sfg, subnormal, though rate_nlo, whose
    # product groups p_sfg with the clock, is normal.
    pytest.param(lambda v: compare(Link(SwapScenario(0.01, 0.01, 1.0, 1.0), v, 1e300))[
                     "crossover_ratio"], "crossover_ratio", 1e-310, 0.0, id="crossover"),
    pytest.param(lambda v: p_sfg_cavity(dataclasses.replace(RING, g=v)), "p_sfg", 1e-160, 0.0,
                 id="p-sfg-cavity"),
    pytest.param(lambda v: eta_sfg_cavity(dataclasses.replace(RING, g=v)), "eta_sfg", 1e-160, 0.0,
                 id="eta-sfg-cavity"),
    pytest.param(lambda v: p_sfg_from_eta(RING, v), "p_sfg", 1e-300, 0.0, id="p-sfg-from-eta"),
    # Normal results from subnormal intermediates, g^2 and eta / (drive factor),
    # used to pass short of digits: 6.09084e-120 against the exact 6.09102e-120,
    # and 5.69294e-130 against 5.69469e-130.
    pytest.param(lambda v: p_sfg_cavity(CavityParams(v, 1e15, 1e15, 2e15, *[1e-100] * 3,
                                                     *[5e-101] * 3)),
                 "p_sfg", 1.234e-160, 0.0, id="p-sfg-cavity-subnormal-g-squared"),
    pytest.param(lambda v: p_sfg_from_eta(CavityParams(1e8, 1e15, 1e15, 2e15, *[2.7e-96] * 3,
                                                       *[1.35e-96] * 3), v),
                 "p_sfg", 1e-15, 0.0, id="p-sfg-from-eta-subnormal-g-squared"),
    pytest.param(lambda v: p_sfg_waveguide(dataclasses.replace(GUIDE, length=v)), "p_sfg", 1e-305,
                 0.0, id="p-sfg-waveguide"),
    pytest.param(lambda v: kappa_from_q(1.0, v), "kappa", 1e-320, None, id="kappa-from-q"),
    pytest.param(omega_from_wavelength_nm, "omega", 1e-300, None, id="omega-from-wavelength"),
    pytest.param(lambda v: fidelity_general(SwapScenario(v, 0.01, 1.0, 1e-5)).p_faithful,
                 "p_faithful", 1e-310, 0.0, id="fidelity-general"),
]


@pytest.mark.parametrize("call, name, bad, zero", RESULTS)
def test_every_result_leaving_the_float_range_is_refused(call, name, bad, zero):
    # rate_lo, rate_nlo and the rate ratio used to underflow to 0.0 without a
    # word, and so did p_sfg_cavity at g = 1e-160; only a zero factor gives 0.
    rule = f"^{re.escape(name)} must be finite and, when no factor is 0, of magnitude >= 2.2e-308"
    with pytest.raises(DomainError, match=rule):
        call(bad)
    if zero is not None:
        assert call(zero) == 0.0


class TestCheckCount:
    def test_returns_a_python_int(self):
        value = check_count(np.int64(7), "n", 0, 10)
        assert value == 7 and type(value) is int

    @pytest.mark.parametrize(
        "value, high, message",
        [
            (2.5, 10, "n must be an integer in [1, 10], got 2.5"),
            (True, math.inf, "n must be an integer >= 1, got True"),
            (0, math.inf, "n must be >= 1, got 0"),
            (np.int64(11), 10, "n must be in [1, 10], got 11"),
        ],
    )
    def test_message_names_the_key_its_bounds_and_the_value(self, value, high, message):
        with pytest.raises(DomainError) as info:
            check_count(value, "n", 1, high)
        assert str(info.value) == message


class TestJointArrivalPmf:
    """P(k|n, l|m) as the product of the oracle's per-side table entries."""

    def test_vacuum_term(self):
        scen = scenario(0.3, 0.2, 0.6, 0.4)
        assert joint_arrival_pmf(scen, 0, 0, 0, 0) == pytest.approx(0.7 * 0.8, abs=1e-15)

    def test_lossless_single_pairs(self):
        scen = scenario(0.3, 0.2, 1.0, 1.0)
        expected = 0.7 * 0.8 * 0.3 * 0.2
        assert joint_arrival_pmf(scen, 1, 1, 1, 1) == pytest.approx(expected, abs=1e-15)
        assert _arrival_tables(scen, 1)[2] == pytest.approx(expected, abs=1e-15)

    def test_mixed_term_arithmetic(self):
        # Term-by-term: sources 0.1/0.1, channels 0.5/0.8, pattern (1|2, 0|1).
        scen = scenario(0.1, 0.1, 0.5, 0.8)
        expected = (0.9 * 0.1**2) * (2 * 0.5 * 0.5) * (0.9 * 0.1) * (1 * 0.2)
        assert joint_arrival_pmf(scen, 1, 2, 0, 1) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_mixed_term_monte_carlo_frequency(self):
        scen = scenario(0.1, 0.1, 0.5, 0.8)
        rng = np.random.default_rng(20240817)
        size = 2_000_000
        n = rng.geometric(0.9, size) - 1
        m = rng.geometric(0.9, size) - 1
        k = rng.binomial(n, 0.5)
        l = rng.binomial(m, 0.8)
        hits = int(np.sum((k == 1) & (n == 2) & (l == 0) & (m == 1)))
        prob = joint_arrival_pmf(scen, 1, 2, 0, 1)
        sigma = math.sqrt(prob * (1 - prob) / size)
        assert hits / size == pytest.approx(prob, abs=5 * sigma)

    def test_normalization_with_tail_bound(self):
        scen = scenario(0.35, 0.2, 0.6, 0.9)
        for n_max in (10, 20, 40):
            arr_a, arr_b, _ = _arrival_tables(scen, n_max)
            total = arr_a.sum() * arr_b.sum()
            assert 1.0 - total <= truncation_tail_bound(scen, n_max) + 1e-13
            assert total <= 1.0 + 1e-12

    def test_marginal_recovers_emission_pmf(self):
        scen = scenario(0.3, 0.15, 0.45, 0.8)
        w_a, pmf_a = _arrival_table(scen.eps_a, scen.eta_a, 20)
        w_b, pmf_b = _arrival_table(scen.eps_b, scen.eta_b, 80)
        other_side = (w_b @ pmf_b).sum()
        for n in range(21):
            marginal = w_a[n] * pmf_a[n].sum() * other_side
            assert marginal == pytest.approx((1 - 0.3) * 0.3**n, abs=1e-12)


class TestBinomialCoefficient:
    """C(n, k) = 2^n pmf[n, k] in the oracle's table at eta = 1/2."""

    def test_small_orders_exact(self):
        # Halving is exact, so below 2^53 the table holds C(n, k) / 2^n exactly.
        _, pmf = _arrival_table(0.1, 0.5, 10)
        assert pmf[10, 3] * 2.0**10 == 120.0
        assert pmf[0, 0] == 1.0
        assert pmf[5, 6] == 0.0

    def test_large_orders_match_scipy(self):
        _, pmf = _arrival_table(0.1, 0.5, 200)
        for n, k in ((80, 13), (150, 75), (200, 3)):
            assert pmf[n, k] * 2.0**n == pytest.approx(
                float(stats.binom(n, 0.5).pmf(k) * 2.0**n), rel=1e-10, abs=0.0
            )


def side_draws(seed, count=200):
    """Random (eps, eta) of one side: eps in [0, 0.45), eta log-uniform in [1e-6, 1)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield float(rng.uniform(0.0, 0.45)), float(10.0 ** rng.uniform(-6.0, 0.0))


class TestSourceModel:
    """side_terms, pair_tail and mean_arrival_tail against the exact-sum
    oracle's marginal, which thins one photon at a time instead."""

    def test_vacuum_and_single_arrival_match_the_generative_marginal(self):
        n_max = 64
        for eps, eta in side_draws(2027):
            assert pair_tail(eps, n_max) < 1e-17
            u, a, d = side_terms(eps, eta)
            arr, _ = _arrival_marginal(eps, eta, n_max)
            assert arr[0] == pytest.approx(u / d, rel=1e-13, abs=0.0)
            assert arr[1] == pytest.approx(a * u / (d * d), rel=1e-13, abs=0.0)

    def test_mean_arrival_tail_is_the_mean_a_truncation_leaves_out(self):
        # E[k] = a/u.  At n_max = 1 the part left out is about 2 eps of it, so
        # the subtraction keeps its digits for every eps drawn.
        n_max = 1
        for eps, eta in side_draws(2028):
            u, a, _ = side_terms(eps, eta)
            arr, _ = _arrival_marginal(eps, eta, n_max)
            left_out = a / u - float(arr @ np.arange(n_max + 1))
            assert left_out == pytest.approx(mean_arrival_tail(eps, eta, n_max), rel=1e-11, abs=0.0)

    def test_no_pairs_leave_no_tail(self):
        assert pair_tail(0.0, 10) == 0.0
        assert mean_arrival_tail(0.0, 0.5, 10) == 0.0


# The floats of the functions that read the source model, at fixed inputs, as
# computed with each function's own copy of the per-side algebra: reading it
# from photon_stats keeps each caller's float grouping.  Per scenario:
# truncation_tail_bound (eps_A^(N+1) + eps_B^(N+1)) and _product_tail (value
# 0.7) at N = 32 and 64, fidelity_upper_bound, fidelity_general's three fields
# and fidelity_nlo.
SOURCE_MODEL_FLOATS = [
    ((0.1, 0.3, 0.7, 0.05),
     (5.559060566555517e-18, 1.0301051460877513e-34),
     (3.035247069339315e-16, 1.1008390327857764e-32),
     0.16033720083333333, (0.09421957878203285, 0.0006615, 0.007020833764607578),
     0.3969),
    ((0.45, 0.02, 1e-06, 1.0),
     (3.5976006629216294e-12, 2.876162339967588e-23),
     (1.0409057919601082e-10, 1.6195989709950815e-21),
     0.10083349833340086, (1.2127013797500815e-05, 4.851e-09, 0.0004000160370065476),
     0.29052100000000003),
    ((1e-08, 0.2, 0.5, 0.9),
     (8.589934592000015e-24, 3.689348814741923e-46),
     (7.997229105152012e-22, 6.740440284533492e-44),
     0.32013333013199996, (2.13422215345284e-08, 7.199999928000001e-10, 0.03373594410662226),
     0.6399999872000002),
    ((0.37, 0.37, 0.013, 0.6),
     (1.1263850817275334e-14, 1.7145180437004624e-28),
     (4.509193467717915e-13, 1.3402897269187074e-26),
     0.09750916865664479, (0.006107271096117898, 0.000423817758, 0.06939560260709579),
     0.15752961000000001),
]


@pytest.mark.parametrize("values, tails, product_tails, upper, general, nlo",
                         SOURCE_MODEL_FLOATS)
def test_source_model_readers_keep_their_floats(values, tails, product_tails, upper, general, nlo):
    scen = scenario(*values)
    for n_max, tail, product_tail in zip((32, 64), tails, product_tails):
        assert truncation_tail_bound(scen, n_max) == tail
        assert _product_tail(scen, _arrival_tables(scen, n_max), n_max, 0.7, 1.0) == product_tail
    assert fidelity_upper_bound(scen) == upper
    report = fidelity_general(scen)
    assert (report.fidelity, report.p_faithful, report.p_herald) == general
    assert fidelity_nlo(scen) == nlo
