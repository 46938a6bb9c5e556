import math

import numpy as np
import pytest
from scipy import stats

from entswap.errors import DomainError
from entswap.photon_stats import (
    SwapScenario,
    check_count,
    check_epsilon,
    check_nonnegative,
    check_pair_probability,
    check_probability,
    epsilon_from_p,
    p_from_epsilon,
    truncation_tail_bound,
)
from entswap.fock_sim import herald_amplitude, sfg_evolve, tri_mode_state
from entswap.oracle import (
    N_MAX_LIMIT,
    SAMPLES_LIMIT,
    SCENARIOS_LIMIT,
    WORKERS_LIMIT,
    OracleConfig,
    _arrival_table,
    _arrival_tables,
    random_scenarios,
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
    pytest.param(lambda n: tri_mode_state(0, 0, 0, n), 2, None, id="tri-mode-cutoff"),
    pytest.param(lambda n: sfg_evolve(tri_mode_state(1, 1, 0, 2), 0.1, n), 2, None,
                 id="sfg-evolve-cutoff"),
    pytest.param(lambda n: herald_amplitude(n, 1, 0.01), 2, None, id="herald-n_a"),
    pytest.param(lambda n: herald_amplitude(1, n, 0.01), 2, None, id="herald-n_b"),
]


@pytest.mark.parametrize("call, good, high", COUNT_INPUTS)
def test_every_count_input_takes_integers_in_range_only(call, good, high):
    # A bool used to pass as 0 or 1 (tri_mode_state(True, 0, 0, 2) had norm
    # sqrt(3)), and a fractional sweep size failed inside np.linspace.
    for bad in [True, False, 2.5, 3.0, -1, *([] if high is None else [high + 1])]:
        with pytest.raises(DomainError, match=f"got {bad!r}$"):
            call(bad)
    call(np.int64(good))


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
        assert joint_arrival_pmf(scen, 1, 2, 0, 1) == pytest.approx(expected, rel=1e-13)

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
                float(stats.binom(n, 0.5).pmf(k) * 2.0**n), rel=1e-10
            )
