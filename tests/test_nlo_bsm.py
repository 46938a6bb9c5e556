import math

import numpy as np
import pytest

from entswap.errors import DomainError, UndefinedFidelityError
from entswap.lo_bsm import fidelity_balanced_smalleta
from entswap.nlo_bsm import fidelity_nlo, p_for_target_fidelity
from entswap.oracle import _arrival_table, _grid, _nlo_herald
from entswap.photon_stats import SwapScenario, epsilon_from_p


def scenario(eps_a, eps_b, eta_a, eta_b):
    return SwapScenario.from_values(eps_a, eps_b, eta_a, eta_b)


def equal_sources(p):
    """Two sources at pair probability p behind lossless channels."""
    eps = epsilon_from_p(p)
    return SwapScenario(eps, eps, 1.0, 1.0)


def herald_pmf(scen, p_sfg, k, n, l, m):
    """Probability that the (k|n, l|m) arrival pattern occurs and heralds,
    from the exact-sum oracle's per-side tables and herald grid."""
    n_max = max(n, m)
    w_a, pmf_a = _arrival_table(scen.eps_a, scen.eta_a, n_max)
    w_b, pmf_b = _arrival_table(scen.eps_b, scen.eta_b, n_max)
    return w_a[n] * pmf_a[n, k] * w_b[m] * pmf_b[m, l] * _grid(_nlo_herald(p_sfg), n_max)[k, l]


class TestHeraldPmf:
    def test_zero_without_both_photons(self):
        scen = scenario(0.2, 0.2, 0.8, 0.8)
        assert herald_pmf(scen, 1e-3, 0, 2, 1, 1) == 0.0
        assert herald_pmf(scen, 1e-3, 1, 1, 0, 3) == 0.0

    def test_faithful_event_value(self):
        scen = scenario(0.3, 0.2, 0.6, 0.4)
        expected = 0.7 * 0.8 * 0.3 * 0.2 * 0.6 * 0.4 * 1e-3
        assert herald_pmf(scen, 1e-3, 1, 1, 1, 1) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_multiphoton_term_arithmetic(self):
        # Sources 0.1/0.1, channels 0.5/0.5, pattern (2|2, 1|1), weight 2*1.
        scen = scenario(0.1, 0.1, 0.5, 0.5)
        expected = (0.9 * 0.1**2) * (0.5 * 0.5) * (0.9 * 0.1) * 0.5 * 2 * 1 * 1e-3
        assert herald_pmf(scen, 1e-3, 2, 2, 1, 1) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_multiphoton_term_monte_carlo(self):
        scen = scenario(0.1, 0.1, 0.5, 0.5)
        p_sfg = 1e-2
        rng = np.random.default_rng(99)
        size = 4_000_000
        n = rng.geometric(0.9, size) - 1
        m = rng.geometric(0.9, size) - 1
        k = rng.binomial(n, 0.5)
        l = rng.binomial(m, 0.5)
        accept = rng.uniform(size=size) < np.minimum(k * l * p_sfg, 1.0)
        hits = int(np.sum(accept & (k == 2) & (n == 2) & (l == 1) & (m == 1)))
        prob = herald_pmf(scen, p_sfg, 2, 2, 1, 1)
        sigma = (prob * (1 - prob) / size) ** 0.5
        assert hits / size == pytest.approx(prob, abs=5 * sigma)


class TestFidelity:
    def test_weak_pumping_limit(self):
        value = fidelity_nlo(scenario(1e-8, 1e-8, 1.0, 1.0))
        assert value == pytest.approx(1.0, abs=5e-8)

    def test_equal_sources_at_p02(self):
        scen = equal_sources(0.2)
        q = (1 + (1 - 0.8) ** 0.5) / 2
        assert fidelity_nlo(scen) == pytest.approx(q**4, rel=1e-12, abs=0.0)
        assert fidelity_nlo(scen) == pytest.approx(0.2742, abs=5e-5)

    def test_one_third_crossing(self):
        p = p_for_target_fidelity(1.0 / 3.0)
        assert fidelity_nlo(equal_sources(p)) == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)

    def test_silent_source_is_undefined(self):
        with pytest.raises(UndefinedFidelityError):
            fidelity_nlo(scenario(0.0, 0.2, 1.0, 1.0))

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_dark_channel_is_undefined(self, side):
        eta = {"eta_a": 1.0, "eta_b": 1.0, f"eta_{side}": 0.0}
        with pytest.raises(UndefinedFidelityError, match="eta = 0 never heralds"):
            fidelity_nlo(scenario(0.1, 0.1, **eta))
        eta[f"eta_{side}"] = np.array([0.5, 0.0])
        with pytest.raises(UndefinedFidelityError, match="eta = 0 never heralds"):
            fidelity_nlo(scenario(0.1, 0.1, **eta))

    def test_loss_independent_by_construction(self):
        rng = np.random.default_rng(13)
        reference = None
        for _ in range(50):
            ha, hb = rng.uniform(0.01, 1.0, 2)
            scen = scenario(0.25, 0.15, float(ha), float(hb))
            fidelity = fidelity_nlo(scen)
            if reference is None:
                reference = fidelity
            assert fidelity == reference

    def test_always_thrice_the_balanced_strong_loss_curve(self):
        for p in np.linspace(0.001, 0.25, 40):
            assert fidelity_nlo(equal_sources(float(p))) == pytest.approx(
                3.0 * fidelity_balanced_smalleta(float(p)), rel=1e-12, abs=0.0
            )


class TestTargetInversion:
    def test_perfect_fidelity_needs_no_pumping(self):
        assert p_for_target_fidelity(1.0) == 0.0

    def test_lowest_target_is_the_quarter_pumping_endpoint(self):
        # (1 - 1/2)^4 = 1/16 at eps = 1/2, the p = 1/4 end of fig2's f_nlo curve.
        assert p_for_target_fidelity(1.0 / 16.0) == 0.25

    def test_one_third_target(self):
        p = p_for_target_fidelity(1.0 / 3.0)
        assert 0.180 <= p <= 0.185
        eps = epsilon_from_p(p)
        assert (1 - eps) ** 4 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_constructed_inverse(self):
        assert p_for_target_fidelity(0.9**4) == pytest.approx(0.09, abs=1e-12)
        assert epsilon_from_p(p_for_target_fidelity(0.9**4)) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.1, -1.0, 1.5, math.nan])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(DomainError):
            p_for_target_fidelity(bad)

    def test_too_small_target_rejected(self):
        with pytest.raises(DomainError):
            p_for_target_fidelity(1.0 / 17.0)
