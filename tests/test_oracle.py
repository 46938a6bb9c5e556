import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from entswap.errors import (
    DomainError,
    InsufficientStatisticsError,
    ModelValidityError,
    UndefinedFidelityError,
)
from entswap import lo_bsm, oracle
from entswap.lo_bsm import fidelity_general
from entswap.nlo_bsm import fidelity_nlo
from entswap.oracle import (
    EXACT_ABS_TOLERANCE,
    MAX_TOLERANCE,
    N_MAX_LIMIT,
    SAMPLES_LIMIT,
    SCENARIOS_LIMIT,
    SHARD_SAMPLES_LIMIT,
    TAIL_TARGET,
    WORKERS_LIMIT,
    OracleConfig,
    _arrival_table,
    _bounded_tail,
    _exact,
    _grid,
    _lo_herald,
    _nlo_herald,
    _product_tail,
    exact_fidelity_lo,
    exact_fidelity_nlo,
    mc_fidelity_lo,
    mc_fidelity_nlo,
    random_scenarios,
    verification_report,
)
from entswap.photon_stats import SwapScenario

EXACT = OracleConfig(n_max=200)


def scenario(eps_a, eps_b, eta_a, eta_b):
    return SwapScenario.from_values(eps_a, eps_b, eta_a, eta_b)


PINNED = [
    scenario(0.2, 0.3, 0.5, 0.9),
    scenario(0.45, 0.01, 1.0, 0.05),
    scenario(0.1, 0.4, 0.3, 1.0),
]


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            OracleConfig(n_max=0)
        with pytest.raises(DomainError):
            OracleConfig(samples=0)
        with pytest.raises(DomainError):
            OracleConfig(seed=-1)
        assert OracleConfig(n_max=N_MAX_LIMIT).n_max == N_MAX_LIMIT
        with pytest.raises(DomainError, match="n_max"):
            OracleConfig(n_max=N_MAX_LIMIT + 1)
        assert OracleConfig(n_max=np.int64(10)).n_max == 10

    def test_monte_carlo_work_is_capped(self):
        # Only values above the limit are built, and a config allocates nothing.
        assert SAMPLES_LIMIT == 1024 * SHARD_SAMPLES_LIMIT
        with pytest.raises(DomainError, match=r"samples must be in \[1, 1024000000\]"):
            OracleConfig(samples=SAMPLES_LIMIT + 1)
        with pytest.raises(DomainError, match="samples must be in"):
            OracleConfig(samples=10**18)

    @pytest.mark.parametrize(
        "samples, shards",
        [
            (1, 64),
            (200_000, 64),
            (64 * SHARD_SAMPLES_LIMIT, 64),
            (64 * SHARD_SAMPLES_LIMIT + 1, 65),
            (SAMPLES_LIMIT, 1024),
        ],
    )
    def test_shard_count_follows_samples(self, samples, shards):
        # 64 shards unless more are needed to keep each within its limit.
        assert OracleConfig(samples=samples).shards == shards
        assert max(oracle._shard_sizes(samples, shards)) <= SHARD_SAMPLES_LIMIT

    def test_workers_are_capped(self):
        # Refused at construction, so no thread is started.
        assert OracleConfig(workers=WORKERS_LIMIT).workers == WORKERS_LIMIT
        with pytest.raises(DomainError, match=r"workers must be in \[1, 32\], got 33"):
            OracleConfig(workers=WORKERS_LIMIT + 1)
        with pytest.raises(DomainError, match=r"workers must be in \[1, 32\], got 0"):
            OracleConfig(workers=0)

    def test_p_sfg_zero_is_refused(self):
        # Nothing up-converts, so a passing nlo row would claim a fidelity that
        # no herald defines.
        with pytest.raises(UndefinedFidelityError, match="p_sfg = 0 never heralds"):
            verification_report(PINNED, EXACT, p_sfg=0.0, methods=("exact-sum",))

    @pytest.mark.parametrize("method", ["exact-sum", "monte-carlo"])
    @pytest.mark.parametrize("bad", [10.5, True])
    @pytest.mark.parametrize("field", ["n_max", "samples", "seed", "workers"])
    def test_counts_must_be_integers(self, field, bad, method):
        # A fractional count used to fail deep inside with a TypeError, and
        # seed=True ran as seed 1.
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            verification_report(
                PINNED[:1], OracleConfig(**{field: bad}), p_sfg=1e-3, methods=(method,)
            )


class TestArrivalTable:
    """The per-photon thinning table against scipy's binomial pmf."""

    @pytest.mark.parametrize("n_max", [1, 200, N_MAX_LIMIT])
    @pytest.mark.parametrize("eta", [0.0, 1e-5, 0.05, 0.5, 0.999, 1.0])
    def test_matches_scipy_binomial(self, n_max, eta):
        weights, pmf = _arrival_table(0.3, eta, n_max)
        n = np.arange(n_max + 1)
        reference = stats.binom.pmf(n[None, :], n[:, None], eta)
        np.testing.assert_allclose(pmf, reference, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert not np.triu(pmf, k=1).any()
        np.testing.assert_array_equal(weights, (1.0 - 0.3) * 0.3**n)


class _Draws:
    """Stands in for a numpy Generator whose uniform draws are given."""

    def __init__(self, u):
        self.u = u

    def uniform(self, size):
        assert size == self.u.size
        return self.u


class TestHeraldMatrices:
    """The exact-sum grid of each herald is the rule Monte Carlo samples."""

    K, L = (grid.ravel() for grid in np.meshgrid(np.arange(13), np.arange(13), indexing="ij"))

    @staticmethod
    def sampled_herald(monkeypatch, estimator, *args):
        # Each mc_fidelity_* hands its herald to _mc_fidelity: capture it.
        heralds = []
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_mc_fidelity", lambda s, cfg, herald: heralds.append(herald))
            estimator(PINNED[0], *args, OracleConfig(samples=1))
        return heralds[0]

    @classmethod
    def sampled_heralds(cls, monkeypatch, estimator, *args, draws=None):
        """Heralds the Monte Carlo shard counts when its trials are the grid
        (n, m, k, l) = (K, L, K, L) and its uniform draws are ``draws``."""
        monkeypatch.setattr(oracle, "_sample_arrivals",
                            lambda rng, s, size: (cls.K, cls.L, (cls.K == 1) & (cls.L == 1)))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _Draws(draws))
        monkeypatch.setattr(oracle, "SHARDS", 1)
        return estimator(PINNED[0], *args, OracleConfig(samples=1)).heralds

    def test_lo_herald_is_the_monte_carlo_rule(self, monkeypatch):
        grid = _grid(_lo_herald, 12).ravel()
        np.testing.assert_array_equal(grid, (self.K + self.L) >= 2)
        herald = self.sampled_herald(monkeypatch, mc_fidelity_lo)
        np.testing.assert_array_equal(grid, herald(self.K, self.L))
        # A 0/1 herald is the accept mask itself: the shard draws no uniform
        # (a draw here would fail on the missing values).
        assert self.sampled_heralds(monkeypatch, mc_fidelity_lo) == grid.sum()

    def test_nlo_herald_is_the_monte_carlo_weight(self, monkeypatch):
        p_sfg = 0.005  # k l p_sfg <= 1 up to k = l = 12
        weight = _grid(_nlo_herald(p_sfg), 12).ravel()
        np.testing.assert_array_equal(weight, self.K * self.L * p_sfg)
        herald = self.sampled_herald(monkeypatch, mc_fidelity_nlo, p_sfg)
        np.testing.assert_array_equal(weight, herald(self.K, self.L))
        # The shard keeps a trial when its uniform draw is below the weight, so
        # draws at the weight and one ulp below it pin the weight exactly.
        with pytest.raises(InsufficientStatisticsError, match="no herald events"):
            self.sampled_heralds(monkeypatch, mc_fidelity_nlo, p_sfg, draws=weight)
        below = np.nextafter(weight, -np.inf)
        assert self.sampled_heralds(monkeypatch, mc_fidelity_nlo, p_sfg, draws=below) == weight.size


class TestExactSumLo:
    def test_matches_closed_form(self):
        scen = scenario(0.2, 0.2, 0.5, 0.5)
        estimate = exact_fidelity_lo(scen, EXACT)
        assert abs(estimate.value - fidelity_general(scen).fidelity) <= 1e-10
        assert estimate.std_error == 0.0
        assert estimate.tail_bound <= TAIL_TARGET
        assert estimate.truncation == 32

    def test_single_active_source_heralds_false_events(self):
        # Double pairs from one source still count as heralds, so the ratio is
        # defined and exactly zero when the other source is silent.
        scen = scenario(0.2, 0.0, 0.5, 0.5)
        estimate = exact_fidelity_lo(scen, EXACT)
        assert estimate.value == 0.0
        assert fidelity_general(scen).fidelity == 0.0

    def test_both_sources_silent_is_undefined(self):
        with pytest.raises(UndefinedFidelityError):
            exact_fidelity_lo(scenario(0.0, 0.0, 0.5, 0.5), EXACT)

    def test_lossless_weak_pumping_limit(self):
        estimate = exact_fidelity_lo(scenario(1e-4, 1e-4, 1.0, 1.0), EXACT)
        assert estimate.value == pytest.approx(1.0 / 3.0, rel=1e-3)

    def test_monotone_convergence_in_truncation(self):
        scen = scenario(0.4, 0.35, 0.6, 0.8)
        values = [
            exact_fidelity_lo(scen, OracleConfig(n_max=n)).value
            for n in (5, 10, 20, 40, 80, 160)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(fidelity_general(scen).fidelity, abs=1e-10)

    def test_agreement_on_random_grid(self):
        for scen in random_scenarios(100, seed=12345):
            estimate = exact_fidelity_lo(scen, EXACT)
            closed = fidelity_general(scen).fidelity
            assert abs(estimate.value - closed) <= max(estimate.tail_bound, 1e-10)

    def test_herald_probability_does_not_cancel(self):
        # This scenario's herald probability is 3.6e-4; forming it as one
        # minus the k + l < 2 terms lost 1.96e-13 there.
        scen = scenario(
            0.03282832175749066, 0.019901002502309768, 0.1780542252370088, 0.7642943582249574
        )
        estimate = exact_fidelity_lo(scen, EXACT)
        assert abs(estimate.value - fidelity_general(scen).fidelity) <= 1e-14


class TestExactSumNlo:
    def test_loss_independence(self):
        src = scenario(0.2764, 0.2764, 1.0, 1.0)
        rng = np.random.default_rng(2)
        values = []
        for _ in range(30):
            ha, hb = rng.uniform(0.01, 1.0, 2)
            scen = scenario(0.2764, 0.2764, float(ha), float(hb))
            values.append(exact_fidelity_nlo(scen, 1e-3, EXACT).value)
        assert max(values) - min(values) <= 1e-12
        assert values[0] == pytest.approx(fidelity_nlo(src), abs=1e-12)
        assert values[0] == pytest.approx(0.2742, abs=5e-5)

    def test_device_probability_cancels_to_rounding(self):
        # p_sfg scales the faithful and total weights alike; it enters the
        # herald grid, so it may move the value by ulps, far below the 1e-10 floor.
        scen = scenario(0.3, 0.1, 0.6, 0.2)
        lo = exact_fidelity_nlo(scen, 1e-6, EXACT)
        hi = exact_fidelity_nlo(scen, 0.1, EXACT)
        assert hi.value == pytest.approx(lo.value, rel=1e-12, abs=0.0)

    def test_zero_device_probability_is_undefined(self):
        # Nothing up-converts, so nothing heralds, as the sampled route finds too.
        scen = scenario(0.2, 0.3, 0.5, 0.5)
        with pytest.raises(UndefinedFidelityError, match="no herald events"):
            exact_fidelity_nlo(scen, 0.0, OracleConfig())
        with pytest.raises(InsufficientStatisticsError, match="no herald events"):
            mc_fidelity_nlo(scen, 0.0, OracleConfig(samples=1000))

    def test_silent_source_is_undefined(self):
        with pytest.raises(UndefinedFidelityError):
            exact_fidelity_nlo(scenario(0.0, 0.2, 0.5, 0.5), 1e-3, EXACT)


class TestMonteCarloLo:
    def test_seed_determinism(self):
        scen = scenario(0.2, 0.2, 0.5, 0.5)
        cfg = OracleConfig(samples=200_000, seed=99)
        first = mc_fidelity_lo(scen, cfg)
        second = mc_fidelity_lo(scen, cfg)
        assert first == second

    def test_worker_count_does_not_change_the_estimate(self):
        # At 2 and 3 workers the calling thread runs shards beside the pool; a
        # short switch interval makes the threads interleave often, so a shard
        # lost or run twice would change the herald count.
        scen = scenario(0.2, 0.2, 0.5, 0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for estimate in (lambda cfg: mc_fidelity_lo(scen, cfg),
                             lambda cfg: mc_fidelity_nlo(scen, 1e-2, cfg)):
                serial, *threaded = (estimate(OracleConfig(samples=300_000, seed=5, workers=w))
                                     for w in (1, 2, 3))
                assert threaded == [serial, serial]
        finally:
            sys.setswitchinterval(interval)

    def test_five_sigma_agreement(self):
        scen = scenario(0.2, 0.2, 0.5, 0.5)
        cfg = OracleConfig(samples=1_000_000, seed=31)
        estimate = mc_fidelity_lo(scen, cfg)
        closed = fidelity_general(scen).fidelity
        assert abs(estimate.value - closed) <= 5 * estimate.std_error

    def test_silent_sources_raise(self):
        cfg = OracleConfig(samples=1000, seed=0)
        with pytest.raises(InsufficientStatisticsError):
            mc_fidelity_lo(scenario(0.0, 0.0, 0.5, 0.5), cfg)

    def test_unbiased_over_many_seeds(self):
        scen = scenario(0.25, 0.15, 0.6, 0.8)
        closed = fidelity_general(scen).fidelity
        estimates, variances = [], []
        for seed in range(100):
            cfg = OracleConfig(samples=100_000, seed=seed)
            est = mc_fidelity_lo(scen, cfg)
            estimates.append(est.value)
            variances.append(est.std_error**2)
        mean = float(np.mean(estimates))
        combined_se = float(np.sqrt(np.sum(variances))) / len(estimates)
        assert abs(mean - closed) <= 3 * combined_se


class TestMonteCarloNlo:
    def test_five_sigma_agreement(self):
        scen = scenario(0.2, 0.2, 0.9, 0.1)
        cfg = OracleConfig(samples=2_000_000, seed=77)
        estimate = mc_fidelity_nlo(scen, 1e-2, cfg)
        closed = fidelity_nlo(scen)
        assert estimate.std_error > 0.0
        assert abs(estimate.value - closed) <= 5 * estimate.std_error

    def test_agreement_across_channel_pairs(self):
        # The sampled estimate must track the same loss-free value whatever
        # the channels are doing.
        closed = fidelity_nlo(scenario(0.25, 0.25, 1.0, 1.0))
        for seed, (ha, hb) in enumerate(((1.0, 1.0), (0.9, 0.2), (0.3, 0.6))):
            scen = scenario(0.25, 0.25, ha, hb)
            cfg = OracleConfig(samples=2_000_000, seed=500 + seed)
            estimate = mc_fidelity_nlo(scen, 2e-2, cfg)
            assert abs(estimate.value - closed) <= 5 * estimate.std_error

    def test_seed_determinism(self):
        scen = scenario(0.2, 0.2, 0.9, 0.1)
        cfg = OracleConfig(samples=500_000, seed=123)
        assert mc_fidelity_nlo(scen, 1e-2, cfg) == mc_fidelity_nlo(scen, 1e-2, cfg)

    def test_oversized_herald_weight_rejected(self):
        scen = scenario(0.45, 0.45, 1.0, 1.0)
        cfg = OracleConfig(samples=200_000, seed=1)
        with pytest.raises(ModelValidityError):
            mc_fidelity_nlo(scen, 0.5, cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_refused_run_stops_starting_shards(self, monkeypatch, workers):
        # 200001 samples give shard 0 one sample more than the other 63, and
        # only shard 0 gets a trial of herald weight 2*2*0.5 > 1.
        started = []

        def counted(rng, s, size, sample=oracle._sample_arrivals):
            started.append(size)
            k, l, faithful = sample(rng, s, size)
            if size > 3125:
                k[0] = l[0] = 2
            return k, l, faithful

        monkeypatch.setattr(oracle, "_sample_arrivals", counted)
        cfg = OracleConfig(samples=200_001, seed=1, workers=workers)
        with pytest.raises(ModelValidityError, match="herald weight"):
            mc_fidelity_nlo(scenario(0.01, 0.01, 0.5, 0.5), 0.5, cfg)
        assert 1 <= len(started) < cfg.shards

    def test_weak_pumping_fidelity_reaches_one(self):
        # At unit conversion probability only single-pair events herald once
        # the pumping is weak; sampling that regime is starved by construction
        # (herald and weight-violation rates both scale as eps^2), so the
        # limit is pinned through the exact summation instead.
        estimate = exact_fidelity_nlo(scenario(1e-6, 1e-6, 1.0, 1.0), 1.0, EXACT)
        assert estimate.value == pytest.approx(1.0, abs=5e-6)


class TestRandomScenarios:
    def test_deterministic_per_seed(self):
        assert random_scenarios(5, 7) == random_scenarios(5, 7)
        assert random_scenarios(5, 7) != random_scenarios(5, 8)

    @pytest.mark.parametrize("seed", [-3, 3.0, True])
    def test_seed_must_be_a_non_negative_int(self, seed):
        # random.Random(-3) repeats random.Random(3), and it hashes floats.
        with pytest.raises(DomainError, match="seed"):
            random_scenarios(1, seed)

    def test_numpy_integer_seed_is_its_int(self):
        # np.int64(3) used to pass OracleConfig but be refused here, and the
        # report it seeded failed json.dumps.
        cfg = OracleConfig(n_max=50, seed=np.int64(3))
        assert type(cfg.seed) is int
        scenarios = random_scenarios(2, np.int64(3))
        assert scenarios == random_scenarios(2, 3)
        report = verification_report(scenarios, cfg, p_sfg=0.05, methods=("exact-sum",))
        assert json.loads(json.dumps(report))["seed"] == 3

    @pytest.mark.parametrize("count", [SCENARIOS_LIMIT + 1, -1, 2.0, True])
    def test_count_is_capped(self, monkeypatch, count):
        # Refused before any draw: an unchecked count near 2**53 asks for TBs.
        monkeypatch.setattr(oracle.random, "Random", None)
        message = rf"^scenarios must be (an integer )?in \[0, 10000\], got {count!r}$"
        with pytest.raises(DomainError, match=message):
            random_scenarios(count, 0)


class TestVerificationReport:
    def test_default_grid_passes(self):
        cfg = OracleConfig(n_max=200, samples=300_000, seed=0)
        report = verification_report(
            random_scenarios(5, seed=0), cfg, p_sfg=0.05, methods=("exact-sum",)
        )
        assert report["pass"]
        assert report["failures"] == 0
        assert report["seed"] == 0
        assert "PCG64" in report["rng"]
        assert all(row["pass"] for row in report["rows"])

    def test_corrupted_closed_form_is_detected(self, monkeypatch):
        def corrupted(s):
            true = fidelity_general(s)
            return replace(true, fidelity=true.fidelity + 1e-6)

        monkeypatch.setattr(lo_bsm, "fidelity_general", corrupted)
        cfg = OracleConfig(n_max=200, samples=100_000, seed=0)
        report = verification_report(
            random_scenarios(3, seed=0), cfg, p_sfg=1e-3, methods=("exact-sum",)
        )
        assert not report["pass"]
        assert report["failures"] >= 3

    def test_monte_carlo_rows_call_the_public_estimators(self, monkeypatch):
        # perfbench/tracer.py counts oracle.mc.* by wrapping these two names
        # and reading their OracleConfig, so each row must go through them.
        calls = []
        for name in ("mc_fidelity_lo", "mc_fidelity_nlo"):
            estimator = getattr(oracle, name)
            counting = lambda *a, name=name, f=estimator: calls.append((name, a[-1])) or f(*a)
            monkeypatch.setattr(oracle, name, counting)
        cfg = OracleConfig(samples=2_000)
        verification_report(PINNED, cfg, p_sfg=1e-3, methods=("monte-carlo",))
        assert sorted(name for name, _ in calls) == sorted(
            ["mc_fidelity_lo", "mc_fidelity_nlo"] * len(PINNED)
        )
        assert all(arg is cfg for _, arg in calls)

    def test_exact_rows_call_the_public_estimators(self, monkeypatch):
        # perfbench/tracer.py counts oracle.exact.* by wrapping these two
        # names, so each row must go through them.
        calls = []
        for name in ("exact_fidelity_lo", "exact_fidelity_nlo"):
            estimator = getattr(oracle, name)
            counting = lambda *a, name=name, f=estimator: calls.append((name, a[-1])) or f(*a)
            monkeypatch.setattr(oracle, name, counting)
        verification_report(PINNED, EXACT, p_sfg=1e-3, methods=("exact-sum",))
        assert sorted(name for name, _ in calls) == sorted(
            ["exact_fidelity_lo", "exact_fidelity_nlo"] * len(PINNED)
        )
        assert all(arg is EXACT for _, arg in calls)

    @pytest.mark.parametrize("n_max", [1, 2, 7, 31, 32])
    def test_small_cap_is_one_truncation(self, n_max):
        # At n_max <= 32 the first truncation is the cap, so each estimate is
        # the single sum at n_max, bit for bit.
        cfg = OracleConfig(n_max=n_max)
        for scen in PINNED + random_scenarios(10, seed=5):
            assert exact_fidelity_lo(scen, cfg) == _exact(scen, _lo_herald, _bounded_tail, n_max)
            assert exact_fidelity_nlo(scen, 0.05, cfg) == _exact(
                scen, _nlo_herald(0.05), _product_tail, n_max
            )

    @pytest.mark.parametrize("n_max", [40, 100, 200, N_MAX_LIMIT])
    def test_each_row_stops_at_its_own_tail_bound(self, n_max):
        # eta = 1e-6 makes the herald probability ~1e-12, so the relative tail
        # needs N = 128 at eps = 0.45 where a lossless row stops at 32.
        scenarios = PINNED + [
            scenario(0.45, 0.45, 1e-6, 1e-6),
            scenario(0.45, 0.01, 1e-6, 1.0),
            scenario(0.3, 0.2, 1e-6, 0.5),
        ]
        cfg = OracleConfig(n_max=n_max, samples=1_000)
        methods = ("exact-sum", "monte-carlo")
        rows = verification_report(scenarios, cfg, p_sfg=0.05, methods=methods)["rows"]
        exact = [row for row in rows if row["method"] == "exact-sum"]
        assert len(exact) == 2 * len(scenarios)
        assert all("truncation" not in row for row in rows if row["method"] != "exact-sum")
        for row in exact:
            assert 1 <= row["truncation"] <= n_max
            assert row["pass"] is True
            if row["truncation"] != n_max:
                assert row["tail_bound"] <= 1e-3 * EXACT_ABS_TOLERANCE
                assert row["tolerance"] <= (1 + 1e-3) * EXACT_ABS_TOLERANCE
        truncations = {row["truncation"] for row in exact}
        assert min(truncations) == min(32, n_max) and len(truncations) > 1

    def test_exact_rows_equal_the_public_estimators(self):
        report = verification_report(PINNED, EXACT, p_sfg=0.05, methods=("exact-sum",))
        expected = [
            estimate
            for scen in PINNED
            for estimate in (exact_fidelity_lo(scen, EXACT), exact_fidelity_nlo(scen, 0.05, EXACT))
        ]
        assert len(report["rows"]) == len(expected)
        for row, estimate in zip(report["rows"], expected):
            assert (row["value"], row["std_error"], row["tail_bound"], row["truncation"]) == (
                estimate.value,
                estimate.std_error,
                estimate.tail_bound,
                estimate.truncation,
            )

    def test_no_comparison_does_not_pass(self):
        report = verification_report([], EXACT, p_sfg=1e-3, methods=("exact-sum",))
        assert report["compared"] == 0
        assert report["failures"] == 0
        assert report["pass"] is False

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError, match="method"):
            verification_report(
                random_scenarios(1, seed=0), EXACT, p_sfg=1e-3, methods=("guess",)
            )

    def test_loose_tail_bound_is_an_error_row_not_a_pass(self):
        cfg = OracleConfig(n_max=2)
        report = verification_report(
            random_scenarios(20, seed=3), cfg, p_sfg=1e-3, methods=("exact-sum",)
        )
        loose = [row for row in report["rows"] if "error" in row]
        assert loose and report["compared"] > 0
        assert all("n_max=2" in row["error"] and "tail bound" in row["error"] for row in loose)
        assert all(row["pass"] is None for row in loose)
        assert all(
            row["tolerance"] <= MAX_TOLERANCE for row in report["rows"] if "error" not in row
        )

    def test_undersampled_rows_reported_not_fatal(self):
        cfg = OracleConfig(n_max=200, samples=2_000, seed=0)
        report = verification_report(
            random_scenarios(2, seed=4), cfg, p_sfg=1e-3, methods=("monte-carlo",)
        )
        assert report["errors"] >= 1
        assert all(row["pass"] is not False for row in report["rows"] if "error" in row)

    def test_zero_variance_row_is_an_error_row_not_a_failure(self):
        # None of the 299 linear-optical heralds is faithful, so the binomial
        # error, and with it the tolerance, would be 0 and fail any closed form.
        cfg = OracleConfig(samples=300, seed=0)
        report = verification_report(
            [SwapScenario(0.97, 0.97, 1, 1)], cfg, p_sfg=0.05, methods=("monte-carlo",)
        )
        lo = next(row for row in report["rows"] if row["model"] == "lo")
        assert lo["pass"] is None
        assert lo["error"].startswith("none of 299 heralds faithful")
