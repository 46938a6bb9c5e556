"""Independent verification of the closed-form fidelities.

Two routes, both deliberately avoiding the algebra used by the closed forms:

* exact-sum: reduce each side's truncated arrival marginal, built by
  thinning one photon at a time (the generative model the Monte Carlo route
  samples) rather than from this package's binomial algebra, through the
  herald on the index grid, ``faithful h[1,1] / (arr_a @ h @ arr_b)``, at
  the first truncation of 32, 64, 128, ... (capped at n_max) whose tail
  bound is negligible, and report that truncation and its tail bound;
* monte-carlo: sample the generative model (geometric pair numbers, binomial
  thinning) with a seeded counter-derived RNG, accept each trial with
  probability h(k, l), and report a binomial standard error.

Each measurement's herald h(k, l) is one vectorised function read by both.
Every estimator takes (scenario, cfg): the up-conversion herald reads its
p_sfg from the ``OracleConfig``, which checked it.

Monte Carlo work is split into logical shards, as many as ``samples`` sets,
each seeded from (seed, shard_index).  ``workers`` threads run them, the
calling thread and ``workers - 1`` pool threads; they only choose which thread
runs a shard, so estimates are bit-identical for any worker count and fully
reproducible per seed.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientStatisticsError,
    ModelValidityError,
    UndefinedFidelityError,
)
from .photon_stats import (
    SwapScenario,
    check_count,
    check_epsilon,
    check_probability,
    mean_arrival_tail,
    truncation_tail_bound,
)

RNG_DESCRIPTION = (
    "scenarios: Python random.Random(seed) (Mersenne Twister); "
    "Monte Carlo: numpy PCG64 seeded by SeedSequence([seed, shard_index])"
)

# Largest cap on the exact sums' truncation.  A row stops growing its
# truncation once its tail bound is at most TAIL_TARGET (N = 32 or 64 on
# verify's default ranges), so only a row that never gets there (eps near 1,
# or eta near 0) builds (n_max+1)^2 float tables: about 32 MB each at the
# limit, where an unchecked --n-max 100000 would ask for 80 GB.
N_MAX_LIMIT = 2000
# Added to the exact-sum tail bound: double-precision accumulation noise.
EXACT_ABS_TOLERANCE = 1e-10
# The exact sums try truncations FIRST_TRUNCATION, twice that, ... up to n_max,
# and stop at the first whose tail bound is at most TAIL_TARGET: the row's own
# bound, which widens its tolerance by at most 0.1 %.  A rule on the pair
# tail alone (truncation_tail_bound <= 1e-17) stops at N = 49 for eps = 0.45,
# eta = 1e-6, where the row's tail bound is still 1.4e-7.
FIRST_TRUNCATION = 32
TAIL_TARGET = 1e-3 * EXACT_ABS_TOLERANCE
# The default ranges random_scenarios draws eps and eta from, and verify's defaults.
EPS_RANGE = (0.01, 0.45)
ETA_RANGE = (0.05, 1.0)
# Most scenarios one verification draws: at the limit verify --method exact
# --n-max 10 peaks at about 105 MB resident, where 2**53 - 1 would ask for TBs.
SCENARIOS_LIMIT = 10_000
# Most samples a Monte Carlo shard draws at once: at the limit an nlo estimate
# peaks at about 66 MB resident (98 MB with two workers), 27 MB of it the import.
SHARD_SAMPLES_LIMIT = 1_000_000
# Fewest Monte Carlo shards; a larger estimate takes as many as it needs.
SHARDS = 64
# Most samples one estimate draws: 1024 full shards, each a generator and a pool task.
SAMPLES_LIMIT = 1024 * SHARD_SAMPLES_LIMIT
# Most threads that run shards, the calling one included: each holds one
# shard's arrays, so at SHARD_SAMPLES_LIMIT an nlo estimate on 32 workers peaks
# at about 950 MB resident, 29 MB a thread, where 1024 would ask for 30 GB.
# There are never fewer shards (SHARDS) than workers.
WORKERS_LIMIT = 32


@dataclass(frozen=True)
class OracleConfig:
    """Verification settings.

    ``shards`` (derived from ``samples``) fixes the logical partition of Monte
    Carlo samples; ``workers`` counts the threads that run shards, the calling
    one included, and sets concurrency only, not results.  ``p_sfg`` is the
    up-conversion herald's conversion probability, read by the nlo estimators.
    """

    n_max: int = 200
    samples: int = 200_000
    seed: int = 0
    workers: int = 1
    p_sfg: float = 0.05

    def __post_init__(self) -> None:
        for name, low, high in (("n_max", 1, N_MAX_LIMIT), ("samples", 1, SAMPLES_LIMIT),
                                ("seed", 0, math.inf), ("workers", 1, WORKERS_LIMIT)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, low, high))
        check_probability(self.p_sfg, "p_sfg")

    @property
    def shards(self) -> int:
        """SHARDS, or the fewest shards of at most SHARD_SAMPLES_LIMIT samples."""
        return max(SHARDS, -(-self.samples // SHARD_SAMPLES_LIMIT))


@dataclass(frozen=True)
class OracleEstimate:
    value: float
    std_error: float
    tail_bound: float
    heralds: int | None = None  # Monte Carlo only
    truncation: int | None = None  # exact sums only


def _arrival_table(eps: float, eta: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Emission weights (1-eps) eps^n and the binomial arrival pmf table.

    pmf[n, k] is the probability that k of n photons arrive.  Row n follows
    from row n-1 by sending one more photon through the channel: it is lost
    with probability 1-eta (k stays) or arrives with probability eta (k grows
    by one).  Entries with k > n are never written and stay 0, so the full
    rectangle is safe to sum over.
    """
    weights = (1.0 - eps) * eps ** np.arange(n_max + 1)
    pmf = np.zeros((n_max + 1, n_max + 1))
    pmf[0, 0] = 1.0
    for n in range(1, n_max + 1):
        pmf[n, : n + 1] = (1.0 - eta) * pmf[n - 1, : n + 1]
        pmf[n, 1 : n + 1] += eta * pmf[n - 1, :n]
    return weights, pmf


def _arrival_marginal(eps: float, eta: float, n_max: int) -> tuple[np.ndarray, float]:
    """One side's arrival marginal ``w @ pmf`` and its (1|1) weight ``w[1] pmf[1, 1]``.

    The pmf table is freed on return, before the other side's is built.  Two
    tables freed together leave a free block at the top of the heap that glibc
    trims, and the next scenario then faults the pages in again.
    """
    w, pmf = _arrival_table(eps, eta, n_max)
    return w @ pmf, w[1] * pmf[1, 1]


def _arrival_tables(scenario: SwapScenario, n_max: int):
    """Both sides' arrival marginals and the faithful (1|1, 1|1) weight."""
    arr_a, one_a = _arrival_marginal(scenario.eps_a, scenario.eta_a, n_max)
    arr_b, one_b = _arrival_marginal(scenario.eps_b, scenario.eta_b, n_max)
    return arr_a, arr_b, one_a * one_b


def _lo_herald(k, l):
    """The linear-optical herald: any two arrivals fire it."""
    return k + l >= 2


def _nlo_herald(p_sfg: float):
    """The weak up-conversion herald: k and l arrivals fire it with probability k l p_sfg."""
    return lambda k, l: k * l * p_sfg


def _grid(herald, n_max: int) -> np.ndarray:
    """h[k, l] = herald(k, l) on the truncated index grid, as floats."""
    k = np.arange(n_max + 1)
    return herald(k[:, None], k[None, :]).astype(float, copy=False)


def _bounded_tail(
    scenario: SwapScenario, tables, n: int, value: float, denominator: float
) -> float:
    """Tail of a herald with 0 <= h <= 1: the herald mass left out is at most
    the probability of more than n pairs on either side."""
    return value * truncation_tail_bound(scenario, n) / denominator


def _product_tail(
    scenario: SwapScenario, tables, n: int, value: float, denominator: float
) -> float:
    """Tail of a herald proportional to k l, whose sum is the product of the
    mean arrivals: the relative error of each truncated mean, compounded."""
    k = np.arange(n + 1, dtype=float)
    rel_a = mean_arrival_tail(scenario.eps_a, scenario.eta_a, n) / float(tables[0] @ k)
    rel_b = mean_arrival_tail(scenario.eps_b, scenario.eta_b, n) / float(tables[1] @ k)
    return value * (rel_a + rel_b + rel_a * rel_b)


def _exact(scenario: SwapScenario, herald, tail, n: int) -> OracleEstimate:
    """faithful h[1, 1] / (arr_a @ h @ arr_b) at truncation n: the faithful
    herald weight over the total, with ``tail`` bounding the truncation."""
    tables = _arrival_tables(scenario, n)
    arr_a, arr_b, faithful = tables
    h = _grid(herald, n)
    denominator = float(arr_a @ h @ arr_b)
    if denominator <= 0.0:
        raise UndefinedFidelityError("no herald events below the truncation")
    value = faithful * h[1, 1] / denominator
    tail_bound = tail(scenario, tables, n, value, denominator)
    return OracleEstimate(value=value, std_error=0.0, tail_bound=tail_bound, truncation=n)


def _exact_fidelity(scenario: SwapScenario, cfg: OracleConfig, herald, tail) -> OracleEstimate:
    """The exact sum at the first truncation of FIRST_TRUNCATION, twice that,
    ... whose tail bound is at most TAIL_TARGET, or at cfg.n_max.  Each
    truncation builds its own tables, so nothing is sized by the cap alone."""
    n = min(FIRST_TRUNCATION, cfg.n_max)
    while True:
        estimate = _exact(scenario, herald, tail, n)
        if estimate.tail_bound <= TAIL_TARGET or n == cfg.n_max:
            return estimate
        n = min(2 * n, cfg.n_max)


def exact_fidelity_lo(scenario: SwapScenario, cfg: OracleConfig) -> OracleEstimate:
    """Truncated-sum evaluation of P(1|1,1|1) / P(at least two arrivals)."""
    return _exact_fidelity(scenario, cfg, _lo_herald, _bounded_tail)


def exact_fidelity_nlo(scenario: SwapScenario, cfg: OracleConfig) -> OracleEstimate:
    """Truncated-sum evaluation of the up-conversion-heralded fidelity.  cfg.p_sfg
    scales the faithful and total herald weights alike, so it moves the value
    only by rounding; at p_sfg = 0 nothing heralds."""
    return _exact_fidelity(scenario, cfg, _nlo_herald(cfg.p_sfg), _product_tail)


def _shard_sizes(samples: int, shards: int) -> list[int]:
    base, extra = divmod(samples, shards)
    return [base + (1 if s < extra else 0) for s in range(shards)]


def _sample_arrivals(
    rng: np.random.Generator, scenario: SwapScenario, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrivals k, l of ``size`` trials and the mask of faithful trials, those
    with the (1|1, 1|1) pattern.  The draw order is n, m, k, l.  n is masked
    and dropped before l is drawn, so l can take n's freed block instead of
    growing the heap, and the pair numbers never reach the herald."""
    # geometric(p) has support {1, 2, ...}; shifting gives P(n) = (1-eps) eps^n.
    n = rng.geometric(1.0 - scenario.eps_a, size)
    n -= 1
    m = rng.geometric(1.0 - scenario.eps_b, size)
    m -= 1
    k = rng.binomial(n, scenario.eta_a)
    faithful = n == 1
    faithful &= k == 1
    del n
    l = rng.binomial(m, scenario.eta_b)
    faithful &= m == 1
    faithful &= l == 1
    return k, l, faithful


def _run_shards(cfg: OracleConfig, shard_fn) -> list[tuple[int, int]]:
    """``shard_fn(idx, size)`` of every shard, in shard order.

    The calling thread and ``workers - 1`` pool threads take shards from one
    queue.  A raising shard empties it, so no new shard starts, and its
    exception is raised once the running shards end.
    """
    sizes = _shard_sizes(cfg.samples, cfg.shards)
    results = [None] * len(sizes)
    pending = deque(enumerate(sizes))  # popleft and clear are atomic

    def work() -> None:
        while True:
            try:
                idx, size = pending.popleft()
            except IndexError:
                return
            try:
                results[idx] = shard_fn(idx, size)
            except BaseException:
                pending.clear()
                raise

    from concurrent.futures import ThreadPoolExecutor

    # Threads start per submitted helper, so one worker starts none.
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        helpers = [pool.submit(work) for _ in range(cfg.workers - 1)]
        work()
        for helper in helpers:
            helper.result()
    return results


def _mc_fidelity(scenario: SwapScenario, cfg: OracleConfig, herald) -> OracleEstimate:
    """Sampled fidelity: a trial heralds with probability ``herald(k, l)``, and
    the faithful ones are those with the (1|1, 1|1) pattern.  A bool herald is
    the accept mask itself and draws no uniform."""

    def shard(idx: int, size: int) -> tuple[int, int]:
        rng = np.random.default_rng([cfg.seed, idx])
        k, l, faithful = _sample_arrivals(rng, scenario, size)
        accept = herald(k, l)
        del k, l  # the uniform draw below can take their blocks
        if accept.dtype != bool:
            if np.any(accept > 1.0):
                raise ModelValidityError(
                    "a sampled event has herald weight k*l*p_sfg > 1; reduce p_sfg "
                    "or the source efficiencies"
                )
            accept = rng.uniform(size=accept.size) < accept
        faithful &= accept
        return int(np.count_nonzero(accept)), int(np.count_nonzero(faithful))

    counts = _run_shards(cfg, shard)
    heralds = sum(h for h, _ in counts)
    if heralds == 0:
        raise InsufficientStatisticsError("no herald events sampled; increase samples")
    value = sum(f for _, f in counts) / heralds
    std_error = (value * (1.0 - value) / heralds) ** 0.5
    return OracleEstimate(value=value, std_error=std_error, tail_bound=0.0, heralds=heralds)


def mc_fidelity_lo(scenario: SwapScenario, cfg: OracleConfig) -> OracleEstimate:
    """Sampled fidelity: heralds are trials with >= 2 arrivals."""
    return _mc_fidelity(scenario, cfg, _lo_herald)


def mc_fidelity_nlo(scenario: SwapScenario, cfg: OracleConfig) -> OracleEstimate:
    """Sampled fidelity with acceptance probability k*l*cfg.p_sfg per trial."""
    return _mc_fidelity(scenario, cfg, _nlo_herald(cfg.p_sfg))


def random_scenarios(
    count: int,
    seed: int,
    eps_range: tuple[float, float] = EPS_RANGE,
    eta_range: tuple[float, float] = ETA_RANGE,
) -> list[SwapScenario]:
    """Reproducible random parameter grid for verification runs.

    Each value is ``low + (high - low) * rng.random()`` with
    ``rng = random.Random(seed)``: it depends only on ``random()``, whose
    stream Python fixes for an int seed, and drawing loads no numpy.random.
    A seed that is not an integer >= 0 is refused, because ``random.Random``
    gives -3 the stream of 3 and also takes floats and strings; a numpy
    integer draws the stream of its int.  Each range is checked at its
    endpoints, so a bad range fails for every seed.
    """
    for name, (low, high), check in (
        ("eps", eps_range, check_epsilon),
        ("eta", eta_range, check_probability),
    ):
        check(low, f"{name}_min")
        check(high, f"{name}_max")
        if not low <= high:
            raise DomainError(f"{name}_min must be <= {name}_max, got {low} > {high}")
    count = check_count(count, "scenarios", 0, SCENARIOS_LIMIT)
    rng = random.Random(check_count(seed, "seed", 0))

    def draw(low: float, high: float) -> float:
        return low + (high - low) * rng.random()

    scenarios = []
    for _ in range(count):
        ea, eb = draw(*eps_range), draw(*eps_range)
        ha, hb = draw(*eta_range), draw(*eta_range)
        scenarios.append(SwapScenario.from_values(ea, eb, ha, hb))
    return scenarios


MC_SIGMA_TOLERANCE = 5.0
# Below this many heralds a 5-sigma band is meaningless (the binomial error
# estimate itself is unreliable), so the row is reported as under-sampled.
MIN_HERALDS = 25
# The widest band a compared Monte Carlo row can have (MIN_HERALDS heralds,
# std error at most sqrt(1/4 / MIN_HERALDS)).  An exact-sum row whose tail
# bound is looser than this would pass almost any value, so it is reported as
# under-resolved instead of compared.
MAX_TOLERANCE = MC_SIGMA_TOLERANCE * (0.25 / MIN_HERALDS) ** 0.5


def _tolerance(method: str, estimate: OracleEstimate) -> float:
    """Allowed |oracle - closed form|, or InsufficientStatisticsError when the
    estimate is too coarse for a comparison to mean anything."""
    if method == "exact-sum":
        tolerance = estimate.tail_bound + EXACT_ABS_TOLERANCE
        if tolerance > MAX_TOLERANCE:
            # Only a row that reached the cap is this loose, so its truncation is n_max.
            raise InsufficientStatisticsError(
                f"tail bound {estimate.tail_bound:.3g} at n_max={estimate.truncation} exceeds "
                f"{MAX_TOLERANCE:g}; increase n_max for a meaningful comparison"
            )
        return tolerance
    if estimate.heralds < MIN_HERALDS:
        raise InsufficientStatisticsError(
            f"only {estimate.heralds} heralds sampled; "
            f"need >= {MIN_HERALDS} for a meaningful comparison"
        )
    if estimate.value in (0.0, 1.0):
        raise InsufficientStatisticsError(
            f"{'all' if estimate.value else 'none'} of {estimate.heralds} heralds faithful, "
            "so the binomial error is 0 and sets no band; increase samples")
    return MC_SIGMA_TOLERANCE * estimate.std_error


def _comparison(estimate: OracleEstimate, closed_form: float, tolerance: float) -> dict:
    abs_diff = abs(estimate.value - closed_form)
    row = {
        "value": estimate.value,
        "std_error": estimate.std_error,
        "tail_bound": estimate.tail_bound,
        "closed_form": closed_form,
        "abs_diff": abs_diff,
        "tolerance": tolerance,
        "pass": bool(abs_diff <= tolerance),
    }
    if estimate.truncation is not None:
        row["truncation"] = estimate.truncation
    return row


def verification_report(
    scenarios: list[SwapScenario], cfg: OracleConfig, methods: tuple[str, ...]
) -> dict:
    """Compare oracle estimates against the closed forms on a scenario grid.

    Rows where a Monte Carlo run sampled fewer than ``MIN_HERALDS`` heralds
    or found all or none of them faithful, an exact sum's tolerance exceeds
    ``MAX_TOLERANCE``, or the run left the model, are reported with an
    ``error`` field and excluded from the pass/fail count; a report that
    compared no row does not pass.
    """
    from . import lo_bsm, nlo_bsm

    for method in methods:
        if method not in ("exact-sum", "monte-carlo"):
            raise DomainError(f"method must be 'exact-sum' or 'monte-carlo', got {method!r}")
    # model: (closed form, {method: estimator}).  Both are read from the
    # modules at each call, not at import, so a module attribute replaced at
    # run time (a tracing wrapper, a corrupted closed form) is the one used.
    models = {
        "lo": (lambda s: lo_bsm.fidelity_general(s).fidelity,
               {"exact-sum": exact_fidelity_lo, "monte-carlo": mc_fidelity_lo}),
        "nlo": (nlo_bsm.fidelity_nlo,
                {"exact-sum": exact_fidelity_nlo, "monte-carlo": mc_fidelity_nlo}),
    }
    nlo_bsm.check_p_sfg_heralds(cfg.p_sfg)

    rows = []
    for scenario in scenarios:
        for model, (closed_form, estimators) in models.items():
            closed = closed_form(scenario)
            for method in methods:
                row = {"scenario": asdict(scenario), "model": model, "method": method}
                try:
                    estimate = estimators[method](scenario, cfg)
                    tolerance = _tolerance(method, estimate)
                except (InsufficientStatisticsError, ModelValidityError) as exc:
                    rows.append({**row, "error": str(exc), "pass": None})
                    continue
                rows.append({**row, **_comparison(estimate, closed, tolerance)})

    failures = sum(1 for row in rows if row["pass"] is False)
    compared = sum(1 for row in rows if row["pass"] is not None)
    return {
        "rng": RNG_DESCRIPTION,
        "seed": cfg.seed,
        "n_max": cfg.n_max,
        "samples": cfg.samples,
        "shards": cfg.shards,
        "p_sfg": cfg.p_sfg,
        "rows": rows,
        "checks": len(rows),
        "compared": compared,
        "failures": failures,
        "errors": len(rows) - compared,
        "pass": failures == 0 and compared > 0,
    }
