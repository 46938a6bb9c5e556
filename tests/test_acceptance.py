"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one machine-greppable pass/fail line (run with ``pytest -s``
to see them live).  Tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from entswap import cli
from entswap.config import build_cavity, build_waveguide
from entswap.errors import UndefinedFidelityError
from entswap.fock_sim import (
    BELL_LABELS,
    bell_fidelity,
    bell_state,
    dfg_spurious_amplitude,
    herald_amplitude,
    product_state,
    swap_condition_on_sfg,
)
from entswap.lo_bsm import ONE_THIRD, fidelity_general, fidelity_upper_bound
from entswap.nlo_bsm import fidelity_nlo, p_for_target_fidelity
from entswap.oracle import (
    OracleConfig,
    exact_fidelity_lo,
    exact_fidelity_nlo,
    mc_fidelity_lo,
    random_scenarios,
)
from entswap.photon_stats import SwapScenario, epsilon_from_p
from entswap.presets import get_preset
from entswap.rates import compare, rate_lo, rate_nlo
from entswap.sfg_device import eta_sfg_cavity, p_sfg_cavity, p_sfg_from_eta, p_sfg_waveguide

BOUND_SLACK = 1e-12
EXACT_FLOOR = 1e-10
MC_SIGMAS = 5.0
ENDPOINT_TOL = 1e-12
IDENTITY_REL_TOL = 1e-12
FOCK_TOL = 1e-12
DFG_RATIO_RANGE = (0.5, 2.0)
RATE_RATIO_REL_TOL = 1e-13

BOUND_RUNTIME_S = 5.0
ORACLE_RUNTIME_S = 120.0
FOCK_RUNTIME_S = 10.0


def report_line(number: int, name: str, passed: bool) -> None:
    print(f"acceptance {number}: {name}: {'PASS' if passed else 'FAIL'}")


def criterion(number: int, name: str, fn) -> None:
    try:
        fn()
    except BaseException:
        report_line(number, name, passed=False)
        raise
    report_line(number, name, passed=True)


def test_01_lossy_fidelity_bound():
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for _ in range(10_000):
            ea, eb = rng.uniform(0.0, 0.7, 2)
            ha, hb = rng.uniform(0.0, 1.0, 2)
            scen = SwapScenario.from_values(float(ea), float(eb), float(ha), float(hb))
            bound = fidelity_upper_bound(scen)
            try:
                fidelity = fidelity_general(scen).fidelity
            except UndefinedFidelityError:
                continue  # degenerate corner with no heralds
            assert fidelity <= bound + BOUND_SLACK
            assert fidelity <= ONE_THIRD + BOUND_SLACK
        assert time.perf_counter() - start < BOUND_RUNTIME_S

    criterion(1, "general fidelity stays under the loss-dependent bound", body)


def test_02_oracle_equivalence():
    def body():
        start = time.perf_counter()
        exact_cfg = OracleConfig(n_max=200)
        worst = 0.0
        for scen in random_scenarios(1000, seed=2002):
            estimate = exact_fidelity_lo(scen, exact_cfg)
            closed = fidelity_general(scen).fidelity
            diff = abs(estimate.value - closed)
            assert diff <= max(estimate.tail_bound, EXACT_FLOOR)
            worst = max(worst, diff)

        for index, scen in enumerate(
            random_scenarios(20, seed=2003, eps_range=(0.05, 0.45), eta_range=(0.2, 1.0))
        ):
            # Estimates are bit-identical for any worker count (criterion 9).
            cfg = OracleConfig(samples=10_000_000, seed=2004 + index, workers=2)
            estimate = mc_fidelity_lo(scen, cfg)
            closed = fidelity_general(scen).fidelity
            assert abs(estimate.value - closed) <= MC_SIGMAS * estimate.std_error
        assert time.perf_counter() - start < ORACLE_RUNTIME_S

    criterion(2, "exact-sum and Monte Carlo oracles match the closed form", body)


def test_03_heralded_fidelity_is_loss_independent():
    def body():
        expected = fidelity_nlo(SwapScenario(0.22, 0.31, 1.0, 1.0))
        cfg = OracleConfig(n_max=200)
        rng = np.random.default_rng(3003)
        values = []
        for _ in range(100):
            ha, hb = rng.uniform(0.01, 1.0, 2)
            scen = SwapScenario(0.22, 0.31, float(ha), float(hb))
            values.append(exact_fidelity_nlo(scen, 1e-3, cfg).value)
        assert max(values) - min(values) <= ENDPOINT_TOL
        assert all(abs(v - expected) <= ENDPOINT_TOL for v in values)

    criterion(3, "up-conversion-heralded fidelity ignores channel losses", body)


def _equal_sources(p):
    """Two sources at pair probability p behind lossless channels."""
    eps = epsilon_from_p(p)
    return SwapScenario(eps, eps, 1.0, 1.0)


def _fig2_rows():
    from entswap.sweep import SweepSpec, run_sweep

    params = get_preset("fig2")
    spec = SweepSpec(
        variable="p",
        start=1e-3,
        stop=0.25,
        points=200,
        scale="log",
        fixed={},
        outputs=("f_nlo", "f_lo_balanced_smalleta", "f_lo_unbalanced", "lo_bound"),
    )
    assert params["variable"] == "p"
    return run_sweep(spec)


def test_04a_sweep_preset_reproduces_the_curves():
    def body():
        columns, rows = _fig2_rows()
        assert columns == ["p", "f_nlo", "f_lo_balanced_smalleta", "f_lo_unbalanced", "lo_bound"]
        assert len(rows) == 200

        # Weak-pumping limits of the analytic curves.
        tiny = 1e-13
        assert abs(fidelity_nlo(_equal_sources(tiny)) - 1.0) <= ENDPOINT_TOL
        from entswap.lo_bsm import fidelity_balanced_smalleta, fidelity_unbalanced_limit

        assert abs(fidelity_balanced_smalleta(tiny) - ONE_THIRD) <= ENDPOINT_TOL
        assert abs(fidelity_unbalanced_limit(tiny) - ONE_THIRD) <= ENDPOINT_TOL

        # Hard endpoint at the maximum pair probability.
        last = rows[-1]
        assert last[0] == 0.25
        assert abs(last[1] - 0.0625) <= ENDPOINT_TOL
        assert abs(last[2] - 1.0 / 48.0) <= ENDPOINT_TOL
        assert abs(last[3] - 1.0 / 12.0) <= ENDPOINT_TOL
        assert all(abs(row[4] - ONE_THIRD) <= ENDPOINT_TOL for row in rows)

        # Each row matches its analytic value.
        for row in rows:
            assert row[1] == pytest.approx(fidelity_nlo(_equal_sources(row[0])), rel=1e-12, abs=0.0)
            assert row[2] == pytest.approx(fidelity_balanced_smalleta(row[0]), rel=1e-12, abs=0.0)
            assert row[3] == pytest.approx(fidelity_unbalanced_limit(row[0]), rel=1e-12, abs=0.0)

    criterion(4, "sweep preset reproduces the analytic fidelity curves", body)


def test_04b_heralded_curve_strictly_above_both_lossy_curves():
    # With q = (1 + sqrt(1 - 4p))/2 the heralded curve is q^4, the balanced
    # small-eta curve q^4/3 and the attenuated unbalanced curve q^2/3.  The
    # heralded curve is therefore three times the balanced one everywhere, and
    # it meets the unbalanced one where q^2 = 1/3, both at fidelity 1/9.  That
    # crossing lies at p_x = 1/sqrt(3) - 1/3 ~ 0.2440: below it the heralded
    # curve is the higher one; above it, up to the p = 1/4 endpoint (1/16
    # against 1/12, the endpoint values asserted above), the unbalanced one is.
    p_cross = 1.0 / math.sqrt(3.0) - 1.0 / 3.0

    def body():
        from entswap.lo_bsm import fidelity_unbalanced_limit, p_for_unbalanced_limit

        # The crossing, pinned through the library's inverses and curves.
        assert abs(p_for_target_fidelity(1.0 / 9.0) - p_cross) <= ENDPOINT_TOL
        assert abs(p_for_unbalanced_limit(1.0 / 9.0) - p_cross) <= ENDPOINT_TOL
        assert abs(fidelity_nlo(_equal_sources(p_cross)) - 1.0 / 9.0) <= ENDPOINT_TOL
        assert abs(fidelity_unbalanced_limit(p_cross) - 1.0 / 9.0) <= ENDPOINT_TOL

        _, rows = _fig2_rows()
        # Both sides of the crossing are sampled, so neither ordering is vacuous.
        assert any(row[0] < p_cross for row in rows)
        assert any(row[0] > p_cross for row in rows)
        offenders = [
            (row[0], row[1], row[2], row[3])
            for row in rows
            if not row[1] > row[2]
            or (row[0] < p_cross and not row[1] > row[3])
            or (row[0] > p_cross and not row[1] < row[3])
        ]
        assert offenders == [], (
            "heralded curve not above the balanced curve everywhere, above the "
            f"unbalanced curve for p < {p_cross:.6g} and below it beyond, at: "
            + ", ".join(
                f"p={p:.6g} (nlo={f1:.6g}, balanced={f2:.6g}, unbalanced={f3:.6g})"
                for p, f1, f2, f3 in offenders
            )
        )

    criterion(
        4,
        "heralded curve above the balanced curve everywhere and above the "
        "unbalanced curve below p = 1/sqrt(3) - 1/3, below it beyond",
        body,
    )


def test_05_pair_probability_for_one_third_fidelity():
    def body():
        p = p_for_target_fidelity(1.0 / 3.0)
        assert 0.180 <= p <= 0.185
        eps = epsilon_from_p(p)
        assert abs((1 - eps) ** 4 - 1.0 / 3.0) <= 1e-12

    criterion(5, "pair probability for one-third heralded fidelity", body)


def _random_resonant_cavity(rng):
    from entswap.sfg_device import CavityParams

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


def test_06_device_conversion_probabilities():
    def body():
        ring = build_cavity(get_preset("ingap-ring"))
        ring_p = p_sfg_cavity(ring)
        assert 5e-4 <= ring_p <= 2e-3

        waveguide = build_waveguide(get_preset("ingap-wg"))
        wg_p = p_sfg_waveguide(waveguide)
        assert 1.5e-5 <= wg_p <= 4e-5

        # Measured-efficiency route and direct coupling route agree exactly.
        rng = np.random.default_rng(6006)
        for _ in range(1000):
            cavity = _random_resonant_cavity(rng)
            composed = p_sfg_from_eta(cavity, eta_sfg_cavity(cavity))
            direct = p_sfg_cavity(cavity)
            assert abs(composed - direct) <= IDENTITY_REL_TOL * direct

    criterion(6, "device conversion probabilities land in the quoted ranges", body)


def test_07_exact_simulator_invariants():
    def body():
        start = time.perf_counter()
        for gt in (1e-3, 1e-2, 5e-2):
            for n_a in (1, 2, 3):
                for n_b in (1, 2, 3):
                    amp = herald_amplitude(n_a, n_b, gt)
                    target = -1j * gt * math.sqrt(n_a * n_b)
                    assert abs(amp - target) <= (gt * gt * n_a * n_b) * abs(target)

        state = product_state(bell_state("phi+"), bell_state("phi+"))
        outcomes = swap_condition_on_sfg(state)
        assert sorted(o.label for o in outcomes) == sorted(BELL_LABELS)
        for outcome in outcomes:
            fid = bell_fidelity(outcome.conditioned_state, outcome.label)
            assert abs(fid - 1.0) <= FOCK_TOL

        for gt in (1e-3, 1e-2, 5e-2):
            dfg, spdc = dfg_spurious_amplitude(gt)
            ratio = abs(spdc) / abs(dfg)
            assert DFG_RATIO_RANGE[0] <= ratio <= DFG_RATIO_RANGE[1]
        assert time.perf_counter() - start < FOCK_RUNTIME_S

    criterion(7, "exact simulator reproduces herald amplitudes and Bell outcomes", body)


def test_08_rate_crossover_ratio():
    def body():
        eps = epsilon_from_p(0.01)
        scen = SwapScenario.from_values(eps, eps, 1.0, 1e-5)
        ratio = rate_nlo(scen, 1e-3, 1e9) / rate_lo(scen, 1e9)
        assert ratio == pytest.approx(100.0, rel=RATE_RATIO_REL_TOL, abs=0.0)
        verdict = compare(scen, 1e-3, 1e9)
        assert verdict["crossover_ratio"] == 100.0
        assert verdict["nlo_wins"]

    criterion(8, "rate advantage is exactly the conversion-to-asymmetry ratio", body)


def test_09_verification_is_deterministic(tmp_path, capsys):
    def body():
        args = [
            "verify",
            "--seed", "4242",
            "--scenarios", "3",
            "--method", "both",
            "--samples", "1000000",
        ]
        outputs = []
        for workers in ("1", "1", "4"):
            path = tmp_path / f"verify-{len(outputs)}.json"
            code = cli.main(args + ["--workers", workers, "--out", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]
        payload = json.loads(outputs[0])
        assert payload["seed"] == 4242
        assert payload["pass"] is True

    criterion(9, "verification output is bit-identical across runs and workers", body)
