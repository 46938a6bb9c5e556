import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from entswap import oracle
from entswap.cli import (EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, VERIFY_DEFAULTS, _collect_entries,
                         build_parser, main)
from entswap.config import CAVITY_KEYS, KEY_KINDS, WAVEGUIDE_KEYS
from entswap.errors import DomainError, UsageError
from entswap.fock_sim import run_fock_checks
from entswap.sweep import SWEEP_OUTPUTS, SweepSpec, run_sweep
from entswap.lo_bsm import fidelity_balanced_smalleta, fidelity_unbalanced_limit
from entswap.nlo_bsm import fidelity_nlo
from entswap.oracle import OracleConfig, verification_report
from entswap.photon_stats import SwapScenario, epsilon_from_p

SRC = Path(__file__).resolve().parents[1] / "src"

# Scenarios in which an nlo exact-sum row differs from the closed form by more
# than its tail bound, at the keyed --n-max, by less than the rounding floor.
ROUNDING_SCENARIOS = {
    "10": [  # draws 16 and 160 of random_scenarios(200, seed=3)
        (0.1353812832739303, 0.03792265394390091, 0.8612453640015462, 0.9903157141755022),
        (0.02333274915491265, 0.04983515090043007, 0.21181725060851458, 0.08477569526250239),
    ],
    "20": [
        (0.02335224337148733, 0.32106464208847435, 0.4055316418045472, 0.13631007782904495),
        (0.08932651797096187, 0.3386185696859287, 0.7646122474508136, 0.5886289807302667),
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepSpec:
    def test_invalid_range_names_the_invariant(self):
        with pytest.raises(UsageError, match="start < stop"):
            SweepSpec("p", 0.2, 0.1, 10, "linear", {}, ("f_nlo",))

    def test_too_few_points(self):
        with pytest.raises(DomainError, match=r"^points must be in \[2, 100000\], got 1$"):
            SweepSpec("p", 0.1, 0.2, 1, "linear", {}, ("f_nlo",))

    def test_log_scale_needs_positive_start(self):
        with pytest.raises(UsageError, match="log"):
            SweepSpec("eta_a", 0.0, 1.0, 10, "log", {}, ("f_nlo",))

    def test_unknown_variable_and_output(self):
        with pytest.raises(UsageError, match="variable"):
            SweepSpec("q", 0.1, 0.2, 10, "linear", {}, ("f_nlo",))
        with pytest.raises(UsageError, match="outputs"):
            SweepSpec("p", 0.1, 0.2, 10, "linear", {}, ("nope",))

    @pytest.mark.parametrize("start, stop", [(0.1, math.inf), (-math.inf, 0.1), (-0.5, 0.1)])
    def test_endpoints_must_be_finite_and_non_negative(self, start, stop):
        # An infinite stop used to reach np.linspace, whose RuntimeWarning
        # came before the swept field's DomainError.
        with pytest.raises(DomainError, match=r"^(start|stop) must be finite and >= 0, got"):
            run_sweep(SweepSpec("eta_a", start, stop, 10, "linear", {}, ("f_nlo",)))

    def test_grid_endpoints_are_exact(self):
        spec = SweepSpec("p", 1e-3, 0.25, 200, "log", {}, ("f_nlo",))
        grid = spec.grid()
        assert grid[0] == 1e-3
        assert grid[-1] == 0.25
        assert len(grid) == 200


class TestRunSweep:
    def test_columns_and_values(self):
        spec = SweepSpec(
            "p", 1e-3, 0.25, 50, "log", {}, ("f_nlo", "f_lo_balanced_smalleta")
        )
        columns, rows = run_sweep(spec)
        assert columns == ["p", "f_nlo", "f_lo_balanced_smalleta"]
        for row in rows:
            p = row[0]
            eps = epsilon_from_p(p)
            expected = fidelity_nlo(SwapScenario(eps, eps, 1.0, 1.0))
            assert row[1] == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert row[2] == pytest.approx(fidelity_balanced_smalleta(p), rel=1e-12, abs=0.0)

    def test_eta_sweep_holds_sources_fixed(self):
        from entswap.config import parse_config_text
        from entswap.lo_bsm import fidelity_general

        fixed = parse_config_text("p_a = 0.04\np_b = 0.04\neta_b = 0.5")
        spec = SweepSpec("eta_a", 0.1, 1.0, 10, "linear", fixed, ("f_lo_general",))
        _, rows = run_sweep(spec)
        eps = epsilon_from_p(0.04)
        for eta_a, value in rows:
            scen = SwapScenario.from_values(eps, eps, eta_a, 0.5)
            assert value == pytest.approx(fidelity_general(scen).fidelity, rel=1e-13, abs=0.0)


class TestFidelitySweepCommand:
    def test_fig2_preset_csv(self, capsys):
        code, out, err = run_cli(capsys, "fidelity-sweep", "--preset", "fig2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "p,f_nlo,f_lo_balanced_smalleta,f_lo_unbalanced,lo_bound"
        assert len(lines) == 201
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[0] == pytest.approx(1e-3)
        assert last[0] == pytest.approx(0.25)
        assert last[1] == pytest.approx(0.0625, abs=1e-12)
        assert last[2] == pytest.approx(1.0 / 48.0, abs=1e-12)
        assert last[3] == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_limit_columns_read_the_unattenuated_source(self, tmp_path, capsys):
        # eta_a p_a = 2e-7 at most, below eta_b p_b = 0.01: A is kept, B attenuated.
        cfg = tmp_path / "link.cfg"
        cfg.write_text("eta_b = 1\np_a = 0.2\np_b = 0.01\n")
        code, out, _ = run_cli(
            capsys, "fidelity-sweep", "--config", str(cfg), "--variable", "eta_a",
            "--start", "1e-6", "--stop", "1e-5", "--points", "3",
            "--outputs", "f_lo_balanced_smalleta,f_lo_unbalanced",
        )
        assert code == EXIT_OK
        rows = [line.split(",", 1)[1] for line in out.splitlines()[1:]]
        # The curves at p_a; at p_b they would read 3.200666631952e-01,3.266326495189e-01.
        assert rows == ["9.138802621666e-02,1.745355992500e-01"] * 3
        assert rows[0] == (f"{fidelity_balanced_smalleta(0.2):.12e},"
                           f"{fidelity_unbalanced_limit(0.2):.12e}")

    @pytest.mark.parametrize(
        "start, output, row",
        [
            # epsilon_from_p cancelled: r_lo read 1.000621987061e-27 here.
            pytest.param("1e-13", "r_lo", "1.000000000000e-13,1.000000000000e-27", id="r-lo"),
            # Every term is still a normal float; at p = 1e-159 p_faithful is not.
            pytest.param("1e-100", "f_lo_general", "1.000000000000e-100,9.999900000000e-06",
                         id="f-lo-general"),
        ],
    )
    def test_tiny_pair_probabilities_keep_their_digits(self, capsys, start, output, row):
        code, out, _ = run_cli(
            capsys, "fidelity-sweep", "--preset", "satellite", "--variable", "p", "--start", start,
            "--stop", "1e-3", "--points", "2", "--scale", "log", "--outputs", output,
        )
        assert code == EXIT_OK
        assert out.splitlines()[1] == row

    def test_csv_format_is_stable(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fidelity-sweep",
            "--variable", "p",
            "--start", "0.01",
            "--stop", "0.02",
            "--points", "3",
            "--outputs", "f_nlo",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "p,f_nlo"
        for line in lines[1:]:
            for field in line.split(","):
                assert "e" in field and len(field.split("e")[0]) == 14

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fidelity-sweep",
            "--variable", "p", "--start", "0.01", "--stop", "0.02",
            "--points", "2", "--outputs", "f_nlo", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["columns"] == ["p", "f_nlo"]
        assert len(payload["rows"]) == 2

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "fidelity-sweep",
            "--variable", "p", "--start", "0.2", "--stop", "0.1", "--points", "5",
        )
        assert code == EXIT_USAGE
        assert "start < stop" in err

    @pytest.mark.parametrize("variable", ["p", "epsilon", "eta_b"])
    def test_preset_key_of_the_swept_variable_is_not_refused(self, capsys, variable):
        # The satellite preset gives p_a, p_b and eta_b, which the swept grid replaces.
        code, out, _ = run_cli(
            capsys, "fidelity-sweep", "--preset", "satellite", "--variable", variable,
            "--start", "0.01", "--stop", "0.2", "--points", "3",
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 4

    def test_missing_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fidelity-sweep")
        assert code == EXIT_USAGE
        assert "variable" in err

    def test_fig2_preset_matches_reference_file(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity-sweep", "--preset", "fig2")
        assert code == EXIT_OK
        assert out.encode() == (Path(__file__).parent / "data" / "fig2.csv").read_bytes()

    @pytest.mark.parametrize("variable, grid", [
        ("p", ("--start", "1e-3", "--stop", "0.25", "--scale", "log")),
        ("epsilon", ("--start", "0.01", "--stop", "0.5")),
        ("eta_a", ("--start", "1e-6", "--stop", "1", "--scale", "log")),
        ("eta_b", ("--start", "1e-6", "--stop", "1", "--scale", "log")),
        ("p_sfg", ("--start", "1e-6", "--stop", "0.1", "--scale", "log")),
    ])
    def test_every_output_of_each_variable_matches_reference_file(self, capsys, variable, grid):
        # fig2.csv sweeps only p and has no f_lo_general, r_lo or r_nlo column.
        code, out, _ = run_cli(
            capsys, "fidelity-sweep", "--preset", "satellite", "--variable", variable, *grid,
            "--points", "50", "--outputs", ",".join(SWEEP_OUTPUTS),
        )
        assert code == EXIT_OK
        reference = Path(__file__).parent / "data" / f"sweep_{variable}.csv"
        assert out.encode() == reference.read_bytes()

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "fidelity-sweep", "--preset", "fig2")
        _, second, _ = run_cli(capsys, "fidelity-sweep", "--preset", "fig2")
        assert first == second


# The alternative keys (g_shg, freq_x, qe_x, eta_shg) next to a quoted p_sfg.
ALTERNATIVE_DEVICE_KEYS = (
    "g_shg = 10 MHz\nfreq_a = 193 THz\nfreq_b = 193 THz\nfreq_c = 386 THz\n"
    "q_a = 4e5\nq_b = 4e5\nq_c = 1e5\nqe_a = 8e5\nqe_b = 8e5\nqe_c = 2e5\n"
    "eta_shg = 1000 %/W/cm^2\naccept = 6 GHz*cm\nlength = 1 cm\nlambda = 1550 nm\n"
    "p_sfg = 1e-4\n"
)


def _json_leaves(value, name=""):
    """(path, leaf) of each leaf of a JSON value in sorted key order, nested
    keys joined by ``.``; each list item is a leaf under the list's path."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value)
                for leaf in _json_leaves(value[key], f"{name}.{key}" if name else key)]
    if isinstance(value, list):
        return [leaf for item in value for leaf in _json_leaves(item, name)]
    return [(name, value)]


@pytest.mark.parametrize("argv, config", [
    *(pytest.param(("device", "--preset", preset), None, id=f"device-{preset}")
      for preset in ("ingap-ring", "ingap-wg", "lnoi-ring")),
    pytest.param(("device", "--preset", "ingap-ring"), "q_a = 4e5\nq_b = 1e5\n",
                 id="device-unequal-linewidths"),
    pytest.param(("rate-compare", "--preset", "satellite"), None, id="rate-compare-satellite"),
])
def test_text_report_names_each_json_leaf(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "input.cfg"
        path.write_text(config)
        argv = (*argv, "--config", str(path))
    code, text, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    leaves = _json_leaves(json.loads(out))
    lines = [line.split(" = ", 1) for line in text.splitlines()]
    assert [name for name, _ in lines] == [path for path, _ in leaves]
    for (_, written), (path, value) in zip(lines, leaves):
        if isinstance(value, float):
            assert written == f"{value:.6e}", path
        else:
            assert written == (value if isinstance(value, str) else json.dumps(value)), path


class TestDeviceCommand:
    def test_ring_preset_text(self, capsys):
        code, out, _ = run_cli(capsys, "device", "--preset", "ingap-ring")
        assert code == EXIT_OK
        assert "cavity.p_sfg = 8.554054e-04" in out
        assert "reference_demonstrated_p_sfg = 4.000000e-05" in out.splitlines()

    def test_waveguide_preset_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "device", "--preset", "ingap-wg", "--format", "json"
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["waveguide"]["p_sfg"] == pytest.approx(2.4157e-5, rel=1e-3)
        assert payload["reference_demonstrated_p_sfg"] == 4e-5

    @pytest.mark.parametrize("preset", ["ingap-ring", "ingap-wg", "lnoi-ring"])
    @pytest.mark.parametrize("fmt, reference", [("text", "txt"), ("json", "json")])
    def test_preset_matches_reference_file(self, capsys, preset, fmt, reference):
        code, out, _ = run_cli(capsys, "device", "--preset", preset, "--format", fmt)
        assert code == EXIT_OK
        path = Path(__file__).parent / "data" / f"device_{preset}.{reference}"
        assert out.encode() == path.read_bytes()

    def test_quoted_preset(self, capsys):
        code, out, _ = run_cli(capsys, "device", "--preset", "lnoi-ring", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["quoted"]["p_sfg"] == 1e-4

    def test_quoted_p_sfg_beside_a_cavity_is_reported(self, tmp_path, capsys):
        quoted = tmp_path / "quoted.cfg"
        argv = ("device", "--preset", "ingap-ring", "--config", str(quoted))
        quoted.write_text("p_sfg = 0.5\n")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert "cavity.p_sfg = 8.554054e-04" in out and "quoted.p_sfg = 5.000000e-01" in out
        quoted.write_text("p_sfg = 2\n")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "") and "p_sfg must be in [0, 1]" in err

    def test_config_file_with_bad_unit_names_key(self, tmp_path, capsys):
        bad = tmp_path / "device.cfg"
        bad.write_text("g = 20 MHz\nlambda_a = 1550 W\nlambda_b = 1550 nm\nq_a = 1e5\nq_b = 1e5\nq_c = 1e5\n")
        code, _, err = run_cli(capsys, "device", "--config", str(bad))
        assert code == EXIT_USAGE
        assert "lambda_a" in err

    def test_every_key_the_builders_read_is_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "device.cfg"
        cfg.write_text(ALTERNATIVE_DEVICE_KEYS)
        code, out, err = run_cli(capsys, "device", "--config", str(cfg), "--format", "json")
        assert code == EXIT_OK, err
        assert {"cavity", "waveguide"} <= set(json.loads(out))

    def test_unequal_linewidths_warn_in_the_text_report(self, tmp_path, capsys):
        cfg = tmp_path / "device.cfg"
        cfg.write_text("q_a = 4e5\nq_b = 1e5\n")
        code, out, err = run_cli(capsys, "device", "--preset", "ingap-ring", "--config", str(cfg))
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == (
            "warnings = kappa_a and kappa_b differ by 300%; the single-number conversion "
            "probability assumes comparable input linewidths"
        )

    def test_needs_some_parameters(self, capsys):
        code, _, err = run_cli(capsys, "device")
        assert code == EXIT_USAGE


class TestRateCompareCommand:
    def test_satellite_preset(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate-compare", "--preset", "satellite", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["crossover_ratio"] == pytest.approx(100.0, rel=1e-12, abs=0.0)
        assert payload["nlo_wins"] is True
        assert payload["rate_nlo"] / payload["rate_lo"] == pytest.approx(100.0, rel=1e-12, abs=0.0)
        assert payload["matched_fidelity"]["p_nlo"] == pytest.approx(0.1825, abs=5e-4)

    @pytest.mark.parametrize("argv, reference", [
        pytest.param(("--format", "text"), "satellite.txt", id="text-txt"),
        pytest.param(("--format", "json"), "satellite.json", id="json-json"),
        pytest.param(("--format", "json", "--delta", "0.001"), "satellite_delta_0.001.json",
                     id="json-delta-0.001"),
    ])
    def test_satellite_matches_reference_file(self, capsys, argv, reference):
        code, out, _ = run_cli(capsys, "rate-compare", "--preset", "satellite", *argv)
        assert code == EXIT_OK
        path = Path(__file__).parent / "data" / f"rate_compare_{reference}"
        assert out.encode() == path.read_bytes()

    def test_p_sfg_flag_overrides_preset(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rate-compare",
            "--preset", "satellite",
            "--p-sfg", "1e-4",
            "--clock", "1 GHz",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["p_sfg"] == 1e-4
        assert payload["crossover_ratio"] == pytest.approx(10.0, rel=1e-12, abs=0.0)

    def test_flag_overrides_preset(self, tmp_path, capsys):
        cfg = tmp_path / "link.cfg"
        cfg.write_text("eta_a = 1\neta_b = 1e-3\np_a = 0.01\np_b = 0.01\n")
        code, out, _ = run_cli(
            capsys,
            "rate-compare",
            "--config", str(cfg),
            "--p-sfg", "1e-4",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["crossover_ratio"] == pytest.approx(0.1, rel=1e-12, abs=0.0)
        assert payload["nlo_wins"] is False

    def test_config_overrides_preset_and_flag_overrides_both(self, tmp_path, capsys):
        cfg = tmp_path / "eta_b.cfg"
        cfg.write_text("eta_b = 1e-4\n")
        args = ("rate-compare", "--preset", "satellite", "--format", "json")
        ratios = []
        for extra in ((), ("--config", str(cfg)), ("--config", str(cfg), "--p-sfg", "1e-2")):
            code, out, _ = run_cli(capsys, *args, *extra)
            assert code == EXIT_OK
            ratios.append(json.loads(out)["crossover_ratio"])
        assert ratios == pytest.approx([100.0, 10.0, 100.0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_delta_from_config_or_flag(self, tmp_path, capsys, fmt):
        cfg = tmp_path / "delta.cfg"
        cfg.write_text("delta = 0.02\n")
        args = ("rate-compare", "--preset", "satellite", "--format", fmt)
        code, from_flag, _ = run_cli(capsys, *args, "--delta", "0.02")
        assert code == EXIT_OK
        assert run_cli(capsys, *args, "--config", str(cfg)) == (EXIT_OK, from_flag, "")
        target = {"text": "matched_fidelity.f_target_lo = 3.133333e-01",
                  "json": '"f_target_lo": 0.3133'}[fmt]
        assert target in from_flag  # 1/3 - 0.02
        _, default, _ = run_cli(capsys, *args)
        assert default != from_flag


class TestVerifyCommand:
    def test_passes_and_echoes_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--seed", "7", "--scenarios", "3"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["seed"] == 7
        assert payload["pass"] is True
        assert payload["failures"] == 0
        assert "PCG64" in payload["rng"]

    def test_oracle_keys_default_as_the_library_does(self):
        assert {f.name: VERIFY_DEFAULTS[f.name] for f in fields(OracleConfig)} == asdict(
            OracleConfig()
        )

    @pytest.mark.parametrize("p_sfg, message", [
        ("0", "error: p_sfg = 0 never heralds, so the fidelity is undefined\n"),
        ("2", "error: p_sfg must be in [0, 1], got 2.0\n"),
    ])
    def test_p_sfg_is_refused_before_any_row(self, monkeypatch, capsys, p_sfg, message):
        # OracleConfig refuses p_sfg outside [0, 1] and verification_report a p_sfg
        # that never heralds, both before any estimator runs.
        for name in ("exact_fidelity_lo", "exact_fidelity_nlo"):
            monkeypatch.setattr(oracle, name, None)
        assert run_cli(capsys, "verify", "--p-sfg", p_sfg) == (EXIT_USAGE, "", message)

    def test_flag_beats_config_and_config_beats_default(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("scenarios = 1\np_sfg = 0.02\n")
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--scenarios", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len({json.dumps(row["scenario"]) for row in payload["rows"]}) == 3
        assert payload["p_sfg"] == 0.02

    @pytest.mark.parametrize(
        "argv, config",
        [
            pytest.param(("--scenarios", "0"), None, id="no-scenarios"),
            pytest.param(
                ("--scenarios", "1", "--method", "mc", "--p-sfg", "0.3", "--samples", "10000"),
                # At most about 1e-5 heralds per sample: 25 need far more than 10000.
                "eps_min = 0.01\neps_max = 0.02\neta_min = 0.05\neta_max = 0.1\n",
                id="all-undersampled",
            ),
            pytest.param(("--scenarios", "1", "--n-max", "1"), None, id="tail-bound-too-loose"),
        ],
    )
    def test_run_without_comparison_fails(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "verify.cfg"
            path.write_text(config)
            argv = (*argv, "--config", str(path))
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == EXIT_VERIFY_FAIL
        payload = json.loads(out)
        assert payload["compared"] == 0
        assert payload["failures"] == 0
        assert payload["pass"] is False

    @pytest.mark.parametrize("n_max", ["10", "20"])
    def test_exact_tolerance_leaves_room_for_rounding(self, capsys, n_max):
        # Here some nlo rows differ from the closed form by their tail bound
        # to three digits; the rounding floor must add to that bound.
        code, out, _ = run_cli(
            capsys, "verify", "--method", "exact", "--scenarios", "20", "--n-max", n_max,
            "--seed", "3",
        )
        payload = json.loads(out)
        assert payload["failures"] == 0
        assert payload["compared"] == 40
        assert code == EXIT_OK
        # In these scenarios an nlo row exceeds its tail bound by rounding
        # alone, so they fail unless the floor adds to the bound.
        scenarios = [SwapScenario.from_values(*values) for values in ROUNDING_SCENARIOS[n_max]]
        report = verification_report(scenarios, OracleConfig(n_max=int(n_max), p_sfg=1e-3),
                                     ("exact-sum",))
        assert report["failures"] == 0
        assert report["compared"] == 2 * len(scenarios)
        assert any(row["abs_diff"] > row["tail_bound"] for row in report["rows"])

    def test_values_from_flags_config_or_both(self, tmp_path, capsys):
        values = {"n_max": "50", "samples": "20000", "seed": "3", "workers": "2"}
        cfg = tmp_path / "verify.cfg"

        def report(config, *flag_keys):
            cfg.write_text(config)
            flags = [arg for k in flag_keys for arg in (f"--{k.replace('_', '-')}", values[k])]
            code, out, _ = run_cli(capsys, "verify", "--method", "both", "--config", str(cfg), *flags)
            assert code == EXIT_OK
            return out

        from_flags = report("", *values)
        assert json.loads(from_flags)["compared"] > 0
        assert report("".join(f"{k} = {v}\n" for k, v in values.items())) == from_flags
        # Half from the file, half from flags; then file values the flags override.
        assert report("n_max = 50\nsamples = 20000\n", "seed", "workers") == from_flags
        assert report("n_max = 60\nsamples = 30000\nseed = 4\n", *values) == from_flags

    def test_bit_identical_across_runs_and_workers(self, capsys):
        args = ["verify", "--seed", "11", "--scenarios", "2", "--method", "both",
                "--samples", "100000"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        _, threaded, _ = run_cli(capsys, *args, "--workers", "4")
        assert threaded == first


class TestFockCheckCommand:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "fock-check")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "pass" in out

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "fock-check", "--format", "json")
        payload = json.loads(out)
        assert payload["pass"] is True
        checks = [row["check"] for row in payload["rows"]]
        assert any("amplitude-law" in c for c in checks)
        assert any("dfg" in c for c in checks)

    def test_harness_detects_failures(self):
        rows = run_fock_checks()
        rows[0]["value"] = 1.0  # corrupt one entry the way a regression would
        assert not all(r["value"] <= r["bound"] for r in rows)

    def test_dump_matches_reference_file(self, capsys):
        # The dump block is compared byte for byte; of the check rows only the
        # name, bound and status, since the values come from LAPACK.
        code, out, _ = run_cli(capsys, "fock-check", "--dump-states")
        assert code == EXIT_OK
        reference = (Path(__file__).parent / "data" / "fock_check_dump.txt").read_bytes().decode()

        def split(text):
            rows, dump = text[: text.index("# projector")], text[text.index("# projector") :]
            fields = [line.split() for line in rows.splitlines()]
            return [(" ".join(f[:-4]), f[-2], f[-1]) for f in fields], dump

        rows, dump = split(out)
        reference_rows, reference_dump = split(reference)
        assert dump == reference_dump
        assert len(rows) == 10
        assert rows == reference_rows

    def test_state_dumps_are_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "fock-check", "--dump-states")
        _, second, _ = run_cli(capsys, "fock-check", "--dump-states")
        assert first == second
        assert "# projector S1+ -> phi+" in first
        for line in first.splitlines():
            if line and not line.startswith("#") and " " in line:
                parts = line.split()
                if len(parts) == 3 and parts[0] in ("ee", "el", "le", "ll"):
                    float(parts[1]), float(parts[2])


SWEEP_ETA_B = (
    "fidelity-sweep", "--variable", "eta_b", "--start", "0.1", "--stop", "1",
    "--points", "3", "--outputs", "f_lo_general",
)
SWEEP_P = ("fidelity-sweep", "--variable", "p", "--start", "0.01", "--stop", "0.2")
SWEEP_P_SFG = (
    "fidelity-sweep", "--preset", "satellite", "--variable", "p_sfg", "--start", "0.5",
    "--stop", "5", "--points", "3", "--outputs", "f_nlo",
)
RATE = ("rate-compare", "--preset", "satellite", "--format", "json")
EPS_ONLY = "eps_a = 0.1\neps_b = 0.1\n"

SWEEP_FROM_0 = ("fidelity-sweep", "--start", "0", "--stop", "1", "--points", "3")
EPS_AND_P = "eps_a = 0.1\np_a = 0.01\np_b = 0.01\n"
P_NAN = "p_a = nan\np_b = 0.01\n"
RING_NAN_G = (
    "g = nan MHz\nlambda_a = 1550 nm\nlambda_b = 1550 nm\nq_a = 4e5\nq_b = 4e5\nq_c = 1e5\n"
)
WG_INF_ETA = "eta_sfg = inf %/W/cm^2\naccept = 6 GHz*cm\nlength = 1 cm\nlambda = 1550 nm\n"
# Finite magnitudes whose converted value or device result overflows a float.
WG_LONG = "eta_sfg = 500000 %/W/cm^2\naccept = 6 GHz*cm\nlength = 1e308 m\nlambda = 1550 nm\n"
WG_HUGE_ETA = "eta_sfg = 1e200 /W/cm^2\naccept = 1e200 Hz*cm\nlength = 1 cm\nlambda = 1550 nm\n"
RING = ("device", "--preset", "ingap-ring")
# check_float_range's message for a result outside the float range.
RESULT_RULE = "must be finite and, when no factor is 0, of magnitude >= 2.2e-308"
# The limit columns' message for a kept eps off the branch their p is inverted on.
LIMIT_RULE = ("error: eps of the unattenuated source of a strong-loss limit column "
              "must be <= 1/2")
# A key's other spelling in ALTERNATIVE_DEVICE_KEYS, and a unit of each kind.
OTHER_SPELLING = {"g": "g_shg", "eta_sfg": "eta_shg", **{f"lambda_{m}": f"freq_{m}" for m in "abc"}}
UNIT_OF_KIND = {"frequency": "MHz", "wavelength": "nm", "length": "cm", "acceptance": "GHz*cm",
                "efficiency": "%/W/cm^2"}
NON_NEGATIVE_DEVICE_KEYS = ("g", "g_shg", "length")


def device_config_refusing(key):
    """ALTERNATIVE_DEVICE_KEYS with ``key`` set to the first value its rule refuses."""
    lines = dict(line.split(" = ") for line in ALTERNATIVE_DEVICE_KEYS.splitlines())
    lines.pop(OTHER_SPELLING.get(key, key))
    bad = "-1" if key in NON_NEGATIVE_DEVICE_KEYS else "0"
    lines[key] = f"{bad} {UNIT_OF_KIND.get(KEY_KINDS.get(key), '')}"
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "argv, config, message",
        [
            pytest.param(SWEEP_ETA_B, EPS_AND_P, "not both", id="sweep-eps-and-p"),
            pytest.param(("rate-compare",), EPS_AND_P, "not both", id="rate-eps-and-p"),
            pytest.param(SWEEP_ETA_B, P_NAN, "'p_a' must be finite", id="sweep-p-nan"),
            pytest.param(("rate-compare",), P_NAN, "'p_a' must be finite", id="rate-p-nan"),
            pytest.param(SWEEP_ETA_B, None, "missing source", id="sweep-no-source"),
            pytest.param((*RATE, "--clock", "nan"), None, "'clock' must be finite", id="clock-nan"),
            pytest.param((*RATE, "--clock", "inf"), None, "'clock' must be finite", id="clock-inf"),
            pytest.param((*SWEEP_P, "--points", "2.7"), None, "whole number", id="points-2.7"),
            pytest.param((*SWEEP_P, "--points", "inf"), None, "must be finite", id="points-inf"),
            pytest.param((*SWEEP_P, "--points", "nan"), None, "must be finite", id="points-nan"),
            pytest.param(SWEEP_P_SFG, None, "p_sfg must be in [0, 1]", id="sweep-p-sfg-5"),
            pytest.param(("verify",), "scenarios = 2.9", "whole number", id="scenarios-2.9"),
            pytest.param(("verify",), "scenarios = nan", "must be finite", id="scenarios-nan"),
            pytest.param(("verify", "--scenarios", "-1"), None, "whole number", id="scenarios-neg"),
            pytest.param(("device",), RING_NAN_G, "'g' must be finite", id="device-g-nan"),
            pytest.param(("device",), WG_INF_ETA, "'eta_sfg' must be finite", id="device-eta-inf"),
            pytest.param(("device",), "p_sfg = 5", "p_sfg must be in [0, 1]", id="device-p-sfg-5"),
            # q_b = 0 and qe_c = 0 both read "quality factor must be > 0".
            *(pytest.param(("device",), device_config_refusing(key),
                           f"error: {key} must be finite and "
                           f"{'>=' if key in NON_NEGATIVE_DEVICE_KEYS else '>'} 0, got",
                           id=f"device-{key}-refused")
              for key in (*CAVITY_KEYS, *WAVEGUIDE_KEYS)),
            pytest.param(("rate-compare", "--preset", "satellite"), "eta_b = 1e-320\n",
                         f"rate_lo {RESULT_RULE}, got 0.0",
                         id="rate-eta-b-subnormal"),
            pytest.param(("fidelity-sweep", "--preset", "satellite", "--variable", "p",
                          "--start", "1e-300", "--stop", "1e-200", "--points", "5",
                          "--scale", "log", "--outputs", "f_lo_general"), None,
                         f"p_faithful {RESULT_RULE}, got 0.0", id="sweep-p-underflow"),
            pytest.param(("device",), WG_LONG, "key 'length' overflows a float",
                         id="device-length-overflow"),
            pytest.param(("device",), WG_HUGE_ETA, f"p_sfg {RESULT_RULE}, got inf",
                         id="device-wg-p-sfg-overflow"),
            pytest.param(RING, "g = 1e160 THz\n", f"eta_sfg {RESULT_RULE}, got inf",
                         id="device-ring-g-overflow"),
            # kappa_b near 1e160: its square overflows, and eta_sfg rounds to 0.
            pytest.param(RING, "q_b = 1e-145\n", f"eta_sfg {RESULT_RULE}, got 0.0",
                         id="device-ring-q-b-overflow"),
            # Both rates underflow to 0 with no zero factor.
            pytest.param(("fidelity-sweep", "--preset", "satellite", "--variable", "p",
                          "--start", "1e-200", "--stop", "1e-199", "--points", "2",
                          "--scale", "log", "--outputs", "r_lo,r_nlo"), None,
                         f"rate_lo {RESULT_RULE}, got 0.0", id="sweep-rates-underflow"),
            pytest.param(("rate-compare", "--preset", "satellite"), "eta_b = 1e-300\n",
                         f"rate_lo {RESULT_RULE}, got 0.0", id="rate-eta-b-1e-300"),
            # A refused device value is reported as written, before its unit's factor.
            pytest.param(RING, "g = -1 MHz\n", "g must be finite and >= 0, got -1.0\n",
                         id="device-g-as-written"),
            pytest.param(RING, "lambda_b = -1 um\n", "lambda_b must be finite and > 0, got -1.0\n",
                         id="device-lambda-b-as-written"),
            # A positive value whose conversion underflows to 0 is refused under its key.
            pytest.param(RING, "q_a = 5e-324 %\n", "q_a must be finite and > 0, got 0.0\n",
                         id="device-q-a-converts-to-0"),
            # No wavelength unit scales a value down, so 5e-324 nm reaches 2 pi c / lambda.
            pytest.param(RING, "lambda_b = 5e-324 nm\n", f"omega {RESULT_RULE}, got inf\n",
                         id="device-lambda-b-omega-overflows"),
            # kappa_a near 1e-235: its square underflows to 0 in a denominator.
            pytest.param(RING, "lambda_a = 1e250 nm\n",
                         f"eta_sfg {RESULT_RULE}, got inf",
                         id="device-ring-linewidth-underflow"),
            # Any key of a section builds it, so the builder names what is missing.
            pytest.param(RING, "length = 2 cm\n", "missing normalized efficiency 'eta_sfg'",
                         id="device-ring-with-waveguide-key"),
            pytest.param(("device",), "q_a = 4e5\nlambda_a = 1550 nm\n",
                         "missing coupling rate 'g' or 'g_shg'", id="device-partial-cavity"),
            pytest.param((*RATE, "--delta", "1"), None, "reachable range", id="rate-delta-1"),
            pytest.param((*RATE, "--delta", "0"), None, "below 1/3", id="rate-delta-0"),
            pytest.param((*RATE, "--delta", "1e-17"), None, "below 1/3", id="rate-delta-1e-17"),
            # A zero rate_lo has no ratio: clock = 0 and p_b = 0 used to print two
            # zero rates and "nonlinear scheme wins".
            *(pytest.param(("rate-compare", "--preset", "satellite"), config,
                           "error: rate_lo is 0 (a dark channel, an unpumped source or a zero "
                           "clock), so the rates have no ratio\n", id=f"rate-zero-{name}")
              for name, config in (("clock", "clock = 0\n"), ("p-a", "p_a = 0\n"),
                                   ("p-b", "p_b = 0\n"), ("eta-a", "eta_a = 0\n"))),
            pytest.param(("verify", "--seed", "-1"), None, "key 'seed' must be a whole number >= 0",
                         id="verify-seed-neg"),
            pytest.param(("verify", "--seed", "9007199254740993"), None,
                         "key 'seed' must be below 2**53", id="verify-seed-above-2-53"),
            pytest.param(("verify",), "workers = 33\n", "workers must be in [1, 32]",
                         id="verify-workers-above-limit"),
            pytest.param(("verify", "--method", "exact", "--p-sfg", "0"), None,
                         "p_sfg = 0 never heralds", id="verify-p-sfg-0"),
            # The shard count follows from samples: no flag or key sets it.
            pytest.param(("verify", "--shards", "1025"), None, "unrecognized arguments: --shards",
                         id="verify-shards-above-limit"),
            pytest.param(("verify", "--shards", "64"), None, "unrecognized arguments: --shards",
                         id="verify-shards-flag"),
            pytest.param(("verify",), "shards = 64\n", "unknown key 'shards'",
                         id="verify-shards-key"),
            pytest.param(("verify", "--samples", "64000000001"), None, "samples must be in",
                         id="verify-samples-above-limit"),
            pytest.param(("verify", "--scenarios", "10001"), None,
                         "scenarios must be in [0, 10000], got 10001",
                         id="verify-scenarios-above-limit"),
            # A flag carries one value: a line break or a comment in it would
            # be read as config syntax, another line or a dropped tail.
            pytest.param(("verify", "--scenarios", "1\nscenarios = 2"), None,
                         "--scenarios must hold one value", id="verify-flag-with-line-break"),
            pytest.param((*RATE, "--p-sfg", "1e-4 # 1e-2"), None, "--p-sfg must hold one value",
                         id="rate-flag-with-comment"),
            pytest.param((*SWEEP_FROM_0, "--variable", "eta_b"), EPS_ONLY, "eta = 0 never heralds",
                         id="sweep-eta-b-0-f-nlo"),
            pytest.param((*SWEEP_FROM_0, "--variable", "p_sfg"), EPS_ONLY, "p_sfg = 0 never heralds",
                         id="sweep-p-sfg-0-f-nlo"),
            # The limit columns are written in p on the branch eps <= 1/2; above
            # it they would give the curve at 1 - eps_b, (1/3) 0.7^4 for (1/3) 0.3^4.
            pytest.param(("fidelity-sweep", "--variable", "eta_a", "--start", "0.1", "--stop", "1",
                          "--points", "3", "--outputs", "f_lo_balanced_smalleta"),
                         "eps_a = 0.7\neps_b = 0.7\n", f"{LIMIT_RULE}, got 0.7\n",
                         id="sweep-balanced-limit-eps-b-0.7"),
            pytest.param(("fidelity-sweep", "--variable", "epsilon", "--start", "0", "--stop",
                          "0.999", "--points", "4", "--outputs", "f_lo_unbalanced"), None,
                         f"{LIMIT_RULE}, got 0.666\n", id="sweep-unbalanced-limit-epsilon-0.999"),
            pytest.param(
                ("verify",), "eps_min = 0.3\neps_max = 0.2\n", "eps_min must be <= eps_max",
                id="verify-eps-range-reversed",
            ),
            pytest.param(
                ("verify",), "eta_max = 1.02\n", "eta_max must be in [0, 1]",
                id="verify-eta-max-1.02",
            ),
            pytest.param(
                ("verify", "--n-max", "100000"), None, "n_max must be in [1, 2000]",
                id="verify-n-max-huge",
            ),
            pytest.param(
                ("verify", "--seed", "-1", "--method", "mc"), None,
                "key 'seed' must be a whole number >= 0", id="verify-seed-neg-mc",
            ),
            pytest.param(
                ("rate-compare", "--preset", "satellite"), "eta_bb = 0.001\n",
                "unknown key 'eta_bb'", id="rate-unknown-key",
            ),
            pytest.param(
                SWEEP_ETA_B, "p_a = 0.01\np_b = 0.01\netaa = 0.5\n", "unknown key 'etaa'",
                id="sweep-unknown-key",
            ),
            pytest.param(
                ("verify",), "sample = 10\nn_max = 5\n", "unknown key 'sample'",
                id="verify-unknown-keys",
            ),
            pytest.param(
                ("verify", "--preset", "satellite"), None, "unknown keys 'clock', 'eta_a'",
                id="verify-link-preset",
            ),
            pytest.param(("device",), "p_sfg = 1e-3\nq_d = 5\n", "unknown key 'q_d'",
                         id="device-unknown-key"),
            pytest.param(
                ("device", "--preset", "satellite"), None, "unknown keys 'clock', 'eta_a'",
                id="device-link-preset",
            ),
            pytest.param(
                (*SWEEP_P, "--points", "1e13"), None,
                "points must be in [2, 100000], got 10000000000000",
                id="points-1e13",
            ),
            pytest.param(
                (*SWEEP_P, "--points", "100001"), None, "points must be in [2, 100000], got 100001",
                id="points-above-limit",
            ),
            pytest.param(("fock-check",), "p_sfg = 1e-3\n", "unrecognized arguments: --config",
                         id="fock-check-config"),
            pytest.param(("fock-check", "--preset", "satellite"), None,
                         "unrecognized arguments: --preset", id="fock-check-preset"),
            pytest.param(("fock-check", "--format", "json", "--dump-states"), None,
                         "--dump-states appends text dumps", id="fock-check-json-dump-states"),
            pytest.param(("fock-check", "--out", "/nonexistent/dir/x.txt"), None,
                         "cannot write output file", id="out-in-missing-directory"),
            pytest.param(("device", "--preset", "ingap-ring", "--out", "."), None,
                         "cannot write output file", id="out-is-a-directory"),
            pytest.param(("rate-compare",), "= 5\n", "input.cfg:1: empty key", id="config-empty-key"),
            pytest.param(("rate-compare",), "eps_a = abc\n", "key 'eps_a' must be numeric, got 'abc'",
                         id="rate-eps-a-not-numeric"),
            pytest.param(RING, "lambda_a = 1550\n",
                         "key 'lambda_a' takes nm, um, mm, cm or m, got no unit",
                         id="device-length-without-unit"),
            pytest.param(("fidelity-sweep", "--preset", "fig2", "--scale", "cubic"), None,
                         "scale must be 'linear' or 'log', got 'cubic'", id="sweep-scale-cubic"),
            pytest.param(("fidelity-sweep", "--preset", "fig2", "--outputs", ","), None,
                         "at least one output column is required", id="sweep-outputs-empty"),
            # A count is a bare number: "300 %" used to read as 3 points.
            pytest.param(("fidelity-sweep", "--preset", "fig2", "--points", "300 %"), None,
                         "key 'points' takes no unit, got '%'",
                         id="points-percent"),
            pytest.param(("verify", "--scenarios", "100 %"), None,
                         "key 'scenarios' takes no unit, got '%'",
                         id="scenarios-percent"),
            # An external Q below the total Q is refused under the keys it was read from.
            pytest.param(RING, "qe_a = 1e5\n",
                         "error: need qe_a >= q_a, got qe_a = 100000.0 vs q_a = 400000.0",
                         id="device-qe-below-q"),
            # A flag matches its full spelling only, not a prefix of it.
            *(pytest.param(argv, None, f"unrecognized arguments: {argv[-2]} {argv[-1]}",
                           id=f"prefix{argv[-2]}")
              for argv in (("verify", "--sam", "1000"),
                           ("fidelity-sweep", "--preset", "fig2", "--poi", "3"),
                           ("fidelity-sweep", "--pre", "fig2"))),
            pytest.param(("fock-check", "--dump"), None, "unrecognized arguments: --dump",
                         id="prefix--dump"),
        ],
    )
    def test_usage_error_without_output(self, tmp_path, capsys, argv, config, message):
        if config is not None:
            path = tmp_path / "input.cfg"
            path.write_text(config)
            argv = (*argv, "--config", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_file(self, tmp_path, capsys, name):
        code, out, err = run_cli(capsys, "rate-compare", "--config", str(tmp_path / name))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot read config file")


# Options that select an output or a source, not a parameter value.
NON_VALUE_OPTIONS = {"-h", "--out", "--format", "--config", "--preset", "--method", "--dump-states"}


def _subparsers():
    (action,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    return action.choices


class TestFlags:
    def test_every_value_flag_is_a_config_key(self, tmp_path):
        # A flag with a typed default would bypass the config resolver; every
        # value flag defaults to None and names a key its command's config accepts.
        for command, parser in _subparsers().items():
            for action in parser._actions:
                if NON_VALUE_OPTIONS.intersection(action.option_strings):
                    continue
                assert action.default is None, (command, action.option_strings)
                cfg = tmp_path / f"{command}-{action.dest}.cfg"
                cfg.write_text(f"{action.dest} = 1\n")
                _collect_entries(parser.parse_args(["--config", str(cfg)]))

    def test_flag_spellings(self):
        spellings = {
            command: sorted(s for a in parser._actions for s in a.option_strings)
            for command, parser in _subparsers().items()
        }
        inputs = ["--config", "--format", "--out", "--preset"]
        assert spellings == {
            "fidelity-sweep": sorted([*inputs, "-h", "--help", "--variable", "--start", "--stop",
                                      "--points", "--scale", "--outputs"]),
            "device": sorted([*inputs, "-h", "--help"]),
            "rate-compare": sorted([*inputs, "-h", "--help", "--p-sfg", "--clock", "--delta"]),
            "verify": sorted([*inputs, "-h", "--help", "--seed", "--scenarios", "--samples",
                              "--n-max", "--workers", "--p-sfg", "--method"]),
            "fock-check": sorted(["--format", "--out", "-h", "--help", "--dump-states"]),
        }


class TestOutputFile:
    def test_closed_stdout_ends_in_one_error_line(self):
        # The reader takes one line and closes the pipe, as `| head -1` does,
        # long before the 100000 rows are written.
        proc = subprocess.Popen(
            [sys.executable, "-m", "entswap.cli", "fidelity-sweep", "--preset", "fig2",
             "--points", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.stdout.readline().startswith(b"p,f_nlo,")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_USAGE
        assert err == "error: cannot write to stdout: the reader closed the pipe\n"

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "fidelity-sweep", "--preset", "fig2", "--out", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        content = target.read_text()
        assert content.startswith("p,f_nlo")
        assert content.endswith("\n")
