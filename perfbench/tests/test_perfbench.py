"""Tests of the benchmark itself: metric names and units, seeded argv, the gate.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from entswap import cli, fock_sim  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(op: workloads.Op, tmp_path: Path) -> tuple[bytes, int]:
    out = tmp_path / "op.out"
    code = cli.main([*op.argv, "--out", str(out)])
    return out.read_bytes(), code


def _small_sweep(variable_index: int = 1, points: int = 300) -> workloads.Op:
    op = workloads.make_op("sweep", 5, variable_index)
    argv = list(op.argv)
    argv[argv.index("--points") + 1] = str(points)
    return dataclasses.replace(op, argv=tuple(argv), items=points, params={**op.params, "points": points})


def _verify(method: str, scenarios: int = 3, samples: int = 200_000) -> workloads.Op:
    argv = ("verify", "--method", method, "--scenarios", str(scenarios), "--samples", str(samples),
            "--seed", "11", "--workers", "1")
    params = {"method": method, "scenarios": scenarios, "samples": samples, "seed": 11, "workers": 1}
    return workloads.Op("verify-test", 0, "verify", argv, scenarios, params)


# --- names, units, seeds -----------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(METRIC_NAME.fullmatch(name) for name in declared)
    assert all(UNIT.fullmatch(unit) for unit in declared.values())
    bounded = {name: run.END_TO_END_UNITS[name] for name in run.BOUNDED}
    assert {**bounded, **run.PER_LAYER_UNITS} == declared
    assert [m["name"] for m in spec["end_to_end"]] == list(run.BOUNDED)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_printed_metric_carries_its_unit(capsys):
    values = {name: 1.5 for name in run.PER_LAYER_UNITS}
    run.print_table("sweep", values, run.PER_LAYER_UNITS, {})
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == len(run.PER_LAYER_UNITS)
    for line, (name, unit) in zip(lines, run.PER_LAYER_UNITS.items()):
        assert line.split()[:3] == [name, "1.5", unit]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_regenerates_identical_argv(workload):
    first = [workloads.make_op(workload, 7, i) for i in range(8)]
    again = [workloads.make_op(workload, 7, i) for i in range(8)]
    assert [(op.argv, op.params) for op in first] == [(op.argv, op.params) for op in again]


def test_seed_changes_drawn_inputs():
    for workload in ("sweep", "verify-exact", "verify-mc"):
        assert workloads.make_op(workload, 7, 0).argv != workloads.make_op(workload, 8, 0).argv
    assert workloads.make_op("reports", 7, 3).argv != workloads.make_op("reports", 8, 3).argv


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, percentile = run.tail_latency([float(x) for x in range(100)])
    assert (value, percentile) == (89.0, 90.0)
    value, percentile = run.tail_latency([3.0, 1.0, 2.0])
    assert (value, percentile) == (2.0, 200.0 / 3.0)
    few = [4.0, 1.0, 3.0, 2.0]
    assert run.tail_latency(few)[0] >= statistics.median(few)


# --- the gate passes real output and flags corrupted output ------------------------


def test_gate_sweep(tmp_path):
    for variable_index in range(3):
        op = _small_sweep(variable_index)
        data, code = _run(op, tmp_path)
        assert gate.check(op, data, code).ok, gate.check(op, data, code).problems
    lines = data.decode().splitlines()
    cells = lines[1].split(",")
    cells[4] = "%.12e" % (float(cells[4]) * (1 + 1e-6))
    corrupted = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
    assert not gate.check(op, corrupted.encode(), 0).ok
    truncated = "\n".join(lines[:-1]) + "\n"
    assert not gate.check(op, truncated.encode(), 0).ok


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_gate_verify(tmp_path, method):
    op = _verify(method)
    data, code = _run(op, tmp_path)
    verdict = gate.check(op, data, code)
    assert verdict.ok, verdict.problems
    assert verdict.compared > 0

    report = json.loads(data)
    row = next(r for r in report["rows"] if "abs_diff" in r)
    row["value"] += 1e-6 if method == "exact" else 10 * row["std_error"]  # "pass" stays true
    assert not gate.check(op, json.dumps(report).encode(), 0).ok

    report = json.loads(data)
    for r in report["rows"]:
        r.clear()
        r.update({"model": "lo", "method": "monte-carlo", "error": "no heralds", "pass": None})
    mc_op = dataclasses.replace(op, params={**op.params, "method": "mc"})
    verdict = gate.check(mc_op, json.dumps(report).encode(), 0)
    assert "report compared zero rows" in verdict.problems


def test_gate_fock_check(tmp_path):
    op = workloads.make_op("reports", 1, 0)
    data, code = _run(op, tmp_path)
    assert gate.check(op, data, code).ok
    text = data.decode()
    first_check = text.splitlines()[0]
    worse = re.sub(r"\s\S+(\s+<=)", r"  9.000e+00\1", first_check, count=1)
    assert not gate.check(op, text.replace(first_check, worse, 1).encode(), 0).ok
    ket = next(line for line in text.splitlines() if line.startswith("ee "))
    assert not gate.check(op, text.replace(ket, "ee 0.5 0.0", 1).encode(), 0).ok


@pytest.mark.parametrize("index, section", [(1, "cavity"), (2, "waveguide")])
def test_gate_device(tmp_path, index, section):
    op = workloads.make_op("reports", 1, index)
    data, code = _run(op, tmp_path)
    assert gate.check(op, data, code).ok
    report = json.loads(data)
    report[section]["p_sfg"] *= 10.0
    assert not gate.check(op, json.dumps(report).encode(), 0).ok


def test_gate_rate_compare(tmp_path):
    op = workloads.make_op("reports", 1, 3)
    data, code = _run(op, tmp_path)
    assert gate.check(op, data, code).ok
    report = json.loads(data)
    report["crossover_ratio"] *= 1.001
    assert not gate.check(op, json.dumps(report).encode(), 0).ok


def test_gate_counts_exit_code_and_worker_mismatch(tmp_path):
    op = _verify("exact")
    data, code = _run(op, tmp_path)
    bench = run.Bench("verify-exact", 1, tmp_path)
    assert bench.gate(op, data, code, alt=data)
    assert not bench.gate(op, data, 2)
    assert not bench.gate(op, data, code, alt=data.replace(b"1", b"2", 1))
    assert (bench.attempted, bench.failed) == (3, 2)


def test_crashing_or_silent_op_fails_without_stopping_the_run(tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    class Silent:  # exits 0 but writes nothing
        @staticmethod
        def main(argv):
            return 0

    op = workloads.make_op("reports", 1, 1)
    bench = run.Bench("reports", 1, tmp_path)
    bench.run(op, check_determinism=False)  # leaves a valid output file behind
    for fake in (Crashing, Silent):
        bench.cli = fake
        bench.run(op, check_determinism=False)
    assert (bench.attempted, bench.failed) == (3, 2)
    assert any("RuntimeError: boom" in problem for problem in bench.problems)


# --- tracing -------------------------------------------------------------------------


def test_tracer_records_layers_and_restores_originals(tmp_path):
    original = cli.sfg_evolve
    spans_tracer = tracer.Tracer()
    spans_tracer.install()
    try:
        assert cli.sfg_evolve is not original and fock_sim.sfg_evolve is cli.sfg_evolve
        ops = [_verify("mc", scenarios=1, samples=20_000), workloads.make_op("reports", 1, 0)]
        alt = ops[0].with_workers(2)
        for op_id, op in enumerate([*ops, alt]):
            with spans_tracer.op(op_id):
                _run(op, tmp_path)
    finally:
        spans_tracer.uninstall()
    assert cli.sfg_evolve is original and fock_sim.sfg_evolve is original
    spans = spans_tracer.spans()
    metrics = tracer.layer_metrics(spans, [0, 1], {0: 1, 1: None, 2: 2})
    assert metrics["oracle.mc.calls_per_op"] == 1.0  # lo and nlo over two ops
    assert metrics["oracle.mc.samples_per_op"] == 20_000.0
    assert metrics["oracle.exact.calls_per_op"] == 0.0
    assert metrics["fock_sim.sfg_evolve.calls_per_op"] > 0
    assert metrics["oracle.mc.parallel_efficiency"] > 0
    filled_by_run = {"oracle.exact.pmf_entries_per_call", "oracle.rows_compared_ratio",
                     "trace.overhead_ratio", *run.IMPORT_METRICS}
    assert set(metrics) | filled_by_run == set(run.PER_LAYER_UNITS)


# --- the benchmark refuses a directory without the sources -----------------------------


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
