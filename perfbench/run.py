"""entswap benchmark: closed-loop CLI workloads with a correctness gate.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25       # every workload

One client in one process calls ``entswap.cli.main(argv)`` in a closed loop,
each op writing to a temporary ``--out`` file that the gate in ``gate.py``
checks.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same ops once untraced and once under the span tracer of ``tracer.py`` and
prints the per-layer metrics.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Results with the
environment go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_op_ms": "ms",
    "items_per_s": "items/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
# The result line carries only these; they are the end-to-end metrics that
# BENCHMARK.json bounds.  The timing metrics above are printed and recorded
# but left unbounded: on a 2-vCPU VM the host's own speed drifts by up to
# about 35% over minutes, and their median moved that much between runs of
# unchanged code (README.md has the figures).
BOUNDED = ("setup_s", "peak_rss_mb")
# error_ratio is 0 whenever the program is correct, and a bound given as a
# share of a zero median means nothing, so the result line carries it as
# failed / attempted instead of as a metric.  It is printed with the rest.
ERROR_RATIO_UNIT = "ratio"
IMPORT_METRICS = {
    "import.numpy_ms": "numpy",
    "import.entswap.sfg_device_ms": "entswap.sfg_device",
    "import.entswap.oracle_ms": "entswap.oracle",
    "import.entswap.fock_sim_ms": "entswap.fock_sim",
    "import.entswap.cli_ms": "entswap.cli",
}
SETUP_PROBES = 9
IMPORT_PROBES = 3
# Spans are held in memory (32 bytes each); the traced phase stops at the
# first cycle boundary past this many.
SPAN_LIMIT = 1_000_000
CHILD_TIMEOUT_S = 120


def _per_layer_units() -> dict[str, str]:
    units = {"cli.self_ms_per_op": "ms"}
    for layer in ("photon_stats", "lo_bsm", "nlo_bsm", "rates"):
        units[f"{layer}.calls_per_op"] = "count"
        units[f"{layer}.us_per_call"] = "us"
    units.update({
        "config.us_per_op": "us",
        "sfg_device.us_per_op": "us",
        "oracle.exact.calls_per_op": "count",
        "oracle.exact.ms_per_call": "ms",
        "oracle.exact.pmf_entries_per_call": "count",
        "oracle.mc.calls_per_op": "count",
        "oracle.mc.samples_per_op": "count",
        "oracle.mc.ns_per_sample": "ns",
        "oracle.mc.parallel_efficiency": "ratio",
        "oracle.rows_compared_ratio": "ratio",
        "oracle.report.self_ms_per_op": "ms",
        "fock_sim.sfg_evolve.calls_per_op": "count",
        "fock_sim.sfg_evolve.us_per_call": "us",
        "fock_sim.sfg_evolve.bytes_computed_per_call": "bytes",
        "fock_sim.swap_condition_on_sfg.us_per_call": "us",
    })
    units.update({name: "ms" for name in IMPORT_METRICS})
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()


# --- measurement helpers -----------------------------------------------------


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With fewer than 22 samples no such percentile lies above the median, and
    the order statistic just above it is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k in ("OMP_DYNAMIC", "OMP_PROC_BIND")},
        "commit": commit,
    }


class Bench:
    """One benchmark process: runs ops through the gate and keeps the tallies."""

    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        import gate
        from entswap import cli

        self.cli = cli
        self.check = gate.check
        self.workload = workload
        self.seed = seed
        self.out = tmp / "op.out"
        self.alt_out = tmp / "op-alt.out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows = 0
        self.compared = 0
        self.n_max: int | None = None

    def call(self, op, out: Path) -> tuple[float, int, bytes]:
        out.unlink(missing_ok=True)  # never gate a previous op's output
        start = time.perf_counter()
        try:
            code = self.cli.main([*op.argv, "--out", str(out)])
        except Exception as exc:  # a crashing op fails the gate; the run goes on
            code = -1
            self.problems.append(f"{op.workload}#{op.index} raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        return elapsed, code, out.read_bytes() if out.exists() else b""

    def gate(self, op, data: bytes, code: int, alt: bytes | None = None) -> bool:
        verdict = self.check(op, data, code)
        problems = list(verdict.problems)
        if alt is not None and alt != data:
            problems.append("output differs between worker counts")
        self.attempted += 1
        self.rows += verdict.rows
        self.compared += verdict.compared
        if verdict.n_max is not None:
            self.n_max = verdict.n_max
        if problems:
            self.failed += 1
            self.problems.append(f"{op.workload}#{op.index} {' '.join(op.argv)}: {'; '.join(problems[:3])}")
        return not problems

    def alt_op(self, op):
        """The op at the other worker count, for the determinism check."""
        return op.with_workers(1 if op.params["workers"] != 1 else 2)

    def run(self, op, check_determinism: bool) -> float:
        elapsed, code, data = self.call(op, self.out)
        alt = None
        if check_determinism and op.kind == "verify":
            _, _, alt = self.call(self.alt_op(op), self.alt_out)
        self.gate(op, data, code, alt)
        return elapsed

    def cycles(self, start_index: int, budget_s: float):
        """Ops in whole cycles from ``start_index`` until ``budget_s`` has passed."""
        cycle = workloads.CYCLE[self.workload]
        index, began = start_index, time.perf_counter()
        while True:
            for _ in range(cycle):
                yield workloads.make_op(self.workload, self.seed, index)
                index += 1
            if time.perf_counter() - began >= budget_s:
                return


def setup_probe(bench: Bench, op, out: Path) -> tuple[float, float]:
    """A fresh interpreter: (set-up time to import the CLI, time of the cold first op)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC), str(out), "--", *op.argv],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bench.gate(op, out.read_bytes() if out.exists() else b"", result["exit"])
    return result["import_done"] - spawned, result["cold_op_s"]


def import_probes() -> dict[str, float]:
    """Median cumulative import times from ``python -X importtime``."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_METRICS}
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import entswap.cli"
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e3
        for name, module in IMPORT_METRICS.items():
            samples[name].append(cumulative[module])
    return {name: statistics.median(values) for name, values in samples.items()}


# --- the two kinds of run -------------------------------------------------------


def end_to_end(bench: Bench, seconds: float, tmp: Path) -> tuple[dict, dict]:
    cycle = workloads.CYCLE[bench.workload]
    # Warm-up, not timed: lazy set-up and caches.  Its verify op is also
    # re-run at the other worker count and must match byte for byte; the
    # traced run does that for every op.
    for index in range(cycle):
        bench.run(workloads.make_op(bench.workload, bench.seed, index), check_determinism=True)
    setup, cold, latencies, items = [], [], [], 0

    def probe() -> None:
        # Probe k runs the first op of cycle k, so the cold-op median spans
        # several drawn inputs rather than hanging on one.
        op = workloads.make_op(bench.workload, bench.seed, len(setup) * cycle)
        probe_setup, probe_cold = setup_probe(bench, op, tmp / "probe.out")
        setup.append(probe_setup)
        cold.append(probe_cold)

    # The machine's speed drifts over seconds, so the fresh-interpreter
    # probes are spread evenly over the run instead of taken in one block.
    began = time.perf_counter()
    for op in bench.cycles(cycle, seconds):
        due = len(setup) * seconds / SETUP_PROBES
        if op.index % cycle == 0 and len(setup) < SETUP_PROBES and time.perf_counter() - began >= due:
            probe()
        latencies.append(bench.run(op, check_determinism=False))
        items += op.items
    while len(setup) < SETUP_PROBES:
        probe()
    tail, tail_pct = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "cold_op_ms": statistics.median(cold) * 1e3,
        "items_per_s": items / sum(latencies),
        "latency_ms_p50": statistics.median(latencies) * 1e3,
        "latency_ms_tail": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "cold_op_ms": f"median of {len(cold)} fresh interpreters",
        "items_per_s": f"{items} items ({workloads.ITEM[bench.workload]}) in {len(latencies)} ops",
        "latency_ms_p50": f"n={len(latencies)}",
        "latency_ms_tail": f"p{tail_pct:.1f}, n={len(latencies)}",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "error_ratio": f"{bench.failed} of {bench.attempted} ops",
        "setup_samples_s": setup,
        "cold_samples_ms": [c * 1e3 for c in cold],
        "latencies_ms": [x * 1e3 for x in latencies],
    }
    return values, notes


def traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics

    imports = import_probes()
    cycle = workloads.CYCLE[bench.workload]
    for index in range(cycle):
        bench.run(workloads.make_op(bench.workload, bench.seed, index), check_determinism=False)
    ops, untraced = [], []
    for op in bench.cycles(cycle, seconds / 4.0):
        ops.append(op)
        untraced.append(bench.run(op, check_determinism=False))

    tracer = Tracer()
    tracer.install()
    traced_s, op_workers, primary = [], {}, []
    try:
        for op_id, op in enumerate(ops):
            if op_id % cycle == 0 and len(tracer) >= SPAN_LIMIT:
                break
            with tracer.op(op_id):
                elapsed, code, data = bench.call(op, bench.out)
            traced_s.append(elapsed)
            primary.append(op_id)
            op_workers[op_id] = op.params.get("workers")
            alt = None
            if op.kind == "verify":
                alt_op = bench.alt_op(op)
                alt_id = len(ops) + op_id
                with tracer.op(alt_id):
                    _, _, alt = bench.call(alt_op, bench.alt_out)
                op_workers[alt_id] = alt_op.params["workers"]
            bench.gate(op, data, code, alt)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    values = layer_metrics(spans, primary, op_workers)
    values["oracle.exact.pmf_entries_per_call"] = (
        2.0 * (bench.n_max + 1) ** 2 if values["oracle.exact.calls_per_op"] else 0.0
    )
    values["oracle.rows_compared_ratio"] = bench.compared / bench.rows if bench.rows else 0.0
    values.update(imports)
    # Both sides over the ops that were traced.
    items = sum(op.items for op in ops[:len(traced_s)])
    untraced_s = untraced[:len(traced_s)]
    values["trace.overhead_ratio"] = (items / sum(untraced_s)) / (items / sum(traced_s))
    spans_path = OUT_DIR / f"spans-{bench.workload}.npz"
    tracer.save(spans_path)
    notes = {
        "ops_untraced": len(ops),
        "ops_traced": len(traced_s),
        "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "import_probes": IMPORT_PROBES,
        "untraced_items_per_s": items / sum(untraced_s),
        "traced_items_per_s": items / sum(traced_s),
    }
    return values, notes


# --- entry point ------------------------------------------------------------------


def print_table(workload: str, values: dict, units: dict, notes: dict) -> None:
    print(f"# workload {workload}")
    for name, unit in units.items():
        print(f"{name:<46} {values[name]:>16.6g} {unit:<8} {notes.get(name, '')}")


def run_workload(args) -> int:
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp_name:
        tmp = Path(tmp_name)
        bench = Bench(args.workload, args.seed, tmp)
        if args.trace:
            values, notes = traced(bench, args.seconds)
            units = PER_LAYER_UNITS
        else:
            values, notes = end_to_end(bench, args.seconds, tmp)
            units = END_TO_END_UNITS
    reported = PER_LAYER_UNITS if args.trace else BOUNDED
    env = environment()
    error_ratio = bench.failed / bench.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "item": workloads.ITEM[args.workload], "environment": env,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "error_ratio": error_ratio, "attempted": bench.attempted, "failed": bench.failed,
        "problems": bench.problems, "notes": notes,
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"# entswap benchmark seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"item={workloads.ITEM[args.workload]!r}")
    print(f"# env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']} ({env['blas_config']}) threads={env['thread_env']} commit={env['commit']}")
    print_table(args.workload, values, units, notes)
    if not args.trace:
        print(f"{'error_ratio':<46} {error_ratio:>16.6g} {ERROR_RATIO_UNIT:<8} {notes['error_ratio']}")
    for problem in bench.problems[:10]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: record["metrics"][name] for name in reported},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entswap" / "cli.py").is_file():
        print(f"error: no entswap sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
