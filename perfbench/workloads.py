"""Operations of each benchmark workload, generated from the workload seed.

The program under test only ever sees the argv built here; the seed, the op
index and the drawn parameters stay on the benchmark side, where the
correctness gate uses them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "verify-exact", "verify-mc", "reports")

# Unit of work behind items_per_s, per workload.
ITEM = {
    "sweep": "grid point",
    "verify-exact": "scenario",
    "verify-mc": "Monte Carlo sample",
    "reports": "operation",
}

# Ops per cycle: traced and measured phases run whole cycles, so per-op
# averages do not depend on where a time budget happened to end.
CYCLE = {"sweep": 3, "verify-exact": 1, "verify-mc": 1, "reports": 4}

SWEEP_POINTS = 20_000
SWEEP_VARIABLES = ("eta_b", "p", "p_sfg")
SWEEP_OUTPUTS = (
    "f_lo_general",
    "f_lo_balanced_smalleta",
    "f_lo_unbalanced",
    "f_nlo",
    "r_lo",
    "r_nlo",
    "lo_bound",
)
EXACT_SCENARIOS = 25
EXACT_N_MAX = 200
MC_SCENARIOS = 2
MC_SAMPLES = 1_000_000
MC_WORKERS = 2
REPORT_KINDS = ("fock", "device-ring", "device-wg", "rate")


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what the gate needs to know about it."""

    workload: str
    index: int
    kind: str
    argv: tuple[str, ...]
    items: int
    params: dict = field(default_factory=dict, compare=False)

    def with_workers(self, workers: int) -> "Op":
        """The same verify op at another worker count (determinism check)."""
        if self.kind != "verify":
            raise ValueError("only verify ops take a worker count")
        argv = list(self.argv)
        if "--workers" in argv:
            argv[argv.index("--workers") + 1] = str(workers)
        else:
            argv += ["--workers", str(workers)]
        return Op(self.workload, self.index, self.kind, tuple(argv), self.items,
                  {**self.params, "workers": workers})


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _sweep_op(rng: random.Random, index: int) -> Op:
    variable = SWEEP_VARIABLES[index % len(SWEEP_VARIABLES)]
    if variable == "eta_b":
        start, stop = _log_uniform(rng, -7, -5), _log_uniform(rng, -1, 0)
    elif variable == "p":
        start, stop = _log_uniform(rng, -5, -3), rng.uniform(0.1, 0.25)
    else:
        start, stop = _log_uniform(rng, -6, -4), _log_uniform(rng, -1, 0)
    argv = (
        "fidelity-sweep", "--preset", "satellite",
        "--points", str(SWEEP_POINTS), "--scale", "log",
        "--outputs", ",".join(SWEEP_OUTPUTS),
        "--variable", variable, "--start", repr(start), "--stop", repr(stop),
    )
    params = {"variable": variable, "start": start, "stop": stop, "points": SWEEP_POINTS}
    return Op("sweep", index, "sweep", argv, SWEEP_POINTS, params)


def _verify_op(workload: str, seed: int, index: int) -> Op:
    op_seed = seed + index
    if workload == "verify-exact":
        argv = ("verify", "--method", "exact", "--scenarios", str(EXACT_SCENARIOS),
                "--n-max", str(EXACT_N_MAX), "--seed", str(op_seed))
        params = {"method": "exact", "scenarios": EXACT_SCENARIOS, "n_max": EXACT_N_MAX,
                  "seed": op_seed, "workers": 1}
        return Op(workload, index, "verify", argv, EXACT_SCENARIOS, params)
    # The CLI's default --p-sfg 0.05 and default scenario ranges stay, even
    # though they turn part of the nlo rows into error rows: that waste is
    # what oracle.rows_compared_ratio reports.
    argv = ("verify", "--method", "mc", "--scenarios", str(MC_SCENARIOS),
            "--samples", str(MC_SAMPLES), "--workers", str(MC_WORKERS), "--seed", str(op_seed))
    params = {"method": "mc", "scenarios": MC_SCENARIOS, "samples": MC_SAMPLES,
              "seed": op_seed, "workers": MC_WORKERS}
    # Both models (lo, nlo) sample MC_SAMPLES per scenario.
    return Op(workload, index, "verify", argv, MC_SCENARIOS * 2 * MC_SAMPLES, params)


def _report_op(rng: random.Random, index: int) -> Op:
    kind = REPORT_KINDS[index % len(REPORT_KINDS)]
    if kind == "fock":
        return Op("reports", index, kind, ("fock-check", "--dump-states"), 1)
    if kind in ("device-ring", "device-wg"):
        preset = "ingap-ring" if kind == "device-ring" else "ingap-wg"
        return Op("reports", index, kind, ("device", "--preset", preset, "--format", "json"), 1)
    p_sfg = _log_uniform(rng, -5, -1)
    clock_mhz = round(rng.uniform(10.0, 5000.0), 3)
    argv = ("rate-compare", "--preset", "satellite", "--format", "json",
            "--p-sfg", repr(p_sfg), "--clock", f"{clock_mhz!r} MHz")
    return Op("reports", index, kind, argv, 1, {"p_sfg": p_sfg, "clock": clock_mhz * 1e6})


def make_op(workload: str, seed: int, index: int) -> Op:
    """Op number ``index`` of a workload; the same (seed, index) gives the same op."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "sweep":
        return _sweep_op(rng, index)
    if workload == "reports":
        return _report_op(rng, index)
    return _verify_op(workload, seed, index)
