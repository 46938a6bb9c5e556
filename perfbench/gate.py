"""Correctness gate: checks each op's output independently of the program.

Nothing here trusts a ``pass`` field or an exit code alone.  Verify rows are
re-derived from the library closed forms, sweep rows are recomputed from the
parsed grid values, Fock dumps are compared against Bell states built here,
and device and rate numbers are held to the ranges and identities the paper
states.  ``check`` returns the list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

from entswap import lo_bsm
from entswap.photon_stats import SwapScenario, epsilon_from_p

from workloads import SWEEP_OUTPUTS, Op

# The satellite preset as documented; the sweep and rate checks use it as
# the reference inputs instead of reading them back from the program.
SATELLITE = {"p_a": 0.01, "p_b": 0.01, "eta_a": 1.0, "eta_b": 1e-5, "p_sfg": 1e-3, "clock": 1e9}
# Acceptance-06 ranges for the two InGaP devices.
RING_P_SFG_RANGE = (5e-4, 2e-3)
WG_P_SFG_RANGE = (1.5e-5, 4e-5)
# Rows sampled from each sweep for recomputation (plus both endpoints).
SWEEP_SAMPLED_ROWS = 50
# CSV values carry 13 significant digits; recomputing from the rounded grid
# value moves the smooth closed forms by far less than this.
SWEEP_REL_TOL = 1e-9
EXACT_FLOOR = 1e-10
MC_SIGMA = 5.0
# A compared Monte Carlo row has at least 25 heralds, so its binomial
# standard error cannot exceed sqrt(0.25 / 25).
MC_MAX_STD_ERROR = 0.1
FOCK_CHECKS = 10
# Bell states on the basis (ee, el, le, ll), built here rather than taken
# from fock_sim, so the dumped states are checked against an outside reference.
_H = 2.0**-0.5
BELL = {
    "phi+": (_H, 0, 0, _H),
    "phi-": (_H, 0, 0, -_H),
    "psi+": (0, _H, _H, 0),
    "psi-": (0, _H, -_H, 0),
}
FOCK_LINE = re.compile(r"^(?P<name>.+?)\s+(?P<value>\S+)\s+<=\s+(?P<bound>\S+)\s+(?P<status>pass|FAIL)$")


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    rows: int = 0  # verify rows attempted
    compared: int = 0  # verify rows with a comparison
    n_max: int | None = None  # truncation the verify report states

    @property
    def ok(self) -> bool:
        return not self.problems


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check(op: Op, data: bytes, exit_code: int) -> Verdict:
    verdict = Verdict()
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code}")
    try:
        text = data.decode("utf-8")
        {
            "sweep": _check_sweep,
            "verify": _check_verify,
            "fock": _check_fock,
            "device-ring": _check_device,
            "device-wg": _check_device,
            "rate": _check_rate,
        }[op.kind](op, text, verdict)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        verdict.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return verdict


def _sweep_expected(variable: str, x: float) -> dict[str, float]:
    ref = dict(SATELLITE)
    if variable == "p":
        ref["p_a"] = ref["p_b"] = x
    else:
        ref[variable] = x
    eps_a, eps_b = epsilon_from_p(ref["p_a"]), epsilon_from_p(ref["p_b"])
    scenario = SwapScenario.from_values(eps_a, eps_b, ref["eta_a"], ref["eta_b"])
    p_a, p_b = ref["p_a"], ref["p_b"]
    return {
        "f_lo_general": lo_bsm.fidelity_general(scenario).fidelity,
        "f_lo_balanced_smalleta": lo_bsm.fidelity_balanced_smalleta(p_b),
        "f_lo_unbalanced": lo_bsm.fidelity_unbalanced_limit(p_b),
        "f_nlo": (1.0 - eps_a) ** 2 * (1.0 - eps_b) ** 2,
        "r_lo": (ref["eta_b"] * p_b) ** 2 * ref["clock"],
        "r_nlo": ref["p_sfg"] * ref["eta_a"] * ref["eta_b"] * p_a * p_b * ref["clock"],
        "lo_bound": 1.0 / 3.0,
    }


def _check_sweep(op: Op, text: str, verdict: Verdict) -> None:
    params = op.params
    table = list(csv.reader(io.StringIO(text)))
    header, rows = table[0], table[1:]
    if header != [params["variable"], *SWEEP_OUTPUTS]:
        verdict.problems.append(f"sweep header {header}")
        return
    if len(rows) != params["points"]:
        verdict.problems.append(f"sweep has {len(rows)} rows, expected {params['points']}")
        return
    values = [[float(cell) for cell in row] for row in rows]
    if not all(math.isfinite(v) for row in values for v in row):
        verdict.problems.append("sweep holds a non-finite value")
    for index, pinned in ((0, params["start"]), (-1, params["stop"])):
        if values[index][0] != float("%.12e" % pinned):
            verdict.problems.append(f"sweep endpoint {values[index][0]!r} is not pinned to {pinned!r}")
    stride = max(1, len(values) // SWEEP_SAMPLED_ROWS)
    for index in sorted({0, len(values) - 1, *range(0, len(values), stride)}):
        row = values[index]
        expected = _sweep_expected(params["variable"], row[0])
        for name, got in zip(SWEEP_OUTPUTS, row[1:]):
            if not _close(got, expected[name], SWEEP_REL_TOL):
                verdict.problems.append(
                    f"sweep row {index} {name} = {got!r}, closed form gives {expected[name]!r}"
                )


def _check_verify(op: Op, text: str, verdict: Verdict) -> None:
    params = op.params
    report = json.loads(text)
    rows = report["rows"]
    verdict.rows = len(rows)
    verdict.n_max = report["n_max"]
    if report["seed"] != params["seed"]:
        verdict.problems.append(f"report seed {report['seed']} != requested {params['seed']}")
    if len(rows) != 2 * params["scenarios"]:
        verdict.problems.append(f"report has {len(rows)} rows, expected {2 * params['scenarios']}")
    method = {"exact": "exact-sum", "mc": "monte-carlo"}[params["method"]]
    for number, row in enumerate(rows):
        if row["method"] != method:
            verdict.problems.append(f"row {number} method {row['method']!r}")
            continue
        if "error" in row:
            # Monte Carlo rows may end under-sampled or outside the model;
            # an exact-sum row has no such excuse.
            if method == "exact-sum" or row["pass"] is not None:
                verdict.problems.append(f"row {number} error: {row['error']}")
            continue
        s = row["scenario"]
        scenario = SwapScenario.from_values(s["eps_a"], s["eps_b"], s["eta_a"], s["eta_b"])
        if row["model"] == "lo":
            closed = lo_bsm.fidelity_general(scenario).fidelity
        else:
            closed = (1.0 - s["eps_a"]) ** 2 * (1.0 - s["eps_b"]) ** 2
        if not _close(row["closed_form"], closed, 1e-12):
            verdict.problems.append(f"row {number} closed_form {row['closed_form']!r} != {closed!r}")
        if method == "exact-sum":
            if not row["tail_bound"] <= EXACT_FLOOR:
                verdict.problems.append(f"row {number} tail bound {row['tail_bound']!r} too loose")
            tolerance = EXACT_FLOOR
        else:
            if not 0.0 < row["std_error"] <= MC_MAX_STD_ERROR:
                verdict.problems.append(f"row {number} std_error {row['std_error']!r}")
            tolerance = MC_SIGMA * row["std_error"]
        if not abs(row["value"] - closed) <= tolerance:
            verdict.problems.append(
                f"row {number} {row['model']} value {row['value']!r} is "
                f"{abs(row['value'] - closed):.3e} from the closed form {closed!r}"
            )
        verdict.compared += 1
    if verdict.compared == 0:
        verdict.problems.append("report compared zero rows")


def _check_fock(op: Op, text: str, verdict: Verdict) -> None:
    lines = text.splitlines()
    checks = [m for m in map(FOCK_LINE.match, lines) if m]
    if len(checks) != FOCK_CHECKS:
        verdict.problems.append(f"fock-check printed {len(checks)} checks, expected {FOCK_CHECKS}")
    for match in checks:
        value, bound = float(match["value"]), float(match["bound"])
        if not (match["status"] == "pass" and value <= bound):
            verdict.problems.append(f"fock check {match['name'].strip()!r}: {value!r} > {bound!r}")
    seen = []
    for number, line in enumerate(lines):
        if not line.startswith("# projector"):
            continue
        label = line.rsplit("-> ", 1)[1]
        kets = [lines[number + 1 + j].split() for j in range(4)]
        if [ket[0] for ket in kets] != ["ee", "el", "le", "ll"]:
            verdict.problems.append(f"dump for {label} has basis {[ket[0] for ket in kets]}")
            continue
        amps = [complex(float(ket[1]), float(ket[2])) for ket in kets]
        overlap = sum(b * a for b, a in zip(BELL[label], amps))
        if abs(abs(overlap) ** 2 - 1.0) > 1e-12:
            verdict.problems.append(f"dumped state for {label} has fidelity {abs(overlap) ** 2!r}")
        seen.append(label)
    if sorted(seen) != sorted(BELL):
        verdict.problems.append(f"dumped Bell states {seen}")


def _check_device(op: Op, text: str, verdict: Verdict) -> None:
    report = json.loads(text)
    if op.kind == "device-ring":
        p_sfg, (lo, hi) = report["cavity"]["p_sfg"], RING_P_SFG_RANGE
        if not _close(report["cavity"]["p_sfg_from_eta"], p_sfg, 1e-9):
            verdict.problems.append("cavity p_sfg_from_eta disagrees with p_sfg")
    else:
        p_sfg, (lo, hi) = report["waveguide"]["p_sfg"], WG_P_SFG_RANGE
    if not lo <= p_sfg <= hi:
        verdict.problems.append(f"{op.kind} p_sfg {p_sfg!r} outside [{lo}, {hi}]")


def _check_rate(op: Op, text: str, verdict: Verdict) -> None:
    report = json.loads(text)
    p_sfg, clock = op.params["p_sfg"], op.params["clock"]
    eta_a, eta_b = SATELLITE["eta_a"], SATELLITE["eta_b"]
    expected = p_sfg * eta_a / eta_b
    scenario = report["scenario"]
    if (scenario["eta_a"], scenario["eta_b"]) != (eta_a, eta_b):
        verdict.problems.append(f"rate-compare channels {scenario}")
    if report["p_sfg"] != p_sfg or not _close(report["clock"], clock, 1e-12):
        verdict.problems.append(f"rate-compare echoes p_sfg {report['p_sfg']!r}, clock {report['clock']!r}")
    if not _close(report["crossover_ratio"], expected, 1e-12):
        verdict.problems.append(f"crossover_ratio {report['crossover_ratio']!r} != {expected!r}")
    if not _close(report["rate_nlo"] / report["rate_lo"], expected, 1e-9):
        verdict.problems.append("rate_nlo / rate_lo differs from p_sfg * eta_a / eta_b")
    if report["nlo_wins"] != (expected > 1.0):
        verdict.problems.append(f"nlo_wins {report['nlo_wins']!r} for ratio {expected!r}")
