"""Command-line surface: sweeps, device numbers, rate comparison, verification.

Argument parsing, output formatting and exit codes only: the sweep engine is
``entswap.sweep``, rate-compare's numbers ``rates.compare`` and
``rates.matched_fidelity``, and the Fock invariant suite ``fock_sim.run_fock_checks``.

Subcommands
-----------
fidelity-sweep   fidelity (and rate) columns over a parameter grid, CSV/JSON
device           single-photon conversion probability of a cavity or waveguide
rate-compare     swapping rates of the two schemes, the crossover verdict and
                 the pair probabilities of each at a matched fidelity
verify           oracle-vs-closed-form comparison, machine-readable JSON
fock-check       exact small-Hilbert-space invariant suite

Every value comes from an optional preset, then an optional config file, then
flags, later sources overriding earlier ones; a key the command does not read
is an error.  Each value flag is a config key spelt ``--key`` (``_`` as ``-``:
``--p-sfg``, ``--n-max``) and is parsed as the line ``key = value``, so the
same rules and units apply to all three sources.  ``fock-check`` reads no
values.  Sweeps and rate-compare read the link through ``config.resolve_link``:
a source is eps_x or p_x, never both, and required unless swept; numbers are
finite and counts whole; defaults are eta_a = eta_b = 1, p_sfg = 1e-3,
clock = 1 GHz, and rate-compare's delta = 0.01.  ``verify`` reads no link; its
keys and defaults are ``VERIFY_DEFAULTS``, where each ``oracle.OracleConfig``
field, p_sfg = 0.05 included, defaults as the library does.  A flag matches
its full spelling only.  ``main`` can be called repeatedly in one process: the
parser is built on the first call and reused.  Exit codes: 0 success, 1
refused input or a stdout closed before the output was written (an
``error:`` line on stderr), 2 verification failure (or nothing compared).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import asdict, fields
from itertools import chain

from . import oracle, rates, sfg_device
from .config import (
    CAVITY_KEYS,
    LINK_KEYS,
    WAVEGUIDE_KEYS,
    ConfigValue,
    build_cavity,
    build_waveguide,
    check_known,
    parse_config_file,
    parse_config_text,
    read,
    resolve,
    resolve_link,
)
from .errors import EntswapError, UsageError
# Re-exported: perfbench's tracer test looks sfg_evolve up as cli.sfg_evolve.
from .fock_sim import dump_reference_states, run_fock_checks, sfg_evolve  # noqa: F401
from .photon_stats import check_probability
from .presets import DEMONSTRATED_RING_P_SFG, get_preset, preset_names
from .sweep import SPEC_KEYS, SweepSpec, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2

NUMBER_FORMAT = "%.12e"
# Rows of a sweep table turned into text at once: the output is written block by
# block, so no more than one block's floats and text are held at a time.
CSV_BLOCK_ROWS = 4096


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # a flag matches its full spelling only
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):  # keep exit-code contract instead of argparse's 2
        raise UsageError(message)


def _format_csv(columns: list[str], table) -> Iterator[str]:
    """The header line, then the rows of the array ``table`` in blocks, each
    formatted by a single ``%``."""
    yield ",".join(columns) + "\n"
    row_format = ",".join([NUMBER_FORMAT] * len(columns)) + "\n"
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        rows = table[start:start + CSV_BLOCK_ROWS].tolist()
        yield (row_format * len(rows)) % tuple(chain.from_iterable(rows))


def _format_json(payload) -> Iterator[str]:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, in pieces."""
    yield from json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    yield "\n"


def _format_text(value, name: str = "") -> Iterator[str]:
    """One ``name = value`` line per leaf of the JSON-shaped ``value``, in the
    JSON's sorted key order: nested keys joined by ``.``, each list item on a
    line of its own under the list's name, floats as ``%.6e``, strings as
    written and any other value as JSON spells it."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _format_text(value[key], f"{name}.{key}" if name else key)
    elif isinstance(value, list):
        for item in value:
            yield from _format_text(item, name)
    elif isinstance(value, float):
        yield f"{name} = {value:.6e}\n"
    else:
        yield f"{name} = {value if isinstance(value, str) else json.dumps(value)}\n"


def _format_report(report: dict, fmt: str) -> Iterator[str]:
    """A report as JSON, or as text lines named after its JSON keys."""
    return _format_json(report) if fmt == "json" else _format_text(report)


def _write_output(chunks: Iterable[str], out: str) -> None:
    if out == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # The reader is gone (``| head``): point fd 1 at devnull, so that the
            # interpreter's final flush of what is still buffered stays quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise UsageError("cannot write to stdout: the reader closed the pipe") from exc
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise UsageError(f"cannot write output file {out!r}: {exc}") from exc


def _collect_entries(args: argparse.Namespace) -> dict:
    """Preset, then config file, then flags, each flag parsed as a config line
    so the same rules apply; a key outside the command's ``known_keys`` is refused,
    and so is a flag value with a comment or a line break, which carries config syntax."""
    entries: dict[str, ConfigValue] = {}
    if args.preset:
        entries.update(get_preset(args.preset))
    if args.config:
        entries.update(parse_config_file(args.config))
    for key in args.known_keys:
        value = getattr(args, key, None)  # keys without a flag have no attribute
        if value is not None:
            if "#" in value or len(value.splitlines()) > 1:
                raise UsageError(f"--{key.replace('_', '-')} must hold one value, got {value!r}")
            entries[key] = parse_config_text(f"{key} = {value}", source="<flags>")[key]
    check_known(entries, args.known_keys)
    return entries


# --- subcommand: fidelity-sweep ------------------------------------------------


def cmd_fidelity_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec.from_entries(_collect_entries(args))
    columns, table = run_sweep(spec)
    if args.format == "csv":
        _write_output(_format_csv(columns, table), args.out)
    else:
        _write_output(_format_json({"columns": columns, "rows": table.tolist()}), args.out)
    return EXIT_OK


# --- subcommand: device ---------------------------------------------------------


def cmd_device(args: argparse.Namespace) -> int:
    entries = _collect_entries(args)
    report: dict = {"reference_demonstrated_p_sfg": DEMONSTRATED_RING_P_SFG}
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        if any(key in entries for key in CAVITY_KEYS):
            cavity = build_cavity(entries)
            eta = sfg_device.eta_sfg_cavity(cavity)
            report["cavity"] = {
                "p_sfg": sfg_device.p_sfg_cavity(cavity),
                "eta_sfg_per_w": eta,
                "p_sfg_from_eta": sfg_device.p_sfg_from_eta(cavity, eta),
            }
        if any(key in entries for key in WAVEGUIDE_KEYS):
            waveguide = build_waveguide(entries)
            report["waveguide"] = {"p_sfg": sfg_device.p_sfg_waveguide(waveguide)}
        if "p_sfg" in entries:
            p_sfg = read(entries, "p_sfg")
            check_probability(p_sfg, "p_sfg")
            report["quoted"] = {"p_sfg": p_sfg}
        report["warnings"] = [str(record.message) for record in records]
    if not any(key in report for key in ("cavity", "waveguide", "quoted")):
        raise UsageError("no device parameters found (expected cavity, waveguide, or p_sfg keys)")
    _write_output(_format_report(report, args.format), args.out)
    return EXIT_OK


# --- subcommand: rate-compare ----------------------------------------------------


RATE_DEFAULTS = {"delta": 0.01}


def cmd_rate_compare(args: argparse.Namespace) -> int:
    entries = _collect_entries(args)
    link = resolve_link(entries)
    report = {
        **asdict(link),
        **rates.compare(link),
        "matched_fidelity": rates.matched_fidelity(resolve(entries, RATE_DEFAULTS)["delta"]),
    }
    _write_output(_format_report(report, args.format), args.out)
    return EXIT_OK


# --- subcommand: verify -----------------------------------------------------------


# Each OracleConfig field is a key, defaulting as the library does.
VERIFY_DEFAULTS = {**asdict(oracle.OracleConfig()), "scenarios": 20,
                   "eps_min": oracle.EPS_RANGE[0], "eps_max": oracle.EPS_RANGE[1],
                   "eta_min": oracle.ETA_RANGE[0], "eta_max": oracle.ETA_RANGE[1]}
# The scenario ranges come from presets and config files only.
VERIFY_FLAGS = (*(f.name for f in fields(oracle.OracleConfig)), "scenarios")


def cmd_verify(args: argparse.Namespace) -> int:
    values = resolve(_collect_entries(args), VERIFY_DEFAULTS)
    cfg = oracle.OracleConfig(**{f.name: values[f.name] for f in fields(oracle.OracleConfig)})
    scenarios = oracle.random_scenarios(
        values["scenarios"],
        cfg.seed,
        eps_range=(values["eps_min"], values["eps_max"]),
        eta_range=(values["eta_min"], values["eta_max"]),
    )
    methods = {
        "exact": ("exact-sum",),
        "mc": ("monte-carlo",),
        "both": ("exact-sum", "monte-carlo"),
    }[args.method]
    report = oracle.verification_report(scenarios, cfg, methods)
    _write_output(_format_json(report), args.out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


# --- subcommand: fock-check --------------------------------------------------------


def cmd_fock_check(args: argparse.Namespace) -> int:
    if args.dump_states and args.format == "json":
        raise UsageError("--dump-states appends text dumps; it needs --format text")
    rows = run_fock_checks()
    if args.format == "json":
        _write_output(_format_json({"rows": rows, "pass": all(r["pass"] for r in rows)}), args.out)
    else:
        width = max(len(row["check"]) for row in rows)
        lines = []
        for row in rows:
            status = "pass" if row["pass"] else "FAIL"
            lines.append(
                f"{row['check']:<{width}}  {row['value']:.3e}  <=  {row['bound']:.3e}  {status}"
            )
        text = "\n".join(lines) + "\n"
        if args.dump_states:
            text += dump_reference_states()
        _write_output([text], args.out)
    return EXIT_OK if all(row["pass"] for row in rows) else EXIT_VERIFY_FAIL


# --- entry point --------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on the first call and reused for the rest of the
    process.  Each ``func`` looks its ``cmd_*`` up when it runs, so a wrapper
    put on one after the parser was built is the one called."""
    parser = _Parser(prog="entswap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, default_format: str, formats: tuple[str, ...]) -> None:
        p.add_argument("--out", default="-", help="output path, or - for stdout")
        p.add_argument("--format", default=default_format, choices=formats)

    def add_inputs(p: _Parser, known_keys: tuple[str, ...], flags: tuple[str, ...]) -> None:
        """--config, --preset and one --key flag per key of ``flags`` (``_``
        spelt ``-``), all read by ``_collect_entries`` as config lines."""
        p.add_argument("--config", default=None, help="key-value parameter file")
        p.add_argument("--preset", default=None, choices=preset_names(), help="named parameter set")
        for key in flags:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
        p.set_defaults(known_keys=known_keys)

    sweep = sub.add_parser("fidelity-sweep", help="fidelity/rate columns over a grid")
    add_inputs(sweep, (*SPEC_KEYS, *LINK_KEYS), SPEC_KEYS)
    add_common(sweep, "csv", ("csv", "json"))
    sweep.set_defaults(func=lambda args: cmd_fidelity_sweep(args))

    device = sub.add_parser("device", help="conversion probability of a device")
    add_inputs(device, (*CAVITY_KEYS, *WAVEGUIDE_KEYS, "p_sfg"), ())
    add_common(device, "text", ("text", "json"))
    device.set_defaults(func=lambda args: cmd_device(args))

    rate = sub.add_parser("rate-compare", help="scheme rates and crossover")
    add_inputs(rate, (*LINK_KEYS, *RATE_DEFAULTS), ("p_sfg", "clock", *RATE_DEFAULTS))
    add_common(rate, "text", ("text", "json"))
    rate.set_defaults(func=lambda args: cmd_rate_compare(args))

    verify = sub.add_parser("verify", help="oracle vs closed forms")
    add_inputs(verify, tuple(VERIFY_DEFAULTS), VERIFY_FLAGS)
    add_common(verify, "json", ("json",))
    verify.add_argument("--method", default="exact", choices=("exact", "mc", "both"))
    verify.set_defaults(func=lambda args: cmd_verify(args))

    fock = sub.add_parser("fock-check", help="exact simulator invariants")
    add_common(fock, "text", ("text", "json"))
    fock.add_argument(
        "--dump-states",
        action="store_true",
        help="append byte-stable dumps of the conditioned Bell states",
    )
    fock.set_defaults(func=lambda args: cmd_fock_check(args))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except EntswapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
