"""Every public function of the package runs under some CLI invocation.

A function that no subcommand, preset or output format reaches is either on
its way to a caller or dead code; the first kind is listed here with what
keeps it, and the second kind fails this test until it is deleted.
"""

import importlib
import inspect
import pkgutil
import sys
import threading

import entswap
from entswap.cli import EXIT_OK, build_parser, main

# Device keys the presets do not use: the SHG forms, ordinary frequencies and
# external quality factors. freq_c, a bare number (Hz), and lambda, in um,
# reach those rows of the unit table.
DEVICE_CONFIG = """\
g_shg = 10 MHz
freq_a = 193.4 THz
freq_b = 193.4 THz
freq_c = 386.8e12
q_a = 4e5
q_b = 4e5
q_c = 1e5
qe_a = 8e5
qe_b = 8e5
qe_c = 2e5
eta_shg = 125000 %/W/cm^2
accept = 6 GHz*cm
length = 1 cm
lambda = 1.55 um
"""

INVOCATIONS = [
    *(("fidelity-sweep", "--preset", "fig2", "--format", f) for f in ("csv", "json")),
    ("fidelity-sweep", "--preset", "satellite", "--variable", "eta_b", "--start", "1e-3",
     "--stop", "1", "--points", "5", "--scale", "log",
     "--outputs", "f_lo_general,f_lo_balanced_smalleta,f_lo_unbalanced,f_nlo,r_lo,r_nlo,lo_bound"),
    *(("device", "--preset", p, "--format", f)
      for p in ("ingap-ring", "ingap-wg", "lnoi-ring") for f in ("text", "json")),
    *(("rate-compare", "--preset", "satellite", "--format", f) for f in ("text", "json")),
    ("verify", "--method", "both", "--scenarios", "2", "--samples", "100000", "--n-max", "40",
     "--workers", "2"),
    ("fock-check", "--dump-states"),
    ("fock-check", "--format", "json"),
]

# Kept without a caller in any subcommand, each for the reason given.
UNREACHED = {
    "lo_bsm.fidelity_upper_bound",  # acceptance test 01 checks the lossy bound with it
    "lo_bsm.optimal_epsilon_a",  # ROADMAP item 10 gives it a caller
}


def public_functions():
    """Each public module-level function of the package, by ``module.name``."""
    found = {}
    for info in pkgutil.iter_modules(entswap.__path__):
        module = importlib.import_module(f"entswap.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and name[0] != "_":
                found[f"{info.name}.{name}"] = obj.__code__
    return found


def test_every_public_function_is_reached_or_kept_on_purpose(tmp_path, capsys):
    config = tmp_path / "device.cfg"
    config.write_text(DEVICE_CONFIG)
    invocations = [*INVOCATIONS, ("device", "--config", str(config))]
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    # The parser is built once per process; rebuild it inside the window, as a
    # fresh process does, so that what building it calls is reached here too.
    build_parser.cache_clear()
    try:
        codes = [main(list(argv)) for argv in invocations]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    capsys.readouterr()
    assert codes == [EXIT_OK] * len(invocations)
    unreached = {name for name, code in public_functions().items() if code not in reached}
    assert unreached == UNREACHED
