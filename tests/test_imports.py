"""Which optional modules each command loads, checked in a fresh interpreter.

scipy is a test-only dependency: importing the package and running any
command, the exact-sum and Monte Carlo oracles included, must leave it
unloaded.  numpy.random is loaded only by the Monte Carlo oracle, which
samples; the exact-sum oracle and every other command draw nothing from it.
The package itself exports only ``__version__``, so importing it loads no
submodule and no numpy, and a submodule loads only what it imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, json, sys
import entswap, entswap.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(entswap.cli.main(argv))
print(json.dumps({
    "codes": codes,
    "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
    "numpy_random": "numpy.random" in sys.modules,
}))
"""


def run_fresh(*argvs):
    """Run CLI commands in a new interpreter; return their exit codes, the
    scipy modules loaded and whether numpy.random was loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], result["scipy"], result["numpy_random"]


def test_import_and_non_verify_commands_load_no_scipy():
    codes, loaded, numpy_random = run_fresh(
        ("fidelity-sweep", "--preset", "fig2"),
        ("device", "--preset", "ingap-ring"),
        ("rate-compare", "--preset", "satellite"),
        ("fock-check",),
    )
    assert codes == [0, 0, 0, 0]
    assert loaded == []
    assert numpy_random is False


def test_verify_with_both_oracles_loads_no_scipy():
    codes, loaded, _ = run_fresh(
        ("verify", "--method", "both", "--scenarios", "1", "--samples", "20000")
    )
    assert codes == [0]
    assert loaded == []


def test_exact_verify_loads_no_numpy_random():
    codes, loaded, numpy_random = run_fresh(("verify", "--method", "exact", "--scenarios", "2"))
    assert codes == [0]
    assert loaded == []
    assert numpy_random is False


def test_monte_carlo_verify_loads_numpy_random():
    codes, _, numpy_random = run_fresh(
        ("verify", "--method", "mc", "--scenarios", "1", "--samples", "20000")
    )
    assert codes == [0]
    assert numpy_random is True


def loaded_after(statement):
    """The modules a new interpreter holds after running ``statement``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}; import json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = loaded_after("import entswap")
    assert [m for m in loaded if m.startswith("entswap.")] == []
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []


def test_photon_stats_loads_neither_oracle():
    loaded = loaded_after("import entswap.photon_stats")
    assert "entswap.oracle" not in loaded
    assert "entswap.fock_sim" not in loaded


def test_cli_import_loads_every_module_the_benchmark_times():
    """perfbench/run.py::import_probes reads each of these modules' import time
    from ``import entswap.cli`` and raises KeyError on one that is not loaded,
    so loading one lazily would break only the traced benchmark run.  This test
    goes once the benchmark records a missing module as 0 ms (ROADMAP item 12).
    """
    loaded = loaded_after("import entswap.cli")
    for module in ("numpy", "entswap.sfg_device", "entswap.oracle", "entswap.fock_sim"):
        assert module in loaded
