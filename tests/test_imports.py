"""Which scipy modules each command loads, checked in a fresh interpreter.

Only the exact-sum oracle needs scipy (its binomial table), so importing the
package and running every other command must leave scipy unloaded.
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
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def run_fresh(*argvs):
    """Run CLI commands in a new interpreter; return their exit codes and the scipy modules loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], result["scipy"]


def test_import_and_non_verify_commands_load_no_scipy():
    codes, loaded = run_fresh(
        ("fidelity-sweep", "--preset", "fig2"),
        ("device", "--preset", "ingap-ring"),
        ("rate-compare", "--preset", "satellite"),
        ("fock-check",),
    )
    assert codes == [0, 0, 0, 0]
    assert loaded == []


def test_exact_verify_loads_scipy_stats():
    codes, loaded = run_fresh(("verify", "--method", "exact", "--scenarios", "1"))
    assert codes == [0]
    assert "scipy.stats" in loaded
