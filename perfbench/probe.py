"""Fresh-process probe: import the CLI, then run one cold operation.

Usage: python3 probe.py SRC_DIR OUT_PATH -- CLI_ARGV...

Prints one JSON line: the CLOCK_MONOTONIC time at which ``entswap.cli``
finished importing (the parent subtracts its spawn time to get the set-up
time every CLI invocation pays), the wall time of the first operation, and
its exit code.  Nothing but ``sys`` and ``time`` is imported before the CLI.
"""

import sys
import time


def main() -> int:
    src, out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: probe.py SRC_DIR OUT_PATH -- CLI_ARGV...")
    sys.path.insert(0, src)
    from entswap import cli

    import_done = time.monotonic()
    start = time.perf_counter()
    try:
        code = cli.main([*argv, "--out", out])
    except Exception:  # reported as a failed op by the parent's gate
        code = -1
    cold_op_s = time.perf_counter() - start

    import json

    print(json.dumps({"import_done": import_done, "cold_op_s": cold_op_s, "exit": code}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
