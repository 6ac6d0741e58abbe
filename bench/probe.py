"""Set-up probe, run in a fresh process by run.py.

    python3 bench/probe.py SRC_DIR CALLS_JSON

Imports cutcones from SRC_DIR, makes each call in CALLS_JSON (a list of
argv lists) once through `cli.main` with stdout discarded, and prints the
seconds from before the import to the end of the last call.  Interpreter
start-up is not included.  Exits 1 if a call exits 3 or above.
"""

import time

t0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from cutcones import cli

    for argv in json.loads(sys.argv[2]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code not in (0, 1, 2):
            print(f"probe call {argv} exited {code}", file=sys.stderr)
            return 1
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
