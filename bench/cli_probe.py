"""Run one osimplex CLI command and record where its time went.

Usage: python3 bench/cli_probe.py MARKS_FILE ARG...

Behaves like `python -m osimplex.cli ARG...` (same stdout, stderr and exit
code) and writes to MARKS_FILE the `time.monotonic()` readings at interpreter
start-up, after `import osimplex.cli` and after `main()`.  On Linux the
monotonic clock is system-wide, so the parent can subtract its own reading
taken before the spawn.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def _main():
    marks_file, argv = sys.argv[1], sys.argv[2:]
    import osimplex.cli

    imported = time.monotonic()
    code = osimplex.cli.main(argv)
    sys.stdout.flush()
    done = time.monotonic()
    with open(marks_file, "w", encoding="utf-8") as handle:
        json.dump({"start": START, "imported": imported, "done": done}, handle)
    return code


if __name__ == "__main__":
    sys.exit(_main())
