"""Set-up time of a fresh process: import extgauss and run one program.

Usage: ``python3 probe.py SRC_DIR PROGRAM.gx``.  Prints one JSON line with
the exit code of the run and the seconds from the start of this script to
the end of the run.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, path = sys.argv[1:3]
    sys.path.insert(0, src)
    from extgauss import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", path, "--json"])
    print(json.dumps({"rc": rc, "setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
