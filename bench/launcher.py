"""Traced stand-in for ``python -m splitrad.cli`` (traced cli_mix runs only).

    python -X importtime bench/launcher.py --trace-out FILE -- <splitrad argv>

It times ``import splitrad.cli``, installs the tracer, times
``cli.main(argv)``, writes both with the tracer's counts to FILE as JSON and
exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    t0 = time.perf_counter()
    import splitrad.cli as cli
    t1 = time.perf_counter()
    sys.path.insert(0, HERE)
    from tracer import Tracer

    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        sys.stderr.write("usage: launcher.py --trace-out FILE -- ARGV...\n")
        return 1
    out, argv = argv[1], argv[3:]
    tracer = Tracer().install()
    t2 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        t3 = time.perf_counter()
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"command": argv[0], "import_s": t1 - t0, "main_s": t3 - t2,
                       "trace": tracer.to_json()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
