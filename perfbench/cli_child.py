"""Traced ``alcove`` command: times the import of ``alcove.cli``, installs the
per-layer wrappers, runs ``alcove.cli.main`` on the remaining arguments and
writes the trace metrics and spans to the file named by the first argument.

    python3 perfbench/cli_child.py OUT.json wset --n 3 --p 37 --s 231 --mu 20,10,0

Stdout is the command's own output, unchanged.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import alcove.cli

    import_s = time.perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = alcove.cli.main(argv)
    finally:
        metrics = tracer.metrics()
        with open(out_path, "w") as handle:
            json.dump({"import_s": import_s, "metrics": metrics,
                       "names": tracer.names, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
