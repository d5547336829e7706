"""Traced stand-in for `python -m freeabcat.cli`.

Usage: python3 perfbench/cli_child.py OUT.json CLI-ARGS...

Imports the command line module, installs the tracer, runs `main` on the
remaining arguments and writes the spans, the counts and the import and
`main` times to OUT.json.  Standard output is the command's own.
"""

import json
import sys
import time

from tracer import Tracer


def run(out_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import freeabcat.cli  # noqa: F401  (timed import)
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    t1 = time.perf_counter()
    code = sys.modules["freeabcat.cli"].main(argv)
    main_s = time.perf_counter() - t1
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({**tracer.dump(), "import_s": import_s, "main_s": main_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
