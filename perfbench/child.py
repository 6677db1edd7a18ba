"""The benchmark's child processes; `taured` must be importable (PYTHONPATH=src).

    python3 perfbench/child.py setup A.alg [B.alg ...]
        Print {"setup_s": ...}: the time to import taured, then parse each
        file and build its algebra.

    python3 perfbench/child.py trace SUMMARY.json SPANS.tsv A.alg [B.alg ...] -- ARGS...
        With the layer wrappers installed, do the same set-up work and then
        run the taured command line on ARGS.  Its output goes to stdout as
        usual; the traced counts go to SUMMARY.json and every span to SPANS.tsv.
        Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def setup(paths) -> float:
    start = perf_counter()
    import taured.dsl

    for path in paths:
        taured.dsl.parse_file(path).build()
    return perf_counter() - start


def traced(summary_path, spans_path, paths, argv) -> int:
    from layertrace import Tracer, installed_wrappers

    tracer = Tracer()
    tracer.install()
    try:
        import taured.cli

        setup(paths)
        code = taured.cli.main(argv)
    finally:
        tracer.remove()
    leftover = installed_wrappers()
    if leftover:
        raise RuntimeError(f"wrappers left installed: {leftover}")
    with open(summary_path, "w", encoding="utf-8") as f:
        json.dump(tracer.summary(), f)
    tracer.write_spans(spans_path)
    return code


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        print(json.dumps({"setup_s": setup(argv[1:])}))
        return 0
    if argv[:1] == ["trace"] and "--" in argv:
        cut = argv.index("--")
        summary_path, spans_path, *paths = argv[1:cut]
        return traced(summary_path, spans_path, paths, argv[cut + 1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
