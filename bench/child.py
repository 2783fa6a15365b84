"""One ``reachsym symmetrize`` invocation in a fresh process.

    python3 bench/child.py RESULT.json TRACE -- symmetrize -i IN -o OUT ...

Times the cold ``import reachsym.cli`` (set-up) and then one call of
``reachsym.cli.main`` from input TSV to output TSV, and writes the times,
the exit code and this process's ``ru_maxrss`` to RESULT.json.  With TRACE
set to 1 the layers are wrapped first (see spans.py) and the spans and counts
are written too.  The program is taken from ``src`` through PYTHONPATH.
"""
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT.json TRACE -- ARGV...")
    # The benchmark's own modules must not shadow anything the program imports.
    sys.path.remove(HERE)

    t0 = time.perf_counter()
    import reachsym.cli
    setup = time.perf_counter() - t0

    tracer = None
    if trace == "1":
        sys.path.insert(0, HERE)
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    error = None
    t1 = time.perf_counter()
    try:
        rc = reachsym.cli.main(argv)
    except Exception as e:  # counted as a failed invocation by the caller
        rc, error = None, repr(e)
    wall = time.perf_counter() - t1

    import numpy
    import scipy
    record = {
        "rc": rc, "error": error, "setup_s": setup, "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "program": os.path.dirname(reachsym.__file__),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        record.update(spans=tracer.spans, counts=tracer.counts,
                      missing=tracer.missing)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
