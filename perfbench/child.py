"""Run one bbquiver CLI query in a fresh interpreter and report on it.

Reads a JSON request {"src", "argv", "trace"} on stdin.  Imports bbquiver
from `src` (the checkout's source tree, never an installed copy), times the
import and one call of `bbquiver.cli.main(argv)` with the CLI's stdout
captured, and writes one JSON line to stdout: the exit code, the captured
output, the clock reading when the import finished, the query seconds, the
speed gauges (mean seconds of a fixed loop run just before and just after
the query, and of the runs just after the import alone), the peak RSS and, when tracing, the query's spans.
"""

import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

PROBES = 5  # speed probes before and after the query


def probe() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of the machine's speed."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(20000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def main() -> int:
    req = json.loads(sys.stdin.read())
    src = Path(req["src"]).resolve()
    sys.path.insert(0, str(src))
    import bbquiver.cli as cli

    ready = time.perf_counter()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"bbquiver was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probes = [probe() for _ in range(PROBES)]
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        try:
            code = tracer.run(cli.main, req["argv"]) if tracer else cli.main(req["argv"])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is a failed query, as for a user
            traceback.print_exc()
            code = 1
    query_s = time.perf_counter() - start
    probes += [probe() for _ in range(PROBES)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"exit": code, "stdout": buf.getvalue(), "ready": ready, "query_s": query_s,
           "gauge_s": statistics.fmean(probes),
           "setup_gauge_s": statistics.fmean(probes[:PROBES]), "rss_kb": rss_kb,
           "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
           "spans": tracer.spans if tracer else None}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
