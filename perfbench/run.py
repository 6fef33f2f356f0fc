"""bbquiver benchmark: run one workload of CLI queries and print its metrics.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; bbquiver is imported from its `src/`.
Closed loop, one client: the queries of the workload run one after another,
each in a fresh interpreter (perfbench/child.py), in passes over the list
until the next pass would end after `--seconds`.  Every answer is checked
(queries.py).  With `--trace 0` the last stdout line holds the end-to-end
metrics; with `--trace 1` every pass runs each query once untraced and
once traced, and the line holds the per-layer metrics (tracer.py).
A human-readable summary goes to stderr, and the run record and spans to
`.perfbench/<workload>-s<seed>-t<trace>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import queries
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().with_name("child.py")
QUERY_TIMEOUT_S = 120
# Mean seconds of child.probe() on a 2-core x86-64 machine, Python 3.11,
# when it was not slowed by its neighbours.
PROBE_REF_S = 0.004


class HarnessError(Exception):
    """The benchmark itself could not run a query."""


def run_query(argv: list, trace: bool) -> dict:
    request = json.dumps({"src": str(SRC), "argv": argv, "trace": trace})
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CHILD)], input=request, capture_output=True,
                          text=True, cwd=ROOT, timeout=QUERY_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # perf_counter is the system-wide monotonic clock, shared with the child
    result["setup_s"] = result["ready"] - spawned
    return result


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def src_lines() -> int:
    return sum(1 for p in SRC.rglob("*.py") for line in p.read_text().splitlines()
               if line.strip())


def at_reference_speed(seconds: float, gauge_s: float) -> float:
    """Seconds rescaled to a machine on which the child's probe loop takes
    PROBE_REF_S.  Shared machines change speed by up to 2x for minutes at a
    time; the probe slows by the same factor, so the ratio stays put."""
    return seconds * PROBE_REF_S / gauge_s


def median_pass(times: dict) -> float:
    """Sum over queries of each query's median seconds."""
    return sum(statistics.median(t) for t in times.values())


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    mats = [queries.materialize(q, seed, k, out)
            for k, q in enumerate(queries.WORKLOADS[workload])]
    times: dict = defaultdict(list)      # at reference speed, untraced
    traced_times: dict = defaultdict(list)
    raw_times: dict = defaultdict(list)
    gauges: list = []
    setups: list = []
    pass_rss: list = []
    summaries: list = []
    spans_out: list = []
    outcomes = [{"label": m.query.label, "argv": m.argv, "exit_codes": [], "digests": [],
                 "failures": []} for m in mats]
    numpy_version = None
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        rss = 0
        for k, mat in enumerate(mats):
            for traced in (False, True) if trace else (False,):
                res = run_query(mat.argv, traced)
                ok, digest, reason = queries.judge(mat, res["exit"], res["stdout"])
                attempted += 1
                failed += not ok
                rec = outcomes[k]
                rec["exit_codes"].append(res["exit"])
                rec["digests"].append(digest)
                if not ok:
                    rec["failures"].append(reason)
                numpy_version = res["numpy"]
                query_s = at_reference_speed(res["query_s"], res["gauge_s"])
                if traced:
                    summary = tracer.query_summary(res["spans"])
                    layer_sum = sum(tracer.layer_self(summary).values())
                    if abs(layer_sum - summary["query_s"]) > 1e-6 * max(1.0, summary["query_s"]):
                        raise HarnessError(f"layer self times of {mat.query.label} do not add up")
                    summaries.append(summary)
                    spans_out.append({"query": k, "pass": passes, "spans": res["spans"]})
                    traced_times[k].append(query_s)
                else:
                    times[k].append(query_s)
                    raw_times[k].append(res["query_s"])
                    gauges.append(res["gauge_s"])
                    setups.append(at_reference_speed(res["setup_s"], res["setup_gauge_s"]))
                    rss = max(rss, res["rss_kb"])
        passes += 1
        pass_rss.append(rss)
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            break

    pass_s = median_pass(times)
    if trace:
        overhead = median_pass(traced_times) / pass_s - 1.0
        metrics = tracer.layer_metrics(summaries, passes, overhead)
        units = {name: tracer.unit_of(name) for name in metrics}
        with open(out / "spans.jsonl", "w") as fh:
            fh.write(json.dumps({"names": tracer.NAMES}) + "\n")
            for row in spans_out:
                fh.write(json.dumps(row) + "\n")
    else:
        metrics = {"pass_s": pass_s,
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(pass_rss) / 1024.0}
        units = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": passes, "attempted": attempted, "failed": failed,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy_version},
        "commit": git_commit(), "src_nonblank_lines": src_lines(),
        "metrics": metrics, "probe_ref_s": PROBE_REF_S,
        "gauge_s_median": statistics.median(gauges), "raw_pass_s": median_pass(raw_times),
        "query_wall_seconds": {mats[k].query.label: t for k, t in raw_times.items()},
        "queries": outcomes,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            "record": record}


def report(result: dict) -> None:
    rec = result["record"]
    print(f"workload {rec['workload']} seed {rec['seed']}: {rec['passes']} passes, "
          f"nproc {rec['machine']['nproc']}, src lines {rec['src_nonblank_lines']}",
          file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  fail_frac = {result['failed']}/{result['attempted']}", file=sys.stderr)
    for q in rec["queries"]:
        for reason in sorted(set(q["failures"])):
            print(f"  FAILED {q['label']}: {reason[:300]}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(queries.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bbquiver" / "cli.py").is_file():
        print(f"no bbquiver source tree at {SRC}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), out)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
