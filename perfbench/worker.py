"""One pass of a workload in a fresh interpreter; run.py starts it.

Imports alcovekit from the checkout's src/, builds the seeded request list,
then sends the requests one at a time (a closed loop with one client) and
times each.  The calibration chunk (calib.py) is timed right before and
right after each request, and the request's reference-host time uses the
mean of the two.  Answers are checked after both.  Prints one JSON line with
the timings, the per-request digests and, with --trace 1, the per-layer
numbers.

    python3 perfbench/worker.py --workload types --seed 0 --trace 0 \
        --t0 <monotonic> --chunk0 <seconds>
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import calib
import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_request(req, cli):
    if req.argv is None:
        return req.call()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(req.argv + ["--emit", "json"])
    return rc, buf.getvalue()


def run_pass(requests, golden, cli, tracer=None):
    """Send every request in order; returns per-request rows."""
    rows = []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        before = calib.measure()
        t = time.perf_counter()
        try:
            raw = run_request(req, cli)
            error = None
        except Exception as exc:  # a raising request is a failed request
            raw, error = None, repr(exc)
        latency = time.perf_counter() - t
        chunk_s = (before + calib.measure()) / 2
        if error is None:
            d, problem = checks.check(req, raw, golden)
        else:
            d, problem = None, f"raised {error}"
        rows.append({"key": req.key, "kind": req.kind, "family": req.family,
                     "latency_s": latency, "ref_s": calib.scale(latency, chunk_s),
                     "digest": d, "problem": problem})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--chunk0", type=float, required=True,
                    help="the calibration chunk's time just before this process was started")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import alcovekit
    from alcovekit import cli
    if not os.path.abspath(alcovekit.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"alcovekit imported from {alcovekit.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.install()
    golden = workloads.load_golden()
    requests = workloads.build(args.workload, args.seed, golden)
    os.makedirs(os.path.join(ROOT, workloads.FIG_DIR), exist_ok=True)
    setup_s = time.monotonic() - args.t0
    setup_chunk_s = (args.chunk0 + calib.measure()) / 2

    rows = run_pass(requests, golden, cli, tracer)
    # time spent answering; the checks between requests are not counted
    wall_s = sum(r["latency_s"] for r in rows)

    out = {
        "setup_s": setup_s,
        "setup_ref_s": calib.scale(setup_s, setup_chunk_s),
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
    }
    if tracer is not None:
        import tracer as tracer_mod

        out["layers"] = tracer_mod.metrics(tracer)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
