"""alcovekit benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload types --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # types, alcoves, loops in turn

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (perfbench/worker.py), so the program's module caches start cold
as they do for a CLI user.  Passes repeat while another still ends within
--seconds.  The interpreter is plain python3 (never -O, so the program's
asserts stay in what is measured), with ALCOVEKIT_PRECISION unset and
PYTHONHASHSEED=0 so that call counts repeat exactly.

--trace 0 reports the end-to-end metrics, as times on a reference host.
Other tenants of a shared host slow the CPU by up to a factor of two, in
phases from under a second to minutes, so raw times of one program spread
too far between runs.  Each request's time is therefore scaled by the
host's speed at that moment, measured with a fixed stdlib-only calibration
chunk timed right before and right after it (perfbench/calib.py).  Every
pass sends the same request list, and each request's latency is the median
of its scaled times over the passes.  latency_p50_ms and latency_p90_ms are
percentiles of those latencies over the list, and wall_s is their sum, the
time to answer the whole list.  setup_s (interpreter start, alcovekit
import, request generation), scaled by the chunk timed just before the
process starts and just after set-up, and peak_rss_mb are medians over the
passes.  The record keeps the raw pass times too.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead: the median traced
pass time minus the median untraced one.

Every answer is checked.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; a fuller record, with run
metadata and every request's digest, goes to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SCHEMA = 1
WORKLOADS = ("types", "alcoves", "loops")
# a run must end within 180 s; a pass still running at this point is killed
HARD_LIMIT_S = 170.0


def _die(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _git_sha() -> str:
    """The checkout's commit from .git, without running git; 'unknown' if none."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("ALCOVEKIT_PRECISION", "PYTHONOPTIMIZE", "PYTHONPATH"):
        env.pop(var, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, trace: int, timeout: float, spans: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    chunk0 = calib.measure()
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0), "--chunk0", repr(chunk0)], cwd=ROOT,
                          env=_worker_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _run_passes(args) -> tuple[list[dict], list[dict]]:
    """Untraced (and, with --trace 1, traced) passes within --seconds.

    A round is one pass, or one untraced and one traced pass.  The first
    round always runs; another starts only if a round as long as the
    longest so far still ends within --seconds.
    """
    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
    while True:
        t = time.monotonic()
        for trace in ((0, 1) if args.trace else (0,)):
            timeout = HARD_LIMIT_S - (time.monotonic() - start)
            res = _run_worker(args, trace, timeout, spans if trace else None)
            (traced if trace else plain).append(res)
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - start + longest > min(args.seconds, HARD_LIMIT_S):
            return plain, traced


def _request_mix(rows: list[dict]) -> dict:
    mix: dict = {}
    for r in rows:
        fam = mix.setdefault(r["family"], {})
        fam[r["kind"]] = fam.get(r["kind"], 0) + 1
    return mix


def _repeat_shares(rows: list[dict]) -> dict:
    """Share of requests whose inputs already appeared earlier in the pass."""
    seen, upper_seen = set(), set()
    repeats = bruhat = upper_repeats = 0
    for r in rows:
        repeats += r["key"] in seen
        seen.add(r["key"])
        if r["kind"] == "bruhat_leq":
            group, _, upper = r["key"].split()[1:4]
            bruhat += 1
            upper_repeats += (group, upper) in upper_seen
            upper_seen.add((group, upper))
    out = {"repeated_inputs": repeats / len(rows)}
    if bruhat:
        out["bruhat_repeated_upper"] = upper_repeats / bruhat
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
        return max(main(["--workload", w, *common]) for w in WORKLOADS)

    if not os.path.isfile(os.path.join(ROOT, "src", "alcovekit", "cli.py")):
        return _die(f"no alcovekit sources under {ROOT}/src; run from a checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _die(f"cannot read BENCHMARK.json: {exc}")
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        plain, traced = _run_passes(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _die(str(exc))

    passes = plain + traced
    rows = [r for p in passes for r in p["rows"]]
    bad = [r for r in rows if r["problem"] is not None]
    # the same seed must give the same answers in every pass
    first = [r["digest"] for r in plain[0]["rows"]]
    stable = all([r["digest"] for r in p["rows"]] == first for p in passes)
    run_digest = hashlib.sha256("\n".join(
        f"{r['key']}\t{r['digest']}" for r in plain[0]["rows"]).encode()).hexdigest()

    # Every pass sends the same requests.  A request's latency is the median
    # of its reference-host times over the passes.
    n_req = len(plain[0]["rows"])
    latency = [statistics.median(p["rows"][i]["ref_s"] for p in plain) for i in range(n_req)]
    lat_ms = [x * 1000.0 for x in latency]
    e2e = {
        "setup_s": statistics.median(p["setup_ref_s"] for p in plain),
        "wall_s": sum(latency),
        "latency_p50_ms": _percentile(lat_ms, 50),
        "latency_p90_ms": _percentile(lat_ms, 90),
        "fail_ratio": len(bad) / len(rows),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    units = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "fail_ratio": "1", "peak_rss_mb": "MB"}
    layers: dict = {}
    if traced:
        counts_repeat = True
        for name in traced[0]["layers"]:
            vals = [t["layers"][name] for t in traced]
            if isinstance(vals[0], int):
                counts_repeat &= len(set(vals)) == 1
                layers[name] = vals[0]
            else:
                layers[name] = statistics.median(vals)
        layers["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        layers["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)

    heavy = sum(r["family"] == "heavy" for r in plain[0]["rows"])
    meta = {
        "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "git_sha": _git_sha(),
        "passes": len(plain), "traced_passes": len(traced),
        "requests_per_pass": len(plain[0]["rows"]),
        "requests": {"light": len(plain[0]["rows"]) - heavy, "heavy": heavy},
        "request_mix": _request_mix(plain[0]["rows"]),
        "latency_samples": len(lat_ms),
        "latency_statistic": "median over the passes of the reference-host time",
        "calib_ref_s": calib.REF_S,
        "digest": run_digest, "answers_repeat": stable,
        **_repeat_shares(plain[0]["rows"]),
    }
    if traced:
        meta["counts_repeat"] = counts_repeat
    record = {"meta": meta, "end_to_end": e2e, "units": units, "per_layer": layers,
              "pass_wall_s": [p["wall_s"] for p in plain],
              "pass_setup_s": [p["setup_s"] for p in plain],
              "failures": bad[:50],
              "digests": {r["key"]: r["digest"] for r in plain[0]["rows"]}}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed}: {meta['passes']} passes x "
          f"{meta['requests_per_pass']} requests ({heavy} heavy), "
          f"repeated inputs {meta['repeated_inputs']:.1%}"
          + (f" (Bruhat uppers {meta['bruhat_repeated_upper']:.1%})"
             if "bruhat_repeated_upper" in meta else "")
          + f", python {meta['python']}, "
          f"nproc {meta['nproc']}, git {meta['git_sha'][:12]}")
    for name, value in e2e.items():
        extra = (f" ({len(lat_ms)} requests, each the median of {len(plain)} passes)"
                 if name.startswith("latency") else "")
        print(f"  {name:16s} {value:.6g} {units[name]}{extra}")
    print(f"  raw times: median pass {statistics.median(record['pass_wall_s']):.4g} s, "
          f"setup {statistics.median(record['pass_setup_s']):.4g} s")
    if traced:
        print(f"  tracing overhead {layers['trace.overhead_s']:.4f} s "
              f"({meta['traced_passes']} traced passes), counts repeat: {counts_repeat}")
    print(f"  answers digest {run_digest}")
    for r in bad[:10]:
        print(f"  FAILED {r['key']}: {r['problem']}")
    print(f"  record: {os.path.relpath(path, ROOT)}")

    if args.trace:
        # a function a later change removed reads 0 and is named here
        absent = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if absent:
            print(f"  absent from this program (reported as 0): {', '.join(absent)}")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not bad and stable,
                      "attempted": len(rows), "failed": len(bad), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
