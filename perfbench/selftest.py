"""Self-test of the benchmark's own checking and tracing.

    python3 perfbench/selftest.py

1. Corrupts expected values (a golden digest and the frozen SL2 census fact)
   and makes one request raise, then runs a short request list: exactly
   those requests must be counted as failed, and every request must still
   be attempted.
2. Runs a few requests traced and checks that the tracer produces every
   per-layer metric BENCHMARK.json names.

Exits 0 when both hold.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from alcovekit import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

# per-layer metrics run.py adds from the traced and untraced passes together
RUN_LEVEL = {"trace.overhead_s", "trace.wall_s"}


def _failure_counting(golden: dict) -> list[str]:
    reqs = workloads.build("types", 0, golden)
    census = next(r for r in reqs if r.key == "census --group SL2 --p 7 --e 24")
    light = [r for r in reqs if r.family == "light"][:6]
    boom = workloads.Request("strictify", "heavy", "raises", call=lambda: 1 // 0)
    requests = [census, *light, boom]

    corrupted = dict(golden, digests=dict(golden["digests"]))
    corrupted["digests"][light[0].key] = "0" * 20
    saved = dict(checks.CENSUS_FACTS)
    checks.CENSUS_FACTS[("SL2", 7, 24)] = (14, 7)
    try:
        rows = run_pass(requests, corrupted, cli)
    finally:
        checks.CENSUS_FACTS.clear()
        checks.CENSUS_FACTS.update(saved)
    problems = []
    if len(rows) != len(requests):
        problems.append(f"{len(rows)} of {len(requests)} requests attempted")
    failed = {r["key"] for r in rows if r["problem"] is not None}
    want = {census.key, light[0].key, boom.key}
    if failed != want:
        problems.append(f"failed {sorted(failed)}, expected {sorted(want)}")
    clean = run_pass(requests[:-1], golden, cli)
    if any(r["problem"] for r in clean):
        problems.append("an uncorrupted request failed")
    return problems


def _tracer_names(golden: dict) -> list[str]:
    import tracer as tracer_mod

    t = tracer_mod.install()
    reqs = workloads.build("loops", 0, golden)[:5]
    run_pass(reqs, golden, cli, t)
    produced = tracer_mod.metrics(t)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [f"tracer does not produce {m['name']}" for m in spec["per_layer"]
            if m["name"] not in produced and m["name"] not in RUN_LEVEL]


def main() -> int:
    os.chdir(ROOT)
    os.makedirs(workloads.FIG_DIR, exist_ok=True)
    golden = workloads.load_golden()
    problems = _failure_counting(golden) + _tracer_names(golden)
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: ok" if not problems else "selftest: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
