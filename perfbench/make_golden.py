"""Regenerate golden.json from the current program.

    python3 perfbench/make_golden.py

Freezes two things: the Bruhat posets of length <= 4 for GL2 and GL3 (their
elements, lengths, reduced words and the full order relation), from which
the alcoves workload draws its light requests on any seed; and the answer
digest of every request of every workload at the default seed.  Run it only
on a commit whose answers are trusted: the benchmark then holds every later
commit to them bit for bit.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from alcovekit import cli, weyl_affine  # noqa: E402
from alcovekit.rootdata import build_root_datum  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

DEFAULT_SEED = 0
POSET_GROUPS = ("GL2", "GL3")
POSET_MAX_LENGTH = 4


def posets() -> dict:
    out = {}
    for label in POSET_GROUPS:
        rd = build_root_datum(label)
        base = weyl_affine.base_alcove(rd)
        elems = weyl_affine.elements_of_length_at_most(rd, POSET_MAX_LENGTH, base)
        words = []
        for z in elems:
            word, om = weyl_affine.reduced_word(z, base)
            words.append([list(word), checks.affine_key(om)])
        out[label] = {
            "keys": [checks.affine_key(z) for z in elems],
            "lengths": [weyl_affine.length(z, base) for z in elems],
            "words": words,
            "bruhat": ["".join("1" if weyl_affine.bruhat_leq(x, y, base) else "0"
                               for y in elems) for x in elems],
        }
    return out


def main() -> int:
    os.chdir(ROOT)
    golden = {"seed": DEFAULT_SEED, "posets": posets(), "digests": {}}
    for workload in workloads.WORKLOADS:
        requests = workloads.build(workload, DEFAULT_SEED, golden)
        os.makedirs(workloads.FIG_DIR, exist_ok=True)
        for row in run_pass(requests, golden, cli):
            if row["problem"] is not None:
                print(f"{workload}: {row['key']}: {row['problem']}", file=sys.stderr)
                return 1
            prev = golden["digests"].setdefault(row["key"], row["digest"])
            if prev != row["digest"]:
                print(f"{workload}: {row['key']}: answer differs on repeat", file=sys.stderr)
                return 1
        print(f"{workload}: {len(requests)} requests frozen")
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
