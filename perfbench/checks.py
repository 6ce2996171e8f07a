"""Correctness of every answer: intrinsic facts for any seed, plus frozen digests.

``check(req, raw, golden)`` returns ``(digest, problem)``; ``problem`` is None
when the answer is right.  The digest is a sha256 prefix of the answer's
canonical text (the CLI's JSON stdout, or a canonical rendering of a library
result), so two commits can be compared on any seed.  Where ``golden`` has a
digest for the request's key, the digest must match it exactly.
"""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_SVG_DIR = os.path.join(ROOT, "src", "alcovekit", "golden")

# frozen from the worked Weil-restriction example (acceptance criterion 4)
LAM_DIGITS_CRIT4 = (
    ((18, 3, 7, 1), (12, 6, 12, 6), (7, 1, 18, 3), (6, 12, 6, 12), (3, 7, 1, 18), (1, 18, 3, 7)),
    ((1, 18, 3, 7), (6, 12, 6, 12), (3, 7, 1, 18), (12, 6, 12, 6), (18, 3, 7, 1), (7, 1, 18, 3)),
    ((7, 1, 18, 3), (12, 6, 12, 6), (18, 3, 7, 1), (6, 12, 6, 12), (1, 18, 3, 7), (3, 7, 1, 18)),
    ((3, 7, 1, 18), (6, 12, 6, 12), (1, 18, 3, 7), (12, 6, 12, 6), (7, 1, 18, 3), (18, 3, 7, 1)),
)
# |Adm(mu)| where it is known in closed form: 2^n - 1 for the minuscule
# (1,0,...,0) of GL_n and its dual; products multiply; for GL2 the
# Bruhat interval below the length-l translations has 2l + 1 elements
ADM_SIZES = {
    ("GL3", (1, 0, 0)): 7, ("GL3", (1, 1, 0)): 7, ("GL4", (1, 0, 0, 0)): 15,
    ("GL3xGL3", (1, 0, 0, 1, 0, 0)): 49, ("GL2xGL2", (1, 0, 1, 0)): 9,
    ("GL2", (1, 0)): 3, ("GL2", (2, 0)): 5, ("GL2", (3, 0)): 7, ("GL2", (2, 1)): 3,
}
CENSUS_FACTS = {("SL2", 7, 24): (13, 7)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# ------------------------------------------------------------ CLI answers

def _check_census(f, pay):
    classes = pay["classes"]
    if pay["total"] != len(classes):
        return "total differs from the number of classes"
    if pay["invariant"] != sum(c["invariant"] for c in classes):
        return "invariant count differs from the flagged classes"
    want = CENSUS_FACTS.get((f["group"], f["p"], f["e"]))
    if want and (pay["total"], pay["invariant"]) != want:
        return f"census gives {pay['total']}/{pay['invariant']}, expected {want}"
    return None


def _check_frobinv(f, pay):
    """An invariant verdict must carry a witness with w(p eta) - m = eta."""
    if pay["lambda"] != f["lam"]:
        return "lambda echoed wrongly"
    if not pay["invariant"]:
        return "witness on a non-invariant type" if "witness" in pay else None
    w = pay["witness"]["weyl"]
    m = pay["witness"]["translation"]
    eta = [Fraction(-c, f["e"]) for c in f["lam"]]
    shifted = [f["p"] * c for c in eta]
    img = [sum(w[i][j] * shifted[j] for j in range(len(eta))) for i in range(len(eta))]
    if [a - b for a, b in zip(img, eta)] != m:
        return "witness does not satisfy w(p eta) - m = eta"
    if not f["group"].startswith("GL") and sum(m) != 0:
        return "witness translation leaves the cocharacter lattice"
    return None


def _positive_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _check_generic(f, pay):
    eta, p, d = f["eta"], f["p"], Fraction(f["d"])
    lo, hi = d / p, 1 - d / p
    want = lo < hi
    for i, j in _positive_pairs(len(eta)):
        t = eta[i] - eta[j]
        frac = t - (t.numerator // t.denominator)
        want = want and lo < frac < hi
    if pay["generic"] != want:
        return f"generic={pay['generic']}, expected {want}"
    return None


def _check_pattern(f, pay):
    eta, e = f["eta"], f["e"]
    n = len(eta)
    for i in range(n):
        for k in range(n):
            got = Fraction(pay["lower_bounds"][i][k])
            if i == k:
                want = Fraction(0)
            else:
                base = -e * (eta[i] - eta[k])
                if f["f"] == "0+":
                    want = Fraction(base.numerator // base.denominator + 1, e)
                else:
                    shifted = base + e * Fraction(f["f"])
                    want = Fraction(-((-shifted.numerator) // shifted.denominator), e)
            if got != want:
                return f"bound ({i},{k}) is {got}, expected {want}"
    return None


def _check_hmu(f, pay):
    want, off = 0, 0
    for size in f["blocks"]:
        block = f["mu"][off:off + size]
        want = max(want, max(block) - min(block))
        off += size
    if pay["h_mu"] != want:
        return f"h_mu={pay['h_mu']}, expected {want}"
    return None


def _check_adm(f, pay):
    if pay["size"] != len(pay["elements"]):
        return "size differs from the element list"
    want = ADM_SIZES.get((f["group"], tuple(f["mu"])))
    if want is not None and pay["size"] != want:
        return f"|Adm| = {pay['size']}, expected {want}"
    if any(z["length"] != len(z["word"]) for z in pay["elements"]):
        return "a reduced word's length differs from the element's length"
    return None


def _check_figure(f, pay):
    with open(f["out"], encoding="utf-8") as fh:
        svg = fh.read()
    if pay["bytes"] != len(svg):
        return "byte count differs from the written file"
    if f["golden_svg"]:
        with open(os.path.join(GOLDEN_SVG_DIR, f["golden_svg"]), encoding="utf-8") as fh:
            if fh.read() != svg:
                return f"SVG differs from golden {f['golden_svg']}"
    return None


def _check_straighten(f, pay):
    if not pay["residual_is_identity"]:
        return "residual is not the identity"
    if pay["iterations"] != len(pay["update_depths"]):
        return "iteration count differs from the trace length"
    return None


def _check_compare(f, pay):
    if not (pay["first_inclusion"] and pay["second_inclusion"]
            and pay["frobenius_congruence"]):
        return "a v versus v+p congruence identity fails"
    return None


CLI_CHECKS = {
    "census": _check_census, "frobinv": _check_frobinv, "generic": _check_generic,
    "pattern": _check_pattern, "hmu": _check_hmu, "adm": _check_adm,
    "figure": _check_figure, "straighten": _check_straighten, "compare": _check_compare,
}


# ------------------------------------------------------------ library answers

def _weyl_key(w):
    return [list(r) for r in w.matrix]


def affine_key(z):
    return [list(z.translation), _weyl_key(z.finite)]


def _mono_key(m):
    return [m.mod, list(m.cols), list(m.exps), list(m.upows)]


def _canon_strictify(f, res):
    c, bext = res.c, res.b_extended
    for j in range(res.slots):
        # b_j = c_{j-1} c_j^{-1}, wrapping at j = 0
        if (c[j - 1] * c[j].inv()).entries() != bext[j].entries():
            return None, "coboundary chain does not reproduce b"
    if res.slots != len(f["b"]) * res.s_extension:
        return None, "slot count is not r times the extension degree"
    return [res.s_extension, res.slots, [_mono_key(m) for m in c]], None


def _canon_type_from_s_mu(f, res):
    if f["criterion4"] and res.lam_digits != LAM_DIGITS_CRIT4:
        return None, "digit table differs from the worked example"
    canon = [res.lam_digits, [_weyl_key(w) for w in res.t.ws],
             [_weyl_key(w) for w in res.c_finite], res.c_translation,
             [[str(x) for x in eta] for eta in res.x.etas]]
    return json.loads(json.dumps(canon)), None


def _canon_length(f, res, golden):
    want = golden["posets"][f["group"]]["lengths"][f["i"]]
    return res, None if res == want else f"length {res}, expected {want}"


def _canon_reduced_word(f, res, golden):
    word, om = res
    canon = [list(word), affine_key(om)]
    want = golden["posets"][f["group"]]["words"][f["i"]]
    return canon, None if canon == want else "reduced word differs from the frozen one"


def _canon_bruhat(f, res, golden):
    rel = golden["posets"][f["group"]]["bruhat"][f["i"]]
    want = rel[f["j"]] == "1"
    return bool(res), None if bool(res) == want else f"bruhat {res}, expected {want}"


def _canon_conjugation(f, res):
    good, measured = res
    if not good or measured < f["n"] - f["h"] - 2 * f["a"] + 2:
        return None, "conjugation depth bound violated"
    return [good, measured], None


def _canon_laurent(f, res):
    p, a = f["p"], f["a"]
    m = p**a
    want = {-1 - k: ((-1) ** k * p**k) % m for k in range(a)}
    want = {k: v for k, v in want.items() if v}
    if dict(res.coeffs) != want:
        return None, "Laurent inverse of v+p differs from the closed form"
    return [[list(kv) for kv in res.coeffs], res.lo, res.prec], None


LIB_CHECKS = {
    "strictify": _canon_strictify, "type_from_s_mu": _canon_type_from_s_mu,
    "conjugation_depth_bound": _canon_conjugation, "laurent_inverse": _canon_laurent,
}
POSET_CHECKS = {
    "length": _canon_length, "reduced_word": _canon_reduced_word,
    "bruhat_leq": _canon_bruhat,
}


def check(req, raw, golden: dict) -> tuple[str | None, str | None]:
    """Validate one answer; returns (digest, problem or None)."""
    try:
        if req.argv is not None:
            rc, text = raw
            doc = json.loads(text)
            if rc != 0 or doc.get("schema") != 1 or doc.get("status") != "ok":
                return digest(text), f"exit {rc}, status {doc.get('status')}"
            problem = CLI_CHECKS[req.kind](req.facts, doc["payload"])
            d = digest(text)
        else:
            if req.kind in POSET_CHECKS:
                canon, problem = POSET_CHECKS[req.kind](req.facts, raw, golden)
            else:
                canon, problem = LIB_CHECKS[req.kind](req.facts, raw)
            d = digest(json.dumps(canon, sort_keys=True))
    except Exception as exc:  # a malformed answer is a wrong answer
        return None, f"checker could not read the answer: {exc!r}"
    want = golden["digests"].get(req.key)
    if problem is None and want is not None and want != d:
        problem = f"digest {d} differs from golden {want}"
    return d, problem
