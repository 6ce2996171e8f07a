import random

import pytest

from alcovekit.galois import (
    GaloisType,
    RefusedError,
    census,
    check_cocycle_relations,
    cocycle_values,
    frobenius_invariant,
    is_strictly_invariant,
    shapiro,
    shapiro_inverse,
    strictify,
    twist_by_chain,
    type_from_s_mu,
)
from alcovekit.monomial import MonomialMatrix
from alcovekit.rootdata import (
    CapExceeded,
    GammaData,
    WeylElement,
    build_root_datum,
    split_gamma,
    weyl_group,
)


def ident(n):
    return WeylElement.identity(n)


SL2 = build_root_datum("SL2")
G24 = split_gamma(SL2, 7, 24)


def test_cocycle_values_sl2():
    t = GaloisType.from_lambda(SL2, G24, (-3, 3))
    vals = cocycle_values(t)
    assert all(m.is_identity() for m in vals.tau_sigma)
    assert vals.tau_gamma_exps == ((21, 3), (21, 3))  # (-3, 3) mod 24
    t0 = GaloisType.from_lambda(SL2, G24, (0, 0))
    vals0 = cocycle_values(t0)
    assert vals0.tau_gamma_exps == ((0, 0), (0, 0))
    assert all(m.is_identity() for m in vals0.tau_sigma)


def test_frobenius_invariant_sl2():
    flag, witness = frobenius_invariant(GaloisType.from_lambda(SL2, G24, (-3, 3)))
    assert flag and witness[0].matrix == ((0, 1), (1, 0))  # the (p+1) route
    flag, witness = frobenius_invariant(GaloisType.from_lambda(SL2, G24, (2, -2)))
    assert not flag and witness is None
    flag, witness = frobenius_invariant(GaloisType.from_lambda(SL2, G24, (0, 0)))
    assert flag and witness[0].is_identity() and witness[1] == (0, 0)


def test_frobenius_invariant_congruences():
    # invariance is exactly (p-1)n = 0 or (p+1)n = 0 mod e in rank one
    for n in range(-12, 13):
        flag, _ = frobenius_invariant(GaloisType.from_lambda(SL2, G24, (n, -n)))
        assert flag == ((6 * n) % 24 == 0 or (8 * n) % 24 == 0)


def test_refused_for_ramified():
    gl3 = build_root_datum("GL3")
    twist = WeylElement(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))
    g = GammaData(p=13, e=6, r=1, psi=ident(3), inertial=twist)
    t = GaloisType.from_lambda(gl3, g, (1, 0, -1))
    with pytest.raises(RefusedError):
        frobenius_invariant(t)
    with pytest.raises(RefusedError):
        census(gl3, g)


def test_census_sl2():
    res = census(SL2, G24)
    assert res.total == 13 and res.invariant_count == 7
    invariant_classes = {c.coords[0] for c in res.classes if c.invariant}
    assert invariant_classes == {0, 3, 4, 6, 8, 9, 12}


def test_census_gl1():
    import math

    gl1 = build_root_datum("GL1")
    for (p, e) in ((7, 12), (5, 8), (3, 10)):
        res = census(gl1, split_gamma(gl1, p, e))
        assert res.total == e
        assert res.invariant_count == math.gcd(p - 1, e)


def test_census_trivial_group():
    rd = build_root_datum("trivial")
    g = split_gamma(rd, 7, 3)
    res = census(rd, g)
    assert res.total == 1 and res.invariant_count == 1


def test_census_bounded_by_tate():
    from alcovekit.rootdata import tate_h0

    for label, p, e in (("SL2", 7, 24), ("GL2", 5, 8), ("GL3", 3, 13)):
        rd = build_root_datum(label)
        g = split_gamma(rd, p, e)
        res = census(rd, g)
        order = 1
        for f in tate_h0(rd, g):
            order *= f
        assert res.total <= order


def test_census_caps():
    gl3 = build_root_datum("GL3")
    with pytest.raises(CapExceeded):
        census(gl3, split_gamma(gl3, 101, 100), cap=10**4)


def test_invariance_constant_on_classes():
    # replacing lambda by w(lambda) + e m does not change the verdict
    rng = random.Random(5)
    res = census(SL2, G24)
    W = weyl_group(SL2)
    for cls in res.classes:
        for _ in range(3):
            w = rng.choice(W)
            m = rng.randrange(-2, 3)
            lam2 = tuple(c + 24 * m * b for c, b in zip(w.apply(cls.lam), (1, -1)))
            flag, _ = frobenius_invariant(GaloisType.from_lambda(SL2, G24, lam2))
            assert flag == cls.invariant


def test_strictify_sl2_worked_case():
    beta = MonomialMatrix.from_signed_matrix(((0, 1), (-1, 0)), 48)
    chain = strictify([beta, beta], 7)
    assert chain.s_extension == 2 and chain.slots == 4
    expect = [((1, 0), (0, 1)),      # identity
              ((0, -1), (1, 0)),
              ((-1, 0), (0, -1)),
              ((0, 1), (-1, 0))]

    def signed(m):
        rows = []
        for i in range(m.n):
            row = [0] * m.n
            row[m.cols[i]] = 1 if m.exps[i] == 0 else -1
            rows.append(tuple(row))
        return tuple(rows)

    assert [signed(c) for c in chain.c] == expect


def test_strictify_identity_and_order3():
    mod = 48
    one = MonomialMatrix.identity(2, mod)
    chain = strictify([one, one], 7)
    assert chain.s_extension == 1 and all(c.is_identity() for c in chain.c)
    p12 = MonomialMatrix.from_signed_matrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)), mod)
    p23 = MonomialMatrix.from_signed_matrix(((1, 0, 0), (0, 0, 1), (0, 1, 0)), mod)
    chain3 = strictify([p12, p23], 7)
    assert chain3.s_extension == 3 and chain3.slots == 6
    # wrap: c_0 = b_0^{-1} c_last
    last = chain3.c[-1]
    assert (p12.inv() * last).is_identity()


def test_strictified_cocycle_is_strict():
    # the worked SL2 flow: after degree-2 extension the twisted cocycle is
    # strictly Frobenius invariant on both generators
    mod = 7**4 - 1
    beta = MonomialMatrix.from_signed_matrix(((0, 1), (-1, 0)), mod)
    chain = strictify([beta] * 4, 7)
    assert chain.s_extension == 1 and chain.slots == 4
    tau_sigma = tuple(MonomialMatrix.identity(2, mod) for _ in range(4))
    # global exponents of tau'(gamma): iota_j(omega)^{(-3,3)}
    unit = mod // 24
    tau_gamma = []
    for j in range(4):
        t = (unit * pow(7, (4 - j) % 4, 24)) % mod
        tau_gamma.append(((-3 * t) % mod, (3 * t) % mod))
    assert not is_strictly_invariant(tau_sigma, tau_gamma)
    new_sigma, new_gamma = twist_by_chain(tau_sigma, tau_gamma, chain)
    assert is_strictly_invariant(new_sigma, new_gamma)


def test_shapiro():
    rd = build_root_datum("GL2")
    g = split_gamma(rd, 5, 8)  # r = 2
    mod = g.q - 1
    ones = [MonomialMatrix.identity(2, mod)] * g.r
    assert all(m.is_identity() for m in shapiro(g, ones))
    A = MonomialMatrix.from_signed_matrix(((0, 1), (1, 0)), mod)
    B = MonomialMatrix.from_signed_matrix(((0, -1), (1, 0)), mod)
    out = shapiro(g, [A, B])
    assert out[0].entries() == A.entries()
    # psi is trivial for GL2 and the entries are signs, so g_1 = B
    assert out[1].entries() == B.entries()
    back = shapiro_inverse(g, out)
    assert [m.entries() for m in back] == [A.entries(), B.entries()]


def test_shapiro_roundtrip_random():
    rng = random.Random(17)
    rd = build_root_datum("GL3")
    g = split_gamma(rd, 7, 4)  # r = 2
    assert g.r == 2
    mod = g.q - 1
    for _ in range(50):
        vals = []
        for _ in range(g.r):
            perm = list(range(3))
            rng.shuffle(perm)
            exps = [rng.randrange(mod) for _ in range(3)]
            vals.append(MonomialMatrix(3, mod, tuple(perm), tuple(exps), (0, 0, 0)))
        out = shapiro(g, vals)
        back = shapiro_inverse(g, out)
        assert [m.entries() for m in back] == [m.entries() for m in vals]


def _gl3x2(p):
    rd = build_root_datum("GL3xGL3")
    psi = WeylElement(tuple(tuple(1 if j == (i + 3) % 6 else 0 for j in range(6))
                            for i in range(6)))
    g = GammaData(p=p, e=p**4 - 1, r=4, psi=psi, inertial=ident(6))
    return rd, g, psi


def test_type_from_s_mu_trivial_s():
    # s = 1, mu = 0: lambda_j = (1 + p + ... + p^{r-1}) eta, w_j = 1
    rd = build_root_datum("GL2xGL2")
    psi = WeylElement(tuple(tuple(1 if j == (i + 2) % 4 else 0 for j in range(4))
                            for i in range(4)))
    p = 3
    g = GammaData(p=p, e=p**2 - 1, r=2, psi=psi, inertial=ident(4))
    s = ident(4)
    tc = type_from_s_mu(rd, s, (0, 0, 0, 0), g)
    scale = 1 + p
    assert tc.t.lams[0] == (scale, 0, scale, 0)
    assert all(w.is_identity() for w in tc.t.ws)


def test_type_from_s_mu_range_check():
    rd, g, _ = _gl3x2(19)
    s = ident(6)
    with pytest.raises(ValueError):
        type_from_s_mu(rd, s, (19, 0, 0, 0, 0, 0), g)  # mu+eta exceeds p-1


def test_type_from_s_mu_weil_restriction():
    rd, g, _ = _gl3x2(19)
    s = WeylElement((
        (0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)))
    tc = type_from_s_mu(rd, s, (16, 11, 7, 4, 2, 1), g)
    # first rows of the digit table (coefficients of 1, p, p^2, p^3)
    assert tc.lam_digits[0][0] == (18, 3, 7, 1)
    assert tc.lam_digits[0][3] == (6, 12, 6, 12)
    # x = o - (1/e) w^{-1} lambda, printed leading component
    e = 19**4 - 1
    w0inv_lam0 = tuple(-c * e for c in tc.x.etas[0])
    assert w0inv_lam0[0] == 12 + 6 * 19 + 12 * 19**2 + 6 * 19**3
    # the slot-2 values repeat slot 0 (psi has order 2)
    assert tc.x.etas[2] == tc.x.etas[0]
    assert tc.x.etas[3] == tc.x.etas[1]
    # strict Frobenius invariance of the represented cocycle: phi tau = tau
    vals = cocycle_values(tc.t)
    for j in range(4):
        prev = vals.tau_gamma_exps[(j - 1) % 4]
        cur = vals.tau_gamma_exps[j]
        assert tuple((19 * x) % g.e for x in prev) == tuple(x % g.e for x in cur)


def test_cocycle_relations_on_census():
    for label, p, e in (("SL2", 7, 24), ("GL2", 5, 8)):
        rd = build_root_datum(label)
        g = split_gamma(rd, p, e)
        for cls in census(rd, g).classes:
            t = GaloisType.from_lambda(rd, g, cls.lam)
            assert all(check_cocycle_relations(t).values())


def test_linearize_sigma():
    from alcovekit.galois import linearize_sigma

    mod = 48
    tau = MonomialMatrix.from_signed_matrix(((0, 1), (1, 0)), mod)
    b = MonomialMatrix.from_signed_matrix(((0, 1), (-1, 0)), mod)
    out = linearize_sigma(tau, b)
    assert (out * b).entries() == tau.entries()
    # with a factor permutation twist
    out2 = linearize_sigma(tau, b, psi_perm=[1, 0])
    twisted = b.conjugate_by_permutation([1, 0])
    assert (out2 * twisted).entries() == tau.entries()


def test_signed_psi_is_refused_as_a_permutation():
    gl3 = build_root_datum("GL3")
    twist = WeylElement(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))
    g = GammaData(p=5, e=24, r=2, psi=twist, inertial=ident(3))
    with pytest.raises(RefusedError):
        shapiro(g, [MonomialMatrix.identity(3, 24)] * 2)
    with pytest.raises(ValueError):
        type_from_s_mu(gl3, ident(3), (0, 0, 0), g)


def test_monomial_checks_survive_optimized_mode():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import alcovekit

    code = (
        "from alcovekit.monomial import MonomialMatrix\n"
        "try:\n"
        "    MonomialMatrix(2, 4, (0, 0), (0, 0), (0, 0))\n"
        "except ValueError:\n"
        "    raise SystemExit(0 if not __debug__ else 3)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(alcovekit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
