"""Galois types: cocycles, Frobenius invariance, censuses, strictification.

A type is stored as per-embedding data (lambda_j, w_j); the represented
1-cocycle is tau(theta) = n^{-1}(^theta n) for n_j = w_j^{-1} u^{lambda_j}.
Monomial matrices carry global omega-exponents: the reference generator is a
primitive (q-1)-th root Omega, the e-th root of unity seen by slot j is
iota_j(omega) = Omega^{((q-1)/e) p^{r-j}}, and -1 = Omega^{(q-1)/2}.

Frobenius acts on slot-indexed constant families by (phi g)_j = g_{j-1}; the
sigma-twist additionally applies the pinned automorphism psi.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .apartment import ApartmentPoint, frobenius, point_from_type
from .ff import GF
from .monomial import MonomialMatrix
from .rootdata import (
    CapExceeded,
    GammaData,
    RefusedError,
    RootDatum,
    WeylElement,
    weyl_group,
)


@dataclass(frozen=True)
class GaloisType:
    rd: RootDatum
    gamma: GammaData
    lams: tuple[tuple[int, ...], ...]  # lambda_j, ambient coordinates
    ws: tuple[WeylElement, ...]

    @staticmethod
    def from_lambda(rd: RootDatum, g: GammaData, lam: Sequence[int]) -> "GaloisType":
        """Pure-translation type: lambda_j = psi^j(lam), w_j = 1."""
        lam = tuple(lam)
        if g.inertial.apply(lam) != lam:
            raise ValueError("lambda must be fixed by the inertial action")
        lams = tuple(tuple(g.psi_power(j).apply(lam)) for j in range(g.r))
        ws = (WeylElement.identity(rd.dim),) * g.r
        return GaloisType(rd, g, lams, ws)

    def point(self) -> ApartmentPoint:
        return point_from_type(self.rd, self.gamma, self.lams, self.ws)


@dataclass(frozen=True)
class CocycleValues:
    """tau on the two generators, slotwise.

    tau_gamma_exps[j] is the diagonal exponent vector of tau(gamma) in slot j
    written in powers of iota_j(omega), i.e. lambda_j mod e.  tau_sigma[j] is
    a constant monomial matrix (global exponents).
    """

    tau_gamma_exps: tuple[tuple[int, ...], ...]
    tau_sigma: tuple[MonomialMatrix, ...]


def _n_family(t: GaloisType) -> list[MonomialMatrix]:
    g = t.gamma
    mod = g.q - 1
    out = []
    for lam, w in zip(t.lams, t.ws):
        wl = MonomialMatrix.from_weyl(w, mod)
        out.append(wl.inv() * MonomialMatrix.diag_upow(lam, mod))
    return out


def _sigma_of(g: GammaData, fam: Sequence[MonomialMatrix], j: int) -> MonomialMatrix:
    """(^sigma fam)_j = psi(fam_{j-1})."""
    return fam[(j - 1) % g.r].conjugate_by_permutation(g.psi.perm())


def _iota_exp(g: GammaData, j: int) -> int:
    """Global exponent of iota_j(omega) in the (q-1) group."""
    q = g.q
    return ((q - 1) // g.e) * pow(g.p, (g.r - j) % g.r if g.r > 1 else 0, g.e)


def cocycle_values(t: GaloisType) -> CocycleValues:
    """tau(gamma) and tau(sigma) as monomial data; errors if no u-free value exists."""
    g = t.gamma
    fam = _n_family(t)
    sig = []
    for j in range(g.r):
        v = fam[j].inv() * _sigma_of(g, fam, j)
        if not v.is_constant():
            raise ValueError("type data inconsistent: tau(sigma) keeps a u-power")
        sig.append(v)
    gam = tuple(tuple(c % g.e for c in lam) for lam in t.lams)
    return CocycleValues(gam, tuple(sig))


def check_cocycle_relations(t: GaloisType) -> dict[str, bool]:
    """Matrix-level checks of the presentation relations on tau.

    gamma_order:  tau(gamma)^e = 1
    sigma_braid:  tau(sigma) (^sigma tau(gamma)) tau(sigma)^{-1} = tau(gamma)^p
    sigma_wrap:   tau(sigma^r) = 1
    """
    g = t.gamma
    vals = cocycle_values(t)
    e, p, r = g.e, g.p, g.r
    gamma_order = all(all((x * e) % e == 0 for x in lam) for lam in vals.tau_gamma_exps)

    perm = g.psi.perm()
    braid = True
    for j in range(r):
        # (^sigma tau(gamma))_j = psi(tau(gamma)_{j-1}); moving the value from
        # slot j-1 to slot j multiplies iota-exponents by p
        lhs_diag = [(p * x) % e for x in g.psi.apply(vals.tau_gamma_exps[(j - 1) % r])]
        # conjugating a diagonal by the monomial tau(sigma): entry i picks cols[i]
        m = vals.tau_sigma[j]
        conj = [lhs_diag[m.cols[i]] % e for i in range(m.n)]
        rhs = [(p * x) % e for x in vals.tau_gamma_exps[j]]
        if conj != rhs:
            braid = False
    wrap = True
    for j in range(r):
        acc = MonomialMatrix.identity(vals.tau_sigma[0].n, vals.tau_sigma[0].mod)
        # tau(sigma^r)_j = prod_{i=0}^{r-1} (^{sigma^i} tau(sigma))_j
        for i in range(r):
            shifted = vals.tau_sigma[(j - i) % r]
            for _ in range(i):
                shifted = shifted.conjugate_by_permutation(perm)
            acc = acc * shifted
        if not acc.is_identity():
            wrap = False
    return {"gamma_order": gamma_order, "sigma_braid": braid, "sigma_wrap": wrap}


def frobenius_invariant(t: GaloisType):
    """Decide c . phi(x) = x for a Gamma-fixed rational c, with witness.

    Returns (flag, witness) where witness = (w_star, m): the slot-0 condition
    w_star(p psi^{-1}(eta)) - m = eta with m in the v-translation lattice.
    Ramified inertial actions are refused: there is no finite orbit test
    for them here.
    """
    g = t.gamma
    if not g.split():
        raise RefusedError("ramified inertial action: no finite decision procedure")
    x = t.point()
    if not x.is_gamma_fixed():
        raise ValueError("type's point must be Gamma-fixed")
    eta = x.eta(0)
    p = g.p
    psi_inv = g.psi_power(g.r - 1)
    shifted = tuple(p * c for c in psi_inv.apply(eta))
    for w in weyl_group(t.rd):
        cand = w.apply(shifted)
        diff = tuple(a - b for a, b in zip(cand, eta))
        if all(d.denominator == 1 for d in diff) and t.rd.in_cochar_lattice(diff):
            return True, (w, tuple(int(d) for d in diff))
    return False, None


@dataclass(frozen=True)
class CensusClass:
    lam: tuple[int, ...]          # ambient representative
    coords: tuple[int, ...]       # canonical basis coordinates mod e
    invariant: bool
    witness: tuple[WeylElement, tuple[int, ...]] | None


@dataclass(frozen=True)
class CensusResult:
    total: int
    invariant_count: int
    classes: tuple[CensusClass, ...]


def census(rd: RootDatum, g: GammaData, cap: int = 10**6) -> CensusResult:
    """All type classes at fixed (p, e): lambda in X_* / (W-action + e X_*).

    Classes are canonicalized as the lexicographically least W-image of the
    basis coordinates mod e; each class is tested for Frobenius invariance.
    """
    if not g.split():
        raise RefusedError("census requires a split inertial action")
    if rd.rank > 3 or g.e > 10**4:
        raise CapExceeded("census limited to rank <= 3 and e <= 10^4")
    if rd.rank == 0:
        t = GaloisType.from_lambda(rd, g, ())
        flag, witness = frobenius_invariant(t)
        return CensusResult(1, int(flag), (CensusClass((), (), flag, witness),))
    e = g.e
    if e**rd.rank > cap:
        raise CapExceeded("census enumeration domain exceeds cap")
    W = weyl_group(rd)
    basis_actions = []
    for w in W:
        cols = [rd.basis_coords(w.apply(b)) for b in rd.cochar_basis]
        basis_actions.append(cols)  # column j = image of basis vector j
    import itertools

    seen: dict[tuple[int, ...], None] = {}
    reps: list[tuple[int, ...]] = []
    for coords in itertools.product(range(e), repeat=rd.rank):
        best = None
        for cols in basis_actions:
            img = tuple(
                sum(cols[j][i] * coords[j] for j in range(rd.rank)) % e
                for i in range(rd.rank)
            )
            if best is None or img < best:
                best = img
        if best not in seen:
            seen[best] = None
            reps.append(best)
    classes = []
    inv_count = 0
    for coords in sorted(reps):
        lam_frac = rd.from_basis_coords(coords)
        t = GaloisType.from_lambda(rd, g, tuple(lam_frac))
        flag, witness = frobenius_invariant(t)
        inv_count += flag
        classes.append(CensusClass(tuple(lam_frac), coords, flag, witness))
    return CensusResult(len(reps), inv_count, tuple(classes))


@dataclass(frozen=True)
class CoboundaryChain:
    s_extension: int
    slots: int
    c: tuple[MonomialMatrix, ...]
    b_extended: tuple[MonomialMatrix, ...]


def strictify(b: Sequence[MonomialMatrix], p: int, gf_check_cap: int = 10**6) -> CoboundaryChain:
    """Solve b = phi(c) c^{-1} by the chain c_j = b_j^{-1} c_{j-1}, c_0 = 1.

    The chain closes up after replicating b over an unramified extension of
    degree s = order(b_0 b_1 ... b_{r-1}).  The identity is verified on every
    slot, and re-verified with honest finite-field arithmetic when the
    extension field is small enough.
    """
    r = len(b)
    prod = b[0]
    for m in b[1:]:
        prod = prod * m
    s = prod.order()
    slots = r * s
    mod = b[0].mod
    c: list[MonomialMatrix] = [MonomialMatrix.identity(b[0].n, mod)]
    for j in range(1, slots):
        c.append(b[j % r].inv() * c[j - 1])
    bext = tuple(b[j % r] for j in range(slots))
    for j in range(slots):
        # b_j = (phi c)_j c_j^{-1} = c_{j-1} c_j^{-1}, including the wrap at j = 0
        if not (c[(j - 1) % slots] * c[j].inv() * bext[j].inv()).is_identity():
            raise AssertionError("coboundary chain failed to close")
    # independent field-level verification
    q_big = None
    k = 1
    while True:
        if p**k - 1 >= mod and (p**k - 1) % mod == 0:
            q_big = p**k
            break
        k += 1
        if p**k > gf_check_cap:
            break
    if q_big is not None and q_big <= gf_check_cap:
        field = GF(p, k)
        scale = (q_big - 1) // mod
        for j in range(slots):
            lhs = field.mat_mul(
                field.monomial_to_matrix(c[(j - 1) % slots].rescale_mod(q_big - 1)),
                field.monomial_to_matrix(c[j].inv().rescale_mod(q_big - 1)),
            )
            rhs = field.monomial_to_matrix(bext[j].rescale_mod(q_big - 1))
            if lhs != rhs:
                raise AssertionError("finite-field check of the chain failed")
    return CoboundaryChain(s, slots, tuple(c), bext)


def twist_by_chain(
    tau_sigma: Sequence[MonomialMatrix],
    tau_gamma_global: Sequence[Sequence[int]],
    chain: CoboundaryChain,
    psi_perm: Sequence[int] | None = None,
) -> tuple[tuple[MonomialMatrix, ...], tuple[tuple[int, ...], ...]]:
    """tau'(theta) = c tau(theta) (^theta c)^{-1} over the extended slots.

    tau_gamma_global[j] are global diagonal exponents.  Constants only.
    Returns (tau'(sigma) slots, tau'(gamma) slots).
    """
    slots = chain.slots
    r = len(tau_sigma)
    c = chain.c
    out_sigma = []
    out_gamma = []
    for j in range(slots):
        prev = c[(j - 1) % slots]
        if psi_perm is not None:
            prev = prev.conjugate_by_permutation(psi_perm)
        out_sigma.append(c[j] * tau_sigma[j % r] * prev.inv())
        # conjugating a diagonal: entry i moves to row cols[i]
        d = list(tau_gamma_global[j % r])
        m = c[j]
        conj = [0] * m.n
        for i in range(m.n):
            conj[i] = d[m.cols[i]] % m.mod
        out_gamma.append(tuple(conj))
    return tuple(out_sigma), tuple(out_gamma)


def is_strictly_invariant(
    tau_sigma: Sequence[MonomialMatrix], tau_gamma_global: Sequence[Sequence[int]]
) -> bool:
    """phi tau = tau for constant slot families: slot shift leaves them fixed."""
    slots = len(tau_sigma)
    for j in range(slots):
        if tau_sigma[j].entries() != tau_sigma[(j - 1) % slots].entries():
            return False
        if tuple(tau_gamma_global[j]) != tuple(tau_gamma_global[(j - 1) % slots]):
            return False
    return True


def linearize_sigma(tau_sigma: MonomialMatrix, b: MonomialMatrix,
                    psi_perm: Sequence[int] | None = None) -> MonomialMatrix:
    """Value-level inertial-type transform tau'(sigma) = tau(sigma) psi(b)^{-1}.

    This is the slotwise linearization that turns a Frobenius-invariant Galois
    type (with coboundary b) into an inertial-type cocycle value; no groupoid
    bookkeeping is kept.
    """
    m = b
    if psi_perm is not None:
        m = m.conjugate_by_permutation(psi_perm)
    return tau_sigma * m.inv()


def shapiro(g: GammaData, f_values: Sequence[MonomialMatrix]) -> tuple[MonomialMatrix, ...]:
    """g_j = ^{sigma^j} f(sigma^{-j}) for f_values = [f(1), f(sigma^{-1}), ...].

    The sigma-action on values is psi with the coefficient Frobenius
    (global exponents times p per application).
    """
    if len(f_values) != g.r:
        raise ValueError("need one value per coset representative")
    perm = g.psi.perm()
    out = []
    for j, val in enumerate(f_values):
        m = val.coef_frobenius(pow(g.p, j, val.mod) if val.mod > 1 else 1)
        for _ in range(j):
            m = m.conjugate_by_permutation(perm)
        out.append(m)
    return tuple(out)


def shapiro_inverse(g: GammaData, tup: Sequence[MonomialMatrix]) -> tuple[MonomialMatrix, ...]:
    inv_perm = g.psi.inv().perm()
    out = []
    for j, val in enumerate(tup):
        m = val
        for _ in range(j):
            m = m.conjugate_by_permutation(inv_perm)
        p_inv = pow(g.p, -1, val.mod) if val.mod > 1 else 1
        m = m.coef_frobenius(pow(p_inv, j, val.mod) if val.mod > 1 else 1)
        out.append(m)
    return tuple(out)


@dataclass(frozen=True)
class TypeConstruction:
    t: GaloisType
    x: ApartmentPoint
    lam_digits: tuple[tuple[tuple[int, ...], ...], ...]  # per j, per coordinate
    c_finite: tuple[WeylElement, ...]
    c_translation: tuple[tuple[int, ...], ...]


def type_from_s_mu(
    rd: RootDatum, s: WeylElement, mu: Sequence[int], g: GammaData
) -> TypeConstruction:
    """Weil-restriction type attached to (s, mu) under the e = p^r - 1 convention.

    lambda_0 = sum_k p^k (s psi)^{-k}(mu + eta_w), lambda_j = s psi(lambda_{j-1}),
    w_{r-1} = 1 with w_j = s psi(w_{j-1}), and c_j = psi^j(s^{-1} v^{-mu-eta_w}).
    The defining identity c . phi(x) = x is asserted exactly.
    """
    p, e, r = g.p, g.e, g.r
    if e != p**r - 1:
        raise ValueError("constructor requires e = p^r - 1")
    eta_w = []
    for size in rd.block_sizes:
        eta_w.extend(range(size - 1, -1, -1))
    mu_eta = tuple(m + h for m, h in zip(mu, eta_w))
    if any(not (0 <= x <= p - 1) for x in mu_eta):
        raise ValueError("mu + eta entries must lie in [0, p-1]")

    psi = g.psi
    s_inv = s.inv()

    def spsi(v):
        return s.apply(psi.apply(v))

    # base-p digit vectors: beta_k = (psi s^{-1})^k (mu+eta)
    betas = [mu_eta]
    for _ in range(r - 1):
        betas.append(tuple(psi.apply(s_inv.apply(betas[-1]))))
    lam0 = tuple(sum(b[i] * p**k for k, b in enumerate(betas)) for i in range(rd.dim))
    lams = [lam0]
    for _ in range(r - 1):
        lams.append(tuple(spsi(lams[-1])))
    # digit table, permuted along with the lambdas
    digits0 = tuple(tuple(b[i] for b in betas) for i in range(rd.dim))
    digit_rows = [digits0]
    sp = s * psi
    if r > 1 and -1 in sp.signs:
        raise ValueError("s psi carries a sign, so it cannot permute digit rows")
    for _ in range(r - 1):
        digit_rows.append(sp.apply(digit_rows[-1]))
    for j in range(r):
        for i in range(rd.dim):
            if sum(d * p**k for k, d in enumerate(digit_rows[j][i])) != lams[j][i]:
                raise AssertionError("digit table does not reproduce lambda")

    psi_inv = g.psi_power(r - 1)
    ws: list[WeylElement] = [None] * r  # type: ignore[list-item]
    ws[r - 1] = WeylElement.identity(rd.dim)
    for j in range(r - 2, -1, -1):
        # invert w_{j+1} = s psi(w_j), psi acting by conjugation on W
        ws[j] = psi_inv * (s_inv * ws[j + 1]) * psi_inv.inv()
    # closure: w_0 must equal s psi(w_{r-1}) = s
    psiw = psi * ws[r - 1] * psi.inv()
    if s * psiw != ws[0]:
        raise AssertionError("w-recursion failed to close")

    t = GaloisType(rd, g, tuple(lams), tuple(ws))
    x = t.point()
    if not x.is_gamma_fixed():
        raise AssertionError("constructed point is not Gamma-fixed")

    c_fin = []
    c_tr = []
    for j in range(r):
        pw = g.psi_power(j)
        c_fin.append(pw * s_inv * pw.inv())
        c_tr.append(tuple(-c for c in pw.apply(mu_eta)))
    fx = frobenius(x)
    for j in range(r):
        w = c_fin[j]
        nu = w.apply(c_tr[j])
        img = tuple(a - b for a, b in zip(w.apply(fx.etas[j]), nu))
        if img != x.etas[j]:
            raise AssertionError("c . phi(x) = x failed")
    return TypeConstruction(t, x, tuple(digit_rows), tuple(c_fin), tuple(c_tr))
