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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

from .apartment import ApartmentPoint, frobenius, point_from_type
from .ff import GF
from .monomial import MonomialMatrix
from .rootdata import (
    CapExceeded,
    GammaData,
    RefusedError,
    RootDatum,
    WeylElement,
)

# work counters, read and reset by stats(): census calls, classes listed,
# invariant classes among them, and _frobenius_witness calls from census and
# frobenius_invariant
_censuses = _classes = _invariant = _witnesses = 0


def stats() -> dict[str, int]:
    """The work counters since the last call; resets them."""
    global _censuses, _classes, _invariant, _witnesses
    out = {"census_calls": _censuses, "classes_listed": _classes,
           "invariant_classes": _invariant, "witness_calls": _witnesses}
    _censuses = _classes = _invariant = _witnesses = 0
    return out


@dataclass(frozen=True)
class GaloisType:
    """Per-slot data (lambda_j, w_j), j in {0, ..., r-1}.

    `lams` and `ws` hold the same number L of entries, L dividing r: slot j
    is index j mod L.
    """

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
        lams = g.psi_orbit(lam)
        return GaloisType(rd, g, lams, (WeylElement.identity(rd.dim),) * len(lams))

    def point(self) -> ApartmentPoint:
        return point_from_type(self.rd, self.gamma, self.lams, self.ws)


@dataclass(frozen=True)
class CocycleValues:
    """tau on the two generators, slotwise, with the slots of the type.

    tau_gamma_exps[j] is the diagonal exponent vector of tau(gamma) in slot j
    written in powers of iota_j(omega), i.e. lambda_j mod e.  tau_sigma[j] is
    a constant monomial matrix (global exponents).
    """

    tau_gamma_exps: tuple[tuple[int, ...], ...]
    tau_sigma: tuple[MonomialMatrix, ...]


def _n_family(g: GammaData, lams: Sequence[Sequence[int]],
              ws: Sequence[WeylElement]) -> list[MonomialMatrix]:
    mod = g.q - 1
    out = []
    for lam, w in zip(lams, ws):
        wl = MonomialMatrix.from_weyl(w, mod)
        out.append(wl.inv() * MonomialMatrix.diag_upow(lam, mod))
    return out


def _sigma_of(g: GammaData, fam: Sequence[MonomialMatrix], j: int) -> MonomialMatrix:
    """(^sigma fam)_j = psi(fam_{j-1})."""
    return fam[j - 1].conjugate_by_permutation(g.psi.perm())


def cocycle_values(t: GaloisType) -> CocycleValues:
    """tau(gamma) and tau(sigma) as monomial data; errors if no u-free value exists."""
    g = t.gamma
    # census representatives carry lambda as integral Fractions
    if any(c != int(c) for lam in t.lams for c in lam):
        raise ValueError("type data inconsistent: lambda is not integral")
    lams = [tuple(map(int, lam)) for lam in t.lams]
    fam = _n_family(g, lams, t.ws)
    sig = []
    for j, n in enumerate(fam):
        v = n.inv() * _sigma_of(g, fam, j)
        if not v.is_constant():
            raise ValueError("type data inconsistent: tau(sigma) keeps a u-power")
        sig.append(v)
    gam = tuple(tuple(c % g.e for c in lam) for lam in lams)
    return CocycleValues(gam, tuple(sig))


def _perm_powers(perm: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """perm^0, ..., perm^(k-1) in one-line form, one composition each."""
    powers = [tuple(range(len(perm)))]
    for _ in range(k - 1):
        powers.append(tuple(perm[i] for i in powers[-1]))
    return powers


def check_cocycle_relations(t: GaloisType) -> dict[str, bool]:
    """Matrix-level checks of the presentation relations on tau.

    gamma_order:  tau(gamma)^e = 1, checked as: every exponent in
                  tau_gamma_exps is an int x with 0 <= x < e, so tau(gamma) is
                  a diagonal of e-th roots of unity iota(omega)^x
    sigma_braid:  tau(sigma) (^sigma tau(gamma)) tau(sigma)^{-1} = tau(gamma)^p
    sigma_wrap:   tau(sigma^r) = 1
    """
    g = t.gamma
    vals = cocycle_values(t)
    e, p, r = g.e, g.p, g.r
    gamma_order = all(isinstance(x, int) and 0 <= x < e
                      for lam in vals.tau_gamma_exps for x in lam)

    braid = True
    exps, tau_sigma = vals.tau_gamma_exps, vals.tau_sigma
    for j, (m, cur) in enumerate(zip(tau_sigma, exps)):
        # (^sigma tau(gamma))_j = psi(tau(gamma)_{j-1}); moving the value from
        # slot j-1 to slot j multiplies iota-exponents by p
        lhs_diag = [(p * x) % e for x in g.psi.apply(exps[j - 1])]
        # conjugating a diagonal by the monomial tau(sigma): entry i picks cols[i]
        conj = [lhs_diag[m.cols[i]] % e for i in range(m.n)]
        if conj != [(p * x) % e for x in cur]:
            braid = False
    # tau(sigma^r)_j = P_j = prod_{i=0}^{r-1} psi^i(tau(sigma)_{j-i}) is conjugate
    # to P_{j-1} (psi^r = 1), so P_0 decides.  Its factors repeat with period
    # T = lcm(L, ord(psi)), ord(psi) being the orbit length of (1, ..., n), so
    # P_0 = Q^(r/T) for Q the product of the first T; P_0 = 1 iff ord(Q) | r/T
    psi = g.psi.perm()
    period = lcm(len(tau_sigma), len(g.psi_orbit(range(1, len(psi) + 1))))
    if r % period:
        raise ValueError(f"type data inconsistent: {len(tau_sigma)} slots for r={r}")
    acc = MonomialMatrix.identity(tau_sigma[0].n, tau_sigma[0].mod)
    for i, power in enumerate(_perm_powers(psi, period)):
        acc = acc * tau_sigma[-i % len(tau_sigma)].conjugate_by_permutation(power)
    wrap = (r // period) % acc.order() == 0
    return {"gamma_order": gamma_order, "sigma_braid": braid, "sigma_wrap": wrap}


def _frobenius_map(g: GammaData) -> tuple[tuple[int, int], ...]:
    """p psi^{-1} as its rows' (column, p * sign) pairs."""
    psi_inv = g.psi.inv()
    return tuple(zip(psi_inv.cols, [g.p * s for s in psi_inv.signs]))


def _frobenius_witness(rd: RootDatum, g: GammaData, num: Sequence[int],
                       frob: tuple[tuple[int, int], ...] | None = None):
    """The least-length w in W with num - w(p psi^{-1} num) = 0 mod e den, and m.

    lambda = num / rd.den in ambient coordinates, and m, that difference over
    e den, is integral: in X_* on GL_n and SL_n blocks, in Q^vee on PGL_n.
    W permutes each block, so w pairs the indices of num, block by block and
    in index order, with those of image = p psi^{-1} num in the same residue
    class mod e den, each taking the next unused one: the unique solution of
    least length (any other inverts two indices of one class), and the first
    in weyl_group's order.  The pairing fails, and there is no solution,
    exactly when a block's residues and images differ as multisets.
    Returns (w, m), or None.  frob is _frobenius_map(g), formed once by a
    caller with many num.
    """
    mod = g.e * rd.den
    if frob is None:
        frob = _frobenius_map(g)
    images = [s * num[c] % mod for c, s in frob]
    cols, off = [], 0
    for n in rd.block_sizes:
        end = off + n
        free: dict[int, list[int]] = {}  # residue -> its image indices, last first
        for c in reversed(range(off, end)):
            free.setdefault(images[c], []).append(c)
        try:
            cols += [free[a % mod].pop() for a in num[off:end]]
        except (KeyError, IndexError):  # a residue with no unused image left
            return None
        off = end
    image = [s * num[c] for c, s in frob]
    m = tuple((a - image[c]) // mod for a, c in zip(num, cols))
    return WeylElement._make(tuple(cols), (1,) * rd.dim), m


def frobenius_invariant(t: GaloisType):
    """Decide c . phi(x) = x for a Gamma-fixed type, with witness.

    Returns (flag, witness) where witness = (w_star, m): with x's slot-0
    coordinate eta = -lambda / e, lambda = w_0^{-1}(lambda_0), the condition
    w_star(p psi^{-1}(eta)) - m = eta with m integral and w_star of least
    length (_frobenius_witness).  An integral m lies in X_* on GL_n and SL_n
    blocks, and in the coroot lattice Q^vee, smaller than X_*, on PGL_n
    blocks, where an m in X_* but not in Q^vee is not accepted.  A lambda
    outside X_* is a ValueError.  Ramified inertial actions are refused:
    there is no finite orbit test for them here.

    Gamma-fixedness is decided on the integer vectors v_j = w_j^{-1}(lambda_j):
    the point's slots are eta_j = -v_j / e, and scaling by -1/e is injective
    and commutes with psi.  The inertial action of a split Gamma is trivial,
    so the point is Gamma-fixed exactly when psi(v_{j-1}) = v_j for every j.
    """
    g = t.gamma
    if not g.split():
        raise RefusedError("ramified inertial action: no finite decision procedure")
    inv = {w: w.inv() for w in set(t.ws)}
    vs = [inv[w].apply(lam) for lam, w in zip(t.lams, t.ws)]
    if any(g.psi.apply(vs[j - 1]) != v for j, v in enumerate(vs)):
        raise ValueError("type's point must be Gamma-fixed")
    lam = vs[0]
    if not t.rd.in_cochar_lattice(lam):
        raise ValueError(f"lambda={lam} is not in the cocharacter lattice of {t.rd.label}")
    global _witnesses
    _witnesses += 1
    wit = _frobenius_witness(t.rd, g, [int(c * t.rd.den) for c in lam])
    return wit is not None, wit


class CensusClass(NamedTuple):
    num: tuple[int, ...]          # ambient representative times den
    den: int
    coords: tuple[int, ...]       # canonical basis coordinates mod e
    invariant: bool
    witness: tuple[WeylElement, tuple[int, ...]] | None

    @property
    def lam(self) -> tuple[Fraction, ...]:
        """The ambient representative num / den."""
        return tuple(Fraction(n, self.den) for n in self.num)


@dataclass(frozen=True)
class CensusResult:
    total: int
    invariant_count: int
    classes: tuple[CensusClass, ...]


def _sl_greedy(rest: list[int], e: int) -> tuple[int, ...]:
    """The least partial sums mod e, all but the last (0), over the orderings
    of the sorted residues in rest, which sum to 0 mod e; rest is used up.
    Greedy: at each step the remaining residue that makes the next sum least,
    i.e. the least one >= -sum mod e, else the least.  Only equal residues
    tie, and they leave the same rest."""
    out, c = [], 0
    for _ in range(len(rest) - 1):
        i = bisect_left(rest, -c % e)
        c = (c + rest.pop(i if i < len(rest) else 0)) % e
        out.append(c)
    return tuple(out)


def _gl_classes(n: int, e: int) -> list[tuple[int, ...]]:
    return list(combinations_with_replacement(range(e), n))


def _sl_classes(n: int, e: int) -> list[tuple[int, ...]]:
    """SL_n: the basis e_k - e_{k+1} gives coordinates c_k = v_0 + ... + v_k of
    the ambient v, and W permutes v, a multiset of n residues summing to 0:
    each sorted one (n - 1 residues, and a largest that makes the sum 0), in
    its greedy form, sorted."""
    out = []
    for head in combinations_with_replacement(range(e), n - 1):
        last = -sum(head) % e
        if last >= head[-1]:
            out.append(_sl_greedy([*head, last], e))
    out.sort()
    return out


def _pgl_classes(n: int, e: int) -> list[tuple[int, ...]]:
    """PGL_n: the basis e_k - (1/n) sum e gives coordinates c_k = u_k - u_last
    of a lift u in Z^n, so a class is a multiset of n residues up to a common
    shift.  Sorted, the residues cut the circle Z/e into n gaps, and moving
    one of them to 0 and sorting the rest gives the partial sums of the gaps
    from it on, so the classes are the gap sequences that are their own least
    rotation.  One starts with a least gap m <= e / n, and its other gaps are
    m + h_t with h summing to e - n m.  The partial sums of h, taken in
    combinations_with_replacement order, list the sequences, and so their
    coordinates (the partial sums of the gaps), in lexicographic order.  One
    that starts with its only least gap is its own least rotation.  At n = 2
    the only h is (0, rest): one empty tuple of partial sums, where a pool of
    rest + 1 entries would cost O(e) for each m."""
    out = []
    for m in range(e // n + 1):
        rest = e - n * m
        for bars in combinations_with_replacement(range(rest + 1), n - 2) if n > 2 else [()]:
            gaps = (m, *[m + b - a for a, b in zip((0, *bars), (*bars, rest))])
            if gaps.count(m) == 1 or gaps == min(
                    (*gaps[k:], *gaps[:k]) for k, g in enumerate(gaps) if g == m):
                out.append(tuple(accumulate(gaps[:-1])))
    return out


# kind -> its classes, as least W-images of basis coordinates, in lexicographic order
_BLOCKS = {"GL": _gl_classes, "SL": _sl_classes, "PGL": _pgl_classes}


def _census_tables(rd: RootDatum, g: GammaData,
                   frob: tuple[tuple[int, int], ...]) -> tuple[list, list[int]]:
    """Each block's classes, as (coords, nums), and the positions in
    itertools.product order of the classes whose _frobenius_witness pairing
    succeeds: num and its image p psi^{-1} num (frob) have the same sorted
    residues mod e den block by block.

    psi maps each block b onto one source block, whose coordinates give b's
    image.  Sorted residues name a class of b (no two share them), so b has
    a table from its classes' sorted residues to their indices, and a row
    giving, for each class of the source block, the class of b whose sorted
    residues its image has, or None.  A class passes when each block's index
    is the row's entry at its source block's index, so the passing classes
    follow psi's cycles on the blocks.  A psi that does not permute the
    blocks is a ValueError.  The tables and rows are dropped on return.
    """
    mod, sizes = g.e * rd.den, rd.block_sizes
    starts = [*accumulate(sizes, initial=0)]
    # each block's classes and their table.  A GL block of a den-1 datum has
    # the identity basis: its coordinates are its numerators, and their own
    # sorted residues
    blocks, tables, row = [], [], 0
    for kind, n, off in zip(rd.block_kinds, sizes, starts):
        k = n if kind == "GL" else n - 1
        nums = keys = coords = _BLOCKS[kind](n, g.e)
        if kind != "GL" or rd.den != 1:
            columns = list(zip(*(b[off:off + n] for b in rd.cochar_basis[row:row + k])))
            nums = [tuple([sum(map(mul, c, col)) for col in columns]) for c in coords]
            keys = [tuple(sorted([a % mod for a in v])) for v in nums]
        blocks.append((coords, nums))
        tables.append(dict(zip(keys, range(len(keys)))))
        row += k
    # each block's source block and row
    targets, rows = {}, []
    for table, n, off in zip(tables, sizes, starts):
        src = bisect_right(starts, frob[off][0]) - 1
        local = [(c - starts[src], s) for c, s in frob[off:off + n]]
        if sorted(c for c, _ in local) != list(range(sizes[src])):
            raise ValueError(f"psi must permute the blocks of {rd.label}")
        targets[src] = len(rows)
        rows.append([table.get(tuple(sorted([s * v[c] % mod for c, s in local])))
                     for v in blocks[src][1]])
    # strides[b]: the number of classes of the blocks after b
    strides = [*accumulate([len(c) for c, _ in blocks][:0:-1], mul, initial=1)][::-1]
    # the passing classes' positions, a cycle of psi's action on the blocks
    # at a time: from each index at the cycle's least block, the rows fix
    # the others, and must lead back to it
    positions = [0]
    for first, (coords, _) in enumerate(blocks):
        cycle = [first]
        while (b := targets[cycle[-1]]) > first:
            cycle.append(b)
        if b == first:
            walk = [(i, i, i * strides[first]) for i in range(len(coords))]
            for b in cycle[1:]:
                walk = [(i, k, pos + k * strides[b]) for i, j, pos in walk
                        if (k := rows[b][j]) is not None]
            positions = [a + pos for a in positions for i, j, pos in walk if rows[first][j] == i]
    return blocks, positions


def census(rd: RootDatum, g: GammaData) -> CensusResult:
    """All type classes at fixed (p, e): lambda in X_* / (W-action + e X_*).

    A class is named by its canonical coordinates: the lexicographically least
    W-image, mod e, of its basis coordinates.  The basis is block-diagonal and
    W is the product of the blocks' symmetric groups, so a class is one class
    of each block, and its canonical coordinates are theirs concatenated.
    Each block lists its classes in lexicographic order from a closed form
    (_BLOCKS), and the classes come out sorted in itertools.product order.

    Invariance is decided on per-block tables (_census_tables), and only
    the invariant classes take _frobenius_witness, for the witness, with
    p psi^{-1} formed once per census.  A psi that does not permute the
    blocks is a ValueError.  CapExceeded past rank 3, e = 10^4 or
    e^rank = 10^6.
    """
    if not g.split():
        raise RefusedError("census requires a split inertial action")
    if rd.rank > 3 or g.e > 10**4:
        raise CapExceeded("census limited to rank <= 3 and e <= 10^4")
    if g.e**rd.rank > 10**6:
        raise CapExceeded("census enumeration domain exceeds cap")
    frob = _frobenius_map(g)
    blocks, positions = _census_tables(rd, g, frob)
    classes = [CensusClass((), rd.den, (), False, None)]
    for block_coords, block_nums in blocks:
        classes = [CensusClass(num + v, den, coords + c, False, None)
                   for num, den, coords, _, _ in classes
                   for c, v in zip(block_coords, block_nums)]
    for pos in positions:
        num, den, coords, _, _ = classes[pos]
        wit = _frobenius_witness(rd, g, num, frob)
        if wit is None:
            raise AssertionError("the residue tables and the Frobenius witness disagree")
        classes[pos] = CensusClass(num, den, coords, True, wit)
    global _censuses, _classes, _invariant, _witnesses
    _censuses += 1
    _classes += len(classes)
    _invariant += len(positions)
    _witnesses += len(positions)
    return CensusResult(len(classes), len(positions), tuple(classes))


@dataclass(frozen=True)
class CoboundaryChain:
    s_extension: int
    slots: int
    c: tuple[MonomialMatrix, ...]
    b_extended: tuple[MonomialMatrix, ...]


GF_CHECK_MAX_Q = 10**6  # largest field the check in strictify builds


def strictify(b: Sequence[MonomialMatrix], p: int) -> CoboundaryChain:
    """Solve b = phi(c) c^{-1} by the chain c_j = b_j^{-1} c_{j-1}, c_0 = 1.

    The chain closes up after replicating b over an unramified extension of
    degree s = order(b_0 b_1 ... b_{r-1}).  The identity is verified on every
    slot, and re-verified with honest finite-field arithmetic in the least
    GF(p^k) with mod | p^k - 1, when it has at most GF_CHECK_MAX_Q elements.
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
    # independent field-level verification in GF(p^k), k least with p^k = 1 mod `mod`
    k, q = 1, p
    while 1 < q <= GF_CHECK_MAX_Q and q % mod != 1 % mod:
        k, q = k + 1, q * p
    if 1 < q <= GF_CHECK_MAX_Q:
        field = GF(p, k)
        for j in range(slots):
            lhs = field.mat_mul(
                field.monomial_to_matrix(c[(j - 1) % slots].rescale_mod(q - 1)),
                field.monomial_to_matrix(c[j].inv().rescale_mod(q - 1)),
            )
            rhs = field.monomial_to_matrix(bext[j].rescale_mod(q - 1))
            if lhs != rhs:
                raise AssertionError("finite-field check of the chain failed")
    return CoboundaryChain(s, slots, tuple(c), bext)


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

    psi_inv = psi.inv()
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
    pw = WeylElement.identity(rd.dim)  # psi^j
    for j in range(r):
        c_fin.append(pw * s_inv * pw.inv())
        c_tr.append(tuple(-c for c in pw.apply(mu_eta)))
        pw = psi * pw
    fx = frobenius(x)
    for j in range(r):
        w = c_fin[j]
        nu = w.apply(c_tr[j])
        img = tuple(a - b for a, b in zip(w.apply(fx.etas[j]), nu))
        if img != x.etas[j]:
            raise AssertionError("c . phi(x) = x failed")
    return TypeConstruction(t, x, tuple(digit_rows), tuple(c_fin), tuple(c_tr))
