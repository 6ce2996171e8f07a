import random

import pytest

from alcovekit.monomial import MonomialMatrix


def order_by_products(m, bound):
    acc = m
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = acc * m
    return None


def cycles(cols):
    seen, out = set(), []
    for start in range(len(cols)):
        cyc, i = [], start
        while i not in seen:
            seen.add(i)
            cyc.append(i)
            i = cols[i]
        if cyc:
            out.append(cyc)
    return out


def test_order_matches_repeated_products():
    rng = random.Random(11)
    infinite = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        mod = rng.choice((1, 2, 6, 24, 48))
        cols = list(range(n))
        rng.shuffle(cols)
        exps = [rng.randrange(mod) for _ in range(n)]
        upows = [rng.randint(-3, 3) for _ in range(n)]
        if rng.random() < 0.8:
            # make the u-powers cancel along every cycle
            for cyc in cycles(cols):
                upows[cyc[-1]] -= sum(upows[i] for i in cyc)
        m = MonomialMatrix(n, mod, tuple(cols), tuple(exps), tuple(upows))
        # cycle lengths are at most 5, so a finite order is at most lcm(1..5) * 48
        ref = order_by_products(m, 60 * 48)
        if all(sum(upows[i] for i in cyc) == 0 for cyc in cycles(cols)):
            assert m.order() == ref
        else:
            infinite += 1
            assert ref is None
            with pytest.raises(RuntimeError):
                m.order()
    assert infinite > 10


def test_order_of_a_u_power_raises_at_once():
    with pytest.raises(RuntimeError):
        MonomialMatrix.diag_upow((1, 0), 48).order()
    assert MonomialMatrix.identity(3, 48).order() == 1
    assert MonomialMatrix.identity(0, 48).order() == 1
    # a 2-cycle whose u-powers cancel: (u, u^-1) swapped squares to a constant
    swap = MonomialMatrix(2, 48, (1, 0), (5, 0), (1, -1))
    assert swap.order() == 96 == order_by_products(swap, 200)
