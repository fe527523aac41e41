"""Sparse terms shared by ``TSeries``, ``MvLaurent`` and ``WAlg``.

Each of those classes stores an element as a dict from an exponent key to
raw O_E coordinates and keeps only its own precision bookkeeping (degree
window, Y_0 window and band, or per-level horizons and floors).  The
termwise arithmetic on such dicts, the substitution of generator images
into a sum of monomials, and the min and sum of bounds for which None
means unbounded live here.
"""

from __future__ import annotations


def bound_min(a, b):
    """min(a, b), where None is unbounded."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def bound_add(a, b):
    """a + b, unbounded if either is."""
    if a is None or b is None:
        return None
    return a + b


# monomials a Powers keeps; past this, products are formed and not kept
MONOMIAL_STORE = 256


class Powers:
    """Powers x_i^e of a tuple of atoms, built on demand and kept.

    x_i^0 is ``one()``; x_i^e is one product from x_i^(e-1), or for e < 0
    from x_i^(e+1) and the inverse of x_i, which ``invert(i)`` builds the
    first time a negative exponent asks for it.  The first
    ``MONOMIAL_STORE`` monomials prod x_i^{e_i} formed are kept too.
    """

    def __init__(self, atoms, one, invert=None):
        self.atoms = atoms
        self.one = one
        self.invert = invert
        self.table: dict = {}
        self.inverses: dict = {}
        self.monomials: dict = {}

    def inverse(self, i: int):
        got = self.inverses.get(i)
        if got is None:
            got = self.inverses[i] = self.invert(i)
        return got

    def power(self, i: int, e: int):
        key = (i, e)
        got = self.table.get(key)
        if got is None:
            if e == 0:
                got = self.one()
            elif e > 0:
                got = self.power(i, e - 1) * self.atoms[i]
            else:
                got = self.power(i, e + 1) * self.inverse(i)
            self.table[key] = got
        return got

    def monomial(self, e):
        """prod x_i^{e_i}, its nonzero powers multiplied in generator order
        (stored or not, the same product); None when all e_i are 0."""
        got = self.monomials.get(e)
        if got is None:
            for i, ei in enumerate(e):
                if ei:
                    pw = self.power(i, ei)
                    got = pw if got is None else got * pw
            if got is not None and len(self.monomials) < MONOMIAL_STORE:
                self.monomials[e] = got
        return got


def evaluate(terms, powers: Powers, zero, one):
    """sum c * prod x_i^{e_i} over the (e, c) pairs of ``terms``.

    ``zero`` starts the sum and fixes its precision; ``one()`` is built
    only when a constant term occurs.
    """
    acc = zero
    monomial = powers.monomial
    for e, c in terms:
        term = monomial(e)
        acc = acc + (one() if term is None else term).scalar_mul(c)
    return acc


def add(ring, a: dict, b: dict, prec: int, keep=None) -> dict:
    """a + b mod p^prec, zero sums dropped; keys failing ``keep`` are
    left out."""
    out = {}
    for src in (a, b):
        for k, c in src.items():
            if keep is not None and not keep(k):
                continue
            cur = out.get(k)
            out[k] = ring.raw_add(cur, c, prec) if cur is not None \
                else ring.raw_reduce(c, prec)
    for k in [k for k, c in out.items() if not any(c)]:
        del out[k]
    return out


def neg(ring, terms: dict, prec: int) -> dict:
    return {k: ring.raw_neg(c, prec) for k, c in terms.items()}


def smul(ring, terms: dict, craw: tuple, prec: int) -> dict:
    """craw * terms mod p^prec, zero products dropped."""
    out = {}
    for k, c in terms.items():
        prod = ring.raw_mul(craw, c, prec)
        if any(prod):
            out[k] = prod
    return out


def reduce(ring, terms: dict, prec: int, keep=None) -> dict:
    """terms mod p^prec, zeros dropped; keys failing ``keep`` are left
    out."""
    out = {}
    for k, c in terms.items():
        if keep is not None and not keep(k):
            continue
        rc = ring.raw_reduce(c, prec)
        if any(rc):
            out[k] = rc
    return out
