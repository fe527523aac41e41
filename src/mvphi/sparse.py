"""Sparse terms shared by ``TSeries``, ``MvLaurent``, ``WAlg`` and
``PerfLaurent``.

Each of those classes stores an element as a dict from an exponent key to
raw O_E coordinates (mod p for ``PerfLaurent``, the residue field) and
keeps only its own precision bookkeeping (degree window, Y_0 window and
band, per-level horizons and floors, or a Gauss-valuation window), builds
results through its ``_make`` and takes +, - and the zero test from
``Terms``.  The termwise arithmetic on such dicts (one n-ary sum, one pair
loop for products), the substitution of generator images into a sum of
monomials with the worst per-level floor drop of its atoms, the geometric
series, the min and sum of bounds for which None means unbounded, and the
integer windows (``ceil_cut``, ``rescale``) live here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add


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


def ceil_cut(h, scale: int, den: int):
    """ceil(h * scale / den), None for None."""
    return None if h is None else -(-h * scale // den)


def rescale(xs, r: int):
    """The integers xs times r, None kept; xs itself when r is 1."""
    if r == 1:
        return xs
    return [None if x is None else x * r for x in xs]


class Terms:
    """+ on the class's n-ary ``sum``, - on its negation, the zero test."""

    __slots__ = ()

    def __add__(self, other):
        return type(self).sum((self, other))

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.terms


# monomials a Substitution keeps; later products are formed, not kept
MONOMIAL_STORE = 256


class Substitution:
    """Generator images ``atoms`` for substituting into sums of monomials.

    x_i^0 is ``one()``; x_i^e is one product from x_i^(e-1), or for e < 0
    from x_i^(e+1) and the inverse of x_i, which ``invert(i)`` builds the
    first time a negative exponent or ``drop()`` asks for it.  Powers,
    inverses and the first ``MONOMIAL_STORE`` monomials prod x_i^{e_i}
    formed are kept.  ``floors(a)`` gives an atom's support floor per
    pi-level (None where a level has no content); ``drop()`` bounds what
    one pi-level can cost of support, which windowed inputs need for
    their unknown region.
    """

    def __init__(self, atoms, one, invert=None, floors=None):
        self.atoms = atoms
        self.one = one
        self.invert = invert
        self.floors = floors
        self.table: dict = {}
        self.inverses: dict = {}
        self.monomials: dict = {}
        self._drop = None

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

    def drop(self) -> Fraction:
        """The worst (floor_0 - floor_v) / v over levels v >= 1 of the
        atoms and their inverses, and 0 at least."""
        if self._drop is None:
            worst = Fraction(0)
            for i, atom in enumerate(self.atoms):
                for a in (atom, self.inverse(i)):
                    fl = self.floors(a)
                    if fl[0] is None:
                        continue
                    for v in range(1, len(fl)):
                        if fl[v] is not None:
                            worst = max(worst, Fraction(fl[0] - fl[v]) / v)
            self._drop = worst
        return self._drop


def evaluate(terms, sub: Substitution, zero, one):
    """sum c * prod x_i^{e_i} over the (e, c) pairs of ``terms``.

    ``zero`` starts the sum and fixes its precision, and is returned
    itself when no term occurs; ``one()`` is built only when a constant
    term occurs.
    """
    monomial = sub.monomial
    parts = [zero]
    for e, c in terms:
        term = monomial(e)
        parts.append((one() if term is None else term).scalar_mul(c))
    return type(zero).sum(parts) if len(parts) > 1 else zero


def geometric(u, start, cap: int):
    """start + start*u + start*u^2 + ..., up to the last nonzero power.

    The powers are formed one product at a time; RuntimeError when none
    of the first ``cap`` is zero.
    """
    parts, pw = [start], start
    for _ in range(cap):
        pw = pw * u
        if pw.is_zero():
            return type(start).sum(parts)
        parts.append(pw)
    raise RuntimeError("geometric series failed to terminate")


def add(ring, parts, prec: int, keep=None) -> dict:
    """The sum of the term dicts ``parts`` mod p^prec, zero sums dropped;
    keys failing ``keep`` are left out."""
    out = {}
    for terms in parts:
        for k, c in terms.items():
            cur = out.get(k)
            out[k] = c if cur is None else ring.raw_add(cur, c, prec)
    return reduce(ring, out, prec, keep)


def mul(ring, a: dict, b: dict, prec: int, keep=None) -> dict:
    """The product of the term dicts a and b mod p^prec, keys added.

    A zero product is skipped and a key whose sum cancels is removed; a
    pair whose key fails ``keep`` is left out before its product is
    formed (``keep`` may raise instead).
    """
    out = {}
    raw_mul, raw_add = ring.raw_mul, ring.raw_add
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(_add, e1, e2))
            if keep is not None and not keep(e):
                continue
            prod = raw_mul(c1, c2, prec)
            if not any(prod):
                continue
            cur = out.get(e)
            s = prod if cur is None else raw_add(cur, prod, prec)
            if any(s):
                out[e] = s
            elif cur is not None:
                del out[e]
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
