"""Sparse terms shared by ``TSeries``, ``MvLaurent``, ``WAlg`` and
``PerfLaurent``.

Each of those classes stores an element as a dict from an exponent key to
raw O_E coordinates (mod p for ``PerfLaurent``, the residue field), keeps
only its own precision bookkeeping (degree window, Y_0 window and band,
per-level horizons and floors, or a Gauss-valuation window) and builds
results through its ``_make``.  ``Terms`` gives each +, -, sums and scalar
multiples on its one ``lincomb``.  The termwise kernels (the packed
multiply-accumulate ``lincomb`` and the packed product ``product``, on
one slot layout and one unpack), the substitution of generator
images into a sum of monomials with the worst per-level floor drop of its
atoms, the geometric series, the min and sum of bounds for which None
means unbounded, and the integer windows (``ceil_cut``, ``rescale``) live
here.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd
from operator import add as _add

from .coeff import oe_ring


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


def common(xs, attr: str, what: str):
    """The ``attr`` of xs[0], after checking every x's by identity, then
    by equality; ValueError naming ``what`` when two differ."""
    first = getattr(xs[0], attr)
    for x in xs:
        y = getattr(x, attr)
        if y is not first and y != first:
            raise ValueError(f"operands live over different {what}")
    return first


class Terms:
    """``sum``, ``scalar_mul``, +, - and negation on the class's one
    ``lincomb(pairs)`` of (raw scalar, element) pairs; the zero test."""

    __slots__ = ()

    @classmethod
    def sum(cls, parts):
        """parts[0] + parts[1] + ...: every scalar 1."""
        one = oe_ring(parts[0].params).raw_one
        return cls.lincomb([(one, x) for x in parts])

    def scalar_mul(self, c):
        """c * self for a scalar c as ``OERing.scalar`` reads it; an
        ``OEInt`` may lower the precision (through ``reduce``)."""
        craw, prec = oe_ring(self.params).scalar(c, self.prec)
        return self.lincomb([(craw, self if prec >= self.prec
                              else self.reduce(prec))])

    def __add__(self, other):
        return type(self).sum((self, other))

    def __sub__(self, other):
        oe = oe_ring(self.params)
        return type(self).lincomb([(oe.raw_one, self),
                                   (oe.raw_minus_one, other)])

    def __neg__(self):
        return self.lincomb([(oe_ring(self.params).raw_minus_one, self)])

    def is_zero(self) -> bool:
        return not self.terms


# monomials a Substitution keeps; later products are formed, not kept
MONOMIAL_STORE = 4096


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
        """x_i^e: from the stored power nearest e on the way to 0 (or
        ``one()``), one product per step outward, each power stored."""
        table, step = self.table, 1 if e > 0 else -1
        k = e
        while k and (i, k) not in table:
            k -= step
        got = table.get((i, k))
        if got is None:
            got = table[(i, 0)] = self.one()
        while k != e:
            k += step
            got = table[(i, k)] = got * (self.atoms[i] if step > 0
                                         else self.inverse(i))
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


def evaluate(terms, sub: Substitution, zero):
    """sum c * prod x_i^{e_i} over the (e, c) pairs of ``terms``, one
    ``lincomb`` of the raw scalars c and the monomials.

    ``zero`` starts the sum and fixes its precision, and is returned
    itself when no term occurs; ``sub.one()`` is built only when a
    constant term occurs.
    """
    monomial = sub.monomial
    pairs = [(oe_ring(zero.params).raw_one, zero)]
    for e, c in terms:
        term = monomial(e)
        pairs.append((c, sub.one() if term is None else term))
    return type(zero).lincomb(pairs) if len(pairs) > 1 else zero


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


# array typecode per item size: a packed int converts to and from its slots
# at C speed when a slot is an array item wide
_TYPECODES = {array(tc).itemsize: tc for tc in "BHILQ"}
_SWAP = sys.byteorder != "little"
# the least array item size of at least n bytes, n = 0 .. the largest
_ITEM_BYTES = [min(size for size in _TYPECODES if size >= n)
               for n in range(max(_TYPECODES) + 1)]


def slot_bytes(bound: int) -> int:
    """Bytes per slot for values up to ``bound``; an array item size when
    one is wide enough."""
    n = max(1, -(-bound.bit_length() // 8))
    return _ITEM_BYTES[n] if n < len(_ITEM_BYTES) else n


def to_slots(x: int, nb: int, count: int) -> list:
    """The lowest ``count`` slots of x, ``nb`` bytes each."""
    size = count * nb
    raw = x.to_bytes(max(size, -(-x.bit_length() // 8)), "little")[:size]
    tc = _TYPECODES.get(nb)
    if tc is None:
        return [int.from_bytes(raw[i:i + nb], "little")
                for i in range(0, size, nb)]
    slots = array(tc, raw)
    if _SWAP:
        slots.byteswap()
    return slots.tolist()


def from_slots(slots, nb: int) -> int:
    """The int whose slots, ``nb`` bytes each, hold ``slots``."""
    tc = _TYPECODES.get(nb)
    if tc is None:
        return int.from_bytes(b"".join(v.to_bytes(nb, "little")
                                       for v in slots), "little")
    packed = array(tc, slots)
    if _SWAP:
        packed.byteswap()
    return int.from_bytes(packed.tobytes(), "little")


def lincomb(ring, parts, prec: int, keep=None) -> dict:
    """sum c * t mod p^prec over the (c, t, tp) ``parts`` (raw scalar c,
    term dict t) as if each c * t were formed mod p^tp >= p^prec and the
    results added: zero sums dropped, keys failing ``keep`` left out, a key
    placed at its first product nonzero mod p^tp.  Term coordinates are
    non-negative and below p^tp; a scalar's are any integers.

    Each coefficient is one int of 2h-1 slots wide enough for the sum of
    every part's product (Kronecker substitution; Harvey, JSC 2009): c * v
    is one int product, a key's sum plain +, then ``_settle``.
    """
    p, h, one = ring.p, ring.h, ring.raw_one
    live, top = [], prec
    for c, t, tp in parts:
        if tp > top:
            top = tp
        if t and c is not one and not gcd(*c) % p:
            # c = p^vc * unit (vc <= tp): its products with the terms
            # divisible by p^(tp - vc) vanish mod p^tp and place no key
            q = p ** (tp - ring.raw_val(c, tp))
            t = {k: v for k, v in t.items() if gcd(*v) % q}
        if t:
            live.append((c, t))
    acc = {}
    get = acc.get
    if h == 1:
        for (c,), t in live:
            for k, (v,) in t.items():
                acc[k] = get(k, 0) + c * v
        return _settle(ring, acc, p ** prec, 0, keep)
    # a scalar is packed mod p^top: as it stands it may overflow a slot
    M = p ** top
    nb = slot_bytes(len(live) * h * (M - 1) ** 2)
    if h == 2:
        S = 8 * nb
        for c, t in live:
            c = c[0] % M | c[1] % M << S
            for k, v in t.items():
                acc[k] = get(k, 0) + c * (v[0] | v[1] << S)
    else:
        for c, t in live:
            c = from_slots([x % M for x in c], nb)
            for k, v in t.items():
                acc[k] = get(k, 0) + c * from_slots(v, nb)
    return _settle(ring, acc, p ** prec, nb, keep)


def product(ring, a: dict, b: dict, prec: int,
            join=lambda k1, k2: tuple(map(_add, k1, k2))) -> dict:
    """The product of the term dicts a and b mod p^prec.

    Each pair (k1, c1) of a and (k2, c2) of b, a outermost and both in
    dict order, adds c1 * c2 at the key ``join(k1, k2)``, or is left out
    when that is None; ``join`` may raise instead, and is one-to-one in
    each argument (termwise addition by default).  The order rule: a key
    is placed at its first pair kept, even where that pair's product is
    zero, and zero sums are dropped at the end.

    Each coefficient is packed once, mod p^prec, as in ``lincomb``: a pair
    is one int product, a key's sum plain +, then ``_settle``.
    """
    h, m = ring.h, ring.p ** prec
    nb = slot_bytes(min(len(a), len(b)) * h * (m - 1) ** 2)
    S = 8 * nb
    outer, inner = [[(k, v[0] % m) if h == 1 else
                     (k, v[0] % m | v[1] % m << S) if h == 2 else
                     (k, from_slots([x % m for x in v], nb))
                     for k, v in t.items()] for t in (a, b)]
    acc = {}
    get = acc.get
    for k1, c in outer:
        for k2, v in inner:
            k = join(k1, k2)
            if k is not None:
                acc[k] = get(k, 0) + c * v
    return _settle(ring, acc, m, nb)


def _settle(ring, acc: dict, m: int, nb: int, keep=None) -> dict:
    """The packed sums ``acc`` (2h-1 slots of ``nb`` bytes) as raw
    coordinates mod m, folded by the defining polynomial, in acc's order
    (at h >= 3 all keys in one unpack); zero sums dropped and keys
    failing ``keep`` left out."""
    h, out = ring.h, {}
    if h == 1:
        for k, x in acc.items():
            x %= m
            if x and (keep is None or keep(k)):
                out[k] = (x,)
    elif h == 2:
        # x^2 = -poly[1] x - poly[0] on the top slot
        S = 8 * nb
        mask, S2, (g0, g1) = (1 << S) - 1, 2 * S, ring.poly[:2]
        for k, x in acc.items():
            x2 = x >> S2
            r0 = ((x & mask) - x2 * g0) % m
            r1 = ((x >> S & mask) - x2 * g1) % m
            if (r0 or r1) and (keep is None or keep(k)):
                out[k] = (r0, r1)
    else:
        size = (2 * h - 1) * nb
        joined = int.from_bytes(b"".join([x.to_bytes(size, "little")
                                          for x in acc.values()]), "little")
        for k, r in zip(acc, unpack_runs(ring, joined, nb, len(acc), m)):
            if any(r) and (keep is None or keep(k)):
                out[k] = r
    return out


def unpack_runs(ring, x: int, nb: int, count: int, m: int) -> list:
    """The lowest ``count`` runs of 2h-1 slots of ``nb`` bytes in x, each
    reduced by the defining polynomial mod m, as h-tuples."""
    span = 2 * ring.h - 1
    slots = to_slots(x, nb, count * span)
    ring.fold_runs(slots, m)
    return list(zip(*[slots[i::span] for i in range(ring.h)]))


def reduce(ring, terms: dict, prec: int, keep=None) -> dict:
    """terms mod p^prec, zeros dropped; keys failing ``keep`` are left
    out."""
    return {k: rc for k, c in terms.items() if (keep is None or keep(k))
            and any(rc := ring.raw_reduce(c, prec))}
