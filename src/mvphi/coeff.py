"""Coefficient arithmetic.

Two element types, both exact, on one set of raw kernels:

* ``OERing`` / ``OEInt`` -- truncated Witt scalars O_E/p^prec for E unramified
  (pi = p), realized as (Z/p^prec)[x]/(g) for a monic lift g of the defining
  polynomial.  Elements carry their own capped-absolute precision, with
  Frobenius and its inverse.  The residue field ``FField`` = F_{p^h} = O_E/p,
  in the polynomial basis over F_p, is its ring at precision 1: its
  elements are ``OEInt``s of precision 1.
* ``OKRing`` / ``OKElement`` -- O_K/p^prec inside O_E via the Teichmueller
  lifts of a fixed F_p-basis of F_q, with coordinate solving for the
  unit-group action.

Everything downstream (series, Laurent elements, Witt digits) stores raw
coordinate tuples and calls the ``raw_*`` kernels here in hot loops.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional

from .caches import cached
from .errors import NotAUnit, PrecisionExhausted


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_factorial(j: int, p: int) -> int:
    """v_p(j!) by Legendre's formula."""
    v, q = 0, p
    while q <= j:
        v += j // q
        q *= p
    return v


def base_p_digits(n: int, p: int, k: int) -> list:
    """The k lowest base-p digits of n >= 0, least significant first."""
    digits = []
    for _ in range(k):
        n, d = divmod(n, p)
        digits.append(d)
    return digits


def power(x, e: int, one, mul=operator.mul):
    """x^e for e >= 0 by binary powering, starting from ``one``; ``mul``
    multiplies two elements (the ring's own ``*`` by default)."""
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


# ---------------------------------------------------------------------------
# F_{p^h}
# ---------------------------------------------------------------------------

def _is_irreducible(field: "FField") -> bool:
    """Berlekamp's criterion for the defining polynomial g of ``field``.

    x^(p^h) = x mod g makes g squarefree with every factor's degree
    dividing h; then the Frobenius fixed space has one dimension per
    factor.
    """
    if field.h == 1:
        return True
    x = field((0, 1) + (0,) * (field.h - 2))
    return (x ** (field.p ** field.h) == x
            and len(_fixed_space(field, 1)[0]) == 1)


def default_poly(p: int, h: int) -> tuple:
    """Smallest monic irreducible of degree h over F_p (lexicographic tail)."""
    for tail in range(p ** h):
        try:
            return FField(p, h, base_p_digits(tail, p, h) + [1]).poly
        except ValueError:
            pass
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class FField:
    """F_{p^h} = O_E/p with basis 1, x, ..., x^{h-1} modulo a monic
    irreducible: its elements are ``OEInt``s of ``oe`` at precision 1."""

    def __init__(self, p: int, h: int, poly: tuple):
        self.p = p
        self.h = h
        self.poly = tuple(c % p for c in poly)
        if len(self.poly) != h + 1 or self.poly[h] != 1:
            raise ValueError("defining polynomial must be monic of degree h")
        self.oe = OERing(self)
        self.zero = self.oe.zero(1)
        self.one = self.oe.one(1)
        if not _is_irreducible(self):
            raise ValueError("defining polynomial is not irreducible mod p")

    def __call__(self, coords: Iterable[int]) -> "OEInt":
        return self.oe(coords, 1)

    def from_int(self, n: int) -> "OEInt":
        return self.oe.from_int(n, 1)

    def elements(self):
        p, h = self.p, self.h
        for idx in range(p ** h):
            yield OEInt(self.oe, 1, tuple(base_p_digits(idx, p, h)))


# ---------------------------------------------------------------------------
# O_E / p^prec
# ---------------------------------------------------------------------------

class OERing:
    """O_E at capped-absolute precision; elements are coordinate tuples."""

    def __init__(self, fld: FField):
        self.field = fld
        self.p = fld.p
        self.h = fld.h
        # canonical integral lift of the defining polynomial
        self.poly = tuple(int(c) for c in fld.poly)
        self.raw_one = (1,) + (0,) * (self.h - 1)
        self.raw_minus_one = (-1,) + self.raw_one[1:]
        self._raw_two = (2,) + self.raw_one[1:]
        # x^k mod the defining polynomial over Z, k = h .. 2h-2
        xh = [-c for c in self.poly[:self.h]]
        self.folds, r = [], xh
        for _ in range(self.h - 1):
            self.folds.append(r)
            r = [a + r[-1] * b for a, b in zip([0] + r[:-1], xh)]

    # -- raw kernels (tuples of ints, explicit precision) -------------------

    # list comprehensions, not generator expressions: no generator frame
    # per call on these per-term kernels

    def raw_reduce(self, coords, prec: int) -> tuple:
        m = self.p ** prec
        return tuple([c % m for c in coords])

    def raw_add(self, a, b, prec: int) -> tuple:
        m = self.p ** prec
        return tuple([(x + y) % m for x, y in zip(a, b)])

    def raw_sub(self, a, b, prec: int) -> tuple:
        m = self.p ** prec
        return tuple([(x - y) % m for x, y in zip(a, b)])

    def raw_neg(self, a, prec: int) -> tuple:
        m = self.p ** prec
        return tuple([(-x) % m for x in a])

    def raw_smul(self, s: int, a, prec: int) -> tuple:
        m = self.p ** prec
        return tuple([(s * x) % m for x in a])

    def raw_mul(self, a, b, prec: int) -> tuple:
        h, m = self.h, self.p ** prec
        if h == 1:
            return ((a[0] * b[0]) % m,)
        if h == 2:
            # x^2 = -poly[1] x - poly[0] on the a1 b1 x^2 term
            t, poly = a[1] * b[1], self.poly
            return ((a[0] * b[0] - t * poly[0]) % m,
                    (a[0] * b[1] + a[1] * b[0] - t * poly[1]) % m)
        out = [0] * (2 * h - 1)
        for i in range(h):
            ai = a[i]
            if ai:
                for j in range(h):
                    out[i + j] += ai * b[j]
        self.fold_runs(out, m)
        return tuple(out[:h])

    def fold_runs(self, v: list, m: int):
        """Each run of 2h-1 slots in the flat list v, the coordinates of a
        product before reduction by the defining polynomial, reduced by it
        mod m, in place: a run's first h slots become its coordinates and
        the others 0.  At h >= 3 column by column, one pass over every
        run per nonzero coefficient of the fold table."""
        h = self.h
        if h == 1:
            v[:] = [x % m for x in v]
        elif h == 2:
            # x^2 = -poly[1] x - poly[0] on the top slot
            (g0, g1), top = self.poly[:2], v[2::3]
            v[0::3] = [(a - t * g0) % m for a, t in zip(v[0::3], top)]
            v[1::3] = [(b - t * g1) % m for b, t in zip(v[1::3], top)]
            v[2::3] = [0] * len(top)
        else:
            span = 2 * h - 1
            cols = [v[i::span] for i in range(h)]
            for k, red in enumerate(self.folds, h):
                top = v[k::span]
                for i, r in enumerate(red):
                    if r:
                        cols[i] = [a + t * r for a, t in zip(cols[i], top)]
                v[k::span] = [0] * len(top)
            for i, col in enumerate(cols):
                v[i::span] = [x % m for x in col]

    def scalar(self, c, prec: int):
        """(raw coordinates, precision) of the scalar c taken at most at
        prec: an OEInt of this ring (by identity, then by p and defining
        polynomial; ValueError otherwise) meets prec with its own
        precision; an int or raw coordinates are read at prec."""
        if isinstance(c, OEInt):
            self.check_same(c.ring)
            prec = min(prec, c.prec)
            c = c.coords
        elif isinstance(c, int):
            c = (c,) + (0,) * (self.h - 1)
        return self.raw_reduce(c, prec), prec

    def check_same(self, other: "OERing"):
        """ValueError unless other is this ring or agrees with it in p and
        defining polynomial."""
        if other is not self and (other.p, other.poly) != (self.p, self.poly):
            raise ValueError("operands live over different O_E")

    def raw_val(self, a, prec: int) -> int:
        """min v_p over coordinates, read off their gcd; prec when
        indistinguishable from 0."""
        g = gcd(*a)
        return min(prec, vp(g, self.p)) if g else prec

    # -- wrapped elements ----------------------------------------------------

    def __call__(self, coords, prec: int) -> "OEInt":
        c = self.raw_reduce(tuple(int(v) for v in coords), prec)
        if len(c) != self.h:
            raise ValueError("coordinate vector has wrong length")
        return OEInt(self, prec, c)

    def from_int(self, n: int, prec: int) -> "OEInt":
        return self(tuple([n] + [0] * (self.h - 1)), prec)

    def zero(self, prec: int) -> "OEInt":
        return OEInt(self, prec, (0,) * self.h)

    def one(self, prec: int) -> "OEInt":
        return self.from_int(1, prec)

    def reduce_mod_p(self, a) -> "OEInt":
        """The residue of raw coordinates a in F_q = O_E/p."""
        return OEInt(self, 1, self.raw_reduce(a, 1))

    @cached
    def raw_teich(self, x: "OEInt", prec: int) -> tuple:
        """Hensel lift of x mod p to the root of T^(p^h) = T at prec."""
        a = self.raw_reduce(x.coords, prec)
        e = self.p ** self.h
        for _ in range(prec):
            a = self.raw_pow(a, e, prec)
        return a

    def raw_pow(self, a, e: int, prec: int) -> tuple:
        return power(a, e, self.raw_one, lambda x, y: self.raw_mul(x, y, prec))

    def raw_inv(self, a, prec: int) -> tuple:
        """Newton inverse; requires a unit (nonzero residue)."""
        res = self.raw_reduce(a, 1)
        if not any(res):
            raise NotAUnit("not a unit in O_E at this precision")
        # the residue inverse is res^(q - 2) in F_q^x
        b = self.raw_pow(res, self.p ** self.h - 2, 1)
        k = 1
        while k < prec:
            ab = self.raw_mul(a, b, prec)
            b = self.raw_mul(b, self.raw_sub(self._raw_two, ab, prec), prec)
            k *= 2
        return b

    def raw_div_exact_p(self, a, v: int, prec: int) -> tuple:
        """Divide by p^v, asserting exactness; result precision is prec - v."""
        q = self.p ** v
        if any(c % q for c in a):
            raise ValueError("division by p^v is not exact")
        return self.raw_reduce(tuple(c // q for c in a), prec - v)

    def teich_digits(self, a, prec: int) -> list:
        """Teichmueller digit decomposition a = sum p^n [lambda_n], n < prec."""
        digits = []
        cur = a
        for n in range(prec):
            lam = self.reduce_mod_p(cur)
            digits.append(lam)
            t = self.raw_teich(lam, prec - n)
            cur = self.raw_div_exact_p(self.raw_sub(cur, t, prec - n), 1,
                                       prec - n)
        return digits

    def raw_frobenius(self, a, prec: int, e: int = 1) -> tuple:
        """phi^e for any integer e, the Frobenius lift having order h:
        every Teichmueller digit raised to p^(e mod h) in one round trip;
        at e = 0 mod h, where that returns its input, no round trip."""
        if not e % self.h:
            return self.raw_reduce(a, prec)
        q, acc = self.p ** (e % self.h), (0,) * self.h
        for n, lam in enumerate(self.teich_digits(a, prec)):
            lam = OEInt(self, 1, self.raw_pow(lam.coords, q, 1))
            t = self.raw_smul(self.p ** n, self.raw_teich(lam, prec), prec)
            acc = self.raw_add(acc, t, prec)
        return acc


class OEInt:
    """Element of O_E known mod p^prec (capped absolute precision)."""

    __slots__ = ("ring", "prec", "coords")

    def __init__(self, ring: OERing, prec: int, coords: tuple):
        self.ring = ring
        self.prec = prec
        self.coords = coords

    def _join(self, other) -> int:
        self.ring.check_same(other.ring)
        return min(self.prec, other.prec)

    # the raw kernels reduce mod p^pr, so neither operand is reduced first
    def __add__(self, other):
        pr = self._join(other)
        return OEInt(self.ring, pr,
                     self.ring.raw_add(self.coords, other.coords, pr))

    def __sub__(self, other):
        pr = self._join(other)
        return OEInt(self.ring, pr,
                     self.ring.raw_sub(self.coords, other.coords, pr))

    def __neg__(self):
        return OEInt(self.ring, self.prec,
                     self.ring.raw_neg(self.coords, self.prec))

    def __mul__(self, other):
        if isinstance(other, int):
            return OEInt(self.ring, self.prec,
                         self.ring.raw_smul(other, self.coords, self.prec))
        pr = self._join(other)
        return OEInt(self.ring, pr,
                     self.ring.raw_mul(self.coords, other.coords, pr))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        a = self.coords if e >= 0 else \
            self.ring.raw_inv(self.coords, self.prec)
        return OEInt(self.ring, self.prec,
                     self.ring.raw_pow(a, abs(e), self.prec))

    def __eq__(self, other):
        return (isinstance(other, OEInt) and self.ring is other.ring
                and self.prec == other.prec and self.coords == other.coords)

    def __hash__(self):
        return hash((self.prec, self.coords))

    def __bool__(self):
        return any(self.coords)

    def reduce(self, prec: int) -> "OEInt":
        if prec > self.prec:
            raise PrecisionExhausted(
                f"element known mod p^{self.prec}, requested p^{prec}")
        return OEInt(self.ring, prec, self.ring.raw_reduce(self.coords, prec))

    def frobenius(self, e: int = 1) -> "OEInt":
        return OEInt(self.ring, self.prec,
                     self.ring.raw_frobenius(self.coords, self.prec, e))

    def pth_root(self, n: int = 1) -> "OEInt":
        """The n-th power of the inverse Frobenius."""
        return self.frobenius(-n)

    def __repr__(self):
        return f"OEInt{self.coords}~p^{self.prec}"


# ---------------------------------------------------------------------------
# Params
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """Global shape of one computation: field sizes and precision windows.

    p: prime; f: [K:Q_p]; h: residue degree of E (f | h); N: pi-adic
    precision; M: total-degree window for series; B: cross-exponent band;
    k: denominator depth p^-k for perfectoid exponents.
    """

    p: int
    f: int
    h: int
    N: int
    M: int
    B: int
    k: int
    poly: tuple

    @classmethod
    def create(cls, p: int, f: int, h: Optional[int] = None, N: int = 3,
               M: int = 12, B: int = 6, k: int = 4,
               poly: Optional[tuple] = None) -> "Params":
        if h is None:
            h = f
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if f < 1 or h < 1 or h % f != 0:
            raise ValueError(f"need f >= 1, h >= 1 and f | h (f = {f}, "
                             f"h = {h})")
        if min(N, M, B, k) < 1:
            raise ValueError("N, M, B, k must all be >= 1")
        # FField checks an explicit poly: monic, degree h, irreducible
        poly = default_poly(p, h) if poly is None else FField(p, h, poly).poly
        return cls(p, f, h, N, M, B, k, tuple(poly))

    @property
    def q(self) -> int:
        return self.p ** self.f

    def guard(self, window: Optional[int] = None) -> int:
        """Extra pi-digits needed so degree-(window-1) binomials certify."""
        w = self.M if window is None else window
        return vp_factorial(w - 1, self.p)

    def n_work(self, window: Optional[int] = None) -> int:
        return self.N + self.guard(window)

    @property
    def embed_window(self) -> int:
        """Degree window for the fixpoint series of the perfectoid embedding."""
        return self.M if self.f == 1 else max(self.M, 15)


# fields are keyed on (p, h, poly) alone: hashing three fields is cheaper
# than hashing the whole Params, and oe_ring is on every arithmetic path

def fq_field(params: Params) -> FField:
    return _fq_field(params.p, params.h, params.poly)


def oe_ring(params: Params) -> OERing:
    return _fq_field(params.p, params.h, params.poly).oe


@cached
def _fq_field(p: int, h: int, poly: tuple) -> FField:
    return FField(p, h, poly)


@cached
def ok_ring(params: Params) -> "OKRing":
    return OKRing(params)


# ---------------------------------------------------------------------------
# scalar operations
# ---------------------------------------------------------------------------

def binomial_row(p: int, a: int, prec: int, count: int):
    """(C(a, d), prec - v_p(d!)) for d = 0 .. count-1, a known mod p^prec.

    One pass: the falling factorial a(a-1)...(a-d+1) mod p^prec and the
    unit part of d! carry over from d-1.  Raises PrecisionExhausted at the
    first d left with no certified digit.
    """
    m = p ** prec
    num, unit, v = 1, 1, 0
    yield 1 % m, prec
    for d in range(1, count):
        num = num * (a - d + 1) % m
        k = d
        while k % p == 0:
            k //= p
            v += 1
        unit = unit * k % m
        if v >= prec:
            raise PrecisionExhausted(f"C(a, {d}) retains no digits at "
                                     f"precision {prec} (v_p({d}!) = {v})")
        if num % p ** v:
            raise PrecisionExhausted("numerator lost expected divisibility")
        mo = p ** (prec - v)
        yield num // p ** v * pow(unit, -1, mo) % mo, prec - v


# ---------------------------------------------------------------------------
# O_K inside O_E
# ---------------------------------------------------------------------------

def _row_reduce(rows, p: int, m: int):
    """Gauss-Jordan over Z/m, m a power of p.  Each column pivots on the
    first remaining row whose entry is a unit; a column with none is
    skipped.  Returns the reduced rows and the pivot columns."""
    a = [[x % m for x in row] for row in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][col] % p), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        inv = pow(a[top][col], -1, m)
        a[top] = [(x * inv) % m for x in a[top]]
        for r in range(len(a)):
            if r != top and a[r][col]:
                c = a[r][col]
                a[r] = [(x - c * y) % m for x, y in zip(a[r], a[top])]
        pivots.append(col)
    return a, pivots


def _fixed_space(field: FField, f: int) -> tuple:
    """Echelonized F_p-basis of the elements Frob^f fixes, the kernel of
    Frob^f - id acting on F_p[x]/(g), and its free columns: basis vector k
    is 1 at free column k and 0 at the others."""
    p, h = field.p, field.h
    cols = []
    for i in range(h):
        e = field((0,) * i + (1,) + (0,) * (h - 1 - i))
        im = e ** (p ** f)
        cols.append([(a - b) % p for a, b in zip(im.coords, e.coords)])
    # kernel of the h x h matrix with those columns
    a, pivots = _row_reduce([[cols[j][i] for j in range(h)]
                             for i in range(h)], p, p)
    free = [c for c in range(h) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * h
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-a[r][fc]) % p
        basis.append(field(vec))
    return basis, free


class OKRing:
    """O_K = W(F_q) realized inside O_E via Teichmueller lifts of a basis."""

    def __init__(self, params: Params):
        self.params = params
        self.oe = oe_ring(params)
        self.field = fq_field(params)
        self.prec = params.n_work()
        # a Teichmueller lift is its residue mod p, so at the free columns
        # the basis-lift matrix is the identity mod p: its pivot rows
        self.fq_basis, self.pivot_rows = _fixed_space(self.field, params.f)
        if len(self.fq_basis) != params.f:
            raise RuntimeError("subfield dimension mismatch")

    # -- elements ------------------------------------------------------------

    def __call__(self, coords, prec: Optional[int] = None) -> "OKElement":
        pr = self.prec if prec is None else prec
        m = self.params.p ** pr
        c = tuple(int(v) % m for v in coords)
        if len(c) != self.params.f:
            raise ValueError("coordinate vector has wrong length")
        return OKElement(self, pr, c)

    def image(self, x: "OKElement") -> tuple:
        """Raw O_E coordinates of sum x_j * t_j at x.prec."""
        oe = self.oe
        tb, _, _ = self._solver_at(x.prec)
        acc = (0,) * self.params.h
        for j, c in enumerate(x.coords):
            if c:
                acc = oe.raw_add(acc, oe.raw_smul(c, tb[j], x.prec), x.prec)
        return acc

    @cached
    def _solver_at(self, prec: int):
        """(teich basis, basis matrix, pivot-square inverse) at a precision."""
        p, f = self.params.p, self.params.f
        tb = [self.oe.raw_teich(b, prec) for b in self.fq_basis]
        T = [[tb[j][i] for j in range(f)] for i in range(self.params.h)]
        # [square | I] reduces to [I | square^-1]: the square is the
        # identity mod p (``_fixed_space``'s free columns), so never singular
        reduced, _ = _row_reduce(
            [T[i] + [int(r == c) for c in range(f)]
             for r, i in enumerate(self.pivot_rows)], p, p ** prec)
        return tb, T, [row[f:] for row in reduced]

    def coordinates_raw(self, vec: tuple, prec: int) -> tuple:
        """Solve sum x_j t_j = vec; raises if vec is not in the O_K lattice."""
        p, f = self.params.p, self.params.f
        m = p ** prec
        _, T, inv = self._solver_at(prec)
        rhs = [[vec[i] % m] for i in self.pivot_rows]
        x = tuple(sum(inv[i][j] * rhs[j][0] for j in range(f)) % m
                  for i in range(f))
        # consistency on all h rows
        for i in range(self.params.h):
            s = sum(T[i][j] * x[j] for j in range(f)) % m
            if s != vec[i] % m:
                raise ValueError("vector is not in the O_K lattice")
        return x

    def coordinates_of_felt(self, lam: OEInt,
                            prec: Optional[int] = None) -> "OKElement":
        """Teichmueller coordinates of lambda in F_q (must lie in F_q)."""
        pr = self.prec if prec is None else prec
        t = self.oe.raw_teich(lam, pr)
        return OKElement(self, pr, self.coordinates_raw(t, pr))

    def fq_elements(self):
        """All q elements of F_q as residues in the big field."""
        p, f = self.params.p, self.params.f
        for idx in range(p ** f):
            acc = self.field.zero
            for d, b in zip(base_p_digits(idx, p, f), self.fq_basis):
                if d:
                    acc = acc + self.field.from_int(d) * b
            yield acc

    def sigma(self, x: "OKElement", i: int) -> OEInt:
        """Embedding sigma_i = sigma_0 . Frob^i applied to x, as an O_E scalar."""
        return OEInt(self.oe, x.prec,
                     self.oe.raw_frobenius(self.image(x), x.prec, i))

    def random_unit(self, rng) -> "OKElement":
        while True:
            coords = tuple(rng.randrange(self.params.p ** self.params.N)
                           for _ in range(self.params.f))
            x = self(coords)
            if x.is_unit():
                return x


class OKElement:
    """Element of O_K/p^prec in the Teichmueller coordinate basis."""

    __slots__ = ("okr", "prec", "coords")

    def __init__(self, okr: OKRing, prec: int, coords: tuple):
        self.okr = okr
        self.prec = prec
        self.coords = coords

    def __eq__(self, other):
        return (isinstance(other, OKElement) and self.okr is other.okr
                and self.prec == other.prec and self.coords == other.coords)

    def __hash__(self):
        return hash((self.prec, self.coords))

    def residue(self) -> OEInt:
        return self.okr.oe.reduce_mod_p(self.okr.image(self))

    def is_unit(self) -> bool:
        return bool(self.residue())

    def _join(self, other) -> int:
        """The common precision; ValueError unless other lies over this
        O_K: the same ring, or one that agrees in p, f, h and defining
        polynomial."""
        a, b = self.okr.params, other.okr.params
        if other.okr is not self.okr and \
                (a.p, a.f, a.h, a.poly) != (b.p, b.f, b.h, b.poly):
            raise ValueError("operands live over different O_K")
        return min(self.prec, other.prec)

    def __add__(self, other):
        pr = self._join(other)
        return OKElement(self.okr, pr,
                         self.okr.oe.raw_add(self.coords, other.coords, pr))

    def __mul__(self, other):
        if isinstance(other, int):
            return OKElement(self.okr, self.prec, self.okr.oe.raw_smul(
                other, self.coords, self.prec))
        pr = self._join(other)
        img = self.okr.oe.raw_mul(self.okr.image(self), self.okr.image(other),
                                  pr)
        return OKElement(self.okr, pr, self.okr.coordinates_raw(img, pr))

    __rmul__ = __mul__

    def __repr__(self):
        return f"OK{self.coords}~p^{self.prec}"
