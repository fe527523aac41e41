"""The truncated perfection of the mod-pi coefficient ring, with Gauss norms.

``PerfLaurent`` holds a finite sum of terms c * (monomial in Y_0, ...,
Y_{f-1} with exponents in p^{-k} Z) over the residue field, with a
Gauss-valuation window and a cross band.  Coefficients are raw F_q
coordinate tuples, and the arithmetic is the O_E kernels' at precision 1.
Every variable has Gauss weight 1, so the Gauss valuation of a monomial is
the sum of its exponents.

``BElt`` wraps an expansion-form Witt vector over such a ring together with
a radius and a global monomial shift (the [1/uniformizer] localization).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Optional

from .caches import cached
from .coeff import FElt, Params, fq_field, oe_ring
from .errors import BandOverflow, DepthExhausted
from .mvring import NormValue
from . import sparse
from .sparse import bound_add, bound_min
from . import witt as wt


class PerfRing:
    """Descriptor: variable count f, denominator depth."""

    def __init__(self, params: Params):
        self.params = params
        self.nvars = params.f
        self.scale = params.p ** params.k
        self.field = fq_field(params)
        self.oe = oe_ring(params)
        # capacity guard: roots and structure-polynomial powers reach
        # p^(N+1)-fold exponents of banded inputs
        self.band_cap = max(params.B, 8) * self.scale \
            * params.p ** (params.N + 1)


def ainf_ring(params: Params) -> PerfRing:
    """The one ring per params (elements compare rings by identity)."""
    return ainf_handle(params).ring


def scaled_exponents(params: Params, exponents) -> tuple:
    """Pure rational exponents as integers over the scale p^k."""
    out = []
    for x in exponents:
        s = Fraction(x) * params.p ** params.k
        if s.denominator != 1:
            raise DepthExhausted(f"exponent {x} below depth p^-{params.k}")
        out.append(int(s))
    return tuple(out)


def phi_exponents(e: tuple, p: int) -> tuple:
    """The scaled exponent of the substitution Y_i -> Y_{i-1}^p."""
    return tuple(p * x for x in e[1:] + e[:1])


class PerfLaurent:
    """Element with exponents in (1/scale) Z, coefficients in the residue field.

    terms: scaled pure-exponent tuple -> F_q coordinate tuple (the
    constructor also takes an FElt).  w_lo/w_hi bound the Gauss valuation
    (w_hi None = exact); band bounds |scaled cross exponents|.
    """

    __slots__ = ("ring", "terms", "w_lo", "w_hi", "band")

    def __init__(self, ring: PerfRing, terms: dict, w_lo=None, w_hi=None,
                 band=None, _normalized=False):
        self.ring = ring
        self.w_hi = w_hi
        self.band = ring.band_cap if band is None else band
        if _normalized:
            if w_lo is None:
                raise ValueError("a normalized element needs its floor w_lo")
            self.terms, self.w_lo = terms, w_lo
            return
        out = {}
        for e, c in terms.items():
            gv = self._gv(e)
            if w_hi is not None and gv >= w_hi:
                continue
            if any(abs(x) > self.band for x in e[1:]):
                raise BandOverflow(f"cross exponents {e[1:]} exceed the band")
            c = getattr(c, "coords", c)
            if any(c):
                out[tuple(e)] = c
        self.terms = out
        lo = min((self._gv(e) for e in out), default=Fraction(0))
        self.w_lo = lo if w_lo is None else min(w_lo, lo)

    def _gv(self, e) -> Fraction:
        return Fraction(sum(e), self.ring.scale)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(ring):
        return PerfLaurent(ring, {}, Fraction(0), None, None,
                           _normalized=True)

    @staticmethod
    def monomial(ring, exponents, coeff=None):
        """exponents: pure rational exponents (Fractions or ints)."""
        c = ring.field.one if coeff is None else coeff
        return PerfLaurent(ring, {scaled_exponents(ring.params, exponents): c})

    @staticmethod
    def one(ring):
        return PerfLaurent.monomial(ring, (0,) * ring.nvars)

    # -- structure ---------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, PerfLaurent) and self.ring is other.ring
                and self.terms == other.terms)

    def eq_within(self, other) -> bool:
        """Equality of represented terms inside the common window."""
        hi = bound_min(self.w_hi, other.w_hi)
        for e in set(self.terms) | set(other.terms):
            if hi is not None and self._gv(e) >= hi:
                continue
            if self.terms.get(e) != other.terms.get(e):
                return False
        return True

    def __repr__(self):
        bits = []
        for e in sorted(self.terms):
            mon = "*".join(f"Y{i}^{Fraction(x, self.ring.scale)}"
                           for i, x in enumerate(e) if x)
            bits.append(f"{list(self.terms[e])}{'*' + mon if mon else ''}")
        return " + ".join(bits) if bits else "0"

    # -- arithmetic ---------------------------------------------------------------

    def _cut(self, hi):
        """The least scaled exponent sum at or above the bound hi."""
        return None if hi is None else ceil(hi * self.ring.scale)

    @staticmethod
    def sum(parts) -> "PerfLaurent":
        """parts[0] + parts[1] + ...: the least w_lo and band, the meet of
        the w_hi, and the terms below it."""
        ring = parts[0].ring
        hi = None
        for x in parts:
            hi = bound_min(hi, x.w_hi)
        hs = parts[0]._cut(hi)
        out = sparse.add(ring.oe, [x.terms for x in parts], 1,
                         None if hs is None else lambda e: sum(e) < hs)
        return PerfLaurent(ring, out, min(x.w_lo for x in parts), hi,
                           min(x.band for x in parts), _normalized=True)

    def __add__(self, other):
        return PerfLaurent.sum((self, other))

    def __neg__(self):
        return PerfLaurent(self.ring, sparse.neg(self.ring.oe, self.terms, 1),
                           self.w_lo, self.w_hi, self.band, _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        lo = self.w_lo + other.w_lo
        hi = bound_min(bound_add(self.w_lo, other.w_hi),
                       bound_add(other.w_lo, self.w_hi))
        band = min(self.band, other.band)
        hs = self._cut(hi)

        def keep(e):
            if hs is not None and sum(e) >= hs:
                return False
            if any(abs(x) > band for x in e[1:]):
                raise BandOverflow(
                    f"product cross exponents {e[1:]} exceed the band")
            return True
        out = sparse.mul(self.ring.oe, self.terms, other.terms, 1, keep)
        return PerfLaurent(self.ring, out, lo, hi, band, _normalized=True)

    def frobenius(self):
        """The ring Frobenius x -> x^p (coefficients included)."""
        p, oe = self.ring.params.p, self.ring.oe
        out = {tuple(p * x for x in e): oe.raw_pow(c, p, 1)
               for e, c in self.terms.items()}
        return PerfLaurent(self.ring, out, self.w_lo * p,
                           None if self.w_hi is None else self.w_hi * p,
                           self.band * p, _normalized=True)

    def pth_root(self):
        p, oe = self.ring.params.p, self.ring.oe
        # Frobenius has order h on F_q, so x^(p^(h-1)) inverts it
        root = p ** (self.ring.params.h - 1)
        out = {}
        for e, c in self.terms.items():
            if any(x % p for x in e):
                raise DepthExhausted(
                    f"p-th root leaves depth p^-{self.ring.params.k}")
            out[tuple(x // p for x in e)] = oe.raw_pow(c, root, 1)
        return PerfLaurent(self.ring, out, self.w_lo / p,
                           None if self.w_hi is None
                           else Fraction(self.w_hi) / p,
                           max(1, self.band // p), _normalized=True)


# ---------------------------------------------------------------------------
# Gauss norms and the F-linear Frobenius substitution
# ---------------------------------------------------------------------------

def gauss_val(x: PerfLaurent) -> Optional[Fraction]:
    """min Gauss valuation over terms (value |x| = p^{-gauss_val}); None = 0."""
    if not x.terms:
        return None
    return min(x._gv(e) for e in x.terms)


def phi_linear(x: PerfLaurent) -> PerfLaurent:
    """The coefficient-fixing substitution Y_i -> Y_{i-1}^p (index shift)."""
    p = x.ring.params.p
    out = {phi_exponents(e, p): c for e, c in x.terms.items()}
    return PerfLaurent(x.ring, out, x.w_lo * p,
                       None if x.w_hi is None else x.w_hi * p,
                       x.band * p, _normalized=True)


def phi_q_linear(x: PerfLaurent) -> PerfLaurent:
    out = x
    for _ in range(x.ring.params.f):
        out = phi_linear(out)
    return out


def pr_radius(params: Params, i: int, r: Fraction) -> Fraction:
    """Radius conversion factor (p-1)/((q-1) p^i) for coordinate i."""
    if not 0 <= i < params.f:
        raise ValueError("coordinate index out of range")
    if r <= 0:
        raise ValueError("radius must be positive")
    return Fraction(params.p - 1, (params.q - 1) * params.p ** i) * Fraction(r)


# ---------------------------------------------------------------------------
# Witt handle over a perfectoid ring
# ---------------------------------------------------------------------------

class PerfHandle:
    """Perfect-ring handle exposing PerfLaurent to the Witt layer."""

    def __init__(self, ring: PerfRing):
        self.ring = ring
        self.p = ring.params.p
        self.field = ring.field

    def zero(self):
        return PerfLaurent.zero(self.ring)

    def one(self):
        return PerfLaurent.one(self.ring)

    def is_zero(self, a):
        return a.is_zero()

    def eq(self, a, b):
        return a.eq_within(b)

    def sum(self, parts, terms, vals):
        """The sum of ``parts``, the terms with no zero value, given the
        window and band of the sum of every term of ``terms`` at ``vals``.

        These are at or below each part's, so one more part, empty and
        carrying them, sets them in the n-ary sum.  They depend only on
        the values' (w_lo, w_hi, band): v^d has w_lo d*lo_v and w_hi
        (d-1)*lo_v + hi_v, so a term has w_lo lo_t = sum d_j*lo_j and w_hi
        lo_t + min_j (hi_j - lo_j), here as numerators over the lcm of the
        values' window denominators.
        """
        den = lcm(*(x.denominator for v in vals for x in (v.w_lo, v.w_hi)
                    if x is not None))
        lo = [v.w_lo.numerator * (den // v.w_lo.denominator) for v in vals]
        gap = [None if v.w_hi is None else
               v.w_hi.numerator * (den // v.w_hi.denominator) - x
               for v, x in zip(vals, lo)]
        w_lo, w_hi, band = 0, None, self.ring.band_cap
        for _, factors in terms:
            t_lo, t_gap = 0, None
            for j, d in factors:
                t_lo += d * lo[j]
                g = gap[j]
                if g is not None and (t_gap is None or g < t_gap):
                    t_gap = g
                if vals[j].band < band:
                    band = vals[j].band
            w_lo = min(w_lo, t_lo)
            if t_gap is not None and (w_hi is None or t_lo + t_gap < w_hi):
                w_hi = t_lo + t_gap
        bound = PerfLaurent(self.ring, {}, Fraction(w_lo, den),
                            None if w_hi is None else Fraction(w_hi, den),
                            band, _normalized=True)
        return PerfLaurent.sum(parts + [bound])

    def embed_residue(self, lam: FElt):
        return PerfLaurent(self.ring, {(0,) * self.ring.nvars: lam})


@cached
def ainf_handle(params: Params) -> PerfHandle:
    return PerfHandle(PerfRing(params))


# ---------------------------------------------------------------------------
# BElt: Witt expansions with a radius
# ---------------------------------------------------------------------------

@dataclass
class BElt:
    """[uniformizer]^(-shift) * w at radius r, with w integrally normalized.

    ``floor`` is a proven lower bound for the Gauss valuation of every digit
    of w, including the ones beyond the pi-precision.
    """
    witt: wt.WittVec
    r: Fraction
    shift: Fraction = Fraction(0)
    floor: Fraction = Fraction(0)

    def digits(self):
        return self.witt.digits()


def b_val_r(w: BElt):
    """min over digits n of gauss_val(x_n) + n/r, minus the monomial shift."""
    r = Fraction(w.r)
    best = None
    for n, d in enumerate(w.digits()):
        gv = gauss_val(d)
        if gv is None:
            continue
        lvl = gv + Fraction(n, 1) / r
        if best is None or lvl < best:
            best = lvl
    if best is None:
        return NormValue(None, False)
    certified = True
    for n, d in enumerate(w.digits()):
        if d.w_hi is not None and best >= d.w_hi + Fraction(n, 1) / r:
            certified = False
    if best >= Fraction(w.witt.prec, 1) / r + w.floor:
        certified = False
    return NormValue(best - w.shift, certified)


def member_B0r(w: BElt) -> bool:
    """Power-bounded test: every digit has gauss_val(x_n) + n/r - shift >= 0."""
    val = b_val_r(w).val
    return val is None or val >= 0


def phi_q_belt(w: BElt) -> BElt:
    """Digitwise F-linear phi_q; lands at radius r/q with shift scaled by q."""
    q = w.witt.handle.ring.params.q
    mapped = wt.map_coefficients(phi_q_linear, w.witt)
    return BElt(mapped, Fraction(w.r) / q, w.shift * q, w.floor * q)
