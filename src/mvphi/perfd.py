"""The truncated perfection of the mod-pi coefficient ring, with Gauss norms.

``PerfLaurent`` holds a finite sum of terms c * (monomial in Y_0, ...,
Y_{f-1} with exponents in p^{-k} Z) over the residue field, with a
Gauss-valuation window and a cross band.  Every variable has Gauss weight
1, so the Gauss valuation of a monomial is the sum of its exponents.

``BElt`` wraps an expansion-form Witt vector over such a ring together with
a radius and a global monomial shift (the [1/uniformizer] localization).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Optional

from .caches import cached
from .coeff import FElt, Params, fq_field
from .errors import BandOverflow, DepthExhausted
from .mvring import NormValue
from .sparse import bound_add, bound_min
from . import witt as wt


class PerfRing:
    """Descriptor: variable count f, denominator depth."""

    def __init__(self, params: Params):
        self.params = params
        self.nvars = params.f
        self.scale = params.p ** params.k
        self.field = fq_field(params)
        # capacity guard: roots and structure-polynomial powers reach
        # p^(N+1)-fold exponents of banded inputs
        self.band_cap = max(params.B, 8) * self.scale \
            * params.p ** (params.N + 1)


def ainf_ring(params: Params) -> PerfRing:
    return PerfRing(params)


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

    terms: scaled pure-exponent tuple -> FElt.  w_lo/w_hi bound the Gauss
    valuation (w_hi None = exact); band bounds |scaled cross exponents|.
    """

    __slots__ = ("ring", "terms", "w_lo", "w_hi", "band")

    def __init__(self, ring: PerfRing, terms: dict, w_lo=None, w_hi=None,
                 band=None, _normalized=False):
        self.ring = ring
        self.w_hi = w_hi
        self.band = ring.band_cap if band is None else band
        if _normalized:
            self.terms = terms
            self.w_lo = Fraction(0) if w_lo is None else w_lo
            return
        out = {}
        for e, c in terms.items():
            gv = self._gv(e)
            if w_hi is not None and gv >= w_hi:
                continue
            if any(abs(x) > self.band for x in e[1:]):
                raise BandOverflow(f"cross exponents {e[1:]} exceed the band")
            if c:
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
            bits.append(f"{list(self.terms[e].coords)}{'*' + mon if mon else ''}")
        return " + ".join(bits) if bits else "0"

    # -- arithmetic ---------------------------------------------------------------

    def _cut(self, hi):
        """The least scaled exponent sum at or above the bound hi."""
        return None if hi is None else ceil(hi * self.ring.scale)

    def __add__(self, other):
        hi = bound_min(self.w_hi, other.w_hi)
        lo = min(self.w_lo, other.w_lo)
        band = min(self.band, other.band)
        if hi is None and not (self.terms and other.terms):
            return PerfLaurent(self.ring, self.terms or other.terms, lo, hi,
                               band, _normalized=True)
        hs = self._cut(hi)
        out = dict()
        for src in (self.terms, other.terms):
            for e, c in src.items():
                if hs is not None and sum(e) >= hs:
                    continue
                cur = out.get(e)
                s = c if cur is None else cur + c
                if s:
                    out[e] = s
                elif cur is not None:
                    del out[e]
        return PerfLaurent(self.ring, out, lo, hi, band, _normalized=True)

    def __neg__(self):
        return PerfLaurent(self.ring, {e: -c for e, c in self.terms.items()},
                           self.w_lo, self.w_hi, self.band, _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        lo = self.w_lo + other.w_lo
        hi = bound_min(bound_add(self.w_lo, other.w_hi),
                       bound_add(other.w_lo, self.w_hi))
        band = min(self.band, other.band)
        out = {}
        if not (self.terms and other.terms):
            return PerfLaurent(self.ring, out, lo, hi, band, _normalized=True)
        hs = self._cut(hi)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if hs is not None and sum(e) >= hs:
                    continue
                if any(abs(x) > band for x in e[1:]):
                    raise BandOverflow(
                        f"product cross exponents {e[1:]} exceed the band")
                prod = c1 * c2
                cur = out.get(e)
                s = prod if cur is None else cur + prod
                if s:
                    out[e] = s
                elif cur is not None:
                    del out[e]
        return PerfLaurent(self.ring, out, lo, hi, band, _normalized=True)

    def scalar_mul(self, lam: FElt):
        if not lam:
            return PerfLaurent.zero(self.ring)
        return PerfLaurent(self.ring,
                           {e: c * lam for e, c in self.terms.items()},
                           self.w_lo, self.w_hi, self.band, _normalized=True)

    def frobenius(self):
        """The ring Frobenius x -> x^p (coefficients included)."""
        p = self.ring.params.p
        out = {tuple(p * x for x in e): c.frobenius()
               for e, c in self.terms.items()}
        return PerfLaurent(self.ring, out, self.w_lo * p,
                           None if self.w_hi is None else self.w_hi * p,
                           self.band * p, _normalized=True)

    def pth_root(self):
        p = self.ring.params.p
        out = {}
        for e, c in self.terms.items():
            if any(x % p for x in e):
                raise DepthExhausted(
                    f"p-th root leaves depth p^-{self.ring.params.k}")
            out[tuple(x // p for x in e)] = c.pth_root()
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

    def window(self, acc, terms, vals):
        """``acc``, the sum of the terms with no zero value, given the
        window and band of the sum of every term of ``terms`` at ``vals``.

        These depend only on the values' (w_lo, w_hi, band): v^d has w_lo
        d*lo_v and w_hi (d-1)*lo_v + hi_v, so a term has w_lo lo_t = sum
        d_j*lo_j and w_hi lo_t + min_j (hi_j - lo_j), here as numerators
        over the lcm of the values' window denominators.
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
        hi = None if w_hi is None else Fraction(w_hi, den)
        hs = acc._cut(hi)
        out = acc.terms if hs is None else \
            {e: c for e, c in acc.terms.items() if sum(e) < hs}
        return PerfLaurent(self.ring, out, Fraction(w_lo, den), hi, band,
                           _normalized=True)

    def embed_residue(self, lam: FElt):
        return PerfLaurent(self.ring, {(0,) * self.ring.nvars: lam})


@cached
def ainf_handle(params: Params) -> PerfHandle:
    return PerfHandle(ainf_ring(params))


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
    r = Fraction(w.r)
    for n, d in enumerate(w.digits()):
        gv = gauss_val(d)
        if gv is None:
            continue
        if gv + Fraction(n, 1) / r - w.shift < 0:
            return False
    return True


def phi_q_belt(w: BElt) -> BElt:
    """Digitwise F-linear phi_q; lands at radius r/q with shift scaled by q."""
    q = w.witt.handle.ring.params.q
    mapped = wt.map_coefficients(phi_q_linear, w.witt)
    return BElt(mapped, Fraction(w.r) / q, w.shift * q, w.floor * q)
