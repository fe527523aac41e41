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
from functools import partial
from math import lcm
from operator import add, mul
from typing import Optional

from .caches import cached
from .coeff import OEInt, Params, fq_field, oe_ring, power
from .errors import BandOverflow, DepthExhausted
from .mvring import NormValue
from . import sparse
from .sparse import bound_add, bound_min, ceil_cut, rescale
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
        # the order of F_q^x: c^d = c^(d mod units) for every coefficient
        self.units = params.p ** params.h - 1

    # raw values (terms, lo, hi, band): an element's terms, window lo/den
    # to hi/den over a denominator given alongside, and band

    def product(self, den: int, a: tuple, b: tuple) -> tuple:
        """The raw product of a and b, both over den: the terms below the
        ceiling of the product's w_hi, a kept term past the band raising
        ``BandOverflow``.  Over F_q no product of coefficients is zero, and
        a one-term factor gives distinct keys: one loop, nothing summed."""
        ta, a_lo, a_hi, a_band = a
        tb, b_lo, b_hi, b_band = b
        hi = bound_min(bound_add(a_lo, b_hi), bound_add(b_lo, a_hi))
        band = min(a_band, b_band)
        hs = ceil_cut(hi, self.scale, den)
        cross = self.nvars > 1
        single, rest = (ta, tb) if len(ta) == 1 else (tb, ta)
        if len(single) == 1:
            ((e1, c1),) = single.items()
            raw_mul, out = self.oe.raw_mul, {}
            for e2, c2 in rest.items():
                e = tuple(map(add, e1, e2))
                if hs is None or sum(e) < hs:
                    if cross:
                        _check_band(e, band)
                    out[e] = raw_mul(c1, c2, 1)
        else:
            def join(e1, e2):
                e = tuple(map(add, e1, e2))
                if hs is not None and sum(e) >= hs:
                    return None
                _check_band(e, band)
                return e
            out = sparse.product(self.oe, ta, tb, 1, join)
        return out, a_lo + b_lo, hi, band

    def mono_power(self, den: int, x: tuple, d: int) -> tuple:
        """x^d (d >= 1) for a raw x of one term c*Y^e, as ``coeff.power``
        forms it from ``PerfLaurent.one`` with ``product``: {d*e: c^d},
        window (d*lo, (d-1)*lo + hi), band min(band_cap, band).

        The binary-powering products are followed on multiplicities alone:
        x^m has the window above and the band of x for a square, the capped
        band for a product into the result; each product of two live
        factors is cut or checked against its band, and a cut one leaves
        every later product that reads it empty."""
        terms, lo, hi, band = x
        ((e, c),) = terms.items()
        s, cap, cross = sum(e), min(self.band_cap, band), self.nvars > 1

        def live(m, band):
            if hi is not None and \
                    m * s >= ceil_cut((m - 1) * lo + hi, self.scale, den):
                return False
            if cross:
                _check_band(tuple(m * v for v in e), band)
            return True

        r, r_live, sq, sq_live = 0, True, 1, True
        while True:
            if d & 1:
                r += sq
                r_live = r_live and sq_live and live(r, cap)
            d >>= 1
            if not d:
                break
            sq *= 2
            sq_live = sq_live and live(sq, band)
        out = {tuple(r * v for v in e):
               self.oe.raw_pow(c, r % self.units, 1)} if r_live else {}
        return out, r * lo, bound_add(hi, (r - 1) * lo), cap


def _check_band(e, band: int):
    for x in e[1:]:
        if abs(x) > band:
            raise BandOverflow(
                f"product cross exponents {e[1:]} exceed the band")


def scaled_exponents(params: Params, exponents) -> tuple:
    """Pure rational exponents as integers over the scale p^k."""
    out = []
    for x in exponents:
        s = Fraction(x) * params.p ** params.k
        if s.denominator != 1:
            raise DepthExhausted(f"exponent {x} below depth p^-{params.k}")
        out.append(int(s))
    return tuple(out)


def phi_exponents(e: tuple, p: int, n: int = 1) -> tuple:
    """The scaled exponent of the substitution Y_i -> Y_{i-1}^p applied n
    times: rotated by n and scaled by p^n."""
    k, m = n % len(e), p ** n
    return tuple(m * x for x in e[k:] + e[:k])


def _windows(xs):
    """The lcm of the elements' denominators, and each (lo, hi) over it."""
    den = lcm(*(x._den for x in xs))
    return den, [rescale((x._lo, x._hi), den // x._den) for x in xs]


class PerfLaurent(sparse.Terms):
    """Element with exponents in (1/scale) Z, coefficients in the residue field.

    terms: scaled pure-exponent tuple -> F_q coordinate tuple (the
    constructor also takes a precision-1 OEInt).  w_lo/w_hi bound the
    Gauss valuation (w_hi None = exact) as integers _lo/_hi over _den, the
    ring's scale or a multiple of it; band bounds |scaled cross exponents|.
    """

    __slots__ = ("ring", "terms", "_lo", "_hi", "_den", "band")
    prec = 1    # coefficients in F_q = O_E / p

    def __init__(self, ring: PerfRing, terms: dict, w_lo=None, w_hi=None,
                 band=None):
        lo, hi = (None if w is None else Fraction(w) for w in (w_lo, w_hi))
        den = lcm(ring.scale, *(w.denominator for w in (lo, hi)
                                if w is not None))
        hi = None if hi is None else hi.numerator * (den // hi.denominator)
        hs = ceil_cut(hi, ring.scale, den)
        band = ring.band_cap if band is None else band
        out = {}
        for e, c in terms.items():
            if hs is not None and sum(e) >= hs:
                continue
            if any(abs(x) > band for x in e[1:]):
                raise BandOverflow(f"cross exponents {e[1:]} exceed the band")
            c = getattr(c, "coords", c)
            if any(c):
                out[tuple(e)] = c
        floor = min(map(sum, out), default=0) * (den // ring.scale)
        if lo is not None:
            floor = min(floor, lo.numerator * (den // lo.denominator))
        self.ring, self.terms, self.band = ring, out, band
        self._lo, self._hi, self._den = floor, hi, den

    @staticmethod
    def _make(ring, terms, lo: int, hi, den: int, band: int):
        """The element with these terms (below hi, coordinates in [0, p),
        none zero), window lo/den to hi/den and band."""
        x = object.__new__(PerfLaurent)
        x.ring, x.terms, x._lo, x._hi, x._den, x.band = \
            ring, terms, lo, hi, den, band
        return x

    @property
    def params(self) -> Params:
        return self.ring.params

    @property
    def w_lo(self) -> Fraction:
        return Fraction(self._lo, self._den)

    @property
    def w_hi(self) -> Optional[Fraction]:
        return None if self._hi is None else Fraction(self._hi, self._den)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(ring):
        return PerfLaurent._make(ring, {}, 0, None, ring.scale,
                                 ring.band_cap)

    @staticmethod
    def monomial(ring, exponents, coeff=None):
        """exponents: pure rational exponents (Fractions or ints)."""
        c = ring.field.one if coeff is None else coeff
        return PerfLaurent(ring, {scaled_exponents(ring.params, exponents): c})

    @staticmethod
    def one(ring):
        return PerfLaurent.monomial(ring, (0,) * ring.nvars)

    # -- structure ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, PerfLaurent) and self.ring is other.ring
                and self.terms == other.terms)

    def eq_within(self, other) -> bool:
        """Equality of represented terms inside the common window."""
        scale = self.ring.scale
        hs = bound_min(ceil_cut(self._hi, scale, self._den),
                       ceil_cut(other._hi, scale, other._den))
        for e in set(self.terms) | set(other.terms):
            if hs is not None and sum(e) >= hs:
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

    @staticmethod
    def lincomb(pairs) -> "PerfLaurent":
        """sum c * x over (raw F_q scalar c, element x) pairs: the least
        w_lo and band, the meet of the w_hi, and the terms below it."""
        xs = [x for _, x in pairs]
        ring = sparse.common(xs, "ring", "perfectoid rings")
        den, wins = _windows(xs)
        hi = min((h for _, h in wins if h is not None), default=None)
        hs = ceil_cut(hi, ring.scale, den)
        out = sparse.lincomb(ring.oe, [(c, x.terms, 1) for c, x in pairs], 1,
                             None if hs is None else lambda e: sum(e) < hs)
        return PerfLaurent._make(ring, out, min(lo for lo, _ in wins), hi,
                                 den, min(x.band for x in xs))

    def __mul__(self, other):
        ring = sparse.common((self, other), "ring", "perfectoid rings")
        den, a_lo, a_hi, b_lo, b_hi = \
            self._den, self._lo, self._hi, other._lo, other._hi
        if other._den != den:
            den, ((a_lo, a_hi), (b_lo, b_hi)) = _windows((self, other))
        out, lo, hi, band = ring.product(
            den, (self.terms, a_lo, a_hi, self.band),
            (other.terms, b_lo, b_hi, other.band))
        return PerfLaurent._make(ring, out, lo, hi, den, band)

    def frobenius(self, n: int = 1):
        """The ring Frobenius x -> x^(p^n) (coefficients included)."""
        m, oe = self.ring.params.p ** n, self.ring.oe
        c_exp = m % self.ring.units
        out = {tuple(m * x for x in e): oe.raw_pow(c, c_exp, 1)
               for e, c in self.terms.items()}
        return PerfLaurent._make(self.ring, out,
                                 *rescale((self._lo, self._hi), m),
                                 self._den, self.band * m)

    def pth_root(self, n: int = 1):
        """The inverse Frobenius to the power n, with the window of n single
        steps: lo and hi over p while both divide, den times p for the rest."""
        ring, p = self.ring, self.ring.params.p
        m = p ** n
        # Frobenius has order h on F_q, so x^(p^(n(h-1))) inverts it n times
        root = p ** (n * (ring.params.h - 1)) % ring.units
        out = {}
        for e, c in self.terms.items():
            if any(x % m for x in e):
                raise DepthExhausted(
                    f"p-th root leaves depth p^-{ring.params.k}")
            out[tuple(x // m for x in e)] = ring.oe.raw_pow(c, root, 1)
        lo, hi, k = self._lo, self._hi, 0
        while k < n and not lo % p and (hi is None or not hi % p):
            lo, hi, k = lo // p, None if hi is None else hi // p, k + 1
        return PerfLaurent._make(ring, out, lo, hi, self._den * p ** (n - k),
                                 max(1, self.band // m) if n else self.band)


# ---------------------------------------------------------------------------
# Gauss norms
# ---------------------------------------------------------------------------

def gauss_val(x: PerfLaurent) -> Optional[Fraction]:
    """min Gauss valuation over terms (value |x| = p^{-gauss_val}); None = 0."""
    if not x.terms:
        return None
    return min(Fraction(sum(e), x.ring.scale) for e in x.terms)


def positive_radius(r) -> Fraction:
    """r as a Fraction; ValueError unless r > 0."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"the radius r must be > 0, got {r}")
    return r


def pr_radius(params: Params, i: int, r: Fraction) -> Fraction:
    """Radius conversion factor (p-1)/((q-1) p^i) for coordinate i."""
    if not 0 <= i < params.f:
        raise ValueError("coordinate index out of range")
    return (Fraction(params.p - 1, (params.q - 1) * params.p ** i)
            * positive_radius(r))


# ---------------------------------------------------------------------------
# Witt handle over a perfectoid ring
# ---------------------------------------------------------------------------

class PerfHandle:
    """Perfect-ring handle exposing PerfLaurent to the Witt layer."""

    def __init__(self, ring: PerfRing):
        self.ring = ring
        self.p = ring.params.p
        self.field = ring.field
        self._one = PerfLaurent.one(ring)

    def zero(self):
        return PerfLaurent.zero(self.ring)

    def is_zero(self, a):
        return a.is_zero()

    def eq(self, a, b):
        return a.eq_within(b)

    def kernel(self, vals) -> tuple:
        """The raw evaluation of structure plans at ``vals``: node values
        are raw (terms, lo, hi, band) over one denominator, the lcm of the
        values'; a one-term value's powers come in closed form
        (``PerfRing.mono_power``), another's from ``PerfLaurent``
        products; products are ``PerfRing.product``.

        ``total(plan, parts)`` is one ``sparse.lincomb`` of the parts (c
        copies of a term as the scalar c) with the window and band of the
        sum of every term of ``plan`` (a ``witt.StructPlan``).  v^d has
        w_lo d*lo_v and w_hi (d-1)*lo_v + hi_v, so a term has w_lo lo_t =
        sum d_j*lo_j and w_hi lo_t + min_j (hi_j - lo_j).  That gap is the
        same for all terms of a variable group, so a group adds its least
        lo_t plus the gap; the band is the least of the variables used.
        So the window depends only on the plan and on the used variables'
        lo numerators and gaps, never on a term: ``_plan_window`` scans a
        plan's groups once per such pattern.
        """
        ring, one = self.ring, self._one
        pad = (0,) * (ring.oe.h - 1)
        den, wins = _windows(vals)
        los = [lo for lo, _ in wins]
        gaps = [None if hi is None else hi - lo for lo, hi in wins]

        def pow_(j, d):
            x = vals[j]
            if len(x.terms) == 1:
                return ring.mono_power(den, (x.terms, *wins[j], x.band), d)
            y = power(x, d, one)
            return (y.terms, *rescale((y._lo, y._hi), den // y._den),
                    y.band)

        def total(plan, parts):
            w_lo, w_hi = _plan_window(plan, tuple([los[j] for j in plan.used]),
                                      tuple([gaps[j] for j in plan.used]))
            band = min([ring.band_cap] + [vals[j].band for j in plan.used])
            hs = ceil_cut(w_hi, ring.scale, den)
            out = sparse.lincomb(
                ring.oe, [((c,) + pad, t, 1) for c, (t, _, _, _) in parts], 1,
                None if hs is None else lambda e: sum(e) < hs)
            return PerfLaurent._make(ring, out, w_lo, w_hi, den, band)

        return ((one.terms, 0, None, ring.band_cap), pow_,
                partial(ring.product, den), total)

    def embed_residue(self, lam: OEInt):
        return PerfLaurent(self.ring, {(0,) * self.ring.nvars: lam})


@cached(maxsize=4096)
def _plan_window(plan, los, gaps) -> tuple:
    """(w_lo, w_hi) of the sum of every term of ``plan`` when its used
    variable ``plan.used[i]`` has lo numerator los[i] and hi - lo gaps[i]
    (None: exact); the rule is ``PerfHandle.kernel``'s."""
    lo_of, gap_of = dict(zip(plan.used, los)), dict(zip(plan.used, gaps))
    w_lo, w_hi = 0, None
    for js, vecs in plan.groups:
        sel = [lo_of[j] for j in js]
        g_lo = min([sum(map(mul, vec, sel)) for vec in vecs]) \
            if any(sel) else 0
        w_lo = min(w_lo, g_lo)
        g_gaps = [gap_of[j] for j in js if gap_of[j] is not None]
        if g_gaps:
            w_hi = bound_min(w_hi, g_lo + min(g_gaps))
    return w_lo, w_hi


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
    r = positive_radius(w.r)
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
