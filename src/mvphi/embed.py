"""The embedding of the Laurent ring into Witt vectors of the perfection.

Elements of W(A_inf)/p^N arising here are kept in the monoid-algebra
presentation sum c_mu [mu] with c_mu in O_E/p^N and mu pure exponent
monomials; the presentation is faithful, products are Teichmueller-
multiplicative, and the radius-r valuation is the minimum of
gv(mu) + v_p(c_mu)/r over terms (no cancellation across distinct mu in the
graded ring of the norm).

Knowledge is tracked per pi-level: a level-v term is certified for Gauss
valuation < H[v].  Separately, ``Floors`` carries proven lower bounds for
the Gauss valuation of every Teichmueller digit of the true element, one
value per level below the precision plus an affine tail; digit carries are
isobaric of weight one, so these bounds survive Witt addition and
multiplication by min-plus convolution (``_minplus``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Optional

from .caches import cached
from .coeff import OEInt, Params, oe_ring
from .errors import (DepthExhausted, StabilizationFailure, Uncertified,
                     WindowTooSmall)
from .mvring import MvLaurent, NormValue, norm_s, apply_phi, apply_phi_q
from .perfd import (PerfLaurent, ainf_handle, BElt, phi_exponents,
                    positive_radius, scaled_exponents)
from . import iwasawa, sparse
from .sparse import bound_min, ceil_cut, rescale
from . import witt as wt


def _tail(vals, n, sig):
    """min over the finite vals[m], m >= n, of vals[m] - sig * (m - n)."""
    best = None
    for m in range(n, len(vals)):
        x = vals[m]
        if x is not None:
            x -= sig * (m - n)
            if best is None or x < best:
                best = x
    return best


def _minplus(xs, ys, n):
    """[least xs[i] + ys[j] over i + j = m of finite entries, None if none,
    for m < n]: the min-plus convolution."""
    out = [None] * n
    for i, x in enumerate(xs[:n]):
        if x is not None:
            for m, y in enumerate(ys[:n - i], i):
                if y is not None:
                    y += x
                    if out[m] is None or y < out[m]:
                        out[m] = y
    return out


def _first(vals):
    """Index of the first finite entry; len(vals) if there is none."""
    for i, x in enumerate(vals):
        if x is not None:
            return i
    return len(vals)


class Floors:
    """Digit-valuation floors: fl(m) = Lv[m] for m < N (None = no content),
    fl(m) = B + sigma * (m - N) for m >= N.

    Invariants: the constructor keeps Lv non-increasing past its first
    finite entry and B at most its last finite entry, and every operation
    here keeps sigma <= 0 (``scale`` takes c > 0).  So fl is None up to its
    first finite level, finite and non-increasing from there on, and the
    minimum of fl over the levels <= m is fl(m).

    A Floors is immutable and holds integers only: a denominator D,
    D*fl(0..N) in ``tab`` (the N levels and B) and D*sigma in ``sig``.
    ``num(m)`` reads D*fl(m); ``at(m)`` and ``global_min()`` build exact
    Fractions; ``convolve`` and ``meet`` work over the lcm of the operands'
    denominators.
    """

    __slots__ = ("N", "den", "tab", "sig", "shifts")

    def __init__(self, N, den, lv, b, sig):
        """The floors of the numerators lv (N levels), b and sig over den.

        A missing level takes the one below it, a level above the one
        below it is lowered to it, and B is capped by the last finite
        level.
        """
        tab = list(lv[:N])
        prev = None
        for i in range(N):
            x = tab[i]
            if x is None or (prev is not None and prev < x):
                tab[i] = prev
            prev = tab[i]
        tab.append(bound_min(b, prev))
        self.N, self.den, self.tab, self.sig = N, den, tab, sig
        self.shifts = {}

    def _frac(self, x):
        return None if x is None else Fraction(x, self.den)

    def _over(self, den, top):
        """(den*fl(0..top), den*sigma) as ints, None for no content; D must
        divide den."""
        tab = self.tab[:top + 1]
        tab += [self.num(m) for m in range(len(tab), top + 1)]
        r = den // self.den
        return rescale(tab, r), self.sig * r

    def num(self, m):
        """D*fl(m) as an int, None for no content."""
        if m < self.N:
            return self.tab[m]
        b = self.tab[self.N]
        return None if b is None else b + self.sig * (m - self.N)

    def at(self, m):
        return self._frac(self.num(m))

    def meet(self, *others):
        """Floors of a sum at the least precision in one pass: the left fold
        of binary meets, as each operand is non-increasing with B below."""
        fls = (self,) + others
        N = min(fl.N for fl in fls)
        den = lcm(*[fl.den for fl in fls])
        lv, b = [None] * N, None
        for fl in fls:
            r = den // fl.den
            for m, x in enumerate(fl.tab[:N]):
                if x is not None and (lv[m] is None or x * r < lv[m]):
                    lv[m] = x * r
            fb = fl.tab[fl.N]
            b = bound_min(b, None if fb is None else fb * r)
        return Floors(N, den, lv, b,
                      min(fl.sig * (den // fl.den) for fl in fls))

    def convolve(self, other):
        """Floors of a product (min-plus convolution with affine tails), at
        the lower of the two precisions.

        Past the level i0 + j0 of the first finite entries, the increments
        of the convolution are at least sigma = min(delta, delta', 0), with
        delta an operand's least increment past its first finite level met
        with its slope; so best[m] - sigma * (m - N) is non-decreasing
        there and the tail B is fixed by the first finite m >= N: the
        levels up to max(N, i0 + j0) are all that is needed.
        """
        N = min(self.N, other.N)
        den = lcm(self.den, other.den)
        top = min(max(N, _first(self.tab) + _first(other.tab)), 2 * N + 2)
        sig = 0
        for fl in (self, other):
            sig = min(sig, (den // fl.den) * min([fl.sig] + [
                y - x for x, y in zip(fl.tab, fl.tab[1:]) if x is not None]))
        best = _minplus(self._over(den, top)[0], other._over(den, top)[0],
                        top + 1)
        return Floors(N, den, best[:N], _tail(best, N, sig), sig)

    def shift(self, v):
        """Floors of p^v * x, kept per v for the scalars of one valuation."""
        if not v:
            return self
        got = self.shifts.get(v)
        if got is None:
            N = self.N
            xs, sig = self._over(self.den, 2 * N)
            xs = [None] * v + xs
            got = self.shifts[v] = Floors(N, self.den, xs[:N],
                                          _tail(xs, N, sig), sig)
        return got

    def truncate(self, n, top):
        """Floors of x mod p^n: the levels n..top fold into the tail."""
        xs, sig = self._over(self.den, top)
        return Floors(n, self.den, xs[:n], _tail(xs, n, sig), sig)

    def scale(self, c, d=1):
        """Floors of the values times c/d > 0 (c an int or a Fraction) over
        D*d*c.denominator: Frobenius, its inverse, or with c = d a new D."""
        a, d = c.numerator, c.denominator * d
        *lv, b = rescale(self.tab, a)
        return Floors(self.N, self.den * d, lv, b, self.sig * a)

    def global_min(self):
        return self._frac(min((x for x in self.tab if x is not None),
                              default=None))

    def __repr__(self):
        return (f"Floors({[self.at(m) for m in range(self.N + 1)]}, "
                f"slope {Fraction(self.sig, self.den)})")


class WAlg(sparse.Terms):
    """sum c_mu [mu]: dict of scaled pure-exponent tuples -> raw O_E coords.

    Horizons are integers hn[v] over the floors' denominator D (None = no
    horizon), non-increasing in v, and ``H`` reads them as Fractions; a
    level-v term of exponent sum s is below hn[v] when s * D < hn[v] * p^k.
    """

    __slots__ = ("params", "prec", "terms", "hn", "floors")

    def __init__(self, params: Params, prec: int, terms: dict):
        """The exact element of the terms mod p^prec, with its terms' own
        floors; a windowed element comes from ``clamp``."""
        ring = oe_ring(params)
        out = sparse.reduce(ring, terms, prec)
        self.params, self.prec = params, prec
        level_mins = [None] * prec
        for e, c in out.items():
            v = ring.raw_val(c, prec)
            level_mins[v] = bound_min(level_mins[v], sum(e))
        self.terms, self.hn = out, (None,) * prec
        self.floors = Floors(prec, params.p ** params.k, level_mins, None, 0)

    @staticmethod
    def _make(params, prec, terms, hn, floors):
        """Cut terms, coordinates in [0, p^prec) and no coefficient zero,
        and non-increasing hn over floors.den."""
        x = object.__new__(WAlg)
        x.params, x.prec, x.terms, x.hn, x.floors = \
            params, prec, terms, hn, floors
        return x

    @property
    def H(self):
        return tuple(map(self.floors._frac, self.hn))

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(params, prec):
        return WAlg(params, prec, {})

    @staticmethod
    def teich_monomial(params, prec, exponents):
        c = (1,) + (0,) * (params.h - 1)
        return WAlg(params, prec, {scaled_exponents(params, exponents): c})

    @staticmethod
    def one(params, prec):
        return WAlg.teich_monomial(params, prec, (0,) * params.f)

    # -- helpers ---------------------------------------------------------------

    def digit0(self) -> dict:
        """The mod-p reduction (the 0-th Teichmueller digit), as residues
        (precision-1 ``OEInt``s)."""
        ring = oe_ring(self.params)
        out = {}
        for e, c in self.terms.items():
            lam = ring.reduce_mod_p(c)
            if lam:
                out[e] = lam
        return out

    # -- arithmetic --------------------------------------------------------------

    @staticmethod
    def lincomb(pairs) -> "WAlg":
        """sum c * x over (raw scalar c, element x) pairs.  c = p^v * unit
        shifts x's horizons and floors up by v levels (x counts as
        ``WAlg.zero`` when v >= x.prec); then the least precision, and the
        floors and horizons met in one pass as the chain of + meets them
        (a minimum of non-increasing horizons is non-increasing)."""
        xs = [x for _, x in pairs]
        params = sparse.common(xs, "params", "parameter sets")
        ring = oe_ring(params)
        prec = min([x.prec for x in xs])
        shifted = []
        for c, x in pairs:
            v = ring.raw_val(c, x.prec)
            shifted.append((v, x) if v < x.prec
                           else (0, WAlg.zero(params, x.prec)))
        # a list, not a generator, is unpacked: CPython grows a tuple made
        # from a generator by resizing and files it on its size's free list
        floors = Floors.meet(*[x.floors.shift(v) for v, x in shifted])
        hn = [None] * prec
        for v, x in shifted:
            r = floors.den // x.floors.den
            for w, h in enumerate(x.hn[:max(0, prec - v)], v):
                if h is not None and (hn[w] is None or h * r < hn[w]):
                    hn[w] = h * r
        out = sparse.lincomb(ring, [(c, x.terms, x.prec) for c, x in pairs],
                             prec)
        return WAlg._make(params, prec, out, tuple(hn), floors)

    def __mul__(self, other):
        params = sparse.common((self, other), "params", "parameter sets")
        prec = min(self.prec, other.prec)
        fs, fo = self.floors, other.floors
        den = lcm(fs.den, fo.den)
        # floors are non-increasing past their first finite level, so the
        # least floor over the levels <= v - v1 is the one at v - v1; the
        # minimum runs on over v, which makes the horizons non-increasing
        xs, ys = fs._over(den, prec - 1)[0], fo._over(den, prec - 1)[0]
        hx = rescale(self.hn[:prec], den // fs.den)
        hy = rescale(other.hn[:prec], den // fo.den)
        H = accumulate(map(bound_min, _minplus(hx, ys, prec),
                           _minplus(hy, xs, prec)), bound_min)
        out = sparse.product(oe_ring(params), self.terms, other.terms, prec)
        return WAlg._make(params, prec, out, tuple(H), fs.convolve(fo))

    def clamp(self, bounds, den) -> "WAlg":
        """Impose additional per-level horizons bounds[v] / den (ints, None
        = no bound; a knowledge statement), keeping a running minimum."""
        D = lcm(self.floors.den, den)
        r = D // self.floors.den
        floors = self.floors if r == 1 else self.floors.scale(r, r)
        H = tuple(accumulate(map(bound_min, rescale(self.hn, r),
                                 rescale(bounds, D // den)), bound_min))
        # s * D >= h * p^k exactly when s >= ceil(h * p^k / D)
        scale = self.params.p ** self.params.k
        lim = [ceil_cut(h, scale, D) for h in H]
        raw_val, prec = oe_ring(self.params).raw_val, self.prec
        out = {}
        for e, c in self.terms.items():
            cut = lim[raw_val(c, prec)]
            if cut is None or sum(e) < cut:
                out[e] = c
        return WAlg._make(self.params, prec, out, H, floors)

    def phi_inverse(self) -> "WAlg":
        """[mu] -> [phi^-1(mu)]: the horizon numerators stay, over p*D."""
        p, f = self.params.p, self.params.f
        out = {}
        for e, c in self.terms.items():
            if any(x % p for x in e):
                raise DepthExhausted("phi^-1 leaves the exponent depth")
            out[tuple(e[(j - 1) % f] // p for j in range(f))] = c
        return WAlg._make(self.params, self.prec, out, self.hn,
                          self.floors.scale(1, p))

    def phi_forward(self, n: int = 1) -> "WAlg":
        """W(phi)^n: [mu] -> [phi^n(mu)], coefficients fixed."""
        p = self.params.p
        out = {phi_exponents(e, p, n): c for e, c in self.terms.items()}
        return WAlg._make(self.params, self.prec, out,
                          tuple(rescale(self.hn, p ** n)),
                          self.floors.scale(p ** n))

    def reduce(self, prec: int) -> "WAlg":
        if prec >= self.prec:
            return self
        terms = sparse.reduce(oe_ring(self.params), self.terms, prec)
        return WAlg._make(self.params, prec, terms, self.hn[:prec],
                          self.floors.truncate(prec, 2 * self.prec))

    def __repr__(self):
        scale = self.params.p ** self.params.k
        bits = []
        for e in sorted(self.terms):
            mon = "*".join(f"Y{i}^{Fraction(x, scale)}"
                           for i, x in enumerate(e) if x)
            bits.append(f"{list(self.terms[e])}"
                        f"{'[' + mon + ']' if mon else ''}")
        return " + ".join(bits) if bits else "0"


def congruent_mod(x: WAlg, y: WAlg, m: int) -> bool:
    """x = y mod p^m on the meet of the certified regions: the difference,
    clamped to its horizons (the meet of x's and y's), is 0 mod p^m."""
    diff = x - y
    cut = diff.clamp(diff.hn, diff.floors.den)
    return not sparse.reduce(oe_ring(x.params), cut.terms, m)


def b_val_walg(x: WAlg, r: Fraction) -> NormValue:
    """Radius-r valuation via the graded-level minimum (exact on this
    model), for r > 0; with r = a/b, in integers over p^k * a."""
    r = positive_radius(r)
    a, b = r.numerator, r.denominator
    raw_val, prec = oe_ring(x.params).raw_val, x.prec
    scale = x.params.p ** x.params.k
    best = min((sum(e) * a + raw_val(c, prec) * b * scale
                for e, c in x.terms.items()), default=None)
    if best is None:
        return NormValue(None, False)
    D = x.floors.den
    # best below the horizons h/D + v/r and the floors fl(m) + m/r beyond
    certified = x.floors.sig * a + b * D >= 0
    for v, h in enumerate(x.hn + (x.floors.num(prec),)):
        if h is not None and best * D >= (h * a + v * b * D) * scale:
            certified = False
    return NormValue(Fraction(best, scale * a), certified)


# ---------------------------------------------------------------------------
# the fixpoint for the generator images
# ---------------------------------------------------------------------------

@dataclass
class IotaResult:
    ys: tuple
    certificates: list  # one entry per step: pi-power checked


def _corr_floor(ys) -> Optional[Fraction]:
    """min digit floor over positive levels of the generator tuple."""
    return min((fl for y in ys for v in range(1, y.prec)
                if (fl := y.floors.at(v)) is not None), default=None)


def _tail_clamp(params: Params, window: int, corr) -> tuple:
    """Horizon bounds from the dropped tail of a degree-truncated series,
    as (numerators, denominator) for ``WAlg.clamp``.

    Tail coefficients are divisible by p, so level 0 is exact; a level-v
    tail term keeps at least window - (v-1) Teichmueller factors of
    valuation 1 each.
    """
    slope = Fraction(0) if corr is None else min(Fraction(0), corr - 1)
    d = slope.denominator
    return (None,) + tuple(window * d + (v - 1) * slope.numerator
                           for v in range(1, params.N)), d


def iota_generators(params: Params, seed_offsets=None) -> IotaResult:
    """Solve phi(y_i) = F_i(y) with digit-0 Y_i by inverse-Frobenius iteration
    at the degree window ``params.embed_window``.

    Runs N-1 steps; step n must agree with step n-1 mod p^n (recorded as a
    certificate, StabilizationFailure otherwise).
    """
    w = params.embed_window
    if seed_offsets is None:
        return _iota_fixpoint(params, w)
    return _solve_iota(params, seed_offsets, w)


@cached
def _iota_fixpoint(params: Params, w: int) -> IotaResult:
    return _solve_iota(params, None, w)


def _solve_iota(params: Params, seed_offsets, w: int) -> IotaResult:
    if params.k < params.N:
        raise DepthExhausted("need denominator depth k >= N for the "
                             f"fixpoint; it needs --depth {params.N} or more")
    N, f, p = params.N, params.f, params.p
    Fs = [iwasawa.phi_y(params, i, w) for i in range(f)]
    if N > 1 and w <= p:
        raise WindowTooSmall(
            f"the embedding window {w} misses the degree-{p} leading term "
            f"of phi(Y_i); the fixpoint needs --deg {p + 1} or more")
    ys = []
    for i in range(f):
        unitvec = tuple(Fraction(1) if j == i else Fraction(0)
                        for j in range(f))
        y0 = WAlg.teich_monomial(params, N, unitvec)
        if seed_offsets is not None and seed_offsets[i] is not None:
            y0 = y0 + seed_offsets[i].scalar_mul(
                (params.p,) + (0,) * (params.h - 1))
        ys.append(y0)
    certificates = []
    for n in range(1, N):
        corr = _corr_floor(ys)
        bounds = _tail_clamp(params, w, corr)
        sub = sparse.Substitution(ys, lambda: WAlg.one(params, N))
        new = []
        for i in range(f):
            z = sparse.evaluate(Fs[i].terms.items(), sub,
                                WAlg.zero(params, N))
            z = z.clamp(*bounds)
            new.append(z.phi_inverse())
        for i in range(f):
            if not congruent_mod(new[i], ys[i], n):
                raise StabilizationFailure(
                    f"step {n}: generator {i} moved below p^{n}")
        certificates.append(n)
        ys = new
    return IotaResult(tuple(ys), certificates)


# ---------------------------------------------------------------------------
# evaluating iota on Laurent elements
# ---------------------------------------------------------------------------

@cached
def iota_context(params: Params) -> sparse.Substitution:
    """The generator images y_i, their powers and inverses, with the
    per-level digit floors of each."""
    ys = iota_generators(params).ys

    def invert(i: int) -> WAlg:
        y = ys[i]
        unitvec = tuple(Fraction(-1) if j == i else Fraction(0)
                        for j in range(params.f))
        tinv = WAlg.teich_monomial(params, y.prec, unitvec)
        u = (tinv * y) - WAlg.one(params, y.prec)
        return tinv * sparse.geometric(-u, WAlg.one(params, y.prec), y.prec)
    return sparse.Substitution(
        ys, lambda: WAlg.one(params, params.N), invert,
        lambda a: [a.floors.at(v) for v in range(a.prec)])


def iota(x: MvLaurent) -> WAlg:
    """Evaluate the embedding on a Laurent element: Y_i -> y_i termwise."""
    params = x.params
    ctx = iota_context(params)
    acc = sparse.evaluate(x.pure_y_exponents(), ctx,
                          WAlg.zero(params, min(x.prec, params.N)))
    if x.w_hi is not None:
        # each pi-level costs at most drop() of the window
        K = ctx.drop()
        acc = acc.clamp([x.w_hi * K.denominator - K.numerator * v
                         for v in range(acc.prec)], K.denominator)
    return acc


def verify_phi_equivariance(x: MvLaurent) -> dict:
    """Check W(phi)(iota(x)) = iota(phi(x)) on the meet of certified regions,
    and the q-power version (directly when the degree window allows
    inverting the q-power images, else by f-fold composition)."""
    lhs = iota(x).phi_forward()
    rhs = iota(apply_phi(x))
    ok = congruent_mod(lhs, rhs, min(lhs.prec, rhs.prec))
    meet = tuple(bound_min(a, b) for a, b in zip(lhs.H, rhs.H))
    gmin = lhs.floors.global_min()
    nontrivial = all(h is None or (gmin is not None and h > gmin)
                     for h in meet)
    q_mode = "direct"
    try:
        lhs_q = lhs.phi_forward(x.params.f - 1)
        rhs_q = iota(apply_phi_q(x))
        ok_q = congruent_mod(lhs_q, rhs_q, min(lhs_q.prec, rhs_q.prec))
    except WindowTooSmall:
        # the q-power images miss their unit term inside the window;
        # equivariance for phi^f follows from the single-phi check
        q_mode = "composed"
        ok_q = ok
    return {"ok": bool(ok and nontrivial), "congruent": bool(ok),
            "congruent_q": bool(ok_q), "q_mode": q_mode,
            "meet_horizons": [None if h is None else str(h) for h in meet]}


def verify_norm_compare(x: MvLaurent, s: int) -> dict:
    """Check s * |x|_s against the radius-1/s valuation of iota(x)."""
    nx = norm_s(x, s)
    w = iota(x)
    nb = b_val_walg(w, Fraction(1, s))
    if not (nx.certified and nb.certified):
        raise Uncertified(
            f"norms not certified: ring {nx!r}, witt {nb!r}")
    lhs = None if nx.val is None else s * nx.val
    return {"ok": lhs == nb.val,
            "ring_side": lhs, "witt_side": nb.val}


# ---------------------------------------------------------------------------
# digit expansion (the Witt-vector view)
# ---------------------------------------------------------------------------

def to_belt(x: WAlg, r: Fraction) -> BElt:
    """Convert to a Witt vector over the perfectoid ring.

    Exact for the represented terms; each digit's window is the matching
    level horizon, so coordinate n, its p^n-th power, is cut at H[n]*p^n.
    Heavier than the algebra path (structure-polynomial carries), intended
    for digit output and cross-checks.
    """
    params = x.params
    handle = ainf_handle(params)
    oering = oe_ring(params)
    acc = wt.witt_zero(handle, x.prec)
    for e, c in x.terms.items():
        # both rings scale exponents by p^k
        mono = PerfLaurent(handle.ring, {e: handle.field.one})
        tw = wt.teich(handle, mono, x.prec)
        coeff = wt.from_oe_scalar(handle, OEInt(oering, x.prec, c))
        acc = wt.witt_add(acc, wt.witt_mul(coeff, tw))
    w = wt.WittVec(handle, x.prec, tuple(
        PerfLaurent(handle.ring, a.terms, a.w_lo,
                    None if h is None else h * params.p ** n, a.band)
        for n, (a, h) in enumerate(zip(acc.comps, x.H))))
    floor = x.floors.global_min()
    return BElt(w, Fraction(r), Fraction(0),
                Fraction(0) if floor is None else floor)
