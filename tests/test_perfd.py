import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from mvphi.coeff import Params, fq_field, power
from mvphi.embed import WAlg, b_val_walg, iota
from mvphi.perfd import (PerfLaurent, gauss_val, pr_radius,
                         ainf_handle, BElt, b_val_r, member_B0r,
                         _plan_window)
from mvphi.errors import BandOverflow, DepthExhausted
from mvphi import witt as wt
from mvphi.suites import rand_iota_sample
from mvphi.sparse import bound_add, bound_min

from test_sparse import _ref_pair_loop


GRID = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2)]


def params(p, f, h, **kw):
    return Params.create(p, f, h, **kw)


def test_gauss_val_normalization():
    pr = params(3, 2, 2)
    ring = ainf_handle(pr).ring
    y0 = PerfLaurent.monomial(ring, (1, 0))
    assert gauss_val(y0) == 1
    cross = PerfLaurent.monomial(ring, (-1, 1))  # Y_1 / Y_0
    assert gauss_val(cross) == 0
    frac = PerfLaurent.monomial(ring, (Fraction(1, 3), 0))
    assert gauss_val(frac) == Fraction(1, 3)
    assert gauss_val(PerfLaurent.zero(ring)) is None


def test_monomial_depth_guard():
    pr = params(3, 1, 1, k=2)
    ring = ainf_handle(pr).ring
    with pytest.raises(DepthExhausted):
        PerfLaurent.monomial(ring, (Fraction(1, 27),))


def test_gauss_multiplicativity():
    pr = params(3, 2, 2)
    ring = ainf_handle(pr).ring
    rng = random.Random(40)
    F = fq_field(pr)
    elts = [e for e in F.elements() if e]

    def rand():
        terms = {}
        for _ in range(3):
            e = tuple(rng.randrange(-9, 9) * 27 for _ in range(2))
            terms[e] = rng.choice(elts)
        return PerfLaurent(ring, terms)

    for _ in range(20):
        a, b = rand(), rand()
        prod = a * b
        if not prod.is_zero():
            assert gauss_val(prod) == gauss_val(a) + gauss_val(b)


def test_frobenius_raises_the_coefficients_to_the_p():
    pr = params(3, 2, 2)
    ring = ainf_handle(pr).ring
    F = fq_field(pr)
    lam = F((1, 1))
    x = PerfLaurent(ring, {(81, 0): lam})
    frob = x.frobenius()
    assert list(frob.terms.values())[0] == lam.frobenius().coords


@pytest.mark.parametrize("p,f,h", GRID)
def test_pr_radius_formula(p, f, h):
    pr = params(p, f, h)
    for i in range(f):
        got = pr_radius(pr, i, Fraction(1))
        assert got == Fraction(p - 1, (pr.q - 1) * p ** i)
    if f == 1:
        assert pr_radius(pr, 0, Fraction(7, 3)) == Fraction(7, 3)


def test_pr_radius_spec_value():
    pr = params(3, 2, 2)
    assert pr_radius(pr, 1, Fraction(1)) == Fraction(1, 12)


def test_map_phi_on_teichmuller_generators():
    # W(phi), the perfectoid-level Frobenius, sends [Y_i] to [Y_{i-1}^p]
    pr = params(3, 2, 2)
    y1 = WAlg.teich_monomial(pr, pr.N, (0, 1))
    got = y1.phi_forward()
    want = WAlg.teich_monomial(pr, pr.N, (3, 0))
    assert got.terms == want.terms and got.H == want.H


def test_eq_within_compares_only_the_common_window():
    # a term past the least w_hi of the two is not compared; one below it
    # that differs makes them unequal, and so the Witt vectors too
    R = ainf_handle(params(3, 1, 1)).ring
    h = ainf_handle(R.params)
    one, two = R.field.one, R.field.from_int(2)
    a = PerfLaurent(R, {(0,): one, (R.scale,): one}, None, 2)
    b = PerfLaurent(R, {(0,): one}, None, 1)
    c = PerfLaurent(R, {(0,): two}, None, 1)
    assert a.eq_within(b) and b.eq_within(a)
    assert not a.eq_within(c) and not c.eq_within(b)
    assert wt.teich(h, a, 3).eq(wt.teich(h, b, 3))
    assert not wt.teich(h, a, 3).eq(wt.teich(h, c, 3))


def test_belt_teich_and_pi():
    pr = params(3, 1, 1)
    h = ainf_handle(pr)
    ring = h.ring
    y = PerfLaurent.monomial(ring, (1,))
    w = BElt(wt.teich(h, y, pr.N), Fraction(1))
    nv = b_val_r(w)
    assert nv.val == 1 and nv.certified
    # pi * teich(1) at radius r has value exponent 1/r
    pi1 = wt.from_expansion(h, (h.zero(), PerfLaurent.one(h.ring), h.zero()))
    nv2 = b_val_r(BElt(pi1, Fraction(1, 2)))
    assert nv2.val == 2


def test_b_val_multiplicative_on_random_pairs():
    pr = params(3, 1, 1)
    h = ainf_handle(pr)
    ring = h.ring
    rng = random.Random(42)
    F = fq_field(pr)
    elts = [e for e in F.elements() if e]

    def rand_belt():
        digs = [PerfLaurent(
            ring, {(rng.randrange(3) * ring.scale // 3,): rng.choice(elts)})]
        for n in range(1, pr.N):
            if rng.random() < 0.6:
                digs.append(PerfLaurent(
                    ring, {(rng.randrange(0, 3) * ring.scale +
                            rng.randrange(2) * ring.scale // 3,):
                           rng.choice(elts)}))
            else:
                digs.append(h.zero())
        return wt.from_expansion(h, tuple(digs))

    r = Fraction(1)
    hits = 0
    for _ in range(25):
        u, v = rand_belt(), rand_belt()
        nu, nv = b_val_r(BElt(u, r)), b_val_r(BElt(v, r))
        prod = wt.witt_mul(u, v)
        npp = b_val_r(BElt(prod, r))
        if nu.certified and nv.certified and npp.certified:
            assert npp.val == nu.val + nv.val
            hits += 1
    assert hits >= 15


def test_member_b0r_boundary_cases():
    pr = params(3, 1, 1)
    h = ainf_handle(pr)
    pi = wt.from_expansion(h, (h.zero(), PerfLaurent.one(h.ring), h.zero()))
    for s in (1, 2):
        # pi / [Y]^s at r = 1/s: boundary, in
        w = BElt(pi, Fraction(1, s), shift=s)
        assert member_B0r(w)
        # pi / [Y]^{s+1} at r = 1/s: out
        w2 = BElt(pi, Fraction(1, s), shift=s + 1)
        assert not member_B0r(w2)
    # teichmuller lifts are always in
    y = PerfLaurent.monomial(h.ring, (Fraction(1, 3),))
    assert member_B0r(BElt(wt.teich(h, y, pr.N), Fraction(5)))


@pytest.mark.parametrize("p,f,h", [(3, 1, 1), (3, 2, 2), (2, 2, 2),
                                   (5, 2, 2)])
def test_phi_q_scales_the_radius_r_valuation(p, f, h):
    # W(phi)^f = phi_q sends each Y_i to Y_i^q and scales the horizons and
    # floors by q: the radius-r/q valuation of phi_q(iota(x)) is q times
    # the radius-r one, certified alike
    pr = params(p, f, h)
    rng = random.Random(43)
    for _ in range(30):
        w = iota(rand_iota_sample(pr, rng, 1))
        img = w.phi_forward(f)
        for r in (Fraction(1), Fraction(1, 2), Fraction(2)):
            got, want = b_val_walg(img, r / pr.q), b_val_walg(w, r)
            assert got.certified == want.certified
            assert got.val == (None if want.val is None else pr.q * want.val)


def test_member_b0r_monotone_in_r():
    pr = params(3, 1, 1)
    h = ainf_handle(pr)
    ring = h.ring
    rng = random.Random(44)
    F = fq_field(pr)
    elts = [e for e in F.elements() if e]
    for _ in range(15):
        digs = [PerfLaurent(ring, {(rng.randrange(0, 6) * ring.scale,):
                                   rng.choice(elts)}) for _ in range(pr.N)]
        w = wt.from_expansion(h, tuple(digs))
        big, small = Fraction(3), Fraction(1, 2)
        if member_B0r(BElt(w, big)):
            assert member_B0r(BElt(w, small))


def test_teich_product_over_perf_laurent():
    pr = params(3, 2, 2)
    h = ainf_handle(pr)
    ring = h.ring
    rng = random.Random(45)
    F = fq_field(pr)
    elts = [e for e in F.elements() if e]
    for _ in range(20):
        x = PerfLaurent(ring, {(rng.randrange(-6, 7) * 9,
                                rng.randrange(-3, 4) * 9): rng.choice(elts)})
        y = PerfLaurent(ring, {(rng.randrange(-6, 7) * 9,
                                rng.randrange(-3, 4) * 9): rng.choice(elts)})
        lhs = wt.witt_mul(wt.teich(h, x, pr.N), wt.teich(h, y, pr.N))
        assert lhs.eq(wt.teich(h, x * y, pr.N))


def test_gauss_val_windows():
    pr = params(2, 1, 1)
    h = ainf_handle(pr)
    t = PerfLaurent.monomial(h.ring, (Fraction(1, 2),))
    assert gauss_val(t) == Fraction(1, 2) and t.w_hi is None
    capped = PerfLaurent(h.ring, dict(t.terms), None, Fraction(1, 4))
    assert gauss_val(capped) is None


def test_ainf_ring_is_one_ring_per_params():
    # elements compare their rings by identity
    ring = ainf_handle(params(3, 1, 1)).ring
    assert ainf_handle(params(3, 1, 1)).ring is ring
    assert PerfLaurent.one(ring) == \
        PerfLaurent.one(ainf_handle(params(3, 1, 1)).ring)


def test_mixed_rings_raise():
    # exponents are scaled by each ring's p^k, so a product or sum across
    # rings would read one ring's exponents at the other's scale
    a = PerfLaurent.monomial(ainf_handle(params(3, 1, 1, k=2)).ring, (1,))
    b = PerfLaurent.monomial(ainf_handle(params(3, 1, 1, k=4)).ring, (1,))
    for op in (operator.mul, operator.add, operator.sub,
               lambda x, y: PerfLaurent.sum([x, x, y])):
        with pytest.raises(ValueError, match="different perfectoid rings"):
            op(a, b)
    assert a * a == PerfLaurent.monomial(a.ring, (2,))


def _ref_member_B0r(w):
    """The digit scan member_B0r made before it read b_val_r."""
    r = Fraction(w.r)
    for n, d in enumerate(w.digits()):
        gv = gauss_val(d)
        if gv is None:
            continue
        if gv + Fraction(n, 1) / r - w.shift < 0:
            return False
    return True


_signed = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_member_b0r_is_the_sign_of_b_val_r(data):
    # digits with no content (zero, or every term past w_hi) are skipped
    pr = params(3, 1, 1, k=2)
    h = ainf_handle(pr)
    ring = h.ring
    elts = [e for e in ring.field.elements() if e]
    digs = []
    for _ in range(pr.N):
        terms = data.draw(st.dictionaries(
            st.tuples(st.integers(-2 * ring.scale, 2 * ring.scale)),
            st.sampled_from(elts), max_size=2))
        w_hi = data.draw(st.one_of(st.none(), _signed))
        digs.append(PerfLaurent(ring, terms, None, w_hi))
    w = BElt(wt.from_expansion(h, tuple(digs)),
             data.draw(st.fractions(min_value=Fraction(1, 9), max_value=4,
                                    max_denominator=9)),
             data.draw(_signed))
    assert member_B0r(w) == _ref_member_B0r(w)


# -- integer windows against the Fraction formulas they replace --------------

class RefPerf:
    """A PerfLaurent whose window is kept in Fractions, by the formulas the
    integer numerators over one denominator replace.  Products are a pair
    loop in the order of ``sparse.product``, sums the termwise loop
    ``sparse.lincomb`` replaced; the windows and bands are restated."""

    def __init__(self, ring, terms, w_lo, w_hi, band):
        self.ring, self.terms = ring, terms
        self.w_lo, self.w_hi, self.band = w_lo, w_hi, band

    @staticmethod
    def new(ring, terms, w_lo=None, w_hi=None, band=None):
        band = ring.band_cap if band is None else band
        out = {}
        for e, c in terms.items():
            if w_hi is not None and Fraction(sum(e), ring.scale) >= w_hi:
                continue
            if any(abs(x) > band for x in e[1:]):
                raise BandOverflow(f"cross exponents {e[1:]} exceed the band")
            if any(c.coords):
                out[tuple(e)] = c.coords
        lo = min((Fraction(sum(e), ring.scale) for e in out),
                 default=Fraction(0))
        return RefPerf(ring, out, lo if w_lo is None else min(w_lo, lo),
                       w_hi, band)

    def _cut(self, hi):
        return None if hi is None else math.ceil(hi * self.ring.scale)

    @staticmethod
    def sum(parts):
        ring = parts[0].ring
        hi = None
        for x in parts:
            hi = bound_min(hi, x.w_hi)
        hs = parts[0]._cut(hi)
        out = {}
        for x in parts:
            for e, c in x.terms.items():
                cur = out.get(e)
                out[e] = c if cur is None else ring.oe.raw_add(cur, c, 1)
        out = {e: c for e, c in out.items()
               if any(c) and (hs is None or sum(e) < hs)}
        return RefPerf(ring, out, min(x.w_lo for x in parts), hi,
                       min(x.band for x in parts))

    def __neg__(self):
        return RefPerf(self.ring, {e: self.ring.oe.raw_neg(c, 1)
                                   for e, c in self.terms.items()},
                       self.w_lo, self.w_hi, self.band)

    def __mul__(self, other):
        lo = self.w_lo + other.w_lo
        hi = bound_min(bound_add(self.w_lo, other.w_hi),
                       bound_add(other.w_lo, self.w_hi))
        band = min(self.band, other.band)
        hs = self._cut(hi)

        def join(e1, e2):
            e = tuple(a + b for a, b in zip(e1, e2))
            if hs is not None and sum(e) >= hs:
                return None
            if any(abs(x) > band for x in e[1:]):
                raise BandOverflow(
                    f"product cross exponents {e[1:]} exceed the band")
            return e
        out = _ref_pair_loop(self.ring.oe, self.terms, other.terms, 1, join)
        return RefPerf(self.ring, out, lo, hi, band)

    def frobenius(self):
        p, oe = self.ring.params.p, self.ring.oe
        out = {tuple(p * x for x in e): oe.raw_pow(c, p, 1)
               for e, c in self.terms.items()}
        return RefPerf(self.ring, out, self.w_lo * p,
                       None if self.w_hi is None else self.w_hi * p,
                       self.band * p)

    def pth_root(self):
        p, oe = self.ring.params.p, self.ring.oe
        root = p ** (self.ring.params.h - 1)
        out = {}
        for e, c in self.terms.items():
            if any(x % p for x in e):
                raise DepthExhausted("p-th root leaves the depth")
            out[tuple(x // p for x in e)] = oe.raw_pow(c, root, 1)
        return RefPerf(self.ring, out, self.w_lo / p,
                       None if self.w_hi is None else self.w_hi / p,
                       max(1, self.band // p))

    @staticmethod
    def eval_struct(terms, vals):
        """A structure polynomial's terms mod p at ``vals``: the terms with
        no zero value multiplied out with ``coeff.power`` and ``*``, c
        copies each, summed with the bounds walked over every term."""
        ring = vals[0].ring
        one = RefPerf(ring, {(0,) * ring.nvars: ring.field.one.coords},
                      Fraction(0), None, ring.band_cap)
        parts = []
        w_lo, w_hi, band = Fraction(0), None, ring.band_cap
        for c, factors in terms:
            t, t_lo, t_gap = None, Fraction(0), None
            for j, d in factors:
                v = vals[j]
                t_lo += d * v.w_lo
                if v.w_hi is not None:
                    t_gap = bound_min(t_gap, v.w_hi - v.w_lo)
                band = min(band, v.band)
            w_lo = min(w_lo, t_lo)
            w_hi = bound_min(w_hi, bound_add(t_lo, t_gap))
            if all(vals[j].terms for j, _ in factors):
                for j, d in factors:
                    pw = power(vals[j], d, one)
                    t = pw if t is None else t * pw
                parts += [one if t is None else t] * c
        return RefPerf.sum(parts + [RefPerf(ring, {}, w_lo, w_hi, band)])


def _same_window(got, want):
    assert list(got.terms.items()) == list(want.terms.items())
    assert type(got.w_lo) is Fraction and got.w_lo == want.w_lo
    assert got.w_hi is None if want.w_hi is None else \
        (type(got.w_hi) is Fraction and got.w_hi == want.w_hi)
    assert got.band == want.band


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BandOverflow, DepthExhausted) as exc:
        return type(exc)


_bound = st.fractions(min_value=-3, max_value=4, max_denominator=9)
_OPS = ("mul", "sum", "neg", "frobenius", "pth_root", "witt")


@pytest.mark.parametrize("p,f,h", [(3, 1, 1), (3, 2, 2)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_windows_follow_the_fraction_formulas(p, f, h, data):
    # a random program of constructors and operations, run on PerfLaurent
    # and on RefPerf: equal terms in dict order, windows and bands, or the
    # same error
    R = ainf_handle(params(p, f, h, k=2)).ring
    handle = ainf_handle(R.params)
    sp = wt.gen_structure_polys(p, 3)
    witt_ops = [(op, [wt._mod_p_terms(q, p) for q in polys])
                for op, polys in ((wt.witt_add, sp.sums),
                                  (wt.witt_mul, sp.prods))]
    elts = [e for e in R.field.elements() if e]
    exps = st.integers(-2 * R.scale, 2 * R.scale)
    pool = []
    for _ in range(3):
        terms = data.draw(st.dictionaries(st.tuples(*[exps] * f),
                                          st.sampled_from(elts), max_size=3))
        w_lo, w_hi = (data.draw(st.one_of(st.none(), _bound))
                      for _ in range(2))
        if w_hi is not None and data.draw(st.booleans()):
            # the terms on either side of the cut, where ceil and floor of
            # w_hi * scale part
            cut = math.ceil(w_hi * R.scale)
            for e0 in (cut - 1, cut):
                key = (e0,) + (0,) * (f - 1)
                terms[key] = data.draw(st.sampled_from(elts))
        band = data.draw(st.one_of(st.none(), st.integers(R.scale,
                                                          4 * R.scale)))
        got = _outcome(PerfLaurent, R, terms, w_lo, w_hi, band)
        want = _outcome(RefPerf.new, R, terms, w_lo, w_hi, band)
        if want is BandOverflow:
            assert got is BandOverflow
            continue
        _same_window(got, want)
        pool.append((got, want))
    if not pool:
        return
    pick = st.sampled_from(pool)
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(st.sampled_from(_OPS))
        if op == "mul":
            (a, ra), (b, rb) = data.draw(pick), data.draw(pick)
            got, want = _outcome(operator.mul, a, b), _outcome(
                operator.mul, ra, rb)
        elif op == "sum":
            xs = data.draw(st.lists(pick, min_size=1, max_size=4))
            got = PerfLaurent.sum([a for a, _ in xs])
            want = RefPerf.sum([r for _, r in xs])
        elif op == "witt":
            # witt_add or witt_mul on coordinate-form vectors: coordinate
            # n is the evaluation of S_n or P_n at the six values
            fn, polys = data.draw(st.sampled_from(witt_ops))
            vs = [data.draw(pick) for _ in range(6)]
            u, v = (wt.WittVec(handle, 3, wt.WITT_COORDS,
                               tuple(a for a, _ in vs[i:i + 3]))
                    for i in (0, 3))
            got = _outcome(lambda: fn(u, v).comps)
            want = _outcome(lambda: [RefPerf.eval_struct(
                terms, [r for _, r in vs]) for terms in polys])
            if isinstance(want, type):
                assert got is want
                continue
            for a, b in zip(got, want, strict=True):
                _same_window(a, b)
                pool.append((a, b))
            pick = st.sampled_from(pool)
            continue
        else:
            a, ra = data.draw(pick)
            if op == "neg":
                got, want = -a, -ra
            else:
                got = _outcome(getattr(a, op))
                want = _outcome(getattr(ra, op))
        if isinstance(want, type):
            assert got is want
            continue
        _same_window(got, want)
        pool.append((got, want))
        pick = st.sampled_from(pool)


def _raised(fn, *args):
    """fn(*args), or the type and message of the BandOverflow it raises."""
    try:
        return fn(*args)
    except BandOverflow as exc:
        return BandOverflow, str(exc)


def _same_power(x, d):
    # the closed form against binary powering with PerfLaurent products
    # from one: equal terms, window over x's denominator and band, or the
    # same BandOverflow
    R = x.ring
    got = _raised(R.mono_power, x._den, (x.terms, x._lo, x._hi, x.band), d)
    want = _raised(power, x, d, PerfLaurent.one(R))
    if isinstance(want, tuple):
        assert got == want
        return want
    assert want._den == x._den
    assert got == (want.terms, want._lo, want._hi, want.band)
    return want


@pytest.mark.parametrize("f", [1, 2])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_term_power_in_closed_form_is_binary_powering(f, data):
    R = ainf_handle(params(3, f, f, k=2)).ring
    cap = R.band_cap
    # cross exponents up to the cap, so that powers reach past a band on
    # either side of it
    e = (data.draw(st.integers(-2 * R.scale, 2 * R.scale)),) + tuple(
        data.draw(st.integers(-cap, cap)) for _ in range(f - 1))
    c = data.draw(st.sampled_from([v for v in R.field.elements() if v]))
    # a floor below the term and a w_hi above it, denominators up to 27
    # against the scale 9: x^m is cut once m (v - w_lo) >= w_hi - w_lo
    v = Fraction(sum(e), R.scale)
    gap = st.fractions(0, 3, max_denominator=27)
    w_lo = data.draw(st.one_of(st.none(), gap.map(lambda t: v - t)))
    w_hi = data.draw(st.one_of(st.none(), gap.map(lambda t: v + t)))
    least = max([1] + [abs(y) for y in e[1:]])
    band = data.draw(st.one_of(st.integers(least, max(least, cap)),
                               st.integers(max(least, cap), 2 * cap)))
    x = PerfLaurent(R, {e: c}, w_lo, w_hi, band)
    assume(len(x.terms) == 1)
    want = _same_power(x, data.draw(st.integers(1, 40)))
    event("raises" if isinstance(want, tuple) else
          "kept" if want.terms else "cut")


def test_one_term_power_raises_at_a_kept_square_past_the_band():
    # x = Y_0 Y_1 with w_lo 0 and w_hi 5 keeps x^2 and cuts x^3; x^2 is a
    # square of binary powering with x's band 12 < 18, so x^3 raises
    R = ainf_handle(params(3, 2, 2, k=2)).ring
    one, cap = R.field.one, R.band_cap
    x = PerfLaurent(R, {(9, 9): one}, 0, 5, 12)
    assert _same_power(x, 3) == (
        BandOverflow, "product cross exponents (18,) exceed the band")
    assert not _same_power(PerfLaurent(R, {(9, 9): one}, 0, 5, 18),
                           3).terms
    assert _same_power(x, 1).terms == x.terms
    # a band above the cap: the square x^2 is checked against x's band,
    # not the cap, and x^3 is cut
    e1 = cap // 2 + 1
    v = Fraction(9 + e1, R.scale)
    y = PerfLaurent(R, {(9, e1): one}, v - 1, v + Fraction(3, 2), 2 * cap)
    assert not _same_power(y, 3).terms


def _ref_plan_window(plan, los, gaps):
    """The direct group scan, with los and gaps indexed by variable: each
    group's least sum of d_j*lo_j, and that plus the group's least gap."""
    w_lo, w_hi = 0, None
    for js, vecs in plan.groups:
        g_lo = min(sum(d * los[j] for d, j in zip(vec, js)) for vec in vecs)
        w_lo = min(w_lo, g_lo)
        for j in js:
            if gaps[j] is not None:
                w_hi = bound_min(w_hi, g_lo + gaps[j])
    return w_lo, w_hi


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_plan_window_memo_is_the_group_scan(data):
    # every plan at (2,3), (3,3) and (3,4); lo numerators of either sign
    # and zero, gaps None (exact) or >= 0
    for p, N in ((2, 3), (3, 3), (3, 4)):
        sp = wt.gen_structure_polys(p, N)
        n = 2 * N
        los = data.draw(st.lists(st.integers(-30, 30), min_size=n,
                                 max_size=n))
        gaps = data.draw(st.lists(st.none() | st.integers(0, 30),
                                  min_size=n, max_size=n))
        for plan in sp.sum_plans + sp.prod_plans:
            key = [tuple(xs[j] for j in plan.used) for xs in (los, gaps)]
            assert _plan_window(plan, *key) == \
                _ref_plan_window(plan, los, gaps)


PLAN_WINDOW_CHECK = """
import mvphi
from fractions import Fraction
from mvphi.coeff import Params
from mvphi.perfd import PerfLaurent, ainf_handle
from mvphi.witt import gen_structure_polys
name = "perfd._plan_window"
handle = ainf_handle(Params.create(3, 1, 1, N=4))
plan = gen_structure_polys(3, 4).sum_plans[0]    # S_0 = X_0 + Y_0
assert plan.used == (0, 4)


def elt(lo, gap):
    x = PerfLaurent.monomial(handle.ring, (lo,))
    return PerfLaurent(handle.ring, x.terms, lo, lo + gap)


def window(lo0, lo1, gap1):
    # X_0 with gap 9, so that Y_0's gap 5/3 sets w_hi; X_1 is outside
    vals = [elt(Fraction(n, 3), Fraction(n + 1, 3)) for n in range(8)]
    vals[0], vals[1] = elt(lo0, 9), elt(lo1, gap1)
    x = handle.kernel(vals)[3](plan, [])
    return x.w_lo, x.w_hi


mvphi.clear_caches()
assert mvphi.cache_info()[name].currsize == 0
assert window(Fraction(-2, 3), 1, 1) == (Fraction(-2, 3), 3)
info = mvphi.cache_info()[name]
assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
# X_1 is outside the plan: one entry, and a hit
assert window(Fraction(-2, 3), 2, Fraction(1, 3)) == (Fraction(-2, 3), 3)
info = mvphi.cache_info()[name]
assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
# X_0 is used: a new entry
assert window(Fraction(-7, 3), 2, 1) == (Fraction(-7, 3), 3)
assert mvphi.cache_info()[name].currsize == 2
mvphi.clear_caches()
assert mvphi.cache_info()[name].currsize == 0
"""


def test_plan_window_entries_are_shared_counted_and_cleared():
    # a fresh interpreter, so that the tables other tests built survive
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-c", PLAN_WINDOW_CHECK],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
