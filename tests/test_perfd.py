import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from mvphi.coeff import Params, fq_field, power
from mvphi.perfd import (ainf_ring, PerfLaurent, gauss_val, phi_linear,
                         phi_q_linear, pr_radius, ainf_handle, BElt, b_val_r,
                         member_B0r, phi_q_belt)
from mvphi.errors import BandOverflow, DepthExhausted
from mvphi import sparse, witt as wt
from mvphi.sparse import bound_add, bound_min


GRID = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2)]


def params(p, f, h, **kw):
    return Params.create(p, f, h, **kw)


def test_gauss_val_normalization():
    pr = params(3, 2, 2)
    ring = ainf_ring(pr)
    y0 = PerfLaurent.monomial(ring, (1, 0))
    assert gauss_val(y0) == 1
    cross = PerfLaurent.monomial(ring, (-1, 1))  # Y_1 / Y_0
    assert gauss_val(cross) == 0
    frac = PerfLaurent.monomial(ring, (Fraction(1, 3), 0))
    assert gauss_val(frac) == Fraction(1, 3)
    assert gauss_val(PerfLaurent.zero(ring)) is None


def test_monomial_depth_guard():
    pr = params(3, 1, 1, k=2)
    ring = ainf_ring(pr)
    with pytest.raises(DepthExhausted):
        PerfLaurent.monomial(ring, (Fraction(1, 27),))


def test_gauss_multiplicativity():
    pr = params(3, 2, 2)
    ring = ainf_ring(pr)
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


def test_phi_linear_index_shift():
    pr = params(3, 2, 2)
    ring = ainf_ring(pr)
    y1 = PerfLaurent.monomial(ring, (0, 1))
    img = phi_linear(y1)
    assert img.terms == PerfLaurent.monomial(ring, (3, 0)).terms
    assert gauss_val(img) == 3 * gauss_val(y1)


def test_phi_linear_scaling_random():
    pr = params(3, 2, 2)
    ring = ainf_ring(pr)
    rng = random.Random(41)
    F = fq_field(pr)
    elts = [e for e in F.elements() if e]
    for _ in range(10):
        terms = {tuple(rng.randrange(-3, 4) * 81 for _ in range(2)):
                 rng.choice(elts) for _ in range(3)}
        x = PerfLaurent(ring, terms)
        assert gauss_val(phi_linear(x)) == 3 * gauss_val(x)


def test_frobenius_vs_phi_linear_differ_on_coefficients():
    pr = params(3, 2, 2)
    ring = ainf_ring(pr)
    F = fq_field(pr)
    lam = F((1, 1))
    x = PerfLaurent(ring, {(81, 0): lam})
    frob = x.frobenius()
    assert list(frob.terms.values())[0] == lam.frobenius().coords
    lin = phi_q_linear(x)
    assert list(lin.terms.values())[0] == lam.coords


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
    # the F-linear Frobenius substitution sends [Y_i] to [Y_{i-1}^p]
    pr = params(3, 2, 2)
    h = ainf_handle(pr)
    y1 = PerfLaurent.monomial(h.ring, (0, 1))
    got = wt.map_coefficients(phi_linear, wt.teich(h, y1, pr.N))
    want = wt.teich(h, PerfLaurent.monomial(h.ring, (3, 0)), pr.N)
    assert got.eq(want)


def test_eq_within_compares_only_the_common_window():
    # a term past the least w_hi of the two is not compared; one below it
    # that differs makes them unequal, and so the Witt vectors too
    R = ainf_ring(params(3, 1, 1))
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


def test_member_b0r_phi_q_equivalence():
    pr = params(3, 2, 2)
    h = ainf_handle(pr)
    ring = h.ring
    rng = random.Random(43)
    F = fq_field(pr)
    elts = [e for e in F.elements() if e]
    for _ in range(15):
        digs = []
        for n in range(pr.N):
            e = (rng.randrange(0, 4) * ring.scale,
                 rng.randrange(-2, 3) * ring.scale)
            digs.append(PerfLaurent(ring, {e: rng.choice(elts)}))
        w = BElt(wt.from_expansion(h, tuple(digs)), Fraction(2),
                 shift=Fraction(rng.randrange(3)))
        img = phi_q_belt(w)
        assert img.r == Fraction(2, pr.q)
        assert member_B0r(w) == member_B0r(img)


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
    pr = params(3, 1, 1)
    assert ainf_ring(pr) is ainf_ring(pr) is ainf_handle(pr).ring
    assert PerfLaurent.one(ainf_ring(pr)) == PerfLaurent.one(ainf_ring(pr))


def test_mixed_rings_raise():
    # exponents are scaled by each ring's p^k, so a product or sum across
    # rings would read one ring's exponents at the other's scale
    a = PerfLaurent.monomial(ainf_ring(params(3, 1, 1, k=2)), (1,))
    b = PerfLaurent.monomial(ainf_ring(params(3, 1, 1, k=4)), (1,))
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


def test_phi_linear_band_holds_the_shifted_y0_exponent():
    # at f = 2 the shift moves Y_0^5 into the cross slot: the image's band
    # is 3 * 45, not 3 * 9, and its product by one keeps its term
    R = ainf_ring(params(3, 2, 2, k=2))
    s = R.scale
    x = PerfLaurent(R, {(5 * s, s): R.field.one}, band=s)
    img = phi_linear(x)
    assert list(img.terms) == [(27, 135)] and img.band == 135
    assert (img * PerfLaurent.one(R)).terms == img.terms


@pytest.mark.parametrize("p,f,h", [(3, 2, 2), (5, 2, 2), (3, 1, 1)])
def test_phi_q_linear_is_the_direct_substitution(p, f, h):
    # f index shifts compose to Y_i -> Y_i^q: the same terms in the same
    # order and the same window; the band is q * band
    R = ainf_ring(params(p, f, h, k=2))
    rng = random.Random(46)
    elts = [e for e in R.field.elements() if e]
    for _ in range(10):
        terms = {tuple(rng.randrange(-2 * R.scale, 2 * R.scale)
                       for _ in range(f)): rng.choice(elts)
                 for _ in range(3)}
        x = PerfLaurent(R, terms, None, Fraction(rng.randrange(-9, 9), 4))
        got, want = phi_q_linear(x), x
        for _ in range(f):
            want = phi_linear(want)
        assert list(got.terms.items()) == list(want.terms.items())
        assert (got.w_lo, got.w_hi) == (want.w_lo, want.w_hi)
        assert got.band == R.params.q * x.band


# -- integer windows against the Fraction formulas they replace --------------

class RefPerf:
    """A PerfLaurent whose window is kept in Fractions, by the formulas the
    integer numerators over one denominator replace.  Terms go through the
    same sparse kernels; only the windows and bands are restated."""

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
        out = sparse.add(ring.oe, [x.terms for x in parts], 1,
                         None if hs is None else lambda e: sum(e) < hs)
        return RefPerf(ring, out, min(x.w_lo for x in parts), hi,
                       min(x.band for x in parts))

    def __neg__(self):
        return RefPerf(self.ring, sparse.neg(self.ring.oe, self.terms, 1),
                       self.w_lo, self.w_hi, self.band)

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

    def phi_linear(self):
        # the band takes the shifted Y_0 exponent at f >= 2
        p = self.ring.params.p
        band = self.band
        if self.ring.nvars > 1:
            band = max([band] + [abs(e[0]) for e in self.terms])
        return RefPerf(self.ring, {tuple(p * x for x in e[1:] + e[:1]): c
                                   for e, c in self.terms.items()},
                       self.w_lo * p,
                       None if self.w_hi is None else self.w_hi * p,
                       p * band)

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
_OPS = ("mul", "sum", "neg", "frobenius", "pth_root", "phi_linear",
        "witt")


@pytest.mark.parametrize("p,f,h", [(3, 1, 1), (3, 2, 2)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_windows_follow_the_fraction_formulas(p, f, h, data):
    # a random program of constructors and operations, run on PerfLaurent
    # and on RefPerf: equal terms in dict order, windows and bands, or the
    # same error
    R = ainf_ring(params(p, f, h, k=2))
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
            if op == "phi_linear":
                got, want = phi_linear(a), ra.phi_linear()
            elif op == "neg":
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
    R = ainf_ring(params(3, f, f, k=2))
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
    R = ainf_ring(params(3, 2, 2, k=2))
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
