import functools
import json
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mvphi.coeff import Params, oe_ring, ok_ring
from mvphi.embed import (Floors, WAlg, congruent_mod, b_val_walg,
                         iota_generators, iota, iota_context,
                         verify_norm_compare, verify_phi_equivariance,
                         to_belt)
from mvphi import sparse
from mvphi.mvring import MvLaurent, NormValue, norm_s
from mvphi.perfd import (PerfLaurent, ainf_handle, b_val_r, gauss_val,
                         phi_exponents)
from mvphi.sparse import bound_min
from mvphi.errors import BandOverflow, DepthExhausted, Uncertified
from mvphi.serialize import dumps, witt_json

from test_sparse import _ref_pair_loop, floor_values


GRID = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2)]
P311, P322 = Params.create(3, 1, 1), Params.create(3, 2, 2)


def params(p, f, h, **kw):
    return Params.create(p, f, h, **kw)


def mono(pr, n0, cross=None, scalar=1):
    return MvLaurent.monomial(pr, n0, cross, scalar)


def test_walg_ring_ops():
    pr = params(3, 1, 1)
    a = WAlg.teich_monomial(pr, 3, (1,))
    b = WAlg.teich_monomial(pr, 3, (Fraction(1, 3),))
    prod = a * b
    assert list(prod.terms) == [(4 * 27,)]  # exponent 4/3 scaled by 3^3
    s = a + a
    assert list(s.values() if False else s.terms.values()) == [(2,)]
    assert (a - a).is_zero()


def _same_in_either_order(op):
    # at (3,1,1), precisions 3 and 2: the result lives at precision 2 and
    # has the same terms, horizons, floors and valuations in both orders
    pr = params(3, 1, 1)
    hi = WAlg.teich_monomial(pr, 3, (1,))
    lo = WAlg.teich_monomial(pr, 2, (2,))
    ab, ba = op(hi, lo), op(lo, hi)
    assert ab.prec == ba.prec == 2
    assert ab.terms == ba.terms and ab.H == ba.H
    assert ab.floors.N == 2
    assert floor_values(ab.floors) == floor_values(ba.floors)
    for r in (Fraction(1), Fraction(1, 3)):
        assert b_val_walg(ab, r) == b_val_walg(ba, r)


def test_walg_add_at_mixed_precision_either_order():
    _same_in_either_order(operator.add)


def test_walg_mul_at_mixed_precision_either_order():
    _same_in_either_order(operator.mul)


def test_walg_phi_inverse_and_forward():
    pr = params(3, 2, 2)
    a = WAlg.teich_monomial(pr, 3, (1, 0))
    fwd = a.phi_forward()
    # phi(Y_0) = Y_{f-1}^p: exponent vector rotates
    assert list(fwd.terms) == [(0, 3 * 81)]
    back = fwd.phi_inverse()
    assert back.terms == a.terms


def test_iota_generators_p2_spec_digits():
    # q = 2: y = [Y] + 2 [Y^(1/2)] at the first step
    pr = params(2, 1, 1, N=2)
    res = iota_generators(pr)
    y = res.ys[0]
    scale = 2 ** pr.k
    assert y.terms == {(scale,): (1,), (scale // 2,): (2,)}
    assert res.certificates == [1]


def test_iota_generators_p2_n3():
    pr = params(2, 1, 1, N=3)
    res = iota_generators(pr)
    y = res.ys[0]
    # digit 0 is exactly [Y]
    assert list(y.digit0()) == [(2 ** pr.k,)]
    assert res.certificates == [1, 2]


@pytest.mark.parametrize("p,f,h", GRID)
def test_iota_digit0_and_stabilization(p, f, h):
    pr = params(p, f, h)
    res = iota_generators(pr)
    field = oe_ring(pr).field
    scale = p ** pr.k
    for i, y in enumerate(res.ys):
        d0 = y.digit0()
        want = tuple(scale if j == i else 0 for j in range(f))
        assert list(d0) == [want]
        assert d0[want] == field.one
    assert res.certificates == list(range(1, pr.N))


@pytest.mark.parametrize("p,f,h", GRID)
def test_iota_digits_nonneg_valuation(p, f, h):
    # all generator digits sit inside the integral perfection
    pr = params(p, f, h)
    for y in iota_generators(pr).ys:
        assert y.floors.global_min() > 0
        for e in y.terms:
            assert sum(e) > 0


@pytest.mark.parametrize("p,f,h", GRID)
def test_iota_perturbed_seed_converges_to_same(p, f, h):
    pr = params(p, f, h)
    base = iota_generators(pr)
    rng = random.Random(50)
    offsets = []
    for i in range(f):
        e = tuple(Fraction(rng.randrange(1, 3)) if j == i else Fraction(0)
                  for j in range(f))
        offsets.append(WAlg.teich_monomial(pr, pr.N, e))
    pert = iota_generators(pr, seed_offsets=offsets)
    for a, b in zip(base.ys, pert.ys):
        assert congruent_mod(a, b, pr.N)


def test_iota_trivial_values():
    pr = params(3, 1, 1)
    one = iota(MvLaurent.one(pr))
    assert one.terms == WAlg.one(pr, pr.N).terms
    y = iota(mono(pr, 1))
    assert congruent_mod(y, iota_generators(pr).ys[0], pr.N)


@pytest.mark.parametrize("p,f,h", GRID)
def test_iota_is_multiplicative(p, f, h):
    pr = params(p, f, h)
    rng = random.Random(51)
    for _ in range(4):
        x = rand_elt(pr, rng)
        y = rand_elt(pr, rng)
        lhs = iota(x * y)
        rhs = iota(x) * iota(y)
        assert congruent_mod(lhs, rhs, pr.N)
        ladd = iota(x + y)
        radd = iota(x) + iota(y)
        assert congruent_mod(ladd, radd, pr.N)


def rand_elt(pr, rng, span=2):
    terms = {}
    for _ in range(2):
        n0 = rng.randrange(-1, span)
        cross = tuple(rng.randrange(-1, 2) for _ in range(pr.f - 1))
        v = rng.randrange(0, pr.N)
        c = [rng.randrange(pr.p ** pr.N) for _ in range(pr.h)]
        c[0] = c[0] or 1
        c = tuple((x * pr.p ** v) % pr.p ** pr.N for x in c)
        terms[(n0, cross)] = c
    return MvLaurent(pr, pr.N, terms)


def test_iota_reads_its_input_mod_p_to_the_n():
    # h = 2: coefficients near p^(N+10), far above the precision of the
    # monomials, are read mod p^N as if x were reduced first
    pr = params(3, 2, 2)
    rng = random.Random(53)
    q = pr.p ** (pr.N + 10)
    for _ in range(3):
        terms = {(rng.randrange(-1, 2), (rng.randrange(-1, 2),)):
                 (q - 1 - rng.randrange(9), rng.randrange(q))
                 for _ in range(3)}
        x = MvLaurent(pr, pr.N + 10, terms)
        got, want = iota(x), iota(x.reduce(pr.N))
        assert list(got.terms.items()) == list(want.terms.items())
        assert (got.prec, got.hn) == (want.prec, want.hn)


def test_iota_injective_at_precision():
    pr = params(3, 1, 1)
    rng = random.Random(52)
    for _ in range(6):
        x = rand_elt(pr, rng)
        if x.is_zero():
            continue
        w = iota(x)
        assert not w.is_zero()


@pytest.mark.parametrize("p,f,h", GRID)
def test_norm_compare_generators(p, f, h):
    pr = params(p, f, h)
    for s in (1, 2):
        r = verify_norm_compare(mono(pr, 1), s)
        assert r["ok"] and r["ring_side"] == 1
        r2 = verify_norm_compare(mono(pr, -s, None, p), s)
        assert r2["ok"] and r2["ring_side"] == 0
        if f > 1:
            r3 = verify_norm_compare(mono(pr, 0, (1,)), s)
            assert r3["ok"] and r3["ring_side"] == 0


@pytest.mark.parametrize("p,f,h", GRID)
def test_norm_compare_random_certified(p, f, h):
    pr = params(p, f, h)
    rng = random.Random(53)
    done = 0
    tries = 0
    while done < 8 and tries < 60:
        tries += 1
        s = rng.choice((1, 2))
        x = rand_elt(pr, rng) + mono(pr, -1)
        try:
            rep = verify_norm_compare(x, s)
        except Uncertified:
            continue
        assert rep["ok"], rep
        done += 1
    assert done >= 8


@pytest.mark.parametrize("p,f,h", GRID)
def test_phi_equivariance_generators_and_products(p, f, h):
    pr = params(p, f, h)
    for i in range(f):
        cross = tuple(1 if j == i - 1 else 0 for j in range(f - 1)) \
            if i else None
        rep = verify_phi_equivariance(mono(pr, 1, cross))
        assert rep["ok"], rep
    rng = random.Random(54)
    for _ in range(4):
        x = rand_elt(pr, rng)
        rep = verify_phi_equivariance(x)
        assert rep["congruent"], rep


def test_phi_equivariance_composes_when_phi_q_misses_its_unit_term():
    # at (5,2,2) the phi_q images stop at M = 12 < q = 25: a windowed input
    # and an exact one with a negative exponent both fall back to phi^f
    # composed from the single-phi check
    pr = params(5, 2, 2)
    rep = verify_phi_equivariance(MvLaurent(pr, 3, {(1, (0,)): (1, 0)},
                                            None, 6))
    assert rep["q_mode"] == "composed"
    assert rep["ok"] and rep["congruent"] and rep["congruent_q"]
    rep = verify_phi_equivariance(MvLaurent(pr, 3, {(-1, (0,)): (1, 0)}))
    assert rep["q_mode"] == "composed"
    assert rep["congruent"] and rep["congruent_q"]


def test_uniqueness_from_fixpoint_equation():
    # phi(y_i) = F_i(y) holds for the computed tuple
    pr = params(3, 1, 1)
    ctx = iota_context(pr)
    res = iota_generators(pr)
    from mvphi import iwasawa
    F = iwasawa.phi_y(pr, 0, pr.embed_window)
    from mvphi import sparse
    one = lambda: WAlg.one(pr, pr.N)
    rhs = sparse.evaluate(F.terms.items(), sparse.Substitution(res.ys, one),
                          WAlg.zero(pr, pr.N), one)
    lhs = res.ys[0].phi_forward()
    assert congruent_mod(lhs, rhs, pr.N)


def test_to_belt_cross_check_digit_b_val():
    pr = params(3, 1, 1)
    for x, s in [(mono(pr, 1), 1), (mono(pr, -1, None, 3), 1),
                 (mono(pr, 2), 2)]:
        w = iota(x)
        fast = b_val_walg(w, Fraction(1, s))
        slow = b_val_r(to_belt(w, Fraction(1, s)))
        assert fast.val == slow.val
        ns = norm_s(x, s)
        assert s * ns.val == fast.val


def test_to_belt_digits_match_spec_example():
    pr = params(2, 1, 1, N=2)
    w = iota(mono(pr, 1))
    belt = to_belt(w, Fraction(1))
    digits = belt.digits()
    assert gauss_val(digits[0]) == 1
    assert gauss_val(digits[1]) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# the integer floor arithmetic against a plain-Fraction reference
# ---------------------------------------------------------------------------

def _ref_hmin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def exact_floors(N, level_mins):
    """Floors of exact finite data (Fractions): cumulative minima, flat
    tail."""
    den = math.lcm(*(x.denominator for x in level_mins if x is not None))
    return Floors(N, den, [None if x is None else
                           x.numerator * (den // x.denominator)
                           for x in level_mins], None, 0)


class RefFloors:
    """The Fraction-only floors the integer tables replace, kept as the
    reference: every value is rebuilt from Lv, B and sigma on each use."""

    def __init__(self, N, Lv, B, sigma):
        self.N = N
        lv = list(Lv)
        prev = None
        for i in range(N):
            if lv[i] is None:
                lv[i] = prev
            elif prev is not None:
                lv[i] = min(lv[i], prev)
            prev = lv[i]
        self.Lv = tuple(lv)
        self.B = B if prev is None else _ref_hmin(B, prev)
        self.sigma = sigma

    @staticmethod
    def exact(N, level_mins):
        return RefFloors(N, level_mins, None, Fraction(0))

    def at(self, m):
        if m < self.N:
            return self.Lv[m]
        if self.B is None:
            return None
        return self.B + self.sigma * (m - self.N)

    def delta(self):
        best = self.sigma
        prev = None
        for v in range(self.N):
            cur = self.Lv[v]
            if prev is not None and cur is not None:
                best = min(best, cur - prev)
            prev = cur
        if prev is not None and self.B is not None:
            best = min(best, self.B - prev)
        return best

    def meet(self, other):
        return RefFloors(min(self.N, other.N),
                         tuple(_ref_hmin(a, b) for a, b in
                               zip(self.Lv, other.Lv)),
                         _ref_hmin(self.B, other.B),
                         min(self.sigma, other.sigma))

    def convolve(self, other):
        N = min(self.N, other.N)
        Lv = []
        for v in range(N):
            best = None
            for a in range(v + 1):
                x, y = self.at(a), other.at(v - a)
                if x is not None and y is not None:
                    best = _ref_hmin(best, x + y)
            Lv.append(best)
        sigma = min(self.delta(), other.delta(), Fraction(0))
        B = None
        for m in range(N, 2 * N + 3):
            best = None
            for a in range(m + 1):
                x, y = self.at(a), other.at(m - a)
                if x is not None and y is not None:
                    best = _ref_hmin(best, x + y)
            if best is not None:
                B = _ref_hmin(B, best - sigma * (m - N))
        return RefFloors(N, Lv, B, sigma)

    def shift(self, v):
        Lv = [None] * self.N
        for m in range(v, self.N):
            Lv[m] = self.at(m - v)
        tail = []
        for m in range(self.N, 2 * self.N + v + 1):
            val = self.at(m - v)
            if val is not None:
                tail.append(val - self.sigma * (m - self.N))
        return RefFloors(self.N, Lv, min(tail) if tail else None,
                         self.sigma)

    def scale(self, c):
        sc = Fraction(c)
        return RefFloors(self.N,
                         tuple(None if x is None else x * sc
                               for x in self.Lv),
                         None if self.B is None else self.B * sc,
                         self.sigma * sc)

    def reduce(self, prec, walg_prec):
        """The floors of ``WAlg.reduce(prec)`` on an element of precision
        walg_prec."""
        cands = [self.at(m) - self.sigma * (m - prec)
                 for m in range(prec, 2 * walg_prec + 1)
                 if self.at(m) is not None]
        return RefFloors(prec, self.Lv[:prec],
                         min(cands) if cands else None, self.sigma)

    def global_min(self):
        vals = [x for x in self.Lv if x is not None]
        if self.B is not None:
            vals.append(self.B)
        return min(vals) if vals else None


def ref_product_horizons(x, y):
    """The O(N^3) horizon loop of the WAlg product: a minimum over every
    v2 <= v - v1 of the other operand's floors."""
    prec = min(x.prec, y.prec)
    H = []
    for v in range(prec):
        best = None
        for v1 in range(v + 1):
            for h, fl in ((x.H[v1], y.floors), (y.H[v1], x.floors)):
                if h is None:
                    continue
                for v2 in range(v - v1 + 1):
                    f = fl.at(v2)
                    if f is not None:
                        best = _ref_hmin(best, h + f)
        H.append(best)
    for v in range(1, len(H)):
        H[v] = _ref_hmin(H[v], H[v - 1])
    return tuple(H)


def _same_floors(fl, ref):
    assert floor_values(fl) == \
        (ref.N, ref.Lv[:ref.N], ref.B, ref.sigma, ref.delta())
    assert fl.global_min() == ref.global_min()
    for m in range(2 * fl.N + 6):
        assert fl.at(m) == ref.at(m)
    # the invariants the integer shortcut relies on
    assert fl.sig <= 0
    finite = [fl.at(m) for m in range(2 * fl.N + 6)]
    first = next((i for i, x in enumerate(finite) if x is not None),
                 len(finite))
    assert all(x is not None for x in finite[first:])
    assert all(a >= b for a, b in zip(finite[first:], finite[first + 1:]))


_FLOOR_P = 3
_level = st.one_of(st.none(), st.fractions(min_value=-4, max_value=12,
                                           max_denominator=27))


@st.composite
def floor_pairs(draw, N=None):
    """(Floors, RefFloors) built by the same random program of public
    operations from exact starting data."""
    if N is None:
        N = draw(st.integers(1, 4))
    lv = draw(st.lists(_level, min_size=N, max_size=N))
    pair = (exact_floors(N, lv), RefFloors.exact(N, lv))
    pr = Params.create(_FLOOR_P, 1, 1, N=4)
    for op in draw(st.lists(st.sampled_from(
            ["meet", "convolve", "shift", "up", "down", "reduce", "meet_n"]),
            max_size=5)):
        fl, ref = pair
        if op == "meet_n":
            # the n-ary meet against the left fold of binary meets, over
            # operands of other precisions and denominators (1/3, 1/9)
            others = []
            for _ in range(draw(st.integers(1, 4))):
                M = draw(st.integers(1, 4))
                olv = draw(st.lists(_level, min_size=M, max_size=M))
                o = (exact_floors(M, olv), RefFloors.exact(M, olv))
                for _ in range(draw(st.integers(0, 2))):
                    o = (o[0].scale(1, _FLOOR_P),
                         o[1].scale(Fraction(1, _FLOOR_P)))
                others.append(o)
            got = fl.meet(*[o[0] for o in others])
            fold = functools.reduce(Floors.meet, [o[0] for o in others], fl)
            assert floor_values(got) == floor_values(fold)
            pair = (got, functools.reduce(RefFloors.meet,
                                          [o[1] for o in others], ref))
            N = pair[1].N
        elif op in ("meet", "convolve"):
            M = draw(st.integers(1, 4))
            olv = draw(st.lists(_level, min_size=M, max_size=M))
            other = (exact_floors(M, olv), RefFloors.exact(M, olv))
            if draw(st.booleans()):
                other = (other[0].scale(Fraction(1, _FLOOR_P)),
                         other[1].scale(Fraction(1, _FLOOR_P)))
            pair = (getattr(fl, op)(other[0]), getattr(ref, op)(other[1]))
            N = pair[1].N
        elif op == "shift":
            # scalar_mul shifts by v < prec <= N; past N the reference reads
            # levels m - v < 0 as Lv[m - v]
            v = draw(st.integers(0, N))
            pair = (fl.shift(v), ref.shift(v))
        elif op == "up":
            pair = (fl.scale(_FLOOR_P), ref.scale(_FLOOR_P))
        elif op == "down":
            pair = (fl.scale(Fraction(1, _FLOOR_P)),
                    ref.scale(Fraction(1, _FLOOR_P)))
        elif N > 1:
            n = draw(st.integers(1, N - 1))
            x = WAlg(pr, N, {}, floors=fl)
            pair = (x.reduce(n).floors, ref.reduce(n, N))
            N = n
        _same_floors(*pair)
    return pair


@settings(max_examples=300, deadline=None)
@given(floor_pairs())
def test_floors_match_fraction_reference(pair):
    _same_floors(*pair)


@st.composite
def walg_operands(draw):
    """A WAlg with random terms, horizons and floors at (3,1,1)."""
    pr = Params.create(3, 1, 1, N=4)
    prec = draw(st.integers(1, 4))
    fl, ref = draw(floor_pairs(N=prec))
    H = tuple(draw(st.lists(_level, min_size=prec, max_size=prec)))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-3 * 81, 3 * 81)),
        st.tuples(st.integers(0, 3 ** prec - 1)), max_size=5))
    return WAlg(pr, prec, terms, H, fl), ref


def _ref_walg_mul_terms(x, y):
    ring = oe_ring(x.params)
    prec = min(x.prec, y.prec)
    out = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            prod = ring.raw_mul(ring.raw_reduce(c1, prec),
                                ring.raw_reduce(c2, prec), prec)
            e = (e1[0] + e2[0],)
            out[e] = ring.raw_add(out.get(e, (0,)), prod, prec)
    return {e: c for e, c in out.items() if any(c)}


@settings(max_examples=200, deadline=None)
@given(walg_operands(), walg_operands())
def test_walg_product_horizons_match_cubic_loop(a, b):
    (x, xref), (y, yref) = a, b
    z = x * y
    assert z.H == ref_product_horizons(x, y)
    _same_floors(z.floors, xref.convolve(yref))
    assert z.terms == _ref_walg_mul_terms(x, y)


def _ref_congruent_mod(x, y, m):
    """congruent_mod as its own term loop: a difference term of valuation
    below m inside the meet of the horizons refutes the congruence."""
    diff = x - y
    ring = oe_ring(x.params)
    H = tuple(bound_min(a, b) for a, b in zip(x.H, y.H))
    for e, c in diff.terms.items():
        v = ring.raw_val(c, diff.prec)
        if v >= m:
            continue
        hv = H[v] if v < len(H) else None
        if hv is not None and Fraction(sum(e), 3 ** x.params.k) >= hv:
            continue
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(walg_operands(), walg_operands(), st.integers(0, 4), st.booleans())
def test_congruent_mod_matches_the_term_loop(a, b, j, near):
    # y is random, or x plus a random element times 3^j, so that both
    # answers occur; the precisions and windows are mixed
    x, y = a[0], b[0]
    if near:
        y = x + y.scalar_mul((3 ** j,))
    for m in range(min(x.prec, y.prec) + 1):
        assert congruent_mod(x, y, m) == _ref_congruent_mod(x, y, m)


# ---------------------------------------------------------------------------
# WAlg's integer horizons against the Fraction formulas they replace
# ---------------------------------------------------------------------------

class RefWAlg:
    """WAlg's bookkeeping as Fractions: horizons H, RefFloors, and every
    cut a comparison of Gauss valuations sum(e)/p^k >= H[v].  Products
    are a pair loop in the order of ``sparse.product``; sums and scalar
    multiples are the termwise loops ``sparse.lincomb`` replaced."""

    def __init__(self, params, prec, terms, H, floors):
        self.params, self.prec, self.terms = params, prec, terms
        self.H, self.floors = H, floors

    def gv(self, e):
        return Fraction(sum(e), self.params.p ** self.params.k)

    @staticmethod
    def make(params, prec, terms, H=None, floors=None):
        ring = oe_ring(params)
        H = (None,) * prec if H is None else _ref_mono(H)
        scale = params.p ** params.k
        out, level_mins = {}, [None] * prec
        for e, c in terms.items():
            rc = ring.raw_reduce(c, prec)
            if not any(rc):
                continue
            gv, v = Fraction(sum(e), scale), ring.raw_val(rc, prec)
            if H[v] is not None and gv >= H[v]:
                continue
            out[tuple(e)] = rc
            level_mins[v] = _ref_hmin(level_mins[v], gv)
        if floors is None:
            if any(h is not None for h in H):
                raise ValueError("floors are required for windowed elements")
            floors = RefFloors.exact(prec, level_mins)
        return RefWAlg(params, prec, out, H, floors)

    @staticmethod
    def sum(parts):
        x = parts[0]
        prec, H, floors = x.prec, x.H, x.floors
        for y in parts[1:]:
            prec = min(prec, y.prec)
            H = _ref_mono(tuple(_ref_hmin(a, b)
                                for a, b in zip(H[:prec], y.H[:prec])))
            floors = floors.meet(y.floors)
        ring, out = oe_ring(x.params), {}
        for y in parts:
            for k, c in y.terms.items():
                cur = out.get(k)
                out[k] = c if cur is None else ring.raw_add(cur, c, prec)
        out = {k: r for k, c in out.items()
               if any(r := ring.raw_reduce(c, prec))}
        return RefWAlg(x.params, prec, out, _ref_mono(H), floors)

    def __mul__(self, other):
        prec = min(self.prec, other.prec)
        H = []
        for v in range(prec):
            best = None
            for v1 in range(v + 1):
                for h, fl in ((self.H[v1], other.floors.at(v - v1)),
                              (other.H[v1], self.floors.at(v - v1))):
                    if h is not None and fl is not None:
                        best = _ref_hmin(best, h + fl)
            H.append(best)
        out = _ref_pair_loop(oe_ring(self.params), self.terms, other.terms,
                             prec)
        return RefWAlg(self.params, prec, out, _ref_mono(H),
                       self.floors.convolve(other.floors))

    def scalar_mul(self, craw):
        ring = oe_ring(self.params)
        v = ring.raw_val(craw, self.prec)
        if v >= self.prec:
            return RefWAlg.make(self.params, self.prec, {})
        H = [None] * self.prec
        for w in range(v, self.prec):
            H[w] = self.H[w - v]
        out = {k: r for k, c in self.terms.items()
               if any(r := ring.raw_mul(craw, c, self.prec))}
        return RefWAlg(self.params, self.prec, out, tuple(H),
                       self.floors.shift(v))

    def clamp(self, bounds):
        H = _ref_mono(tuple(_ref_hmin(a, b) for a, b in zip(self.H, bounds)))
        ring = oe_ring(self.params)
        out = {e: c for e, c in self.terms.items()
               if H[ring.raw_val(c, self.prec)] is None
               or self.gv(e) < H[ring.raw_val(c, self.prec)]}
        return RefWAlg(self.params, self.prec, out, H, self.floors)

    def phi_inverse(self):
        p, f = self.params.p, self.params.f
        out = {}
        for e, c in self.terms.items():
            if any(x % p for x in e):
                raise DepthExhausted("phi^-1 leaves the exponent depth")
            out[tuple(e[(j - 1) % f] // p for j in range(f))] = c
        return RefWAlg(self.params, self.prec, out,
                       tuple(None if h is None else h / p for h in self.H),
                       self.floors.scale(Fraction(1, p)))

    def phi_forward(self):
        p = self.params.p
        return RefWAlg(self.params, self.prec,
                       {phi_exponents(e, p): c for e, c in self.terms.items()},
                       tuple(None if h is None else h * p for h in self.H),
                       self.floors.scale(p))

    def reduce(self, prec):
        if prec >= self.prec:
            return self
        return RefWAlg(self.params, prec,
                       sparse.reduce(oe_ring(self.params), self.terms, prec),
                       self.H[:prec], self.floors.reduce(prec, self.prec))

    def b_val(self, r):
        r = Fraction(r)
        if r <= 0:
            raise ValueError(f"the radius r must be > 0, got {r}")
        ring = oe_ring(self.params)
        best = min((self.gv(e) + Fraction(ring.raw_val(c, self.prec)) / r
                    for e, c in self.terms.items()), default=None)
        if best is None:
            return NormValue(None, False)
        certified = all(h is None or best < h + Fraction(v) / r
                        for v, h in enumerate(self.H))
        tail = self.floors.at(self.prec)
        if self.floors.sigma + 1 / r < 0 or (
                tail is not None and best >= tail + Fraction(self.prec) / r):
            certified = False
        return NormValue(best, certified)


def _ref_mono(H):
    out = list(H)
    for v in range(1, len(out)):
        out[v] = _ref_hmin(out[v], out[v - 1])
    return tuple(out)


def _ints(bounds):
    """Fraction bounds as (int numerators, denominator) for WAlg.clamp."""
    den = math.lcm(*[b.denominator for b in bounds if b is not None])
    return ([None if b is None else b.numerator * (den // b.denominator)
             for b in bounds], den)


def _outcome(fn):
    """fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except (ValueError, DepthExhausted) as exc:
        return type(exc).__name__, str(exc)


def _same_walg(x, ref):
    assert list(x.terms.items()) == list(ref.terms.items())
    assert (x.prec, x.H) == (ref.prec, ref.H)
    rf = ref.floors
    assert floor_values(x.floors)[:4] == (rf.N, rf.Lv[:rf.N], rf.B, rf.sigma)


def _near(draw, pool):
    """A horizon bound: None, a Gauss valuation drawn from the terms (so
    that terms land exactly on it), one a few steps of 1/162, 1/3 or 1
    off (so that a valuation lands on a horizon plus v/r), or random."""
    kind = draw(st.integers(0, 3))
    if kind == 0 or not pool:
        return None if kind == 0 else draw(_level)
    g = draw(st.sampled_from(pool))
    if kind == 2:
        g += Fraction(draw(st.integers(-3, 1)),
                      draw(st.sampled_from([1, 3, 162])))
    return g


@st.composite
def walg_programs(draw):
    """Up to 3 constructors and 6 operations at (3,1,1) or (3,2,2), run on
    WAlg and RefWAlg side by side; every result is compared as it is
    made, and each op's outcome (element, valuation or error) too."""
    pr = draw(st.sampled_from([P311, P322]))
    scale, f, h = pr.p ** pr.k, pr.f, pr.h
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        prec = draw(st.integers(1, pr.N))
        step = draw(st.sampled_from([1, pr.p]))  # p | e lets phi^-1 run
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(-2 * scale, 2 * scale).map(
                lambda x, s=step: x - x % s)] * f),
            st.tuples(*[st.integers(0, pr.p ** prec - 1)] * h), max_size=5))
        gvs = [Fraction(sum(e), scale) for e in terms]
        H = floors = None
        if draw(st.booleans()):
            H = tuple(_near(draw, gvs) for _ in range(prec))
            if draw(st.integers(0, 5)):
                lv = draw(st.lists(_level, min_size=prec, max_size=prec))
                floors = (exact_floors(prec, lv), RefFloors.exact(prec, lv))
        got = _outcome(lambda: WAlg(pr, prec, terms, H,
                                    floors and floors[0]))
        want = _outcome(lambda: RefWAlg.make(pr, prec, terms, H,
                                             floors and floors[1]))
        if isinstance(want, tuple):
            assert got == want
            continue
        _same_walg(got, want)
        pool.append((got, want))
    if not pool:
        return pool
    pick = st.integers(0, len(pool) - 1)
    for op in draw(st.lists(st.sampled_from(
            ["sum", "lincomb", "mul", "smul", "clamp", "phi", "phi_inv",
             "reduce", "b_val"]), max_size=6)):
        x, rx = pool[draw(pick)]
        if op == "sum":
            idx = draw(st.lists(pick, min_size=1, max_size=4))
            got = WAlg.sum([pool[i][0] for i in idx])
            want = RefWAlg.sum([pool[i][1] for i in idx])
        elif op == "lincomb":
            # scalars p^j * u, not reduced: units, 0 < v < prec, zero
            # (v >= prec), and coordinates above p^prec of every element
            idx = draw(st.lists(pick, min_size=1, max_size=4))
            cs = [tuple(pr.p ** draw(st.integers(0, pr.N))
                        * draw(st.integers(0, 8)) for _ in range(h))
                  for i in idx]
            got = WAlg.lincomb([(c, pool[i][0]) for c, i in zip(cs, idx)])
            want = RefWAlg.sum([pool[i][1].scalar_mul(c)
                                for c, i in zip(cs, idx)])
        elif op == "mul":
            y, ry = pool[draw(pick)]
            got, want = x * y, rx * ry
        elif op == "smul":
            j = draw(st.integers(0, pr.N))
            c = tuple(pr.p ** j * draw(st.integers(0, 8)) for _ in range(h))
            got, want = x.scalar_mul(c), rx.scalar_mul(c)
        elif op == "clamp":
            gvs = [Fraction(sum(e), scale) for e in x.terms]
            bounds = [_near(draw, gvs) for _ in range(x.prec)]
            got, want = x.clamp(*_ints(bounds)), rx.clamp(bounds)
        elif op == "phi":
            got, want = x.phi_forward(), rx.phi_forward()
        elif op == "phi_inv":
            got, want = (_outcome(x.phi_inverse), _outcome(rx.phi_inverse))
        elif op == "reduce":
            n = draw(st.integers(1, pr.N))
            got, want = x.reduce(n), rx.reduce(n)
        else:
            r = draw(st.sampled_from([Fraction(1), Fraction(1, 2),
                                      Fraction(1, 3), Fraction(2, 3),
                                      Fraction(3), Fraction(0),
                                      Fraction(-1, 2)]))
            assert _outcome(lambda: b_val_walg(x, r)) == \
                _outcome(lambda: rx.b_val(r))
            continue
        if isinstance(want, tuple):
            assert got == want
            continue
        _same_walg(got, want)
        pool.append((got, want))
    return pool


@settings(max_examples=400, deadline=None)
@given(walg_programs())
def test_walg_bookkeeping_follows_the_fraction_formulas(pool):
    for x, ref in pool:
        _same_walg(x, ref)
        for r in (Fraction(1), Fraction(1, 3)):
            assert b_val_walg(x, r) == ref.b_val(r)


def _steps(step, x, n):
    """x after n single steps, or the type of the error a step raises."""
    try:
        for _ in range(n):
            x = step(x)
    except DepthExhausted as exc:
        return type(exc)
    return x


def _one_call(fn, *args):
    try:
        return fn(*args)
    except DepthExhausted as exc:
        return type(exc)


def _perf_state(x):
    if isinstance(x, type):
        return x
    return list(x.terms.items()), x._lo, x._hi, x._den, x.band


def _walg_state(x):
    fl = x.floors
    return (list(x.terms.items()), x.prec, x.hn,
            (fl.N, fl.den, fl.tab, fl.sig, fl.dlt))


@pytest.mark.parametrize("p,f,h", [(3, 1, 1), (3, 2, 2), (2, 1, 3),
                                   (2, 2, 4)])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_frobenius_power_is_that_many_single_steps(p, f, h, data):
    # each power taken in one call against the same number of single
    # steps: phi^e on O_E (phi has order h, so e counts mod h), sigma_i on
    # O_K, the Frobenius and p-th root of the perfectoid ring, and W(phi)
    pr = params(p, f, h, N=4)
    oe, okr = oe_ring(pr), ok_ring(pr)
    prec = data.draw(st.integers(1, 4))
    a = tuple(data.draw(st.lists(st.integers(0, p ** prec - 1),
                                 min_size=h, max_size=h)))
    e = data.draw(st.integers(-h, 2 * h))
    assert oe.raw_frobenius(a, prec, e) == _steps(
        lambda c: oe.raw_frobenius(c, prec), a, e % h)
    x = oe(a, prec)
    assert x.frobenius(e) == _steps(lambda y: y.frobenius(), x, e % h)
    for n in range(4):
        assert x.pth_root(n) == _steps(lambda y: y.frobenius(), x,
                                       n * (h - 1))
    k = okr(a[:f], prec)
    assert okr.sigma(k, e) == oe(_steps(lambda c: oe.raw_frobenius(c, prec),
                                        okr.image(k), e % h), prec)

    # terms whose exponents are multiples of p^j, for a Witt-algebra
    # element and a perfectoid one over a denominator p^i: roots of every
    # depth and partly divisible windows
    R = ainf_handle(pr).ring
    elts = [c.coords for c in R.field.elements() if c]
    j = data.draw(st.integers(0, 4))
    exps = st.integers(-40, 40).map(lambda t: t * p ** j)
    terms = data.draw(st.dictionaries(st.tuples(*[exps] * f),
                                      st.sampled_from(elts), max_size=4))
    fl, _ = data.draw(floor_pairs(N=prec))
    H = data.draw(st.lists(_level, min_size=prec, max_size=prec))
    v = data.draw(st.integers(0, prec - 1))
    w = WAlg(pr, prec, {t: tuple(p ** v * x for x in c)
                        for t, c in terms.items()}, H, fl)
    for n in range(4):
        assert _walg_state(w.phi_forward(n)) == _walg_state(
            _steps(WAlg.phi_forward, w, n))

    bound = st.one_of(st.none(), st.builds(
        lambda u, i: Fraction(u, p ** i), st.integers(-40, 40),
        st.integers(0, 5)))
    w_lo, w_hi = data.draw(bound), data.draw(bound)
    band = data.draw(st.one_of(st.none(), st.integers(0, 8 * R.scale)))
    try:
        y = PerfLaurent(R, terms, w_lo, w_hi, band)
    except BandOverflow:
        return
    for n in range(4):
        assert _perf_state(y.frobenius(n)) == _perf_state(
            _steps(PerfLaurent.frobenius, y, n))
        assert _perf_state(_one_call(y.pth_root, n)) == _perf_state(
            _steps(PerfLaurent.pth_root, y, n))


def test_walg_lincomb_shifts_horizons_past_the_least_precision():
    # 9 * x moves x's level-0 horizon to level 2, past the precision 1 of
    # the sum, and 3 * x to level 1; 27 * x is zero at x's precision 3
    lv = [Fraction(0), Fraction(1), Fraction(2)]
    H = (Fraction(2), Fraction(2), Fraction(1))
    terms = {(81,): (1,), (162,): (3,), (0,): (9,)}
    x = WAlg(P311, 3, terms, H, exact_floors(3, lv))
    rx = RefWAlg.make(P311, 3, terms, H, RefFloors.exact(3, lv))
    ys = [(WAlg(P311, 1, {(81,): (2,)}),
           RefWAlg.make(P311, 1, {(81,): (2,)}))]
    ys.append((WAlg(P311, 2, {(81,): (2,)}, H[:2], exact_floors(2, lv[:2])),
               RefWAlg.make(P311, 2, {(81,): (2,)}, H[:2],
                            RefFloors.exact(2, lv[:2]))))
    for c, (y, ry) in (((9,), ys[0]), ((3,), ys[1]), ((27,), ys[1]),
                       ((1,), ys[0])):
        got = WAlg.lincomb([((c[0] % 27,), x), ((1,), y)])
        _same_walg(got, RefWAlg.sum([rx.scalar_mul(c), ry]))


def test_b_val_walg_is_uncertified_on_a_horizon_plus_v_over_r():
    # 3 [Y] sits at level 1 with Gauss valuation 1, so its value is
    # 1 + 1/r; at r = 1 that equals the level-2 horizon 0 plus 2/r, and at
    # r = 1/3 and 1/2 every horizon and floor bound lies above it
    pr = params(3, 1, 1, N=3, k=4)
    lv = [None, Fraction(1), None]
    H = (None, Fraction(2), Fraction(0))
    x = WAlg(pr, 3, {(81,): (3,)}, H, exact_floors(3, lv))
    ref = RefWAlg.make(pr, 3, {(81,): (3,)}, H, RefFloors.exact(3, lv))
    for r, want in ((Fraction(1), NormValue(Fraction(2), False)),
                    (Fraction(1, 3), NormValue(Fraction(4), True)),
                    (Fraction(1, 2), NormValue(Fraction(3), True))):
        assert b_val_walg(x, r) == ref.b_val(r) == want


def test_b_val_walg_rejects_a_radius_that_is_not_positive():
    # (3,1,1), N = 3, k = 4: r = -1/2 gave an uncertified -35/9 and r = 0
    # divided by zero
    pr = params(3, 1, 1, N=3, k=4)
    x = iota(mono(pr, 1))
    for r in (Fraction(-1, 2), Fraction(0), -1):
        with pytest.raises(ValueError, match="radius"):
            b_val_walg(x, r)
    assert b_val_walg(x, Fraction(1)).val == 1


def test_b_val_r_rejects_a_radius_that_is_not_positive():
    # r = -1 gave NormValue(1, uncertified) and r = 0 divided by zero
    x = WAlg.teich_monomial(P311, 3, (1,))
    for r in (Fraction(0), -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="radius"):
            b_val_r(to_belt(x, r))
    assert b_val_r(to_belt(x, 1)).val == 1


@pytest.mark.parametrize("p,f,h", [(3, 1, 1), (3, 2, 2)])
def test_phi_equivariance_evaluates_iota_on_x_once(p, f, h, monkeypatch):
    import mvphi.embed as embed
    x = MvLaurent.monomial(params(p, f, h), 1)
    calls, real = [], embed.iota

    def counted(z):
        calls.append(z)
        return real(z)
    monkeypatch.setattr(embed, "iota", counted)
    rep = verify_phi_equivariance(x)
    assert rep["q_mode"] == "direct" and rep["congruent_q"]
    # iota(x), iota(phi(x)) and iota(phi_q(x))
    assert sum(z is x for z in calls) == 1
    assert len(calls) == 3


# -- to_belt at N = 4: a golden --------------------------------------------

BELT_N4 = Path(__file__).resolve().parent / "data" / "to_belt_n4.json"
# the witt-n4 benchmark's element shapes (a, db, v): a unit monomial Y_0^a
# plus, db degrees up, a term of valuation exactly v
BELT_N4_SHAPES = ((0, 1, 3), (0, 1, 0), (-1, 1, 0))


def _two_term(rng, pr, a, db, v):
    p, mod = pr.p, pr.p ** pr.N
    zero = (0,) * (pr.f - 1)
    terms = {(a, zero): (rng.randrange(1, p),) + (0,) * (pr.h - 1)}
    unit = rng.randrange(mod // p) * p + rng.randrange(1, p)
    c = (unit,) + tuple(rng.randrange(mod) for _ in range(pr.h - 1))
    terms[(a + db, zero)] = tuple((x * p ** v) % mod for x in c)
    return terms


def belt_n4_cases():
    """(name, iota x) for the golden: each shape at (3,1,1) and (3,2,2),
    N = 4, k = 4, coefficients from seeds 1 and 2."""
    for pfh in ((3, 1, 1), (3, 2, 2)):
        pr = params(*pfh, N=4, k=4)
        for seed in (1, 2):
            rng = random.Random(seed)
            for shape in BELT_N4_SHAPES:
                x = MvLaurent(pr, pr.N, _two_term(rng, pr, *shape))
                yield f"{pfh} seed {seed} shape {shape}", iota(x)


def test_to_belt_at_n4_matches_the_golden():
    # exact digits, windows and bands of the N = 4 expansions, f = 2 too
    want = json.loads(BELT_N4.read_text())
    got = {name: json.loads(dumps(witt_json(to_belt(w, Fraction(1)).witt)))
           for name, w in belt_n4_cases()}
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name
