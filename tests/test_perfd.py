import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvphi.coeff import Params, fq_field
from mvphi.perfd import (ainf_ring, PerfLaurent, gauss_val, phi_linear,
                         phi_q_linear, pr_radius, ainf_handle, BElt, b_val_r,
                         member_B0r, phi_q_belt)
from mvphi.errors import DepthExhausted
from mvphi import witt as wt


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


def test_belt_teich_and_pi():
    pr = params(3, 1, 1)
    h = ainf_handle(pr)
    ring = h.ring
    y = PerfLaurent.monomial(ring, (1,))
    w = BElt(wt.teich(h, y, pr.N), Fraction(1))
    nv = b_val_r(w)
    assert nv.val == 1 and nv.certified
    # pi * teich(1) at radius r has value exponent 1/r
    pi1 = wt.from_expansion(h, (h.zero(), h.one(), h.zero()))
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
    for s in (1, 2):
        # pi / [Y]^s at r = 1/s: boundary, in
        w = BElt(wt.from_expansion(
            h, (h.zero(), h.one(), h.zero())), Fraction(1, s), shift=s)
        assert member_B0r(w)
        # pi / [Y]^{s+1} at r = 1/s: out
        w2 = BElt(wt.from_expansion(
            h, (h.zero(), h.one(), h.zero())), Fraction(1, s), shift=s + 1)
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
