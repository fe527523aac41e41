import random
from fractions import Fraction

import pytest

from mvphi.coeff import Params, oe_ring
from mvphi.embed import (WAlg, congruent_mod, b_val_walg, iota_generators,
                         iota, iota_context, verify_norm_compare,
                         verify_phi_equivariance, to_belt)
from mvphi.mvring import MvLaurent, norm_s
from mvphi.perfd import b_val_r, gauss_val
from mvphi.errors import Uncertified


GRID = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2)]


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


def test_uniqueness_from_fixpoint_equation():
    # phi(y_i) = F_i(y) holds for the computed tuple
    pr = params(3, 1, 1)
    ctx = iota_context(pr)
    res = iota_generators(pr)
    from mvphi import iwasawa
    F = iwasawa.phi_y(pr, 0, pr.embed_window)
    from mvphi import sparse
    one = lambda: WAlg.one(pr, pr.N)
    rhs = sparse.evaluate(F.terms.items(), sparse.Powers(res.ys, one),
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
