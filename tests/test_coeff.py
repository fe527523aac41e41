import math
import operator
import random
from itertools import permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mvphi.coeff import (Params, FField, OEInt, OERing, fq_field, oe_ring,
                         ok_ring, binomial_row,
                         vp_factorial, default_poly, base_p_digits, is_prime,
                         power, _row_reduce)
from mvphi.caches import cache_info
from mvphi.errors import PrecisionExhausted, NotAUnit
from mvphi.witt import _pmul


GRID = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2)]


def params(p, f, h, **kw):
    return Params.create(p, f, h, **kw)


def test_default_polys_are_monic_irreducible():
    assert default_poly(2, 1) == (0, 1)
    assert default_poly(3, 2) == (1, 0, 1)  # x^2 + 1 mod 3
    # x^2 + 2 is reducible mod 3 (roots +-1... actually 1^2+2=0), sanity:
    assert default_poly(5, 2)[2] == 1


def test_field_axioms_small():
    pr = params(3, 2, 2)
    F = fq_field(pr)
    elts = list(F.elements())
    assert len(elts) == 9
    for a in elts:
        assert a + F.zero == a
        assert a * F.one == a
        if a:
            assert a * a ** -1 == F.one
        assert a.pth_root().frobenius() == a


def test_frobenius_is_additive_and_multiplicative():
    pr = params(5, 2, 2)
    F = fq_field(pr)
    rng = random.Random(0)
    elts = list(F.elements())
    for _ in range(30):
        a, b = rng.choice(elts), rng.choice(elts)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_teichmuller_trivial_cases():
    pr = params(3, 1, 1)
    F = fq_field(pr)
    ring = oe_ring(pr)
    assert ring.raw_teich(F.zero, pr.N) == (0,)
    assert ring.raw_teich(F.one, pr.N) == (1,)


def test_teichmuller_example_p3():
    # Hensel-lifting the root of X^2 = 1 congruent to 2 mod 3 gives -1.
    pr = params(3, 1, 1, N=5)
    F = fq_field(pr)
    assert oe_ring(pr).raw_teich(F.from_int(2), 5) == (3 ** 5 - 1,)


@pytest.mark.parametrize("p,f,h", GRID)
def test_teichmuller_is_multiplicative_and_fixed(p, f, h):
    pr = params(p, f, h)
    F = fq_field(pr)
    ring, N = oe_ring(pr), pr.N
    rng = random.Random(1)
    elts = list(F.elements())
    for _ in range(20):
        x, y = rng.choice(elts), rng.choice(elts)
        tx, ty = ring.raw_teich(x, N), ring.raw_teich(y, N)
        assert ring.raw_mul(tx, ty, N) == ring.raw_teich(x * y, N)
        assert ring.raw_pow(tx, p ** h, N) == tx


@pytest.mark.parametrize("p,f,h", GRID)
def test_frobenius_lift_properties(p, f, h):
    pr = params(p, f, h)
    ring = oe_ring(pr)
    F = fq_field(pr)
    rng = random.Random(2)
    for _ in range(15):
        a = ring(tuple(rng.randrange(p ** pr.N) for _ in range(h)), pr.N)
        b = ring(tuple(rng.randrange(p ** pr.N) for _ in range(h)), pr.N)
        fa, fb = a.frobenius(), b.frobenius()
        assert (a + b).frobenius() == fa + fb
        assert (a * b).frobenius() == fa * fb
        assert fa.reduce(1) == a.reduce(1).frobenius()
        it = a
        for _ in range(h):
            it = it.frobenius()
        assert it == a
    for x in list(F.elements())[:6]:
        assert ring.raw_frobenius(ring.raw_teich(x, pr.N), pr.N) == \
            ring.raw_teich(x.frobenius(), pr.N)


def test_padic_binomial_integer_cases():
    row = list(binomial_row(3, 5, 4, 3))
    assert row[2] == (10, 4)
    assert row[0] == (1, 4)


def test_padic_binomial_half_example():
    # a = 1/2 in Z/3^N, j = 2 -> -1/8 certified at full precision (v_3(2!)=0)
    N = 4
    a = pow(2, -1, 3 ** N)
    want = (-pow(8, -1, 3 ** N)) % 3 ** N
    assert list(binomial_row(3, a, N, 3))[2] == (want, N)


def test_padic_binomial_precision_loss_and_exhaustion():
    # v_2(4!) = 3 eats all of N = 3
    with pytest.raises(PrecisionExhausted):
        list(binomial_row(2, 5, 3, 5))
    assert list(binomial_row(2, 5, 5, 5))[4] == (5 % 4, 5 - 3)  # C(5,4) = 5


def test_padic_binomial_pascal():
    rng = random.Random(3)
    for _ in range(20):
        a = rng.randrange(3 ** 6)
        j = rng.randrange(1, 6)
        lhs, prec = list(binomial_row(3, a, 6, j + 1))[j]
        row = list(binomial_row(3, a - 1, 6, j + 1))
        assert (lhs - row[j][0] - row[j - 1][0]) % 3 ** prec == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_binomial_row_matches_padic_binomial(p):
    # each entry is the exact binomial mod p^(prec - v_p(d!)), and the row
    # stops where v_p(d!) reaches prec
    prec = 4
    exhausted = next(d for d in range(100) if vp_factorial(d, p) >= prec)
    for a in (p ** 3 + 2, -(2 * p ** 2 + 1), 7 * p, -p):
        row = []
        with pytest.raises(PrecisionExhausted):
            for c in binomial_row(p, a, prec, exhausted + 5):
                row.append(c)
        assert len(row) == exhausted
        for d, (c, cprec) in enumerate(row):
            falling = 1
            for i in range(d):
                falling *= a - i
            v = vp_factorial(d, p)
            exact = falling // math.factorial(d)
            assert (c, cprec) == (exact % p ** (prec - v), prec - v)


@given(st.integers(0, 3 ** 5 - 1), st.integers(0, 3 ** 5 - 1))
@settings(max_examples=40, deadline=None)
def test_oe_ring_axioms(x, y):
    pr = params(3, 2, 2, N=5)
    ring = oe_ring(pr)
    a = ring((x % 3 ** 5, x // 7 % 3 ** 5), 5)
    b = ring((y % 3 ** 5, y // 11 % 3 ** 5), 5)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a


def test_oe_inverse_and_valuation():
    pr = params(5, 2, 2, N=4)
    ring = oe_ring(pr)
    a = ring((7, 3), 4)
    inv = ring.raw_inv(a.coords, 4)
    assert ring.raw_mul(a.coords, inv, 4) == ring.one(4).coords
    assert ring.raw_val((a * 25).coords, 4) == 2
    assert ring.raw_val(ring.zero(4).coords, 4) == 4
    with pytest.raises(NotAUnit):
        ring.raw_inv((a * 5).coords, 4)


def _digit_round_trip(ring, a, prec, e):
    """phi^e as the Teichmueller digits of a, each raised to p^(e mod h)
    and lifted again: the round trip ``raw_frobenius`` made for every e."""
    q, acc = ring.p ** (e % ring.h), (0,) * ring.h
    for n, lam in enumerate(ring.teich_digits(a, prec)):
        t = ring.raw_teich(lam ** q, prec)
        acc = ring.raw_add(acc, ring.raw_smul(ring.p ** n, t, prec), prec)
    return acc


def test_teich_digit_roundtrip():
    pr = params(3, 2, 2, N=4)
    ring = oe_ring(pr)
    rng = random.Random(4)
    for _ in range(20):
        # the Teichmueller digits, each raised to p^0, recombine to a
        a = tuple(rng.randrange(3 ** 4) for _ in range(2))
        assert _digit_round_trip(ring, a, 4, 0) == a
        assert ring.raw_frobenius(a, 4, ring.h) == a


@pytest.mark.parametrize("p,f,h", [(3, 1, 1), (3, 2, 2), (2, 3, 3)])
def test_frobenius_at_a_multiple_of_h_makes_no_digit_round_trip(
        p, f, h, monkeypatch):
    # phi^e is the identity at e = 0 mod h: the round trip's result, read
    # off the input mod p^prec, with no Teichmueller digit taken
    ring = oe_ring(params(p, f, h))
    rng = random.Random(37)
    cases = [(tuple(rng.randrange(-p ** 6, p ** 6) for _ in range(h)), prec)
             for prec in range(1, 5) for _ in range(5)]
    es = (0, h, -h, 2 * h)
    want = {(a, prec, e): _digit_round_trip(ring, a, prec, e)
            for a, prec in cases for e in es}

    def no_digits(*args):
        raise AssertionError("teich_digits called")
    monkeypatch.setattr(OERing, "teich_digits", no_digits)
    for (a, prec, e), w in want.items():
        assert ring.raw_frobenius(a, prec, e) == w
        assert ring.raw_frobenius(a, prec, e) == ring.raw_reduce(a, prec)


@pytest.mark.parametrize("p,f,h", GRID + [(2, 2, 4)])
def test_ok_ring_basics(p, f, h):
    pr = params(p, f, h)
    okr = ok_ring(pr)
    assert len(okr.fq_basis) == f
    fq = list(okr.fq_elements())
    assert len(fq) == p ** f
    # F_q is closed under multiplication and Frobenius fixes it pointwise
    # after f steps
    for lam in fq:
        assert lam ** (p ** f) == lam
    one = okr.coordinates_of_felt(okr.field.one)
    assert one.residue() == fq_field(pr).one


@pytest.mark.parametrize("p,f,h", GRID)
def test_ok_unit_inverse(p, f, h):
    pr = params(p, f, h)
    okr = ok_ring(pr)
    rng = random.Random(5)
    for _ in range(10):
        a = okr.random_unit(rng)
        inv = okr.coordinates_raw(okr.oe.raw_inv(okr.image(a), a.prec),
                                  a.prec)
        prod = a * okr(inv, a.prec)
        assert prod.coords == okr.coordinates_of_felt(okr.field.one).coords


def test_ok_sigma_is_embedding():
    pr = params(3, 2, 2)
    okr = ok_ring(pr)
    rng = random.Random(6)
    for _ in range(10):
        a = okr.random_unit(rng)
        b = okr.random_unit(rng)
        for i in range(pr.f):
            sa, sb = okr.sigma(a, i), okr.sigma(b, i)
            assert okr.sigma(a * b, i) == sa * sb
            assert okr.sigma(a + b, i) == sa + sb


@pytest.mark.parametrize("p,f,h", [(2, 2, 4), (3, 1, 3), (3, 2, 4),
                                   (2, 2, 6)])
def test_ok_coordinates_round_trip_at_h_above_f(p, f, h):
    # O_K is a proper sublattice of O_E: the solver reads the free columns
    # of the fixed space as its pivot rows and checks all h rows
    pr = params(p, f, h)
    okr = ok_ring(pr)
    rng = random.Random(36)
    # x generates F_{p^h} over F_p, so its residue is outside F_q
    off = (0, 1) + (0,) * (h - 2)
    for prec in range(1, 5):
        m = p ** prec
        for _ in range(10):
            x = okr(tuple(rng.randrange(m) for _ in range(f)), prec)
            y = okr(tuple(rng.randrange(m) for _ in range(f)), prec)
            img = okr.image(x)
            assert okr.coordinates_raw(img, prec) == x.coords
            assert okr.image(x * y) == okr.oe.raw_mul(img, okr.image(y),
                                                      prec)
            bad = tuple((a + m // p * b) % m for a, b in zip(img, off))
            with pytest.raises(ValueError, match="not in the O_K lattice"):
                okr.coordinates_raw(bad, prec)


@pytest.mark.parametrize("p,f,h", [(2, 2, 4), (3, 1, 3), (3, 2, 4),
                                   (2, 2, 6)])
def test_ok_pivot_square_is_the_identity_mod_p(p, f, h):
    # the pivot rows are the fixed space's free columns, where each basis
    # vector is 1 at its own column and 0 at the others: the square the
    # solver inverts is never singular mod p
    okr = ok_ring(params(p, f, h))
    ident = [[int(i == j) for j in range(f)] for i in range(f)]
    for prec in (1, 3, okr.prec):
        _, T, inv = okr._solver_at(prec)
        assert [[T[i][j] % p for j in range(f)]
                for i in okr.pivot_rows] == ident
        assert [[x % p for x in row] for row in inv] == ident


def test_params_validation():
    with pytest.raises(ValueError):
        Params.create(4, 1)
    with pytest.raises(ValueError):
        Params.create(3, 2, 3)
    with pytest.raises(ValueError):
        Params.create(3, 1, 1, N=0)
    with pytest.raises(ValueError):
        Params.create(3, 2, 2, poly=(2, 0, 1))  # x^2 + 2 has root 1 mod 3
    with pytest.raises(ValueError):
        Params.create(3, 2, 2, poly=(1, 1))  # wrong degree
    with pytest.raises(ValueError):
        Params.create(3, 2, 2, poly=(1, 0, 2))  # not monic
    assert Params.create(3, 2, 2, poly=(4, 3, 1)).poly == (1, 0, 1)
    pr = Params.create(3, 2)
    assert pr.h == 2 and pr.q == 9
    assert pr.guard() == vp_factorial(pr.M - 1, 3)


def _det(a, m):
    """Leibniz determinant mod m."""
    total = 0
    for perm in permutations(range(len(a))):
        sign = sum(perm[i] > perm[j] for i in range(len(a))
                   for j in range(i + 1, len(a))) % 2
        term = -1 if sign else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total % m


def _in_span(col, cols, p):
    """col is an F_p-combination of cols (by enumeration)."""
    return any(all((sum(c * v[i] for c, v in zip(coefs, cols)) - col[i]) % p
                   == 0 for i in range(len(col)))
               for coefs in product(range(p), repeat=len(cols)))


@st.composite
def _matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    m = p ** draw(st.integers(1, 4))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.integers(0, m - 1)
    a = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    return p, m, a


@given(_matrices())
@settings(max_examples=150, deadline=None)
def test_row_reduce_inverts_and_pivots_greedily(case):
    p, m, a = case
    n = len(a)
    square = [row[:n] + [0] * (n - len(row)) for row in a]
    reduced, pivots = _row_reduce(
        [row + [int(i == j) for j in range(n)]
         for i, row in enumerate(square)], p, m)
    if _det(square, p):
        assert pivots[:n] == list(range(n))
        inv = [row[n:] for row in reduced]
        assert all(sum(square[i][k] * inv[k][j] for k in range(n)) % m
                   == int(i == j) for i in range(n) for j in range(n))
    else:
        assert pivots[:n] != list(range(n))
    # mod p the pivots are the first columns independent of those before
    cols = [[row[j] % p for row in a] for j in range(len(a[0]))]
    greedy = []
    for j, col in enumerate(cols):
        if not _in_span(col, [cols[g] for g in greedy], p):
            greedy.append(j)
    assert _row_reduce(a, p, p)[1] == greedy


RING_CACHES_CHECK = """
import mvphi
from mvphi.coeff import Params, fq_field, oe_ring, ok_ring
names = ("coeff.OERing.raw_teich", "coeff.OKRing._solver_at")
pr = Params.create(3, 2, 2)
ring, okr = oe_ring(pr), ok_ring(pr)
x = fq_field(pr)((1, 2))
lift, solver = ring.raw_teich(x, 5), okr._solver_at(5)
before = mvphi.cache_info()
assert ring.raw_teich(x, 5) == lift and okr._solver_at(5) is solver
after = mvphi.cache_info()
assert all(after[n].hits == before[n].hits + 1 for n in names)
assert all(after[n].currsize == before[n].currsize > 0 for n in names)
mvphi.clear_caches()
assert all(mvphi.cache_info()[n].currsize == 0 for n in names)
assert oe_ring(pr).raw_teich(x, 5) == lift
"""


def test_teich_lifts_and_solvers_live_in_the_cache_registry():
    # a fresh interpreter, so that the tables other tests built survive
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-c", RING_CACHES_CHECK],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the former F_p[x] library, kept as the reference for the residue field on
# the O_E kernel and for the fixed-space irreducibility test
# ---------------------------------------------------------------------------

def _ref_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _ref_poly_rem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return [c % p for c in a[:dm]] + [0] * max(0, dm - len(a))


def _ref_poly_powmod(base, e, mod, p):
    result = [1]
    base = _ref_poly_rem(base, mod, p)
    while e:
        if e & 1:
            result = _ref_poly_rem(_ref_poly_mul(result, base, p), mod, p)
        base = _ref_poly_rem(_ref_poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _ref_poly_gcd(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]

    def deg(u):
        d = len(u) - 1
        while d >= 0 and u[d] == 0:
            d -= 1
        return d

    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[deg(b)], p - 2, p)
        shift = da - db
        factor = (a[da] * inv) % p
        for j in range(db + 1):
            a[shift + j] = (a[shift + j] - factor * b[j]) % p
    return a


def _ref_is_irreducible(poly, p):
    """x^{p^h} == x mod poly and no subfield fixes it (Rabin's test)."""
    h = len(poly) - 1
    if h == 1:
        return True
    x = [0, 1]
    xq = _ref_poly_powmod(x, p ** h, poly, p)
    if _ref_poly_rem([(a - b) % p for a, b in
                      zip(xq + [0] * 2, x + [0] * len(xq))], poly, p) \
            != [0] * h:
        return False
    for ell in {d for d in range(2, h + 1) if h % d == 0 and is_prime(d)}:
        xe = _ref_poly_powmod(x, p ** (h // ell), poly, p)
        diff = [(a - b) % p for a, b in zip(xe + [0] * 2, x + [0] * len(xe))]
        g = _ref_poly_gcd(poly, diff, p)
        dg = max((i for i, c in enumerate(g) if c), default=-1)
        if dg != 0:
            return False
    return True


def _ref_default_poly(p, h):
    if h == 1:
        return (0, 1)
    for tail in range(p ** h):
        poly = base_p_digits(tail, p, h) + [1]
        if _ref_is_irreducible(poly, p):
            return tuple(poly)


def _accepts(p, h, poly):
    try:
        FField(p, h, poly)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_residue_products_match_the_fp_poly_reference(p, h):
    F = fq_field(params(p, 1, h))
    elts = list(F.elements())
    for a in elts:
        for b in elts:
            want = _ref_poly_rem(_ref_poly_mul(list(a.coords), list(b.coords),
                                               p), list(F.poly), p)
            assert (a * b).coords == tuple(want)


def test_field_acceptance_matches_the_reference_test():
    # every monic polynomial with p^h <= 625, reducible ones included
    cases = [(p, h) for p in range(2, 26) if is_prime(p)
             for h in range(1, 10) if p ** h <= 625]
    for p, h in cases:
        for tail in range(p ** h):
            poly = base_p_digits(tail, p, h) + [1]
            assert _accepts(p, h, poly) == _ref_is_irreducible(poly, p), \
                (p, poly)


def test_default_poly_matches_the_reference_search():
    for p in (2, 3, 5, 7):
        for h in range(1, 7):
            if p ** h <= 20000:
                assert default_poly(p, h) == _ref_default_poly(p, h)


def test_squarefree_reducible_polys_are_rejected():
    # x^(p^h) = x holds mod each of these products of distinct factors of
    # degree dividing h; only the fixed space tells them from irreducibles
    for p, factors in ((2, [[0, 1], [1, 1]]), (3, [[1, 1], [2, 1]]),
                       (3, [[1, 0, 1], [2, 1, 1]])):
        poly = _ref_poly_mul(*factors, p)
        h = len(poly) - 1
        x_q = _ref_poly_powmod([0, 1], p ** h, poly, p)
        assert x_q == [0, 1] + [0] * (h - 2)
        assert not _accepts(p, h, poly)
    assert _accepts(3, 2, (1, 0, 1)) and _accepts(3, 2, (2, 1, 1))


def _fold(x, e, one, mul):
    acc = one
    for _ in range(e):
        acc = mul(acc, x)
    return acc


def test_power_matches_a_fold_for_every_product():
    pr = params(3, 2, 2, N=5)
    F, ring = fq_field(pr), oe_ring(pr)
    x = F((2, 1))
    a, one = (7, 200), ring.one(5).coords
    raw_mul = lambda u, v: ring.raw_mul(u, v, 5)  # noqa: E731
    poly = {(1, 0): 1, (0, 1): -2}
    for e in range(41):
        assert power(x, e, F.one) == _fold(x, e, F.one, lambda u, v: u * v)
        assert ring.raw_pow(a, e, 5) == _fold(a, e, one, raw_mul)
        assert power(poly, e, {(0, 0): 1}, _pmul) == _fold(
            poly, e, {(0, 0): 1}, _pmul)


def test_oe_ring_is_the_residue_fields_own_ring():
    for p, f, h in GRID:
        pr = params(p, f, h)
        assert oe_ring(pr) is fq_field(pr).oe
        assert oe_ring(pr).field is fq_field(pr)
    assert "coeff._oe_ring" not in cache_info()


@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (5, 2)])
def test_felt_add_sub_neg_match_the_tuple_formulas(p, h):
    # F_8, F_9 and F_25: every pair against coordinatewise arithmetic mod p
    F = FField(p, h, default_poly(p, h))
    elts = list(F.elements())
    for a in elts:
        neg = -a
        assert neg.ring is F.oe and neg.prec == 1
        assert neg.coords == tuple((-x) % p for x in a.coords)
        for b in elts:
            assert (a + b).coords == tuple((x + y) % p for x, y in
                                           zip(a.coords, b.coords))
            assert (a - b).coords == tuple((x - y) % p for x, y in
                                           zip(a.coords, b.coords))


@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (5, 2)])
def test_residues_are_precision_one_oeints(p, h):
    # F_q = O_E/p has no element class of its own; pth_root inverts the
    # Frobenius lift at every precision, not only on residues
    F = FField(p, h, default_poly(p, h))
    for x in [F.zero, F.one, F.from_int(2), F((1,) * h), *F.elements()]:
        assert type(x) is OEInt and x.ring is F.oe and x.prec == 1
        assert bool(x) == (x != F.zero)
    rng = random.Random(34)
    for prec in range(1, 5):
        for _ in range(20):
            x = F.oe(tuple(rng.randrange(p ** prec) for _ in range(h)), prec)
            assert x.reduce(1) == F(x.coords)
            assert x.pth_root().frobenius() == x == x.frobenius().pth_root()


def test_oeint_arithmetic_refuses_operands_over_another_o_e():
    # unchecked, a + b gives a one-coordinate OEInt and a * c != c * a
    a = oe_ring(params(3, 2, 2))((1, 2), 3)
    b = oe_ring(params(3, 1, 1))((5,), 3)
    c = oe_ring(params(3, 2, 2, poly=(2, 1, 1)))((1, 2), 3)
    x, y = fq_field(params(3, 2, 2)).one, fq_field(params(3, 1, 1)).one
    for u, v in ((a, b), (b, a), (a, c), (c, a), (x, y)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="different O_E"):
                op(u, v)
    # an equal ring built apart from a's is the same O_E
    twin = FField(3, 2, a.ring.poly).oe((2, 2), 2)
    assert twin.ring is not a.ring
    assert a + twin == a.ring((3, 4), 2) and a * twin == a.ring((7, 6), 2)


def test_ok_arithmetic_refuses_operands_over_another_o_k():
    # unchecked, a + b is the one-coordinate OK(3,)~p^7 and a * c is
    # OK(2184, 4)~p^7, with no error raised
    a = ok_ring(params(3, 2, 2))((1, 2))
    b = ok_ring(params(3, 1, 1))((2,))
    c = ok_ring(params(3, 2, 4))((1, 2))
    d = ok_ring(params(3, 2, 2, poly=(2, 1, 1)))((1, 2))
    for u, v in ((a, b), (b, a), (a, c), (c, a), (a, d), (d, a)):
        for op in (operator.add, operator.mul):
            with pytest.raises(ValueError, match="different O_K"):
                op(u, v)
    # a ring that agrees in p, f, h and defining polynomial is the same
    # O_K, whatever its precision parameters
    twin = ok_ring(params(3, 2, 2, N=5))((2, 2), 3)
    assert twin.okr is not a.okr
    assert a + twin == a.okr((3, 4), 3)
    assert a * twin == a * a.okr((2, 2), 3)


@pytest.mark.parametrize("p,f,h", GRID)
def test_oeint_ops_at_mixed_precision_match_the_reduced_operands(p, f, h):
    # the reference reduces both operands to the least precision first
    ring = oe_ring(params(p, f, h))
    rng = random.Random(11)
    for _ in range(40):
        pa, pb = rng.randint(1, 6), rng.randint(1, 6)
        a = ring(tuple(rng.randrange(p ** pa) for _ in range(h)), pa)
        b = ring(tuple(rng.randrange(p ** pb) for _ in range(h)), pb)
        pr = min(pa, pb)
        ra = ring.raw_reduce(a.coords, pr)
        rb = ring.raw_reduce(b.coords, pr)
        assert a + b == OEInt(ring, pr, ring.raw_add(ra, rb, pr))
        assert a - b == OEInt(ring, pr, ring.raw_sub(ra, rb, pr))
        assert a * b == OEInt(ring, pr, ring.raw_mul(ra, rb, pr))


def test_oe_scalar_reads_each_kind_of_scalar():
    ring = oe_ring(params(3, 2, 2))
    low, high = ring((10, 4), 2), ring((100, 40), 5)
    assert ring.scalar(low, 4) == ((1, 4), 2)
    assert ring.scalar(high, 3) == ((100 % 27, 40 % 27), 3)
    assert ring.scalar(29, 3) == ((2, 0), 3)
    assert ring.scalar((29, -1), 3) == ((2, 26), 3)


# -- the raw kernels against independent references -------------------------

def _schoolbook_mul(a, b, poly, m):
    """a * b in Z[x], reduced by long division by the monic integer poly,
    then mod m."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    h = len(poly) - 1
    for top in range(len(prod) - 1, h - 1, -1):
        lead = prod[top]
        for j in range(h + 1):
            prod[top - h + j] -= lead * poly[j]
    return tuple(c % m for c in prod[:h])


# (p, h, defining polynomial): the default one at h = 1, 2, 3 for each p,
# and x^2 + x + 2 over F_3, which is irreducible and not the default
KERNEL_RINGS = [
    (2, 1, (0, 1)), (2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)),
    (3, 1, (0, 1)), (3, 2, (1, 0, 1)), (3, 3, (1, 2, 0, 1)),
    (5, 1, (0, 1)), (5, 2, (2, 0, 1)), (5, 3, (1, 1, 0, 1)),
    (3, 2, (2, 1, 1))]


def _kernel_ring(p, h, poly):
    """The O_E kernels on a bare field record: no field is built, so the
    kernels under test are not first used to check irreducibility."""
    return OERing(SimpleNamespace(p=p, h=h, poly=poly))


@pytest.mark.parametrize("p,h,poly", KERNEL_RINGS)
def test_raw_mul_matches_the_schoolbook_product(p, h, poly):
    ring = _kernel_ring(p, h, poly)
    rng = random.Random(31)
    for prec in range(1, 7):
        m = p ** prec
        for _ in range(60):
            # operands above p^prec and negative ones too: the kernel
            # reduces only its result
            a = tuple(rng.randrange(-p * m, p * m) for _ in range(h))
            b = tuple(rng.randrange(-p * m, p * m) for _ in range(h))
            assert ring.raw_mul(a, b, prec) == _schoolbook_mul(a, b, poly, m)


@pytest.mark.parametrize("p,h,poly", KERNEL_RINGS + [(2, 4, (1, 1, 0, 0, 1))])
def test_fold_runs_divide_each_run_by_the_defining_polynomial(p, h, poly):
    # h = 1 and 2 fold in closed form, h >= 3 through the table; each run
    # of 2h - 1 coordinates against long division, left in its first h
    # slots and 0 in the others, all-zero runs and negative coordinates
    # among them
    ring, span = _kernel_ring(p, h, poly), 2 * h - 1
    rng = random.Random(38)
    for prec in range(1, 7):
        m = p ** prec
        for _ in range(20):
            runs = [[rng.randrange(-p * m * m, p * m * m) for _ in range(span)]
                    if rng.random() < 0.7 else [0] * span
                    for _ in range(rng.randrange(1, 6))]
            want = [_schoolbook_mul(v, (1,), poly, m) for v in runs]
            for v, c in zip(runs, want):
                one = list(v)
                ring.fold_runs(one, m)
                assert tuple(one[:h]) == c
            flat = [x for v in runs for x in v]
            ring.fold_runs(flat, m)
            assert flat == [x for c in want for x in c + (0,) * (h - 1)]


def test_kernel_rings_are_irreducible_and_cover_both_quadratic_terms():
    # a closed form that drops t * poly[0] or flips the sign of
    # t * poly[1] differs from the schoolbook product only where those
    # are nonzero mod p
    for p, h, poly in KERNEL_RINGS[:-1]:
        assert default_poly(p, h) == poly
    assert FField(3, 2, (2, 1, 1)).poly != default_poly(3, 2)
    quads = [poly for _, h, poly in KERNEL_RINGS if h == 2]
    assert all(poly[0] for poly in quads)
    assert any(poly[1] == 1 for poly in quads)


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p,h,poly", KERNEL_RINGS)
def test_raw_val_is_the_least_coordinate_valuation(p, h, poly):
    ring = _kernel_ring(p, h, poly)
    rng = random.Random(32)
    for prec in range(1, 7):
        m = p ** prec
        assert ring.raw_val((0,) * h, prec) == prec
        for _ in range(60):
            a = tuple(rng.choice((0, 1, -1)) * rng.randrange(1, m)
                      * p ** rng.randrange(0, prec + 2) for _ in range(h))
            want = min([prec] + [_vp(c, p) for c in a if c])
            assert ring.raw_val(a, prec) == want


@pytest.mark.parametrize("p,poly", [(2, (1, 1, 1)), (3, (1, 0, 1)),
                                    (3, (2, 1, 1)), (5, (2, 0, 1))])
def test_h2_inverses_satisfy_their_identity(p, poly):
    F = FField(p, 2, poly)
    ring = F.oe
    # a residue's inverse is x^(q - 2) on the same kernel: check every element
    for x in F.elements():
        if x:
            assert x * x ** -1 == F.one
        else:
            with pytest.raises(NotAUnit):
                x ** -1
    rng = random.Random(33)
    for prec in range(1, 7):
        m = p ** prec
        one = (1 % m, 0)
        for _ in range(40):
            a = (rng.randrange(m), rng.randrange(m))
            if not (a[0] % p or a[1] % p):
                with pytest.raises(NotAUnit):
                    ring.raw_inv(a, prec)
                continue
            b = ring.raw_inv(a, prec)
            assert _schoolbook_mul(a, b, poly, m) == one
            assert ring.raw_mul(b, a, prec) == one


def test_params_reject_h_below_one():
    for h in (0, -2):
        with pytest.raises(ValueError, match=rf"h = {h}\b"):
            Params.create(3, 1, h)


def test_oe_reduce_refuses_digits_it_does_not_know():
    ring = oe_ring(params(3, 2, 2))
    x = ring((4, 5), 2)
    assert x.reduce(1).coords == (1, 2) and x.reduce(2) == x
    with pytest.raises(PrecisionExhausted, match="known mod p\\^2"):
        x.reduce(3)
