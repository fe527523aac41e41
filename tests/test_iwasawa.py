import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mvphi.coeff import Params, oe_ring, ok_ring
from mvphi.iwasawa import (Layout, TSeries, group_like, y_generator,
                           revert_series, y_to_t_inverse, to_y_coordinates,
                           phi_y, gamma_y, phi_power_y, _invert_coeff_matrix)
from mvphi.errors import SingularJacobian, NotAUnit, PrecisionExhausted
from mvphi.perfd import pr_radius
from mvphi.sparse import from_slots, to_slots

from test_coeff import _schoolbook_mul
from test_sparse import _ref_pair_loop, _ref_substitute


GRID = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2)]


def params(p, f, h, **kw):
    return Params.create(p, f, h, **kw)


def as_int_series(s):
    """f=1 series as {degree: centered int} for readable comparisons."""
    p, n = s.params.p, s.prec
    m = p ** n
    out = {}
    for e, c in s.terms.items():
        v = c[0] % m
        out[e[0]] = v - m if v > m // 2 else v
    return out


def test_group_like_trivial():
    pr = params(3, 1, 1)
    okr = ok_ring(pr)
    assert group_like(okr((0,))) == TSeries.one(pr, pr.N)
    one = group_like(okr((1,)))
    assert as_int_series(one) == {0: 1, 1: 1}


def test_group_like_integer_exponent():
    pr = params(3, 1, 1)
    okr = ok_ring(pr)
    sq = group_like(okr((2,)))
    assert as_int_series(sq) == {0: 1, 1: 2, 2: 1}


@pytest.mark.parametrize("p,f,h", GRID)
def test_group_like_is_homomorphism(p, f, h):
    pr = params(p, f, h)
    okr = ok_ring(pr)
    rng = random.Random(7)
    for _ in range(5):
        x = okr(tuple(rng.randrange(p ** pr.N) for _ in range(f)))
        y = okr(tuple(rng.randrange(p ** pr.N) for _ in range(f)))
        assert group_like(x + y) == group_like(x) * group_like(y)


def test_y_generator_q2_branch():
    pr = params(2, 1, 1)
    assert y_generator(pr, 0) == TSeries.variable(pr, 0, pr.N)


def test_y_generator_p3_against_geometric_series_oracle():
    # Y = [1] - [-1] = (1+T) - (1+T)^{-1}; the inverse expanded as the exact
    # integer geometric series sum (-T)^d.
    pr = params(3, 1, 1)
    y = y_generator(pr, 0)
    want = {1: 2}
    for d in range(2, pr.M):
        want[d] = (-1) ** (d - 1)
    assert as_int_series(y) == want


@pytest.mark.parametrize("p,f,h", GRID)
def test_y_generator_constant_term_vanishes(p, f, h):
    pr = params(p, f, h)
    for i in range(f):
        assert not any(y_generator(pr, i).constant_term())


# the slow routes that phi_y and gamma_y replace: the substitutions of
# multiplication by p and by a unit on the group exponents, in T-coordinates

def phi_map(s):
    """Substitute T_j -> (1 + T_j)^p - 1 (multiplication by p on O_K)."""
    params = s.params
    images = []
    for j in range(params.f):
        t = TSeries.variable(params, j, s.prec, s.window)
        one = TSeries.one(params, s.prec, s.window)
        img = one
        for _ in range(params.p):
            img = img * (one + t)
        images.append(img - one)
    return _ref_substitute(s, images)


def okx_coordinates(a):
    """Matrix of multiplication by the unit a in the Teichmueller basis.

    Column j holds the coordinates of a * t_j; invertible mod p.
    """
    if not a.is_unit():
        raise NotAUnit("action requires a unit of O_K")
    okr = a.okr
    f = a.okr.params.f
    cols = []
    for j in range(f):
        ej = okr(tuple(1 if t == j else 0 for t in range(f)), a.prec)
        cols.append((a * ej).coords)
    return [[cols[j][i] for j in range(f)] for i in range(f)]


def gamma_map(a, s):
    """The unit a acting by substitution T_j -> prod_k (1+T_k)^{c_kj} - 1."""
    params = s.params
    c = okx_coordinates(a)
    okr = a.okr
    images = []
    one = TSeries.one(params, s.prec, s.window)
    for j in range(params.f):
        col = okr(tuple(c[k][j] for k in range(params.f)), a.prec)
        images.append(group_like(col, s.window) - one)
    return _ref_substitute(s, images)


def test_phi_map_definition():
    pr = params(2, 1, 1)
    t = TSeries.variable(pr, 0, pr.N)
    got = phi_map(t)
    assert as_int_series(got) == {1: 2, 2: 1}


@pytest.mark.parametrize("p,f,h", [(3, 1, 1), (3, 2, 2)])
def test_phi_map_is_ring_homomorphism(p, f, h):
    pr = params(p, f, h, M=8)
    rng = random.Random(8)
    ring = oe_ring(pr)

    def rand_series():
        terms = {}
        for _ in range(4):
            e = tuple(rng.randrange(3) for _ in range(f))
            terms[e] = tuple(rng.randrange(p ** pr.N) for _ in range(h))
        return TSeries(pr, pr.N, pr.M, terms)

    for _ in range(5):
        a, b = rand_series(), rand_series()
        assert phi_map(a + b) == phi_map(a) + phi_map(b)
        assert phi_map(a * b) == phi_map(a) * phi_map(b)


def test_okx_coordinates_identity_and_inverse():
    pr = params(3, 2, 2)
    okr = ok_ring(pr)
    ident = okx_coordinates(okr.coordinates_of_felt(okr.field.one))
    assert ident[0][0] % 3 == 1 and ident[1][1] % 3 == 1
    assert ident[0][1] % 3 ** pr.N == 0 and ident[1][0] % 3 ** pr.N == 0
    rng = random.Random(9)
    a = okr.random_unit(rng)
    ca = okx_coordinates(a)
    inv = okr.coordinates_raw(okr.oe.raw_inv(okr.image(a), a.prec),
                              a.prec)
    cinv = okx_coordinates(okr(inv, a.prec))
    m = 3 ** okr.prec
    prod = [[sum(ca[i][k] * cinv[k][j] for k in range(2)) % m
             for j in range(2)] for i in range(2)]
    assert prod[0][0] == 1 and prod[1][1] == 1
    assert prod[0][1] == 0 and prod[1][0] == 0
    with pytest.raises(NotAUnit):
        okx_coordinates(okr((0, 0)))


def test_gamma_map_identity_and_action_property():
    pr = params(3, 1, 1, M=8)
    okr = ok_ring(pr)
    rng = random.Random(10)
    s = y_generator(pr, 0, 8)
    assert gamma_map(okr.coordinates_of_felt(okr.field.one), s) == s
    a, b = okr.random_unit(rng), okr.random_unit(rng)
    assert gamma_map(a * b, s) == gamma_map(a, gamma_map(b, s))


def test_gamma_map_scalar_case():
    pr = params(3, 1, 1)
    okr = ok_ring(pr)
    t = TSeries.variable(pr, 0, okr.prec)
    got = gamma_map(okr((2,)), t)
    assert as_int_series(got)[1] == 2
    assert as_int_series(got)[2] == 1


def test_phi_gamma_commute():
    pr = params(3, 2, 2, M=8)
    okr = ok_ring(pr)
    rng = random.Random(11)
    s = y_generator(pr, 1, 8)
    for _ in range(3):
        a = okr.random_unit(rng)
        assert phi_map(gamma_map(a, s)) == gamma_map(a, phi_map(s))


def brute_force_revert_univariate(coeffs, window):
    """Fraction-arithmetic reversion oracle: coefficients of G with
    G(Y(T)) = T, for Y given as {degree: int} with Y'(0) invertible."""
    g = {1: Fraction(1, 1) / coeffs[1]}
    for d in range(2, window):
        # coefficient of T^d in sum_e g_e * Y(T)^e must vanish
        total = Fraction(0)
        for e in range(1, d):
            ge = g.get(e, Fraction(0))
            if not ge:
                continue
            # coefficient of T^d in Y^e
            powc = {0: Fraction(1)}
            for _ in range(e):
                new = {}
                for k, v in powc.items():
                    for dk, cv in coeffs.items():
                        if k + dk <= d:
                            new[k + dk] = new.get(k + dk, Fraction(0)) + v * cv
                powc = new
            total += ge * powc.get(d, Fraction(0))
        g[d] = -total / (coeffs[1] ** d)
        # divide by coefficient of T^d in Y^d, which is coeffs[1]**d
    return g


def test_reversion_against_bruteforce_oracle_p3():
    pr = params(3, 1, 1, N=4, M=9)
    y = y_generator(pr, 0, 9)
    G = y_to_t_inverse(pr, 9)[0]
    coeffs = {d: Fraction(c) for d, c in as_int_series(y).items()}
    oracle = brute_force_revert_univariate(coeffs, 9)
    m = 3 ** pr.N
    for d in range(1, 9):
        want = oracle.get(d, Fraction(0))
        assert want.denominator % 3 != 0
        wanted = (want.numerator * pow(want.denominator, -1, m)) % m
        got = G.coefficient((d,))[0] % m
        assert got == wanted, (d, got, wanted)


@pytest.mark.parametrize("p,f,h", GRID)
def test_reversion_roundtrip(p, f, h):
    w = 8
    pr = params(p, f, h, M=w)
    ys = [y_generator(pr, i, w) for i in range(f)]
    G = y_to_t_inverse(pr, w)
    for j in range(f):
        back = _ref_substitute(G[j], ys)
        assert as_int_series_multi(back) == {unit(f, j): 1}


def unit(f, j):
    return tuple(1 if i == j else 0 for i in range(f))


def as_int_series_multi(s):
    p, n = s.params.p, s.prec
    m = p ** n
    out = {}
    for e, c in s.terms.items():
        vals = tuple((v % m) - m if v % m > m // 2 else v % m for v in c)
        if any(vals):
            out[e] = vals[0] if not any(vals[1:]) else vals
    return out


def test_reversion_trivial_q2():
    pr = params(2, 1, 1)
    G = y_to_t_inverse(pr)
    assert as_int_series(G[0]) == {1: 1}


def test_singular_jacobian_raises():
    pr = params(3, 1, 1)
    t = TSeries.variable(pr, 0, pr.N)
    sq = t * t
    with pytest.raises(SingularJacobian):
        revert_series((sq,), pr.M)


def test_revert_series_rejects_bad_input():
    pr = params(3, 2, 2)
    t0, t1 = (TSeries.variable(pr, j, pr.N) for j in range(2))
    with pytest.raises(ValueError, match="empty series tuple"):
        revert_series((), pr.M)
    with pytest.raises(ValueError, match="exactly f series"):
        revert_series((t0,), pr.M)
    with pytest.raises(ValueError, match="zero constant term"):
        revert_series((t0, t1 + TSeries.one(pr, pr.N)), pr.M)
    assert revert_series((t0, t1), pr.M) is not None


def test_group_like_needs_precision_past_the_binomial_guard():
    # at M = 12 the binomials cost v_3(11!) = 4 digits
    pr = params(3, 1, 1)
    okr = ok_ring(pr)
    assert pr.guard() == 4
    with pytest.raises(PrecisionExhausted, match="precision > 4"):
        group_like(okr((1,), 4))
    assert group_like(okr((1,), 5)).prec == 1


def test_phi_y_q2():
    pr = params(2, 1, 1)
    got = phi_y(pr, 0)
    assert as_int_series(got) == {1: 2, 2: 1}


def test_phi_y_p3_exact_identity():
    # phi(Y) = Y^3 + 3Y exactly when Y = (1+T) - (1+T)^{-1}
    pr = params(3, 1, 1)
    got = phi_y(pr, 0)
    assert as_int_series(got) == {1: 3, 3: 1}


@pytest.mark.parametrize("p,f,h", GRID)
def test_phi_y_frobenius_congruence(p, f, h):
    pr = params(p, f, h)
    for i in range(f):
        fi = phi_y(pr, i)
        prev = (i - 1) % f
        lead = TSeries(pr, pr.N, pr.M, {})
        e = [0] * f
        e[prev] = p
        lead = TSeries(pr, pr.N, pr.M, {tuple(e): (1,) + (0,) * (h - 1)})
        diff = fi - lead
        assert not any(diff.constant_term())
        for exp, c in diff.terms.items():
            assert all(v % p == 0 for v in c), (i, exp, c)
            assert sum(exp) >= 1


def test_gamma_y_identity():
    pr = params(3, 2, 2)
    okr = ok_ring(pr)
    for i in range(2):
        gy = gamma_y(okr.coordinates_of_felt(okr.field.one), i)
        assert as_int_series_multi(gy) == {unit(2, i): 1}


@pytest.mark.parametrize("p,f,h", [(2, 1, 1), (2, 1, 2), (3, 1, 1),
                                   (3, 2, 2)])
def test_phi_y_matches_substitution_route(p, f, h):
    # dual route: group-sum fast path vs generic substitution + reversion
    pr = params(p, f, h, M=8)
    for i in range(f):
        fast = phi_y(pr, i, 8)
        slow = to_y_coordinates(phi_map(y_generator(pr, i, 8)))
        assert fast == slow


@pytest.mark.parametrize("p,f,h", [(2, 1, 1), (2, 1, 2), (3, 1, 1),
                                   (3, 2, 2)])
def test_gamma_y_matches_substitution_route(p, f, h):
    # dual route: group-sum fast path vs generic substitution + reversion
    pr = params(p, f, h, M=8)
    okr = ok_ring(pr)
    rng = random.Random(12)
    a = okr.random_unit(rng)
    for i in range(f):
        fast = gamma_y(a, i, 8)
        slow = to_y_coordinates(gamma_map(a, y_generator(pr, i, 8)))
        assert fast == slow


def test_low_precision_unit_does_not_lower_later_phi_y():
    # the shared Y-power table must not keep the precision of the call
    # that built it
    pr = params(3, 1, 1, M=7)
    a = ok_ring(pr)((2,), pr.n_work() - 1)
    assert gamma_y(a, 0).prec < pr.N
    assert phi_y(pr, 0).prec == pr.N


def _term_by_term_group_sum(pr, i, transform, w):
    """sum over nonzero lambda of sigma_i(lambda^-1) [transform(omega(lambda))],
    less 1 when q = 2, formed one scaled group-like at a time."""
    okr = ok_ring(pr)
    prec_in = pr.n_work(w)
    parts = [TSeries(pr, pr.N, w, {})]
    for lam in okr.fq_elements():
        if lam:
            c = okr.sigma(okr.coordinates_of_felt(lam ** -1, prec_in), i)
            x = transform(okr.coordinates_of_felt(lam, prec_in))
            parts.append(group_like(x, w).scalar_mul(c))
    if pr.q == 2:
        parts.append(-TSeries.one(pr, pr.N, w))
    return TSeries.sum(parts)


@pytest.mark.parametrize("p,f,h,w", [g + (None,) for g in GRID]
                         + [(5, 2, 2, 20)])
def test_group_sums_match_the_term_by_term_formula(p, f, h, w):
    pr = params(p, f, h)
    W = pr.M if w is None else w
    okr = ok_ring(pr)
    rng = random.Random(31)
    units = [okr.random_unit(rng) for _ in range(2)]
    low = okr(units[0].coords, pr.n_work(W) - 1)
    assert gamma_y(low, 0, w).prec < pr.N

    def same(got, want):
        assert (got.prec, got.window, got.terms) == \
            (want.prec, want.window, want.terms)
    for i in range(f):
        same(y_generator(pr, i, w),
             _term_by_term_group_sum(pr, i, lambda x: x, W))
        for power in (1, f):
            same(phi_power_y(pr, i, power, w), to_y_coordinates(
                _term_by_term_group_sum(pr, i, lambda x: x * p ** power, W)))
        for a in units + [low]:
            a_eff = okr(a.coords, min(a.prec, pr.n_work(W)))
            same(gamma_y(a, i, w), to_y_coordinates(
                _term_by_term_group_sum(pr, i, lambda x: a_eff * x, W)))


def test_group_sums_cache_is_bounded_and_rebuilds_evicted_units():
    import mvphi
    pr = params(3, 1, 1)
    okr = ok_ring(pr)
    units = [okr((k,)) for k in range(1, 61) if k % 3]
    assert len(units) == 40
    first = gamma_y(units[0], 0)
    for a in units[1:]:
        gamma_y(a, 0)
    info = mvphi.cache_info()["iwasawa._group_sums"]
    assert info.maxsize is not None and info.maxsize < len(units)
    assert info.currsize <= info.maxsize
    again = gamma_y(units[0], 0)
    assert mvphi.cache_info()["iwasawa._group_sums"].misses == info.misses + 1
    assert again == first


@pytest.mark.parametrize("p,f,h", GRID)
def test_gamma_y_action_congruence(p, f, h):
    pr = params(p, f, h)
    okr = ok_ring(pr)
    rng = random.Random(13)
    for _ in range(3):
        a = okr.random_unit(rng)
        for i in range(f):
            gy = gamma_y(a, i)
            sig = okr.sigma(a, i).reduce(pr.N)
            yi = TSeries.variable(pr, i, pr.N).scalar_mul(sig)
            diff = gy - yi
            for exp, c in diff.terms.items():
                deg = sum(exp)
                assert deg >= 1
                assert all(v % p == 0 for v in c) or deg >= p, (exp, c)


@pytest.mark.parametrize("p,f,h", GRID)
def test_gamma_y_refined_congruence(p, f, h):
    pr = params(p, f, h)
    okr = ok_ring(pr)
    rng = random.Random(14)
    for n in (1, 2):
        coords = [1 + p ** n * rng.randrange(p)] + \
            [p ** n * rng.randrange(p) for _ in range(f - 1)]
        a = okr(tuple(coords))
        for i in range(f):
            diff = gamma_y(a, i) - TSeries.variable(pr, i, pr.N)
            for exp, c in diff.terms.items():
                deg = sum(exp)
                assert deg >= 1
                assert all(v % p == 0 for v in c) or deg >= p ** n, (exp, c)


# ---------------------------------------------------------------------------
# the packed kernel
# ---------------------------------------------------------------------------

KERNEL_GRID = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2), (2, 2, 4)]


def _window_join(window):
    def join(e1, e2):
        e = tuple(x + y for x, y in zip(e1, e2))
        return e if sum(e) < window else None
    return join


def _check_product(a, b):
    """a * b has the terms of ``test_sparse._ref_pair_loop`` in its order,
    with a join that cuts at the least window, at the least precision."""
    prec, window = min(a.prec, b.prec), min(a.window, b.window)
    want = _ref_pair_loop(oe_ring(a.params), a.terms, b.terms, prec,
                          _window_join(window))
    got = a * b
    assert (list(got.terms.items()), got.prec, got.window) == \
        (list(want.items()), prec, window)


@st.composite
def series_pairs(draw):
    """Two series of their own precision and window, either one possibly
    empty; exponents up to the window, so that products are cut by it.
    h = 1 .. 4, and h = 3 at (2,3,3)."""
    p, f, h = draw(st.sampled_from(KERNEL_GRID + [(2, 3, 3)]))
    pr = params(p, f, h)

    def series():
        prec = draw(st.integers(1, 6))
        window = draw(st.integers(1, 9))
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, window)] * f),
            st.tuples(*[st.integers(0, p ** prec - 1)] * h), max_size=14))
        return TSeries(pr, prec, window, terms)
    return series(), series()


@example((TSeries(params(3, 2, 2), 3, 5, {(1, 0): (1, 2)}),
          TSeries(params(3, 2, 2), 2, 7, {})))
@example((TSeries(params(2, 3, 3), 2, 4, {(1, 1, 0): (1, 1, 0),
                                          (0, 0, 1): (3, 0, 1)}),
          TSeries(params(2, 3, 3), 3, 3, {(0, 2, 0): (1, 0, 1),
                                          (0, 0, 0): (5, 7, 2)})))
@settings(max_examples=300, deadline=None)
@given(series_pairs())
def test_packed_product_matches_pair_loop(pair):
    a, b = pair
    _check_product(a, b)
    _check_product(b, a)


@pytest.mark.parametrize("p,f,h,prec,w", [
    (5, 2, 2, 3, 20), (2, 2, 4, 8, 12), (3, 1, 1, 5, 20),
    (5, 2, 2, 40, 20), (3, 2, 2, 30, 10)])
def test_packed_product_fills_the_slot_width(p, f, h, prec, w):
    # every monomial below the window at the largest coefficient m - 1 makes
    # the slot sums as large as they get; prec 30-40 needs slots wider than
    # 8 bytes
    pr = params(p, f, h)
    top = p ** prec - 1
    mons = _exponents(f, w)
    full = TSeries(pr, prec, w, {e: (top,) * h for e in mons})
    _check_product(full, full)
    rng = random.Random(prec)
    other = TSeries(pr, prec - 1, w - 1,
                    {e: tuple(rng.randrange(top) for _ in range(h))
                     for e in mons})
    _check_product(full, other)


# h = 1 .. 4; at (2,2,2) x^2 = x + 1 reads both coefficients of the fold
LAYOUT_PARAMS = [(3, 1, 1), (2, 2, 2), (5, 2, 2), (2, 3, 3), (2, 2, 4)]


def _ref_fold(ring, v, m):
    """One run of 2h-1 slots by long division by the defining polynomial."""
    return _schoolbook_mul(v, (1,), ring.poly, m)


@st.composite
def packed_ints(draw, rows):
    """(ring, layout, slot bytes, modulus, packed int): ``rows`` rows of
    positions, or every position and two past the window when None.  A
    position's slots are all zero, or each at the bound 256^nb - 1 or
    any value below it."""
    p, f, h = draw(st.sampled_from(LAYOUT_PARAMS))
    ring = oe_ring(params(p, f, h))
    lay = Layout(ring, f, draw(st.integers(1, 5)))
    nb = draw(st.sampled_from([1, 2, 4, 8, 9]))
    top = 256 ** nb - 1
    # a reduced coordinate fits its slot, as every caller sizes them
    m = p ** draw(st.integers(1, 6).filter(lambda k: p ** k <= top))
    slot = st.one_of(st.just(top), st.integers(0, top))
    count = lay.row * rows if rows else lay.size + 2
    runs = draw(st.lists(st.one_of(st.just([0] * lay.span),
                                   st.lists(slot, min_size=lay.span,
                                            max_size=lay.span)),
                         min_size=count, max_size=count))
    return ring, lay, nb, m, from_slots([x for v in runs for x in v], nb)


@settings(max_examples=200, deadline=None)
@given(packed_ints(None))
def test_layout_unpack_is_the_per_position_fold(case):
    ring, lay, nb, m, x = case
    span = lay.span
    slots = to_slots(x, nb, lay.size * span)
    want = {}
    for q, e in lay.by_pos:
        c = _ref_fold(ring, slots[q * span:(q + 1) * span], m)
        if any(c):
            want[e] = c
    assert list(lay.unpack(x, nb, m).items()) == list(want.items())


@settings(max_examples=200, deadline=None)
@given(packed_ints(1))
def test_layout_reduce_row_is_the_per_position_fold(case):
    ring, lay, nb, m, x = case
    span, h = lay.span, ring.h
    slots = to_slots(x, nb, lay.row * span)
    want = []
    for b in range(0, len(slots), span):
        want += _ref_fold(ring, slots[b:b + span], m) + (0,) * (span - h)
    assert lay.reduce_row(x, nb, m) == from_slots(want, nb)


def _exponents(f, w):
    if f == 1:
        return [(d,) for d in range(w)]
    return [(d,) + rest for d in range(w)
            for rest in _exponents(f - 1, w - d)]


def test_product_with_zero_series():
    pr = params(3, 2, 2)
    y = y_generator(pr, 0)
    zero = TSeries(pr, 2, 5, {})
    assert (y * zero) == TSeries(pr, 2, 5, {})
    assert (zero * y).is_zero() and (zero * y).window == 5


@st.composite
def invertible_series(draw):
    """f series with a linear part D + pX, D diagonal with unit entries."""
    p, f, h = draw(st.sampled_from(KERNEL_GRID))
    pr = params(p, f, h)
    prec = draw(st.integers(1, 4))
    window = draw(st.integers(2, 7))
    coords = st.tuples(*[st.integers(0, p ** prec - 1)] * h)
    series = []
    for i in range(f):
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, window)] * f),
                                     coords, max_size=10))
        terms = {e: c for e, c in terms.items() if sum(e) >= 2}
        for j in range(f):
            c = [p * x for x in draw(coords)]
            if i == j:
                c[0] += draw(st.integers(1, p - 1))
            terms[unit(f, j)] = tuple(c)
        series.append(TSeries(pr, prec, window, terms))
    other = TSeries(pr, prec, window, draw(st.dictionaries(
        st.tuples(*[st.integers(0, window)] * f), coords, max_size=10)))
    return series, other


@settings(max_examples=100, deadline=None)
@given(invertible_series())
def test_reversion_roundtrip_of_random_series(data):
    series, s = data
    pr, prec, w = s.params, s.prec, s.window
    G = revert_series(series, w)
    for j in range(pr.f):
        assert _ref_substitute(G[j], series) == \
            TSeries.variable(pr, j, prec, w)
        assert series[j].substitute(G) == TSeries.variable(pr, j, prec, w)
    # the packed monomial table agrees with substituting power by power
    assert s.substitute(G) == _ref_substitute(s, G)


@pytest.mark.parametrize("p,f,h,w", [(5, 2, 2, 20), (3, 2, 2, 15)])
def test_reversion_roundtrip_wide_window(p, f, h, w):
    pr = params(p, f, h)
    ys = [y_generator(pr, i, w) for i in range(f)]
    G = y_to_t_inverse(pr, w)
    for j in range(f):
        back = _ref_substitute(G[j], ys)
        assert back == TSeries.variable(pr, j, pr.N, w)
        assert ys[j].substitute(G) == TSeries.variable(pr, j, pr.N, w)


@st.composite
def series_and_reversions(draw):
    """A series and the reversion of the Y-generators at a window on
    either side of the series' own."""
    p, f, h = draw(st.sampled_from(GRID))
    pr = params(p, f, h)
    w = draw(st.integers(2, 10))
    prec = draw(st.integers(1, pr.N + 1))
    window = draw(st.integers(1, 12))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, window)] * f),
        st.tuples(*[st.integers(0, p ** prec - 1)] * h), max_size=8))
    return TSeries(pr, prec, window, terms), y_to_t_inverse(pr, w)


@settings(max_examples=120, deadline=None)
@given(series_and_reversions())
@example((TSeries(params(3, 2, 2), 3, 8, {(1, 1): (1, 0)}),
          y_to_t_inverse(params(3, 2, 2), 12)))
def test_table_substitution_is_the_substitution(data):
    # the table holds each G^e up to its own window: a series at a smaller
    # window, as T0*T1 at window 8 against the table at 12, takes only the
    # terms below its own
    s, G = data
    got, want = s.substitute(G), _ref_substitute(s, G)
    assert (got.prec, got.window, got.terms) == \
        (want.prec, want.window, want.terms)


@pytest.mark.parametrize("p,f,h", KERNEL_GRID)
def test_to_y_coordinates_of_the_generators(p, f, h):
    pr = params(p, f, h)
    for w in (2, 9):
        for i in range(f):
            got = to_y_coordinates(y_generator(pr, i, w))
            assert got == TSeries.variable(pr, i, pr.N, w)


def test_constructors_respect_the_window():
    pr = params(2, 1, 1, M=1)
    y = y_generator(pr, 0)
    assert y.window == 1 and y.terms == {}
    assert TSeries.variable(pr, 0, pr.N, 1).terms == {}
    assert TSeries.one(pr, pr.N, 1).terms == {(0,): (1,)}
    assert TSeries.one(pr, pr.N, 0).terms == {}
    # a window of 1 holds no linear part to invert
    with pytest.raises(SingularJacobian):
        y_to_t_inverse(pr)


@pytest.mark.parametrize("p,f,h", GRID)
@pytest.mark.parametrize("of_index", [
    lambda pr, i: y_generator(pr, i),
    lambda pr, i: pr_radius(pr, i, Fraction(1))],
    ids=["y_generator", "pr_radius"])
def test_an_index_outside_range_f_raises(p, f, h, of_index):
    pr = params(p, f, h)
    for i in (f, -1):
        with pytest.raises(ValueError, match="index out of range"):
            of_index(pr, i)


@st.composite
def coeff_matrices(draw):
    p, f, h = draw(st.sampled_from([(2, 1, 1), (3, 1, 2), (2, 2, 2),
                                    (3, 2, 2), (2, 2, 4), (2, 3, 3)]))
    prec = draw(st.integers(1, 4))
    entry = st.tuples(*[st.integers(0, p ** prec - 1)] * h)
    row = st.lists(entry, min_size=f, max_size=f)
    return (Params.create(p, f, h), draw(st.lists(row, min_size=f,
                                                  max_size=f)), prec)


def _raw_det(ring, L, prec):
    if len(L) == 1:
        return ring.raw_reduce(L[0][0], prec)
    acc = (0,) * ring.h
    for j, c in enumerate(L[0]):
        minor = [row[:j] + row[j + 1:] for row in L[1:]]
        t = ring.raw_mul(c, _raw_det(ring, minor, prec), prec)
        acc = (ring.raw_sub if j % 2 else ring.raw_add)(acc, t, prec)
    return acc


@settings(max_examples=150, deadline=None)
@given(coeff_matrices())
def test_invert_coeff_matrix_inverts_or_reports_singular(case):
    params, L, prec = case
    ring, f = oe_ring(params), params.f
    inv = _invert_coeff_matrix(params, L, prec)
    assert (inv is None) == (not ring.reduce_mod_p(_raw_det(ring, L, prec)))
    if inv is not None:
        for i in range(f):
            for j in range(f):
                acc = (0,) * params.h
                for k in range(f):
                    acc = ring.raw_add(acc, ring.raw_mul(L[i][k], inv[k][j],
                                                         prec), prec)
                assert acc == ring.from_int(int(i == j), prec).coords
