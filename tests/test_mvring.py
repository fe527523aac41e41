import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvphi.coeff import Params, fq_field, oe_ring, ok_ring
from mvphi.mvring import (MvLaurent, invert_unit, norm_s, member, apply_phi,
                          apply_gamma, apply_phi_q, phi_decompose, recompose,
                          roundtrip_ok, phi_basis, phi_images,
                          decompose_window, _work_band, _SubstImages,
                          _band_overflow, _times_basis,
                          check_local_analyticity, NormValue,
                          TAG_A0, TAG_AMV, TAG_DAGGER)
from mvphi import sparse
from mvphi.suites import rand_pure_cone
from mvphi.errors import BandOverflow, NotAUnit, WindowTooSmall


GRID = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2)]


def params(p, f, h, **kw):
    return Params.create(p, f, h, **kw)


def mono(pr, n0, cross=None, scalar=1, prec=None):
    return MvLaurent.monomial(pr, n0, cross, scalar, prec)


def mono_band(pr, n0, cross, band):
    return MvLaurent.monomial(pr, n0, cross, 1, None, band)


def test_mul_trivial_cases():
    pr = params(3, 1, 1)
    y = mono(pr, 1)
    yinv = mono(pr, -1)
    assert (y * yinv).terms == MvLaurent.one(pr).terms
    assert (y * MvLaurent.zero(pr)).is_zero()


def test_difference_of_squares():
    pr = params(3, 1, 1)
    one = MvLaurent.one(pr)
    a = one + mono(pr, -1, None, 3)
    b = one - mono(pr, -1, None, 3)
    prod = a * b
    assert prod.coefficient(0) == (1,)
    assert prod.coefficient(-2) == ((-9) % 3 ** pr.N,)
    assert len(prod.terms) == 2


def test_band_overflow_on_mul():
    pr = params(3, 2, 2, B=2)
    a = mono(pr, 0, (2,))
    b = mono(pr, 0, (1,))
    with pytest.raises(BandOverflow, match=r"\(3,\) exceeds band 2; "
                                            r"--band 3 admits it"):
        a * b


def test_invert_unit_monomial_and_cross():
    pr = params(3, 2, 2)
    y = mono(pr, 1)
    assert invert_unit(y).terms == mono(pr, -1).terms
    x1 = mono(pr, 0, (1,))
    got = invert_unit(x1)
    assert got.terms == mono(pr, 0, (-1,)).terms


def test_invert_unit_geometric_series():
    pr = params(3, 1, 1)
    x = MvLaurent.one(pr) + mono(pr, -1, None, 3)
    inv = invert_unit(x)
    # 1 - 3/Y + 9/Y^2 (27 = 0 at N = 3)
    assert inv.coefficient(0) == (1,)
    assert inv.coefficient(-1) == ((-3) % 27,)
    assert inv.coefficient(-2) == (9,)
    assert (x * inv).terms == MvLaurent.one(pr).terms


def test_invert_unit_rejects():
    pr = params(3, 2, 2)
    with pytest.raises(NotAUnit):
        invert_unit(mono(pr, 0, None, 3))  # p is not a unit
    with pytest.raises(NotAUnit):
        invert_unit(MvLaurent.one(pr) + mono(pr, 0, (1,)))  # two lead terms


def test_invert_unit_laurent_lead():
    # 1 + Y^-1 = Y^-1 (1 + Y): the minimal-degree unit term leads
    pr = params(3, 2, 2)
    x = MvLaurent.one(pr) + mono(pr, -1)
    inv = invert_unit(x)
    prod = x * inv
    assert prod.coefficient(0) == (1, 0)
    assert all(not any(c) for k, c in prod.terms.items() if k != (0, (0,)))


# invert_unit builds its monomial factor Y^-n0 X^-cross with the support
# floor 0 whatever n0 is; a product reads its w_hi off its factors' w_lo,
# so the images of inputs with negative exponents claim too wide a window
FLOOR_BUG = "invert_unit's monomial factor claims the support floor 0"


@pytest.mark.xfail(strict=True, reason=FLOOR_BUG)
def test_unit_inverse_floor_is_at_most_its_least_key():
    y = invert_unit(mono(params(3, 1, 1), 1))
    assert y.w_lo <= min(k[0] for k in y.terms)


@pytest.mark.xfail(strict=True, reason=FLOOR_BUG)
def test_phi_image_window_holds_at_a_wider_degree_window():
    # the same input at M = 12 and at M = 30 must agree mod p^prec on every
    # key below the M = 12 image's w_hi
    key, c = (-2, (-1,)), (1, 0)
    got = apply_phi(MvLaurent(params(3, 2, 2), 3, {key: c}))
    ref = apply_phi(MvLaurent(params(3, 2, 2, M=30), 3, {key: c}))
    assert got.w_lo <= min(k[0] for k in got.terms)
    m = 3 ** got.prec
    for k in set(got.terms) | set(ref.terms):
        if k[0] < got.w_hi:
            assert [a % m for a in got.coefficient(*k)] == \
                [b % m for b in ref.coefficient(*k)], k


def test_norm_s_basics():
    pr = params(3, 1, 1)
    s = 2
    assert norm_s(mono(pr, 1), s) == NormValue(Fraction(1, 2), True)
    # p / Y^s has norm exponent 0
    assert norm_s(mono(pr, -s, None, 3), s).val == 0
    assert norm_s(MvLaurent.zero(pr), s).val is None


def test_norm_cross_variable():
    pr = params(3, 2, 2)
    assert norm_s(mono(pr, 0, (1,)), 3).val == 0


def test_norm_certification_window():
    pr = params(3, 1, 1)
    x = MvLaurent(pr, pr.N, {(2, ()): (1,)}, 0, 3, pr.B)
    assert norm_s(x, 1).certified  # 2 < 3
    y = MvLaurent(pr, pr.N, {(2, ()): (3,)}, 0, 3, pr.B)
    # level 3 >= w_hi/1 -> uncertified
    assert not norm_s(y, 1).certified


def test_norm_s_and_member_reject_radius_below_one():
    pr = params(3, 2, 2)
    x = mono(pr, 2) + mono(pr, -1, None, 3)  # Y_0^2 + 3 Y_0^-1
    for s in (0, -1):
        with pytest.raises(ValueError):
            norm_s(x, s)
        with pytest.raises(ValueError):
            member(x, TAG_DAGGER, s)


def _ref_norm_s(x, s):
    """norm_s in Fractions: min of v_p(c) + n_0/s, certified below w_hi/s
    and below prec + w_lo/s."""
    ring = oe_ring(x.params)
    best = None
    for (n0, _), c in x.terms.items():
        lvl = Fraction(ring.raw_val(c, x.prec)) + Fraction(n0, s)
        if best is None or lvl < best:
            best = lvl
    if best is None:
        return NormValue(None, False)
    certified = True
    if x.w_hi is not None and best >= Fraction(x.w_hi, s):
        certified = False
    if best >= x.prec + Fraction(x.w_lo, s):
        certified = False
    return NormValue(best, certified)


@st.composite
def norm_cases(draw):
    """(x, s, boundary) at (3,2,2); boundary "w_hi" puts s * norm on w_hi,
    "prec" on s * prec + w_lo."""
    pr = params(3, 2, 2)
    p = pr.p
    boundary = draw(st.sampled_from([None, "w_hi", "prec"]))
    # on w_hi the least term needs v_p >= 1, or the window drops it
    v_lo = 1 if boundary == "w_hi" else 0
    prec = draw(st.integers(v_lo + 1, pr.N))
    s = draw(st.integers(1, 7))
    terms = {}
    for _ in range(draw(st.integers(0 if boundary is None else 1, 4))):
        v = draw(st.integers(v_lo, prec - 1))
        u0 = draw(st.integers(1, p ** prec - 1).filter(lambda u: u % p))
        u1 = draw(st.integers(-p ** prec, p ** prec))
        key = (draw(st.integers(-8, 8)), (draw(st.integers(-3, 3)),))
        terms[key] = (u0 * p ** v, u1 * p ** v)
    w_lo = draw(st.one_of(st.none(), st.integers(-12, 12)))
    w_hi = draw(st.one_of(st.none(), st.integers(-12, 20)))
    if boundary is not None:
        ring = oe_ring(pr)
        best = min(s * ring.raw_val(ring.raw_reduce(c, prec), prec) + n0
                   for (n0, _), c in terms.items())
        if boundary == "w_hi":
            w_hi = best
        else:
            w_lo, w_hi = best - s * prec, None
    return MvLaurent(pr, prec, terms, w_lo, w_hi), s, boundary


@settings(max_examples=400, deadline=None)
@given(norm_cases())
def test_norm_s_matches_fraction_reference(case):
    x, s, boundary = case
    got, ref = norm_s(x, s), _ref_norm_s(x, s)
    assert got.val == ref.val and got.certified is ref.certified
    # the dagger check is the sign of the same minimum; the former formula
    raw_val = oe_ring(x.params).raw_val
    dagger = all(s * raw_val(c, x.prec) + k[0] >= 0
                 for k, c in x.terms.items())
    assert member(x, TAG_DAGGER, s) is dagger
    if boundary == "w_hi":
        assert s * ref.val == x.w_hi and not got.certified
    elif boundary == "prec":
        assert s * ref.val == s * x.prec + x.w_lo and not got.certified


def _old_norm_s(x, s):
    """norm_s as it was: s * v_p(c) + n_0 read on every term."""
    raw_val, prec = oe_ring(x.params).raw_val, x.prec
    best = min((s * raw_val(c, prec) + n0 for (n0, _), c in x.terms.items()),
               default=None)
    if best is None:
        return NormValue(None, False)
    certified = ((x.w_hi is None or best < x.w_hi)
                 and best < s * prec + x.w_lo)
    return NormValue(Fraction(best, s), certified)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(3, 2, 2), (5, 2, 2)]), st.integers(1, 4),
       st.data())
def test_norm_s_matches_the_min_over_every_term(g, s, data):
    # norm_s skips the valuation of a term whose n_0 cannot lower the
    # minimum; the value and the certification are the old ones
    pr = params(*g)
    prec = data.draw(st.integers(1, pr.N))
    q = pr.p ** prec
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(-9, 9), st.tuples(st.integers(-3, 3))),
        st.tuples(st.integers(0, q - 1), st.integers(0, q - 1),
                  st.integers(0, prec)).map(
            lambda c: (c[0] * pr.p ** c[2], c[1] * pr.p ** c[2])),
        max_size=12))
    w_lo = data.draw(st.one_of(st.none(), st.integers(-12, 6)))
    w_hi = data.draw(st.one_of(st.none(), st.integers(-10, 12)))
    x = MvLaurent(pr, prec, terms, w_lo, w_hi)
    assert norm_s(x, s) == _old_norm_s(x, s)


def test_powers_store_is_bounded_and_evaluates_as_a_fresh_table(
        monkeypatch):
    from mvphi import sparse
    # the bound read at 256: past it at 18 x 18 exponents, where the
    # library's 4,096 would need a table of some 4,100 monomials
    monkeypatch.setattr(sparse, "MONOMIAL_STORE", 256)
    pr = params(3, 2, 2)
    band = 20

    def one():
        return MvLaurent.one(pr, pr.N, band)

    def zero():
        return MvLaurent.zero(pr, pr.N, band)

    def table():
        # Y_0 and Y_1 = Y_0 X_1
        return sparse.Substitution([mono_band(pr, 1, (0,), band),
                                    mono_band(pr, 1, (1,), band)], one)

    exps = [(a, b) for a in range(18) for b in range(18)]
    assert len(exps) - 1 > sparse.MONOMIAL_STORE
    batches = [[(e, (k % 5 + 1, k % 3)) for k, e in enumerate(exps[i:i + 4])]
               for i in range(0, len(exps), 4)]
    warm = table()
    first = [sparse.evaluate(b, warm, zero()) for b in batches]
    assert len(warm.monomials) == sparse.MONOMIAL_STORE
    # again: stored monomials, then the ones past the bound formed anew
    for b, got in zip(batches, first):
        again = sparse.evaluate(b, warm, zero())
        fresh = sparse.evaluate(b, table(), zero())
        assert again == got == fresh
        assert again.band == got.band == fresh.band
    assert len(warm.monomials) == sparse.MONOMIAL_STORE
    for e, c in batches[5]:
        assert first[5].coefficient(sum(e), (e[1],)) == c


WARM_COLD_CHECK = """
import mvphi
from mvphi.coeff import Params, ok_ring
from mvphi.embed import iota
from mvphi.mvring import MvLaurent, apply_gamma, apply_phi, apply_phi_q

pr = Params.create(3, 2, 2)
a = ok_ring(pr)((2, 1))


def m(n0, cross, c, prec=None, w_hi=None):
    return MvLaurent.monomial(pr, n0, cross, c, prec).with_window(w_hi)


# Y_0^2 Y_1 (n0 = 3, cross (1,)) is reached at precision 3 and at 2
xs = [m(3, (1,), 1) + m(-1, (-1,), 2) + m(0, (0,), 1),
      m(3, (1,), 5, 3, 6) + m(2, (-1,), 3, 3, 6),
      m(3, (1,), 4, 2) + m(1, (0,), 3, 2) + m(-2, (1,), 1, 2)]
ops = [apply_phi, apply_phi_q, lambda x: apply_gamma(a, x), iota]


def facts(z):
    if isinstance(z, MvLaurent):
        return (z.terms, z.prec, z.w_lo, z.w_hi, z.band)
    fl = z.floors
    return (z.terms, z.prec, z.H, [getattr(fl, k) for k in fl.__slots__])


def run(order):
    return {(j, i): facts(op(xs[i])) for i in order
            for j, op in enumerate(ops)}


first = run(range(len(xs)))
warm = run(range(len(xs)))
mvphi.clear_caches()
# cold, the shared monomial is formed first from the precision-2 input
cold = run(reversed(range(len(xs))))
assert first == warm == cold
"""


def test_substitution_gives_the_same_result_on_a_warm_and_a_cold_table():
    # a fresh interpreter, so that the tables other tests built survive
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-c", WARM_COLD_CHECK],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_norm_multiplicative_and_ultrametric():
    pr = params(3, 2, 2)
    rng = random.Random(20)
    hits = 0
    for s in (1, 2, 3):
        for _ in range(20):
            x = rand_elt(pr, rng)
            y = rand_elt(pr, rng)
            nx, ny, nxy = norm_s(x, s), norm_s(y, s), norm_s(x * y, s)
            if nx.certified and ny.certified and nxy.certified:
                assert nxy.val == nx.val + ny.val
                hits += 1
            nsum = norm_s(x + y, s)
            if nsum.val is not None:
                assert nsum.val >= min(v for v in (nx.val, ny.val)
                                       if v is not None)
    assert hits >= 20


def rand_elt(pr, rng, nterms=3, maxv=None):
    ring = oe_ring(pr)
    maxv = pr.N - 1 if maxv is None else maxv
    terms = {}
    for _ in range(nterms):
        n0 = rng.randrange(-3, 5)
        cross = tuple(rng.randrange(-2, 3) for _ in range(pr.f - 1))
        v = rng.randrange(0, maxv + 1)
        c = [rng.randrange(pr.p ** pr.N) for _ in range(pr.h)]
        c[0] = c[0] or 1
        c = tuple((x * pr.p ** v) % pr.p ** pr.N for x in c)
        if any(c):
            terms[(n0, cross)] = c
    return MvLaurent(pr, pr.N, terms)


def test_member_examples():
    pr = params(3, 1, 1)
    s = 2
    assert member(mono(pr, -s, None, 3), TAG_DAGGER, s)
    assert not member(mono(pr, -s - 1, None, 3), TAG_DAGGER, s)
    assert not member(mono(pr, -1), TAG_A0)
    assert member(mono(pr, 0), TAG_A0)
    assert member(mono(pr, -5), TAG_AMV)


class ModPOracle:
    """Independent N=1 model: exponent arithmetic only, coefficients in F."""

    def __init__(self, pr):
        self.pr = pr
        self.field = fq_field(pr)

    def reduce(self, x: MvLaurent):
        out = {}
        for d, c in x.pure_y_exponents():
            lam = self.field(tuple(v % self.pr.p for v in c))
            if lam:
                out[d] = out.get(d, self.field.zero) + lam
        return {d: c for d, c in out.items() if c}

    def mul(self, a, b):
        out = {}
        for d1, c1 in a.items():
            for d2, c2 in b.items():
                d = tuple(x + y for x, y in zip(d1, d2))
                out[d] = out.get(d, self.field.zero) + c1 * c2
        return {d: c for d, c in out.items() if c}

    def add(self, a, b):
        out = dict(a)
        for d, c in b.items():
            out[d] = out.get(d, self.field.zero) + c
        return {d: c for d, c in out.items() if c}

    def phi(self, a):
        f = self.pr.f
        return {tuple(self.pr.p * d[(j + 1) % f] for j in range(f)): c
                for d, c in a.items()}


@pytest.mark.parametrize("p,f,h", GRID)
def test_mod_p_compatibility(p, f, h):
    pr = params(p, f, h)
    oracle = ModPOracle(pr)
    rng = random.Random(21)
    for _ in range(10):
        x, y = rand_elt(pr, rng), rand_elt(pr, rng)
        assert oracle.reduce(x * y) == oracle.mul(oracle.reduce(x),
                                                  oracle.reduce(y))
        assert oracle.reduce(x + y) == oracle.add(oracle.reduce(x),
                                                  oracle.reduce(y))


@pytest.mark.parametrize("p,f,h", GRID)
def test_apply_phi_mod_p_oracle(p, f, h):
    # mod p, phi is pure exponent arithmetic: d -> p * shift(d)
    pr = params(p, f, h)
    oracle = ModPOracle(pr)
    rng = random.Random(22)
    for _ in range(6):
        x = rand_elt(pr, rng, nterms=2)
        got = oracle.reduce(apply_phi(x))
        want = oracle.phi(oracle.reduce(x))
        w_hi = apply_phi(x).w_hi
        for d, c in want.items():
            if w_hi is None or sum(d) < w_hi:
                assert got.get(d) == c, (d, got.get(d), c)


def test_apply_phi_trivial_and_p2():
    pr = params(2, 1, 1)
    one = MvLaurent.one(pr)
    assert apply_phi(one).terms == one.terms
    got = apply_phi(mono(pr, 1))
    assert got.coefficient(1) == (2,)
    assert got.coefficient(2) == (1,)


@pytest.mark.parametrize("p,f,h", GRID)
def test_phi_norm_equivariance(p, f, h):
    pr = params(p, f, h)
    rng = random.Random(23)
    hits = 0
    for s in (1, 2, 3):
        anchor = mono(pr, -s)
        for _ in range(8):
            x = rand_elt(pr, rng) + anchor
            nx = norm_s(x, s)
            img = apply_phi(x)
            nimg = norm_s(img, p * s)
            if nx.certified and nimg.certified:
                assert nimg.val == nx.val
                hits += 1
    assert hits >= 12


@pytest.mark.parametrize("p,f,h", [(3, 1, 1), (3, 2, 2)])
def test_gamma_norm_equivariance(p, f, h):
    pr = params(p, f, h)
    okr = ok_ring(pr)
    rng = random.Random(24)
    a = okr.random_unit(rng)
    hits = 0
    for s in (1, 2):
        for _ in range(8):
            x = rand_elt(pr, rng) + mono(pr, -s)
            nx = norm_s(x, s)
            img = apply_gamma(a, x)
            nimg = norm_s(img, s)
            if nx.certified and nimg.certified:
                assert nimg.val == nx.val
                hits += 1
    assert hits >= 8


def test_dagger_stability_under_phi():
    pr = params(3, 1, 1)
    s = 2
    rng = random.Random(25)
    for _ in range(10):
        x = rand_elt(pr, rng)
        if not member(x, TAG_DAGGER, s):
            continue
        assert member(apply_phi(x), TAG_DAGGER, pr.p * s)


def test_phi_decompose_basis_monomial():
    pr = params(3, 1, 1)
    x = mono(pr, 1)
    comps = phi_decompose(x)
    for a, g in comps.items():
        if a == (1, ()):
            assert g.terms == MvLaurent.one(pr).terms
        else:
            assert g.is_zero()


def test_phi_decompose_spec_example_f2():
    # mod p: x = Y_0^p decomposes with component Y_1 at the unit monomial
    pr = params(3, 2, 2, N=1)
    x = mono(pr, 3, None, 1, prec=1)
    comps = phi_decompose(x)
    unit_mono = (0, (0,))
    g = comps[unit_mono]
    assert g.terms == {(1, (1,)): (1, 0)}
    for a, other in comps.items():
        if a != unit_mono:
            assert other.is_zero()


@pytest.mark.parametrize("p,f,h", GRID)
@pytest.mark.parametrize("prec", [1, 3])
def test_phi_decompose_roundtrip(p, f, h, prec):
    pr = params(p, f, h)
    rng = random.Random(26)
    for _ in range(6):
        if prec == 1:
            x = rand_elt(pr, rng, nterms=3, maxv=0).reduce(1)
        else:
            x = rand_pure_cone(pr, rng)
        back = recompose(phi_decompose(x), pr)
        assert roundtrip_ok(x, back), (x, back)


def test_phi_decompose_caps_precision_at_N():
    # the Frobenius images are certified mod p^N only
    pr = params(3, 1, 1)
    x = MvLaurent(pr, 9, {(4, ()): (1 + 3 ** 5,), (1, ()): (2,)})
    comps = phi_decompose(x)
    for g in comps.values():
        assert g.prec == pr.N
        assert all(c[0] < 3 ** pr.N for c in g.terms.values())
    assert (x - recompose(comps, pr)).is_zero()


def test_phi_decompose_components_zero_for_zero():
    pr = params(3, 2, 2)
    comps = phi_decompose(MvLaurent.zero(pr))
    assert all(g.is_zero() for g in comps.values())


def test_phi_decompose_dagger_membership():
    pr = params(3, 1, 1)
    s = 1
    ps = pr.p * s
    rng = random.Random(27)
    for _ in range(8):
        # sample inside the integral part of the ps-dagger ring
        terms = {}
        for _ in range(3):
            v = rng.randrange(0, pr.N)
            n0 = rng.randrange(-ps * v, 5)
            c = ((rng.randrange(1, pr.p) * pr.p ** v) % pr.p ** pr.N,)
            terms[(n0, ())] = c
        x = MvLaurent(pr, pr.N, terms)
        assert member(x, TAG_DAGGER, ps)
        for g in phi_decompose(x).values():
            assert member(g, TAG_DAGGER, s)


# the reference for shift and recompose: a basis monomial at the
# component's precision times the component's image, added to the sum by +
SHIFT_GRID = [(3, 1, 1), (3, 2, 2), (5, 2, 2), (2, 2, 2)]


def _recompose_by_products(components, pr):
    images = phi_images(pr, decompose_window(pr))
    band = _work_band(pr)
    acc = MvLaurent.zero(pr, pr.N, band)
    for (n0, cross), g in components.items():
        m = MvLaurent.monomial(pr, n0, cross, 1, g.prec, band)
        acc = acc + m * images.apply(g.lift_band(band))
    return acc


def _outcome(fn):
    """terms, prec, window and band of fn(), or the BandOverflow raised."""
    try:
        x = fn()
    except BandOverflow as exc:
        return ("BandOverflow", str(exc))
    return x.terms, x.prec, x.w_lo, x.w_hi, x.band


def _coeff(draw, pr, prec):
    v = draw(st.integers(0, prec - 1))
    return tuple(draw(st.integers(0, pr.p ** prec - 1)) * pr.p ** v
                 for _ in range(pr.h))


@pytest.mark.parametrize("p,f,h", SHIFT_GRID)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shift_is_the_monomial_product(p, f, h, data):
    # g as raw_apply returns it: reduced mod p^prec, terms below w_hi, at
    # most the monomial's precision; cross exponents reach the band edge.
    # The raw shift of recompose is the product by the exact monomial
    pr = params(p, f, h)
    band = data.draw(st.sampled_from([pr.B, _work_band(pr)]))
    prec = data.draw(st.integers(1, pr.N))
    edge = st.one_of(st.integers(-2, 2), st.integers(band - p + 1, band),
                     st.just(-band))
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        key = (data.draw(st.integers(-4, 6)),
               tuple(data.draw(edge) for _ in range(f - 1)))
        terms[key] = _coeff(data.draw, pr, prec)
    g = MvLaurent(pr, prec, terms, data.draw(st.integers(-6, 0)),
                  data.draw(st.one_of(st.none(), st.integers(-3, 7))), band)
    a = data.draw(st.sampled_from(phi_basis(pr)))
    mprec = data.draw(st.integers(prec, pr.N))
    raw = (g.prec, g.terms, g.w_lo, g.w_hi)
    assert _outcome(lambda: MvLaurent._make(
        pr, *_times_basis(pr, band, a, raw), band)) == _outcome(
        lambda: MvLaurent.monomial(pr, *a, 1, mprec, band) * g)


@pytest.mark.parametrize("p,f,h", SHIFT_GRID)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_recompose_is_the_sum_of_products(p, f, h, data):
    # components as phi_decompose leaves them, or empty, at lowered
    # precision, or with a window (w_hi None, positive or negative); then
    # the same components all emptied, and with each empty one replaced
    # by one at precision below N with a window
    pr = params(p, f, h)
    band = _work_band(pr)
    comps, emptied, windowed = {}, {}, {}
    for a in phi_basis(pr):
        prec = data.draw(st.integers(1, pr.N))
        terms = {}
        for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
            key = (data.draw(st.integers(-2, 4)),
                   tuple(data.draw(st.integers(-2, 2)) for _ in range(f - 1)))
            terms[key] = _coeff(data.draw, pr, prec)
        w_hi = data.draw(st.one_of(st.none(), st.integers(-3, 6)))
        comps[a] = MvLaurent(pr, prec, terms, None, w_hi, band)
        emptied[a] = MvLaurent(pr, prec, {}, None, w_hi, band)
        windowed[a] = comps[a] if not comps[a].is_zero() else MvLaurent(
            pr, data.draw(st.integers(1, pr.N - 1)), {}, None,
            data.draw(st.integers(-3, 6)), band)
    for cs in (comps, emptied, windowed):
        assert _outcome(lambda: recompose(cs, pr)) == _outcome(
            lambda: _recompose_by_products(cs, pr))


# the reference for the raw recomposition: the chain of elements it
# replaced, kept here as it was.  apply is sparse.evaluate over MvLaurent
# monomials from a zero at x's precision, then with_window at the clamp;
# recompose shifts each nonempty component's image and sums them with
# one termless part; phi_decompose subtracts each level's recomposition
CHAIN_GRID = [(3, 1, 1), (3, 2, 2), (5, 2, 2), (2, 2, 4)]


def _chain_apply(images, x):
    pr, band = images.params, _work_band(images.params)
    clamp = images.clamp(x.prec, x.w_hi)
    acc = sparse.evaluate(x.pure_y_exponents(), images,
                          MvLaurent.zero(pr, x.prec, band))
    return acc if clamp is None else acc.with_window(clamp)


def _chain_shift(g, n0, cross):
    terms = {}
    for (m0, x), c in g.terms.items():
        key = (m0 + n0, tuple(a + b for a, b in zip(x, cross)))
        if any(abs(e) > g.band for e in key[1]):
            raise _band_overflow(g.params, "product cross exponent", key[1],
                                 g.band)
        terms[key] = c
    return MvLaurent._make(g.params, g.prec, terms, g.w_lo + n0,
                           None if g.w_hi is None else g.w_hi + n0, g.band)


def _chain_recompose(components, pr):
    images = phi_images(pr, decompose_window(pr))
    band = _work_band(pr)
    prec, w_hi, parts = pr.N, None, []
    for a, g in components.items():
        g = g.lift_band(band)
        if g.terms:
            parts.append(_chain_shift(_chain_apply(images, g), *a))
        else:
            prec = min(prec, g.prec)
            cut = images.clamp(g.prec, g.w_hi)
            if cut is not None:
                w_hi = cut + a[0] if w_hi is None else min(w_hi, cut + a[0])
    return MvLaurent.sum([MvLaurent._make(pr, prec, {}, 0, w_hi, band)]
                         + parts)


def _chain_phi_decompose(x):
    pr = x.params
    x = x.reduce(min(x.prec, pr.N))
    p, f, ring, band = pr.p, pr.f, oe_ring(pr), _work_band(pr)
    comps = {a: {} for a in phi_basis(pr)}
    rem, h_run = x.lift_band(band), x.w_hi
    for n in range(x.prec):
        if rem.is_zero():
            break
        level = [(d, c) for d, c in rem.pure_y_exponents()
                 if ring.raw_val(c, rem.prec) == n]
        if not level:
            continue
        delta = {a: {} for a in phi_basis(pr)}
        for d, c in level:
            r = tuple(e % p for e in d)
            a = (sum(r) % p, r[1:])
            da = (a[0] - sum(a[1]),) + a[1]
            shifted = tuple((d[j] - da[j]) // p for j in range(f))
            w = tuple(shifted[(j - 1) % f] for j in range(f))
            key = (sum(w), w[1:])
            cur = delta[a].get(key)
            delta[a][key] = c if cur is None else ring.raw_add(cur, c,
                                                               rem.prec)
        g_delta = {a: MvLaurent(pr, rem.prec, t, None, None, band)
                   for a, t in delta.items() if t}
        for a, g in g_delta.items():
            acc = dict(comps[a])
            for k, c in g.terms.items():
                acc[k] = c if k not in acc else ring.raw_add(acc[k], c,
                                                             x.prec)
            comps[a] = {k: c for k, c in acc.items() if any(c)}
        rem = rem - _chain_recompose(g_delta, pr)
        if rem.w_hi is not None:
            h_run = rem.w_hi if h_run is None else min(h_run, rem.w_hi)
    if not rem.is_zero():
        raise WindowTooSmall(
            f"decomposition left a remainder within the window: {rem!r}")
    hi = None if h_run is None else -(-(h_run + 1 - p) // p)
    return {a: MvLaurent(pr, x.prec, t, None, hi, band) if t
            else MvLaurent._make(pr, x.prec, {}, 0, hi, band)
            for a, t in comps.items()}


def _chain_out(fn):
    """Like _outcome, with the terms in their order, over a dict of
    components too, and WindowTooSmall besides BandOverflow."""
    try:
        x = fn()
    except (BandOverflow, WindowTooSmall) as exc:
        return (type(exc).__name__, str(exc))
    xs = x if isinstance(x, dict) else {None: x}
    return [(a, list(g.terms.items()), g.prec, g.w_lo, g.w_hi, g.band)
            for a, g in xs.items()]


def _chain_terms(draw, pr, prec, cross, n0=st.integers(-3, 6)):
    terms = {}
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        key = (draw(n0), tuple(draw(cross) for _ in range(pr.f - 1)))
        terms[key] = _coeff(draw, pr, prec)
    return terms


@pytest.mark.parametrize("p,f,h", CHAIN_GRID)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_raw_recomposition_is_the_element_chain(p, f, h, data):
    # components below N, windowed (w_hi None, negative or positive) and
    # exact, empty, with negative exponents (the inverses, whose w_lo
    # overstates their support), and cross exponents whose images reach
    # past the band; then an element decomposed both ways, the band check
    # of its level keys reached through a far Y_0 degree
    pr = params(p, f, h)
    band = _work_band(pr)
    reach = band // p
    cross = st.one_of(st.integers(-3, 3), st.integers(reach - 2, reach + 1),
                      st.integers(-reach - 1, -reach + 2))
    images = phi_images(pr, decompose_window(pr))
    comps = {}
    for a in phi_basis(pr):
        prec = data.draw(st.integers(1, pr.N))
        w_hi = data.draw(st.one_of(st.none(), st.integers(-4, 8)))
        comps[a] = MvLaurent(pr, prec, _chain_terms(data.draw, pr, prec,
                                                    cross), None, w_hi, band)
        assert _chain_out(lambda: images.apply(comps[a])) == _chain_out(
            lambda: _chain_apply(images, comps[a]))
    assert _chain_out(lambda: recompose(comps, pr)) == _chain_out(
        lambda: _chain_recompose(comps, pr))
    prec = data.draw(st.integers(1, pr.N + 1))
    far = st.one_of(st.integers(-4, 10),
                    st.sampled_from([p * (band + 4), -p * (band + 4)]))
    x = MvLaurent(pr, prec, _chain_terms(
        data.draw, pr, prec, st.integers(-3, 3), far), None, data.draw(
        st.one_of(st.none(), st.integers(4, 24))), band)
    assert _chain_out(lambda: phi_decompose(x)) == _chain_out(
        lambda: _chain_phi_decompose(x))


def test_recompose_applies_phi_to_nonempty_components_only(monkeypatch):
    # an empty component adds only its precision and window to the sum
    pr = params(5, 2, 2)
    rng = random.Random(29)
    raw_apply = _SubstImages.raw_apply
    for x in (rand_elt(pr, rng, nterms=3, maxv=0).reduce(1),
              rand_pure_cone(pr, rng)):
        comps = phi_decompose(x)
        calls = []
        monkeypatch.setattr(_SubstImages, "raw_apply",
                            lambda self, *g: calls.append(g)
                            or raw_apply(self, *g))
        back = recompose(comps, pr)
        monkeypatch.undo()
        assert roundtrip_ok(x, back)
        assert calls == [(g.terms, g.prec, g.w_hi) for g in comps.values()
                         if not g.is_zero()]
        assert 0 < len(calls) < len(comps)


def test_recompose_is_one_lincomb_per_component_and_one_sum(monkeypatch):
    # no element is built on the way: one sparse.lincomb per nonempty
    # component, one for the sum, and the result the one MvLaurent made
    # (counted on a warm table: its powers and inverses are built lazily)
    pr = params(5, 2, 2)
    rng = random.Random(30)
    lincomb, make = sparse.lincomb, MvLaurent._make
    for x in (rand_elt(pr, rng, nterms=3, maxv=0).reduce(1),
              rand_pure_cone(pr, rng), MvLaurent.zero(pr)):
        comps = phi_decompose(x)
        recompose(comps, pr)
        parts, made = [], []
        monkeypatch.setattr(sparse, "lincomb", lambda ring, ps, *rest:
                            parts.append(len(ps)) or lincomb(ring, ps, *rest))
        monkeypatch.setattr(MvLaurent, "_make", staticmethod(
            lambda *args: made.append(args) or make(*args)))
        back = recompose(comps, pr)
        monkeypatch.undo()
        assert roundtrip_ok(x, back)
        nonempty = sum(not g.is_zero() for g in comps.values())
        assert len(parts) == nonempty + 1
        assert parts[-1] == nonempty
        assert len(made) == 1


def test_phi_decompose_raises_on_a_remainder(monkeypatch):
    # a recomposition that gives back nothing leaves every slice in the
    # remainder: the decomposition refuses to return components for it
    pr = params(3, 2, 2)
    x = mono(pr, 2, (1,)) + mono(pr, 0, None, pr.p)
    assert roundtrip_ok(x, recompose(phi_decompose(x), pr))
    comps = phi_decompose(x)
    monkeypatch.setattr(_SubstImages, "raw_apply",
                        lambda self, terms, prec, w_hi: (prec, {}, 0, None))
    assert recompose(comps, pr).is_zero()
    with pytest.raises(WindowTooSmall, match="left a remainder"):
        phi_decompose(x)


def test_phi_decompose_rejects_a_band_above_the_working_band():
    # the working band (B + M)(p + 1) is 72 at (3,2,2); the error names
    # the least --band whose working band admits the element
    pr = params(3, 2, 2)
    x = MvLaurent(pr, pr.N, {(1, (2,)): (1, 0)}, None, None, 73)
    with pytest.raises(BandOverflow, match=r"band 73 exceeds band 72; "
                                           r"--band 7 admits it"):
        phi_decompose(x)
    y = MvLaurent(pr, pr.N, x.terms, None, None, 72)
    assert roundtrip_ok(y, recompose(phi_decompose(y), pr))


@pytest.mark.parametrize("p,f,h", GRID)
def test_local_analyticity(p, f, h):
    pr = params(p, f, h)
    okr = ok_ring(pr)
    rng = random.Random(28)
    for s in (1, 2):
        gammas = []
        for _ in range(2):
            coords = [1 + p ** s * rng.randrange(p)] + \
                [p ** s * rng.randrange(p) for _ in range(f - 1)]
            gammas.append(okr(tuple(coords)))
        rows = check_local_analyticity(pr, s, gammas)
        assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]]


def test_local_analyticity_sharper_bound_for_y0():
    # for the main variable the difference is p*m + m^(p^s), so the measured
    # exponent clears min(1, p^s/s), sharper than 1/(p-1)
    from fractions import Fraction
    for p, f, h in [(2, 1, 1), (3, 1, 1), (3, 2, 2)]:
        pr = params(p, f, h)
        okr = ok_ring(pr)
        rng = random.Random(29)
        for s in (1, 2):
            coords = [1 + p ** s * (1 + rng.randrange(p - 1 or 1))] + \
                [p ** s * rng.randrange(p) for _ in range(f - 1)]
            a = okr(tuple(coords))
            diff = apply_gamma(a, mono(pr, 1)) - mono(pr, 1)
            nv = norm_s(diff, s)
            if nv.val is not None:
                assert nv.val >= min(Fraction(1), Fraction(p ** s, s))


def test_local_analyticity_identity_gamma():
    pr = params(3, 1, 1)
    okr = ok_ring(pr)
    rows = check_local_analyticity(
        pr, 1, [okr.coordinates_of_felt(okr.field.one)])
    assert all(r["exponent"] is None for r in rows)


def test_phi_basis_size():
    for p, f, h in GRID:
        pr = params(p, f, h)
        assert len(phi_basis(pr)) == pr.q


CLEAR_CACHES_CHECK = """
import mvphi
from mvphi.coeff import Params
from mvphi.mvring import MvLaurent, phi_images
pr = Params.create(3, 1, 1)
x = MvLaurent.monomial(pr, -1) + MvLaurent.monomial(pr, 2, None, 2)
before = phi_images(pr).apply(x)
assert phi_images(pr) is phi_images(pr, pr.M)
assert mvphi.cache_info()["mvring._phi_images"].currsize == 1
mvphi.clear_caches()
assert all(i.currsize == 0 for i in mvphi.cache_info().values())
assert phi_images(pr).apply(x) == before
"""


def test_clear_caches_empties_every_table():
    # a fresh interpreter, so that the tables other tests built survive
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-c", CLEAR_CACHES_CHECK],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_every_export():
    # a stale name in __all__ passes ``import mvphi`` but fails here
    import mvphi
    namespace = {}
    exec("from mvphi import *", namespace)
    assert set(mvphi.__all__) <= set(namespace)


def test_gamma_images_is_bounded_and_rebuilds_evicted_units():
    import mvphi
    from mvphi.mvring import gamma_images
    pr = params(3, 1, 1)
    okr = ok_ring(pr)
    units = [okr((k,)) for k in range(1, 61) if k % 3]
    assert len(units) == 40
    first = gamma_images(pr, units[0])
    for a in units[1:]:
        gamma_images(pr, a)
    info = mvphi.cache_info()["mvring.gamma_images"]
    assert info.maxsize is not None and info.maxsize < len(units)
    assert info.currsize <= info.maxsize
    again = gamma_images(pr, units[0])
    assert again is not first
    assert again.atoms == first.atoms


def test_an_evicted_gamma_table_is_freed_at_once():
    # the table's closures hold its atoms, not the table: with no reference
    # cycle, leaving the bounded cache frees it without the cycle collector
    import gc
    import weakref
    from mvphi.mvring import gamma_images
    pr = params(3, 2, 2)
    okr = ok_ring(pr)
    x = mono(pr, 2) + mono(pr, -1, (1,))
    units = [okr((1 + 3 * k, 1)) for k in range(34)]
    gc.disable()
    try:
        table = gamma_images(pr, units[0])
        table.apply(x)
        assert table.table and table.inverses
        ref = weakref.ref(table)
        del table
        for a in units[1:]:
            gamma_images(pr, a)
        assert ref() is None
    finally:
        gc.enable()


def test_phi_of_a_power_past_the_recursion_limit():
    # x_i^e was one recursive call per step, so |e| = 1200 raised
    # RecursionError; each power is one product from the one before
    pr = params(3, 1, 1)
    table = phi_images(pr)
    for e, x in ((1200, table.atoms[0]), (-1200, table.inverse(0))):
        want = MvLaurent.one(pr, pr.N, table.band)
        for _ in range(abs(e)):
            want = want * x
        got = apply_phi(mono(pr, e))
        assert (got.terms, got.w_hi) == (want.terms, want.w_hi)


def test_phi_q_table_short_of_its_unit_term_names_the_least_deg():
    # at (5,2,2) the images of phi_q stop at degree M = 12 < q = 25, so no
    # image holds its unit term Y_i^q and no windowed input can be clamped
    def x(pr, w_hi=6):
        return MvLaurent(pr, 3, {(1, (0,)): (1, 0)}, None, w_hi)
    with pytest.raises(WindowTooSmall, match="--deg 26 or more"):
        apply_phi_q(x(params(5, 2, 2)))
    # exact inputs keep working
    got = apply_phi_q(x(params(5, 2, 2), None))
    assert got.terms == {(1, (0,)): (25, 0), (5, (5,)): (5, 0)}
    assert apply_phi_q(x(params(5, 2, 2, M=26))).w_hi == 26
    assert apply_phi_q(x(params(3, 2, 2))).w_hi == 12


def test_a_table_short_of_its_unit_term_cannot_invert_its_images():
    # an exact input with a negative exponent asks for an image's inverse,
    # which needs the unit term: phi_q at (5,2,2) and phi at p = 13 > M
    with pytest.raises(WindowTooSmall, match="--deg 26 or more"):
        apply_phi_q(MvLaurent(params(5, 2, 2), 3, {(-1, (0,)): (1, 0)}))
    with pytest.raises(WindowTooSmall, match="--deg 14 or more"):
        apply_phi(MvLaurent(params(13, 1, 1), 3, {(-1, ()): (1,)}))


def test_a_table_window_past_the_working_band():
    # at M = 2 and B = 1 the decomposition window max(M, 4p) = 20 passes
    # the working band (B + M)(p + 1) = 18: the f = 1 images have no cross
    # exponent, so the table builds, and an f = 2 image's cross exponent
    # past the working band (9 at (2,2,2)) names the least --band
    pr = params(5, 1, 1, M=2, B=1)
    assert decompose_window(pr) > _work_band(pr)
    table = phi_images(pr, decompose_window(pr))
    assert all(a.band == _work_band(pr) for a in table.atoms)
    with pytest.raises(BandOverflow, match="--band 2 admits it"):
        phi_images(params(2, 2, 2, M=2, B=1), 20)


# -- dict order: the product loop and the h = 2 kernel against the old ones --

def _ref_raw_mul(ring, a, b, prec):
    """OERing.raw_mul as it was at every h: the double loop, then the
    reduction by the defining polynomial."""
    h, m = ring.h, ring.p ** prec
    out = [0] * (2 * h - 1)
    for i in range(h):
        for j in range(h):
            out[i + j] += a[i] * b[j]
    for i in range(2 * h - 2, h - 1, -1):
        c = out[i] % m
        for j in range(h):
            out[i - h + j] -= c * ring.poly[j]
    return tuple(c % m for c in out[:h])


def _ref_mv_mul(x, y):
    """MvLaurent.__mul__'s pair loop as it was: the window cut on the
    summed key, the inner dict walked once per outer term."""
    prec = min(x.prec, y.prec)
    w_lo = None if x.w_lo is None or y.w_lo is None else x.w_lo + y.w_lo
    his = [a + b for a, b in ((x.w_lo, y.w_hi), (y.w_lo, x.w_hi))
           if a is not None and b is not None]
    w_hi = min(his, default=None)
    band = min(x.band, y.band)
    ring = oe_ring(x.params)
    out = {}
    for (n1, x1), c1 in x.terms.items():
        for (n2, x2), c2 in y.terms.items():
            n0 = n1 + n2
            if w_hi is not None and n0 >= w_hi:
                continue
            cross = tuple(a + b for a, b in zip(x1, x2))
            if any(abs(e) > band for e in cross):
                raise BandOverflow(f"cross exponent {cross}")
            prod = ring.raw_mul(c1, c2, prec)
            key = (n0, cross)
            cur = out.get(key)
            out[key] = ring.raw_add(cur, prod, prec) if cur is not None \
                else prod
    for k in [k for k, c in out.items() if not any(c)]:
        del out[k]
    return MvLaurent._make(x.params, prec, out, w_lo, w_hi, band)


def _ordered(fn):
    """(key, coefficient) pairs in dict order, prec, window and band of
    fn(), or the name of the kernel error raised."""
    try:
        x = fn()
    except (BandOverflow, NotAUnit, WindowTooSmall) as exc:
        return type(exc).__name__
    return list(x.terms.items()), x.prec, x.w_lo, x.w_hi, x.band


def _order_sample(pr, seed):
    rng = random.Random(seed)
    a = ok_ring(pr).random_unit(rng)
    out = []
    for s in (1, 2, 3):
        x = rand_elt(pr, rng, nterms=4) + mono(pr, -s)
        y = rand_elt(pr, rng, nterms=4)
        w = rng.randrange(2, 8)
        for u, v in ((x, y), (x.with_window(w), y), (y, x.with_window(w))):
            out.append(_ordered(lambda: u * v))
        for u in (x, y.with_window(w)):
            out.append(_ordered(lambda: apply_phi(u)))
            out.append(_ordered(lambda: apply_gamma(a, u)))
    for _ in range(3):
        comps = phi_decompose(rand_pure_cone(pr, rng))
        out.append([(k, _ordered(lambda: g)) for k, g in comps.items()])
    return out


@pytest.mark.parametrize("p,f,h", [(3, 2, 2), (5, 2, 2)])
def test_h2_results_keep_the_old_dict_order(p, f, h, monkeypatch):
    # the order of terms is observable (the oc-cert witness is the first
    # failing term), so products, substitutions and decompositions must
    # list their terms as the old product loop and kernel did; the tables
    # are rebuilt on each side
    import mvphi
    from mvphi.coeff import OERing
    pr = params(p, f, h)
    mvphi.clear_caches()
    got = _order_sample(pr, 41)
    monkeypatch.setattr(OERing, "raw_mul", _ref_raw_mul)
    monkeypatch.setattr(MvLaurent, "__mul__", _ref_mv_mul)
    mvphi.clear_caches()
    want = _order_sample(pr, 41)
    monkeypatch.undo()
    mvphi.clear_caches()
    assert got == want
    assert any(isinstance(r, tuple) and r[3] is not None for r in got)
