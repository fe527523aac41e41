import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvphi.coeff import Params, fq_field, oe_ring, power
from mvphi.perfd import PerfHandle, PerfLaurent, PerfRing, ainf_handle
from mvphi.witt import (gen_structure_polys, ghost_components, eval_int,
                        FiniteFieldHandle, witt_add, witt_mul,
                        teich, witt_zero, from_expansion, from_oe_scalar,
                        from_int, WittVec,
                        _mod_p_terms, _pmul, TEICH_EXPANSION, WITT_COORDS)


def handle(p, h=1):
    pr = Params.create(p, 1 if h == 1 else h, h)
    return FiniteFieldHandle(fq_field(pr))


def test_structure_polys_degree_zero():
    sp = gen_structure_polys(3, 3)
    assert sp.sums[0] == {(1, 0, 0, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0): 1}
    assert sp.prods[0] == {(1, 0, 0, 1, 0, 0): 1}


def _ref_ppow(a, n, nvars):
    """The former structure-polynomial power, kept as the reference."""
    result = {(0,) * nvars: 1}
    while n:
        if n & 1:
            result = _pmul(result, a)
        a = _pmul(a, a) if n > 1 else a
        n >>= 1
    return result


@pytest.mark.parametrize("p,N", [(2, 4), (3, 3)])
def test_structure_poly_powers_keep_the_reference_term_order(p, N):
    # the same product sequence, so S_n and P_n keep their dict order
    sp, one = gen_structure_polys(p, N), {(0,) * (2 * N): 1}
    for poly in sp.sums[:-1] + sp.prods[:-1]:
        for e in (p, p * p):
            assert (list(power(poly, e, one, _pmul).items())
                    == list(_ref_ppow(poly, e, 2 * N).items()))


@pytest.mark.parametrize("p,N", [(2, 3), (3, 3), (3, 4)])
def test_structure_polys_terms_mod_p(p, N):
    # the reduced terms are the polynomials mod p, term for term in the
    # polynomials' order, and each plan's paths and masks spell them out
    for plan, terms, poly in _plans_and_terms(p, N):
        back = []
        for c, factors in terms:
            assert 0 < c < p
            e = [0] * (2 * N)
            for j, d in factors:
                assert d > 0 and e[j] == 0
                e[j] = d
            back.append((tuple(e), c))
        assert back == [(e, c % p) for e, c in poly.items() if c % p]
        assert [(c, tuple(plan.nodes[n] for n in path), mask)
                for c, path, mask in plan.index] == \
            [(c, fs, sum(1 << j for j, _ in fs)) for c, fs in terms]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_s1_closed_form(p):
    # S_1 = X_1 + Y_1 - sum_{j=1}^{p-1} (1/p) C(p,j) X_0^j Y_0^{p-j}
    sp = gen_structure_polys(p, 2)
    want = {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1}
    from math import comb
    for j in range(1, p):
        want[(j, 0, p - j, 0)] = -(comb(p, j) // p)
    assert sp.sums[1] == want


@pytest.mark.parametrize("p,N", [(2, 3), (3, 3), (5, 3), (2, 4), (3, 4)])
def test_ghost_identities_on_random_integers(p, N):
    sp = gen_structure_polys(p, N)
    rng = random.Random(30)
    mod = p ** (N + 2)
    for _ in range(25):
        xs = [rng.randrange(50) for _ in range(N)]
        ys = [rng.randrange(50) for _ in range(N)]
        svals = [eval_int(sp.sums[n], xs + ys) for n in range(N)]
        pvals = [eval_int(sp.prods[n], xs + ys) for n in range(N)]
        gx = ghost_components(p, N, xs)
        gy = ghost_components(p, N, ys)
        gs = ghost_components(p, N, svals)
        gp = ghost_components(p, N, pvals)
        for n in range(N):
            assert (gs[n] - gx[n] - gy[n]) % mod == 0
            assert (gp[n] - gx[n] * gy[n]) % mod == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_witt_over_prime_field_matches_integers(p):
    N = 3
    h = handle(p)
    rng = random.Random(31)
    for _ in range(50):
        a, b = rng.randrange(p ** N), rng.randrange(p ** N)
        wa, wb = from_int(h, a, N), from_int(h, b, N)
        assert witt_add(wa, wb).eq(from_int(h, a + b, N))
        assert witt_mul(wa, wb).eq(from_int(h, a * b, N))


def test_witt_ring_axioms_over_extension_field():
    pr = Params.create(3, 2, 2)
    h = FiniteFieldHandle(fq_field(pr))
    rng = random.Random(32)
    elts = list(fq_field(pr).elements())

    def rand_vec():
        return from_expansion(h, tuple(rng.choice(elts) for _ in range(3)))

    for _ in range(10):
        a, b, c = rand_vec(), rand_vec(), rand_vec()
        assert witt_add(a, b).eq(witt_add(b, a))
        assert witt_mul(a, b).eq(witt_mul(b, a))
        assert witt_add(witt_add(a, b), c).eq(witt_add(a, witt_add(b, c)))
        assert witt_mul(witt_mul(a, b), c).eq(witt_mul(a, witt_mul(b, c)))
        lhs = witt_mul(a, witt_add(b, c))
        rhs = witt_add(witt_mul(a, b), witt_mul(a, c))
        assert lhs.eq(rhs)
        assert witt_add(a, witt_mul(a, from_int(h, -1, 3))).is_zero()
        assert witt_add(a, witt_zero(h, 3)).eq(a)


def test_eq_rejects_a_vector_of_another_witt_ring():
    # eq compares coordinates: over another handle or at another length
    # it raises as the arithmetic does, instead of reading only the common
    # prefix ([1] and [1] + 3[2] at (3,1,1) compared equal)
    h = handle(3)
    F = h.field
    one = from_expansion(h, (F.from_int(1),))
    for other in (from_expansion(h, (F.from_int(1), F.from_int(2))),
                  from_expansion(handle(3), (F.from_int(1),))):
        with pytest.raises(ValueError, match="different Witt rings"):
            one.eq(other)
    assert one.eq(from_expansion(h, (F.from_int(1),)))


def test_teichmuller_multiplicativity_and_digit0_addition():
    pr = Params.create(2, 1, 1)
    h = FiniteFieldHandle(fq_field(pr))
    F = fq_field(pr)
    one = F.one
    for x in F.elements():
        for y in F.elements():
            tx, ty = teich(h, x, 3), teich(h, y, 3)
            assert witt_mul(tx, ty).eq(teich(h, x * y, 3))
            assert witt_add(tx, ty).digits()[0] == x + y


def test_expansion_coordinate_roundtrip():
    pr = Params.create(3, 2, 2)
    h = FiniteFieldHandle(fq_field(pr))
    rng = random.Random(33)
    elts = list(fq_field(pr).elements())
    for _ in range(20):
        digits = tuple(rng.choice(elts) for _ in range(4))
        w = from_expansion(h, digits)
        assert w.coordinates().expansion().digits() == digits
        assert w.coordinates().digits() == digits


def test_from_expansion_two_digit_coordinates():
    # [a] + p[b] has Witt coordinates (a, b^p)
    pr = Params.create(3, 1, 1)
    h = FiniteFieldHandle(fq_field(pr))
    F = fq_field(pr)
    a, b = F.from_int(2), F.from_int(2)
    w = from_expansion(h, (a, b), 2).coordinates()
    assert w.comps == (a, b ** 3)


def test_oe_scalar_embedding_is_ring_hom():
    pr = Params.create(3, 2, 2)
    ring = oe_ring(pr)
    h = FiniteFieldHandle(fq_field(pr))
    rng = random.Random(34)
    for _ in range(15):
        a = ring(tuple(rng.randrange(27) for _ in range(2)), 3)
        b = ring(tuple(rng.randrange(27) for _ in range(2)), 3)
        wa, wb = from_oe_scalar(h, a), from_oe_scalar(h, b)
        assert witt_add(wa, wb).eq(from_oe_scalar(h, a + b))
        assert witt_mul(wa, wb).eq(from_oe_scalar(h, a * b))


def test_scalar_mul_matches_repeated_addition():
    pr = Params.create(3, 1, 1)
    ring = oe_ring(pr)
    h = FiniteFieldHandle(fq_field(pr))
    F = fq_field(pr)
    u = from_expansion(h, (F.from_int(2), F.from_int(1), F.from_int(2)))
    acc = witt_zero(h, 3)
    for _ in range(7):
        acc = witt_add(acc, u)
    assert witt_mul(from_oe_scalar(h, ring.from_int(7, 3)), u).eq(acc)


def _ref_eval_struct(terms, handle, xs, ys):
    """The full evaluation: every term multiplied out, zero values
    included.  Each coordinate of ``witt_add`` and ``witt_mul`` must agree
    with it on terms, window and band."""
    acc = handle.zero()
    one = PerfLaurent.one(handle.ring) if isinstance(handle, PerfHandle) \
        else handle.field.one
    pow_cache = {}

    def power(idx, val, e):
        key = (idx, e)
        got = pow_cache.get(key)
        if got is None:
            got = one
            base = val
            n = e
            while n:
                if n & 1:
                    got = got * base
                base = base * base if n > 1 else base
                n >>= 1
            pow_cache[key] = got
        return got

    N = len(xs)
    for ci, factors in terms:
        term = None
        for j, d in factors:
            val = xs[j] if j < N else ys[j - N]
            pw = power(j, val, d)
            term = pw if term is None else term * pw
        if term is None:
            term = one
        scaled = handle.zero()
        for _ in range(ci):
            scaled = scaled + term
        acc = acc + scaled
    return acc


_STRUCT_CASES = [(2, 3), (3, 3), (3, 4)]
_window = st.fractions(min_value=-3, max_value=4, max_denominator=9)


@st.composite
def perf_value(draw, ring):
    """A PerfLaurent of 0-2 terms (a third are zero), with negative
    exponents, an optional floor and w_hi of mixed denominators, and a band
    on either side of the ring's cap."""
    scale, f = ring.scale, ring.nvars
    elts = [e for e in ring.field.elements() if e]
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        e = (draw(st.integers(-2 * scale, 2 * scale)),) + tuple(
            draw(st.integers(-scale, scale)) for _ in range(f - 1))
        terms[e] = draw(st.sampled_from(elts))
    w_lo = draw(st.one_of(st.none(), _window.map(lambda x: min(x, 0))))
    w_hi = draw(st.one_of(st.none(), _window))
    band = draw(st.integers(ring.band_cap // 2, 2 * ring.band_cap))
    return PerfLaurent(ring, terms, w_lo, w_hi, band)


def _plans_and_terms(p, N):
    """(plan, terms mod p, polynomial) for each S_n, then each P_n."""
    sp = gen_structure_polys(p, N)
    return [(plan, _mod_p_terms(poly, p), poly) for plan, poly in zip(
        sp.sum_plans + sp.prod_plans, sp.sums + sp.prods, strict=True)]


def _both_evaluations(p, N, handle, xs, ys):
    """(coordinate, full evaluation of its polynomial) for each coordinate
    of witt_add, then of witt_mul, on the coordinate-form vectors xs and
    ys."""
    u, v = (WittVec(handle, N, WITT_COORDS, zs) for zs in (xs, ys))
    sp = gen_structure_polys(p, N)
    for got, polys in ((witt_add(u, v), sp.sums), (witt_mul(u, v), sp.prods)):
        for a, poly in zip(got.comps, polys, strict=True):
            yield a, _ref_eval_struct(_mod_p_terms(poly, p), handle, xs, ys)


def _same_perf(got, want):
    assert got.terms == want.terms
    assert (got.w_lo, got.w_hi, got.band) == \
        (want.w_lo, want.w_hi, want.band)


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p,N", _STRUCT_CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_eval_struct_matches_full_evaluation_over_perf(p, N, f, data):
    # skipping the terms with a zero value keeps the terms, and the window
    # rule gives the window and band the full evaluation gives
    handle = ainf_handle(Params.create(p, f, f, N=N, k=2))
    xs = tuple(data.draw(perf_value(handle.ring)) for _ in range(N))
    ys = tuple(data.draw(perf_value(handle.ring)) for _ in range(N))
    for got, want in _both_evaluations(p, N, handle, xs, ys):
        _same_perf(got, want)


@pytest.mark.parametrize("p,N", _STRUCT_CASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_eval_struct_matches_full_evaluation_over_field(p, N, data):
    F = fq_field(Params.create(p, 2, 2))
    handle = FiniteFieldHandle(F)
    elts = list(F.elements())
    xs = tuple(data.draw(st.sampled_from(elts)) for _ in range(N))
    ys = tuple(data.draw(st.sampled_from(elts)) for _ in range(N))
    for got, want in _both_evaluations(p, N, handle, xs, ys):
        assert got == want


@pytest.mark.parametrize("p,N", [(3, 3), (3, 4)])
def test_eval_struct_repeats_the_terms_of_coefficient_two(p, N):
    # S_n and P_n mod 3 have terms with c = 2: the sum takes them twice
    sp = gen_structure_polys(p, N)
    assert any(ci == 2 for poly in sp.sums + sp.prods
               for ci, _ in _mod_p_terms(poly, p))
    rng = random.Random(p * N)
    F = fq_field(Params.create(p, 2, 2))
    fh = FiniteFieldHandle(F)
    elts = [e for e in F.elements() if e]
    xs = tuple(rng.choice(elts) for _ in range(N))
    ys = tuple(rng.choice(elts) for _ in range(N))
    for got, want in _both_evaluations(p, N, fh, xs, ys):
        assert got == want
    ph = ainf_handle(Params.create(p, 1, 1, N=N, k=2))
    ring = ph.ring
    xs = tuple(PerfLaurent(ring, {(rng.randrange(-9, 10),): ring.field.one},
                           None, Fraction(rng.randrange(1, 9), 3))
               for _ in range(N))
    ys = tuple(PerfLaurent.monomial(ring, (Fraction(rng.randrange(4), 9),))
               for _ in range(N))
    for got, want in _both_evaluations(p, N, ph, xs, ys):
        _same_perf(got, want)


@pytest.mark.parametrize("p,N", _STRUCT_CASES)
def test_eval_struct_of_zero_values_keeps_the_full_window(p, N):
    # no term is live: the sum is zero, and over the perfectoid ring its
    # window and band are those of the full evaluation
    fh = FiniteFieldHandle(fq_field(Params.create(p, 2, 2)))
    zeros = (fh.zero(),) * N
    for got, want in _both_evaluations(p, N, fh, zeros, zeros):
        assert got == want == fh.zero()
    ph = ainf_handle(Params.create(p, 1, 1, N=N, k=2))
    vals = [PerfLaurent(ph.ring, {}, Fraction(-n, 9), Fraction(n + 1, 3),
                        ph.ring.band_cap // (n + 1))
            for n in range(2 * N)]
    for got, want in _both_evaluations(p, N, ph, vals[:N], vals[N:]):
        assert got.is_zero()
        _same_perf(got, want)


@pytest.mark.parametrize("p,N", [(3, 4), (2, 3)])
def test_one_kernel_per_witt_operation(p, N, monkeypatch):
    # the N coordinates of one witt_add or witt_mul share one kernel: the
    # values' denominator, windows and powers are formed once
    handle = ainf_handle(Params.create(p, 1, 1, N=N, k=2))
    ring = handle.ring
    u = from_expansion(handle, tuple(
        PerfLaurent.monomial(ring, (Fraction(n + 1, p),)) for n in range(N)))
    v = teich(handle, PerfLaurent(ring, {(1,): ring.field.one,
                                         (p,): ring.field.one}), N)
    calls = []
    kernel = PerfHandle.kernel

    def counted(h, vals):
        calls.append(len(vals))
        return kernel(h, vals)

    monkeypatch.setattr(PerfHandle, "kernel", counted)
    for op in (witt_add, witt_mul):
        calls.clear()
        got = op(u, v)
        assert len(got.comps) == N
        assert calls == [2 * N]


def test_witt_add_of_a_teichmuller_lift_skips_zero_terms(monkeypatch):
    # v = [y] has Witt coordinates (y, 0, 0, 0): the terms of S_n with a
    # Y_1..Y_3 factor are zero, and are not multiplied out
    handle = ainf_handle(Params.create(3, 1, 1, N=4))
    ring, F = handle.ring, handle.field
    u = from_expansion(handle, tuple(
        PerfLaurent.monomial(ring, (Fraction(n - 1, 3),),
                             F.from_int(1 + n % 2)) for n in range(4)))
    v = teich(handle, PerfLaurent.monomial(ring, (Fraction(1, 9),)), 4)
    calls = []

    def counted(name):
        method = getattr(PerfRing, name)

        def run(*args):
            calls.append(name)
            return method(*args)
        return run

    # the element products and closed-form powers on both sides: the walk
    # forms each node once, the reference every factor of every term
    for name in ("product", "mono_power"):
        monkeypatch.setattr(PerfRing, name, counted(name))
    got = witt_add(u, v)
    fast = len(calls)
    calls.clear()
    xs, ys = u.coordinates().comps, v.coordinates().comps
    sp = gen_structure_polys(3, 4)
    want = [_ref_eval_struct(_mod_p_terms(poly, 3), handle, xs, ys)
            for poly in sp.sums]
    assert 0 < fast < len(calls) / 2
    for a, b in zip(got.comps, want, strict=True):
        _same_perf(a, b)


def _struct_eval_agrees(p, N, seed):
    # witt_add and witt_mul read the plans of the cached StructurePolys;
    # each coordinate must be the full evaluation of its polynomial
    handle = ainf_handle(Params.create(p, 1, 1, N=N, k=2))
    ring, rng = handle.ring, random.Random(seed)
    elts = [e for e in ring.field.elements() if e]

    def digit(n):
        return PerfLaurent(ring, {(rng.randrange(-9, 10) * p ** n,):
                                  rng.choice(elts)},
                           None, Fraction(rng.randrange(1, 9), 3))
    u = from_expansion(handle, tuple(digit(n) for n in range(N)))
    v = from_expansion(handle, tuple(digit(n) for n in range(N)))
    xs, ys = u.coordinates().comps, v.coordinates().comps
    sp = gen_structure_polys(p, N)
    for got, polys in ((witt_add(u, v), sp.sums), (witt_mul(u, v), sp.prods)):
        for a, poly in zip(got.comps, polys, strict=True):
            _same_perf(a, _ref_eval_struct(_mod_p_terms(poly, p), handle,
                                           xs, ys))


def test_structure_plans_survive_clear_caches():
    # the plans live on StructurePolys: after clear_caches frees the
    # polynomials and other ones are built, nothing stale is read
    import mvphi
    _struct_eval_agrees(3, 4, 1)
    mvphi.clear_caches()
    _struct_eval_agrees(2, 3, 2)
    mvphi.clear_caches()
    _struct_eval_agrees(3, 4, 3)


FROM_INT_CACHE_CHECK = """
import mvphi
from mvphi.coeff import Params, fq_field, oe_ring
from mvphi.witt import FiniteFieldHandle, from_int
pr = Params.create(3, 1, 1)
handle = FiniteFieldHandle(fq_field(pr))
from_int(handle, -1, 3)
before = mvphi.cache_info()["coeff.OERing.raw_teich"]
for _ in range(5):
    from_int(handle, -1, 3)
after = mvphi.cache_info()["coeff.OERing.raw_teich"]
assert after.currsize == before.currsize, (before, after)
assert after.hits > before.hits and after.misses == before.misses
assert handle.field.oe is oe_ring(pr)
"""


def test_from_int_lifts_on_the_fields_own_ring():
    # a fresh interpreter, so that the lifts other tests cached do not count
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-c", FROM_INT_CACHE_CHECK],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_teich_and_zero_are_expansions_padded_with_zeros():
    # the reference: x (or nothing) followed by prec - 1 (or prec) zeros
    fh = handle(3, 2)
    ph = ainf_handle(Params.create(3, 1, 1, N=4))
    x = fh.field((2, 1))
    y = PerfLaurent.monomial(ph.ring, (Fraction(1, 9),))
    for h, v in ((fh, x), (ph, y)):
        for prec in (1, 2, 4):
            t, z = teich(h, v, prec), witt_zero(h, prec)
            for w, want in ((t, (v,) + (h.zero(),) * (prec - 1)),
                            (z, (h.zero(),) * prec)):
                assert (w.form, w.prec) == (TEICH_EXPANSION, prec)
                assert [_facts(a) for a in w.comps] == \
                    [_facts(b) for b in want]


def _facts(a):
    if isinstance(a, PerfLaurent):
        return a.terms, a.w_lo, a.w_hi, a.band
    return a.coords
