"""The n-ary sums of TSeries, MvLaurent, WAlg and PerfLaurent against
the chain of binary additions they replace, the packed multiply-accumulate
``lincomb`` against the scalar multiples it adds, the packed product
``product`` against the pair loops it replaced, the floor drop of a
substitution table, the geometric series, and the protocol the four
classes share (``Terms``, ``_make``, ``ceil_cut`` and ``rescale``).

Each reference below is the code it replaced, written out: for a sum,
the terms of both operands summed mod p^prec and filtered by the meet of
the windows, with the precision, windows, band, horizons and floors met
as one ``+`` meets them (the n-ary sum must equal its left fold); for a
product, the pair loop each class had (``PerfLaurent`` on ``FField``
coefficients) for its keys and values, and ``_ref_pair_loop`` for its
order; for a drop, the per-ring scans of the atoms' floors.
"""

import functools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mvphi import sparse
from mvphi.coeff import FField, Params, ok_ring, oe_ring
from mvphi.embed import WAlg, iota, iota_context
from mvphi.errors import BandOverflow, NotAUnit, WindowTooSmall
from mvphi.iwasawa import TSeries, revert_series
from mvphi.mvring import (MvLaurent, _SubstImages, gamma_images, phi_images,
                          phi_q_images)
from mvphi.perfd import PerfLaurent, ainf_handle
from mvphi.sparse import bound_add, bound_min

P322 = Params.create(3, 2, 2)
P311 = Params.create(3, 1, 1)


def _ref_terms(params, a, b, prec, keep=None):
    ring = oe_ring(params)
    out = {}
    for src in (a, b):
        for k, c in src.items():
            if keep is not None and not keep(k):
                continue
            cur = out.get(k)
            out[k] = ring.raw_add(cur, c, prec) if cur is not None \
                else ring.raw_reduce(c, prec)
    return {k: c for k, c in out.items() if any(c)}


def _ref_tseries_add(x, y):
    prec, window = min(x.prec, y.prec), min(x.window, y.window)
    out = _ref_terms(x.params, x.terms, y.terms, prec,
                     lambda e: sum(e) < window)
    return TSeries._make(x.params, prec, window, out)


def _ref_mv_add(x, y):
    prec = min(x.prec, y.prec)
    w_hi = bound_min(x.w_hi, y.w_hi)
    out = _ref_terms(x.params, x.terms, y.terms, prec,
                     None if w_hi is None else lambda k: k[0] < w_hi)
    return MvLaurent._make(x.params, prec, out, min(x.w_lo, y.w_lo), w_hi,
                           min(x.band, y.band))


def _hmono(H):
    """The running minimum of the horizons, None unbounded."""
    out = list(H)
    for v in range(1, len(out)):
        out[v] = bound_min(out[v], out[v - 1])
    return tuple(out)


def _ref_walg_add(x, y):
    prec = min(x.prec, y.prec)
    H = _hmono(tuple(bound_min(a, b) for a, b in
                     zip(x.H[:prec], y.H[:prec])))
    out = _ref_terms(x.params, x.terms, y.terms, prec)
    floors = x.floors.meet(y.floors)
    return WAlg._make(x.params, prec, out, _numerators(H, floors.den), floors)


def _numerators(H, den):
    """The Fractions H as integers over den, which each divides."""
    out = tuple(None if h is None else h * den for h in H)
    assert all(h is None or h.denominator == 1 for h in out)
    return tuple(None if h is None else h.numerator for h in out)


def _fold(add, parts):
    return functools.reduce(add, parts)


# -- TSeries -----------------------------------------------------------------

@st.composite
def tseries(draw):
    window = draw(st.sampled_from([4, 7]))
    prec = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 27), st.integers(0, 27)), max_size=6))
    return TSeries(P322, prec, window, terms)


@settings(max_examples=150, deadline=None)
@given(st.lists(tseries(), min_size=1, max_size=6))
def test_tseries_sum_is_the_left_fold(parts):
    got, want = TSeries.sum(parts), _fold(_ref_tseries_add, parts)
    assert (got.terms, got.prec, got.window) == \
        (want.terms, want.prec, want.window)


# -- MvLaurent ---------------------------------------------------------------

@st.composite
def laurents(draw):
    band = draw(st.sampled_from([2, 6]))
    w_hi = draw(st.sampled_from([None, 4, -1]))
    prec = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-3, 6), st.tuples(st.integers(-band, band))),
        st.tuples(st.integers(0, 27), st.integers(0, 27)), max_size=6))
    return MvLaurent(P322, prec, terms, None, w_hi, band)


@settings(max_examples=150, deadline=None)
@given(st.lists(laurents(), min_size=1, max_size=6))
def test_mvlaurent_sum_is_the_left_fold(parts):
    got, want = MvLaurent.sum(parts), _fold(_ref_mv_add, parts)
    assert (got.terms, got.prec, got.w_lo, got.w_hi, got.band) == \
        (want.terms, want.prec, want.w_lo, want.w_hi, want.band)


# -- WAlg ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _iota_pool():
    """iota of Laurent elements at (3,1,1), exact and windowed, with p-
    multiples and lower precisions: varied horizons and floors."""
    pool = []
    for terms, w_hi in (({(0, ()): (1,), (1, ()): (2,)}, None),
                        ({(-1, ()): (3,), (2, ()): (1,)}, 3),
                        ({(1, ()): (1,), (3, ()): (5,)}, 5),
                        ({(0, ()): (4,), (-1, ()): (9,)}, 2)):
        x = iota(MvLaurent(P311, P311.N, terms, None, w_hi))
        pool += [x, x.scalar_mul((3,)), x.reduce(2), x.reduce(1)]
    return pool


def floor_values(fl):
    """(N, Lv, B, sigma, delta) of an ``embed.Floors`` as exact Fractions,
    read off its integer numerators."""
    return (fl.N, tuple(fl.at(m) for m in range(fl.N)), fl.at(fl.N),
            Fraction(fl.sig, fl.den), Fraction(fl.dlt, fl.den))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=6))
def test_walg_sum_is_the_left_fold(picks):
    pool = _iota_pool()
    parts = [pool[i] for i in picks]
    got, want = WAlg.sum(parts), _fold(_ref_walg_add, parts)
    assert (got.terms, got.prec, got.H) == (want.terms, want.prec, want.H)
    assert floor_values(got.floors) == floor_values(want.floors)


def test_iota_pool_has_horizons_and_mixed_floors():
    pool = _iota_pool()
    assert any(h is not None for x in pool for h in x.H)
    assert len({floor_values(x.floors) for x in pool}) > 4


# -- lincomb: the packed multiply-accumulate ---------------------------------

def _ref_lincomb(ring, parts, prec, keep=None):
    """What lincomb replaces: each c * t mod p^tp with its zero products
    dropped (the old ``smul``), the results added in order as the old
    n-ary ``add`` did, then reduced mod p^prec and filtered by keep."""
    out = {}
    for c, t, tp in parts:
        for k, v in t.items():
            prod = ring.raw_mul(c, v, tp)
            if any(prod):
                cur = out.get(k)
                out[k] = prod if cur is None else ring.raw_add(cur, prod, prec)
    return {k: r for k, c in out.items() if (keep is None or keep(k))
            and any(r := ring.raw_reduce(c, prec))}


# h = 1, 2, 3 and 4
LINCOMB_GRID = [Params.create(3, 1, 1), Params.create(5, 2, 2),
                Params.create(2, 3, 3), Params.create(2, 2, 4)]


@st.composite
def lincomb_cases(draw):
    """Parts over a few keys (so products collide), at precisions at and
    above the result's (prec up to 20 at p = 5), with zero scalars,
    scalars p^v * u whose products vanish mod p^tp, scalars above p^tp,
    the negation of an earlier part (so sums cancel), and a keep filter."""
    pr = draw(st.sampled_from(LINCOMB_GRID))
    ring, p, h = oe_ring(pr), pr.p, pr.h
    prec = draw(st.integers(1, 20 if p == 5 else 8))
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        tp = prec + draw(st.integers(0, 3))
        q = p ** tp
        coords = st.tuples(*[st.integers(0, q - 1)] * h)
        if parts and draw(st.integers(0, 3)) == 0:
            c, t, tp = draw(st.sampled_from(parts))
            t = {k: ring.raw_neg(v, tp) for k, v in t.items()}
        else:
            v = draw(st.integers(0, tp))
            c = ring.raw_reduce(tuple(x * p ** v for x in draw(coords)), tp)
            if draw(st.booleans()):
                # a scalar read off an element at a higher precision
                c = tuple(x + q * draw(st.integers(1, p ** 3)) for x in c)
            t = draw(st.dictionaries(st.integers(0, 7), coords, max_size=6))
            t = {k: v for k, v in t.items() if any(v)}
        parts.append((c, t, tp))
    if draw(st.booleans()):
        # the largest scalar and coordinates at every part's precision
        top = max(tp for _, _, tp in parts)
        parts.append(((p ** top - 1,) * h, {0: (p ** top - 1,) * h}, top))
    keep = draw(st.sampled_from([None, lambda k: k % 3 != 1]))
    return ring, parts, prec, keep


@settings(max_examples=400, deadline=None)
@given(lincomb_cases())
def test_lincomb_is_the_sum_of_the_scalar_multiples(case):
    ring, parts, prec, keep = case
    got = sparse.lincomb(ring, parts, prec, keep)
    want = _ref_lincomb(ring, parts, prec, keep)
    # the same terms in the same order: a key sits where its first
    # product nonzero mod p^tp occurs
    assert list(got.items()) == list(want.items())


def test_lincomb_slots_hold_the_largest_products_at_p5_prec20():
    # five parts of p^20 - 1 in every coordinate: each slot collects
    # sums of about 2^96, which no 64-bit slot holds
    ring = oe_ring(Params.create(5, 2, 2))
    top = (5 ** 20 - 1,) * 2
    parts = [(top, {0: top, 1: top}, 20)] * 5
    assert sparse.lincomb(ring, parts, 20) == \
        _ref_lincomb(ring, parts, 20)


# -- product: the packed pair product ----------------------------------------

def _ref_pair_loop(ring, a, b, prec, join=None, first=True):
    """The product of the term dicts a and b as a pair loop of ``raw_mul``
    and ``raw_add``: each pair in dict order, a outermost, at the key
    join(k1, k2) (the keys added when join is None), left out when that is
    None.  With ``first``, a key sits at its first pair kept and zero sums
    are dropped at the end (``MvLaurent.__mul__``'s loop as it was);
    without, the loop of the old ``sparse.mul``: a zero product skipped, a
    cancelled key removed, and placed again at the end when it comes
    back."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2)) if join is None \
                else join(k1, k2)
            if k is None:
                continue
            prod = ring.raw_mul(c1, c2, prec)
            cur = out.get(k)
            s = prod if cur is None else ring.raw_add(cur, prod, prec)
            if first:
                out[k] = s
            elif any(prod):
                if any(s):
                    out[k] = s
                elif cur is not None:
                    del out[k]
    return {k: c for k, c in out.items() if any(c)}


def _cut_band_join(cut, band):
    """Keys (n, c) added, the pair cut when n >= cut before its c is read,
    a kept c past the band raising ``BandOverflow``."""
    def join(k1, k2):
        n = k1[0] + k2[0]
        if cut is not None and n >= cut:
            return None
        c = k1[1] + k2[1]
        if abs(c) > band:
            raise BandOverflow(f"cross exponent {c} exceeds band {band}")
        return n, c
    return join


# h = 1, 2, 3 and 4; h >= 3 folds through OERing.fold
PRODUCT_GRID = [Params.create(3, 1, 1), Params.create(3, 2, 2),
                Params.create(2, 3, 3), Params.create(2, 2, 4)]


@st.composite
def product_cases(draw):
    """Two term dicts on a small key grid (so pairs collide and sums
    cancel), each at its own precision: the lower-precision factor's
    coordinates sit above p^prec of the product, and coefficients p^v * u
    make products vanish.  A window cut on n and a band on c."""
    pr = draw(st.sampled_from(PRODUCT_GRID))
    ring, p, h = oe_ring(pr), pr.p, pr.h
    sides = []
    for _ in range(2):
        tp = draw(st.integers(1, 4))
        q = p ** tp
        coords = st.builds(
            lambda xs, v: ring.raw_reduce(tuple(x * p ** v for x in xs), tp),
            st.tuples(*[st.integers(0, q - 1)] * h), st.integers(0, tp - 1))
        t = draw(st.dictionaries(st.tuples(st.integers(-2, 2),
                                           st.integers(-2, 2)),
                                 coords, max_size=6))
        sides.append((tp, {k: v for k, v in t.items() if any(v)}))
    (pa, a), (pb, b) = sides
    cut = draw(st.one_of(st.none(), st.integers(-3, 4)))
    band = draw(st.integers(0, 4))
    return ring, a, b, min(pa, pb), cut, band


def _product_outcome(fn, *args):
    try:
        return list(fn(*args).items())
    except BandOverflow as exc:
        return "BandOverflow", str(exc)


# 3 * 1 vanishes mod 3 at (0, 0) + (1, 0): that key is placed there,
# before (1, 0) + (1, 0), and filled by (1, 0) + (0, 0)
@example((oe_ring(P311), {(0, 0): (3,), (1, 0): (1,)},
          {(1, 0): (1,), (0, 0): (1,)}, 1, None, 4))
# at h = 3: (0, 0) + (1, 0) cancels (1, 0) + (0, 0), and comes back at
# (2, 0) + (-1, 0); every pair with (3, 2) is cut before its band is read
@example((oe_ring(PRODUCT_GRID[2]),
          {(0, 0): (1, 0, 0), (1, 0): (1, 0, 0), (2, 0): (1, 0, 0)},
          {(1, 0): (1, 0, 0), (0, 0): (1, 0, 0), (-1, 0): (1, 0, 0),
           (3, 2): (1, 1, 0)}, 1, 3, 1))
# the last pair overflows the band
@example((oe_ring(P322), {(0, 0): (1, 0), (0, 1): (0, 1)},
          {(1, 0): (2, 0), (0, 2): (1, 1)}, 2, None, 2))
@settings(max_examples=400, deadline=None)
@given(product_cases())
def test_product_is_the_first_pair_loop(case):
    # the same terms in the same order, or the same BandOverflow at the
    # same pair: a key sits at its first pair kept, a zero product too
    ring, a, b, prec, cut, band = case
    args = (ring, a, b, prec, _cut_band_join(cut, band))
    assert _product_outcome(sparse.product, *args) == \
        _product_outcome(_ref_pair_loop, *args)


def test_product_slots_hold_the_largest_products_at_p5_prec20():
    # five pairs of p^20 - 1 in every coordinate on each key
    ring = oe_ring(Params.create(5, 2, 2))
    top = (5 ** 20 - 1,) * 2
    a = {(i,): top for i in range(5)}
    b = {(-i,): top for i in range(5)}
    assert sparse.product(ring, a, b, 20) == _ref_pair_loop(ring, a, b, 20)


def _ref_scaled(x, c):
    """x.scalar_mul(c) for a raw c as it was: each product mod p^x.prec,
    zero products dropped, the metadata kept."""
    ring = oe_ring(x.params)
    terms = {k: r for k, v in x.terms.items()
             if any(r := ring.raw_mul(c, v, x.prec))}
    if isinstance(x, TSeries):
        return TSeries._make(x.params, x.prec, x.window, terms)
    return MvLaurent._make(x.params, x.prec, terms, x.w_lo, x.w_hi, x.band)


def _scaled_pairs(elements):
    """(c, x) pairs at (3,2,2): c is zero, a unit or p^v * u with
    0 < v < x.prec, reduced at x.prec as ``OERing.scalar`` reads it."""
    def pair(t):
        u0, u1, v, x = t
        q = 3 ** x.prec
        return ((u0 * 3 ** v) % q, (u1 * 3 ** v) % q), x
    return st.lists(st.tuples(st.integers(0, 26), st.integers(0, 26),
                              st.integers(0, 3), elements).map(pair),
                    min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(_scaled_pairs(tseries()))
def test_tseries_lincomb_is_scalar_mul_then_sum(pairs):
    got = TSeries.lincomb(pairs)
    want = _fold(_ref_tseries_add, [_ref_scaled(x, c) for c, x in pairs])
    assert (got.terms, got.prec, got.window) == \
        (want.terms, want.prec, want.window)


@settings(max_examples=150, deadline=None)
@given(_scaled_pairs(laurents()))
def test_mvlaurent_lincomb_is_scalar_mul_then_sum(pairs):
    got = MvLaurent.lincomb(pairs)
    want = _fold(_ref_mv_add, [_ref_scaled(x, c) for c, x in pairs])
    assert (got.terms, got.prec, got.w_lo, got.w_hi, got.band) == \
        (want.terms, want.prec, want.w_lo, want.w_hi, want.band)


P522 = Params.create(5, 2, 2)


def _ref_substitute(x, images):
    """x with T_j -> images[j], as the general substitution of series
    did it (``test_iwasawa`` reads it too): zero plus, for each term c T^e
    below the window, the monomial as a chain of products scaled by c
    mod its precision, summed as a chain of binary additions."""
    prec = min([x.prec] + [im.prec for im in images])
    window = min([x.window] + [im.window for im in images])
    parts = [TSeries(x.params, prec, window, {})]
    for e, c in x.terms.items():
        if sum(e) >= window:
            continue
        mono = TSeries.one(x.params, prec, window)
        for im, k in zip(images, e):
            for _ in range(k):
                mono = mono * im.truncate(window)
        parts.append(_ref_scaled(mono, c))
    return _fold(_ref_tseries_add, parts)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.tuples(st.integers(5 ** 6 - 40, 5 ** 6 - 1),
                                 st.integers(0, 5 ** 6 - 1)), max_size=6),
       st.lists(st.tuples(st.integers(1, 5),
                          st.integers(1, 24).filter(lambda u: u % 5),
                          st.integers(0, 24)), min_size=2, max_size=2))
@example({(0, 1): (15585, 799)}, [(1, 1, 0), (1, 1, 1)])
def test_substitute_reads_coefficients_at_the_image_precision(terms, ims):
    # h = 2: the coefficients sit near p^6, above p^prec of the reversion
    # of the images, and must be read mod p^prec, not packed as they stand
    x = TSeries(P522, 6, P522.M, terms)
    images = [TSeries(P522, prec, P522.M, {(1, 0) if j == 0 else (0, 1):
                                           (u, 0), (1, 1): (a, 1)})
              for j, (prec, u, a) in enumerate(ims)]
    G = revert_series(images, P522.M)
    got, want = x.substitute(G), _ref_substitute(x, G)
    assert (got.terms, got.prec, got.window) == \
        (want.terms, want.prec, want.window)


@pytest.mark.parametrize("one", [lambda pr: TSeries.one(pr, 3),
                                 MvLaurent.one], ids=["TSeries", "MvLaurent"])
def test_scalar_mul_rejects_a_scalar_of_another_ring(one):
    # an OEInt of another O_E was read coordinate by coordinate: at
    # (3,1,1) it lost a coordinate, at (3,2,2) it was taken as it stood
    c = oe_ring(Params.create(5, 2, 2))((7, 4), 3)
    for pr in (Params.create(3, 1, 1), Params.create(3, 2, 2)):
        with pytest.raises(ValueError, match="different O_E"):
            one(pr).scalar_mul(c)
    # the same ring, and an equal one built apart from it, are taken
    pr = Params.create(5, 2, 2)
    twin = FField(5, 2, pr.poly).oe
    assert twin is not oe_ring(pr)
    for scalar in (c, twin((7, 4), 3)):
        assert list(one(pr).scalar_mul(scalar).terms.values()) == [(7, 4)]


# -- the shared protocol: Terms, _make, ceil_cut and rescale ----------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(st.none(), st.integers(-10 ** 6, 10 ** 6)),
       st.integers(1, 10 ** 4), st.integers(1, 10 ** 4))
@example(-7, 3, 2)
@example(None, 9, 4)
def test_ceil_cut_is_the_ceiling(h, scale, den):
    want = None if h is None else math.ceil(Fraction(h * scale, den))
    assert sparse.ceil_cut(h, scale, den) == want


def test_rescale_keeps_none_and_returns_its_input_at_one():
    xs = (4, None, -3)
    assert sparse.rescale(xs, 1) is xs
    assert sparse.rescale(xs, 6) == [24, None, -18]


def test_the_sparse_classes_share_the_terms_protocol():
    ring = ainf_handle(P322).ring
    for x in (TSeries.one(P322, 2), MvLaurent.monomial(P322, 1),
              WAlg.teich_monomial(P311, 3, (1,)), WAlg.zero(P311, 3),
              PerfLaurent.one(ring), PerfLaurent.zero(ring)):
        cls = type(x)
        assert isinstance(x, sparse.Terms)
        assert not hasattr(x, "__dict__"), cls.__name__
        for attr in ("__add__", "__sub__", "__neg__", "sum", "scalar_mul",
                     "is_zero"):
            assert attr not in cls.__dict__, (cls.__name__, attr)
        assert (x - x).is_zero() and not (x + x - x - x).terms
        # a unit keeps every term, p kills every one mod p (PerfLaurent)
        assert x.scalar_mul(2).terms.keys() == x.terms.keys()
        assert not x.scalar_mul(x.params.p ** x.prec).terms


def _slots(x):
    return type(x), [getattr(x, k) for k in type(x).__slots__]


@pytest.mark.parametrize("g", [(3, 2, 2), (5, 2, 2)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_make_on_reduced_cut_terms_is_the_constructor(g, data):
    pr = Params.create(*g)
    q = pr.p ** pr.N
    coeffs = st.tuples(st.integers(0, 2 * q), st.integers(0, 2 * q))
    prec, window = data.draw(st.integers(1, pr.N)), data.draw(
        st.integers(1, 8))
    x = TSeries(pr, prec, window, data.draw(st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), coeffs,
        max_size=8)))
    assert _slots(TSeries._make(pr, prec, window, x.terms)) == _slots(x)
    band = data.draw(st.integers(2, 6))
    w_lo = data.draw(st.integers(-4, 0))
    w_hi = data.draw(st.sampled_from([None, 1, 4]))
    y = MvLaurent(pr, prec, data.draw(st.dictionaries(
        st.tuples(st.integers(0, 6), st.tuples(st.integers(-band, band))),
        coeffs, max_size=8)), w_lo, w_hi, band)
    assert _slots(MvLaurent._make(pr, prec, y.terms, w_lo, w_hi, band)) \
        == _slots(y)


@pytest.mark.parametrize("one, var", [
    (lambda pr: TSeries.one(pr, 3), lambda pr: TSeries.variable(pr, 0, 3)),
    (MvLaurent.one, lambda pr: MvLaurent.monomial(pr, 2)),
    (lambda pr: WAlg.one(pr, 3), lambda pr: WAlg.teich_monomial(pr, 3, (1,))),
], ids=["TSeries", "MvLaurent", "WAlg"])
def test_common_rejects_mixed_params_and_keeps_the_first(one, var):
    # a sum or product over different params raises; equal params objects
    # are compared by value, and the first one is kept
    a, b, a2 = (Params.create(p, 1, 1) for p in (3, 5, 3))
    assert a2 == a and a2 is not a
    x, y, z = one(a), one(b), var(a2)
    for op in (operator.add, operator.sub, operator.mul,
               lambda u, v: type(u).sum([u, u, v])):
        with pytest.raises(ValueError, match="different parameter sets"):
            op(x, y)
    assert (x + z).params is a and (z * x).params is a2
    assert (x * z).terms == var(a).terms


# -- evaluate and the geometric series --------------------------------------

def test_evaluate_without_terms_returns_zero_itself():
    zero = MvLaurent.zero(P322)
    sub = sparse.Substitution([MvLaurent.monomial(P322, 1)],
                              lambda: MvLaurent.one(P322))
    assert sparse.evaluate([], sub, zero, None) is zero


def _ref_geometric(u, start, cap):
    acc = pw = start
    for _ in range(cap):
        pw = pw * u
        if pw.is_zero():
            break
        acc = acc + pw
    else:
        raise RuntimeError("geometric series failed to terminate")
    return acc


def _nonzero_powers(u, start):
    n, pw = 0, start * u
    while not pw.is_zero():
        n, pw = n + 1, pw * u
    return n


def _check_geometric(u, start, same):
    n = _nonzero_powers(u, start)
    with pytest.raises(RuntimeError):
        sparse.geometric(u, start, n)
    for cap in (n + 1, n + 3):
        same(sparse.geometric(u, start, cap), _ref_geometric(u, start, cap))


@st.composite
def nilpotent_series(draw):
    """A series with zero constant term, so its powers leave the window."""
    s = draw(tseries())
    return TSeries(s.params, s.prec, s.window,
                   {e: c for e, c in s.terms.items() if any(e)})


@settings(max_examples=60, deadline=None)
@given(nilpotent_series())
def test_geometric_matches_the_loop_on_series(u):
    def same(a, b):
        assert (a.terms, a.prec, a.window) == (b.terms, b.prec, b.window)
    _check_geometric(u, TSeries.one(P322, 3, u.window), same)


@settings(max_examples=60, deadline=None)
@given(laurents())
def test_geometric_matches_the_loop_on_laurent_elements(x):
    # coefficients divisible by p and no cross exponent: the powers
    # vanish mod p^prec and stay inside the band
    u = MvLaurent(x.params, x.prec, {(n0, (0,)): tuple(3 * v for v in c)
                                     for (n0, _), c in x.terms.items()},
                  None, x.w_hi, x.band)

    def same(a, b):
        assert (a.terms, a.prec, a.w_lo, a.w_hi, a.band) == \
            (b.terms, b.prec, b.w_lo, b.w_hi, b.band)
    _check_geometric(u, MvLaurent.one(P322, 3, 6), same)


def test_geometric_matches_the_loop_on_iota_units():
    def same(a, b):
        assert (a.terms, a.prec, a.H) == (b.terms, b.prec, b.H)
        assert floor_values(a.floors) == floor_values(b.floors)
    y = iota(MvLaurent.monomial(P311, 1))
    tinv = WAlg.teich_monomial(P311, y.prec, (Fraction(-1),))
    u = (tinv * y) - WAlg.one(P311, y.prec)
    assert not u.is_zero()
    _check_geometric(-u, WAlg.one(P311, y.prec), same)


# -- PerfLaurent: the n-ary sum and the product ------------------------------

def _cut(ring, hi):
    return None if hi is None else math.ceil(hi * ring.scale)


def _perf(ring, terms, lo, hi, band):
    """The PerfLaurent with exactly these terms, window and band."""
    den = math.lcm(ring.scale, *(w.denominator for w in (lo, hi)
                                 if w is not None))
    return PerfLaurent._make(ring, terms, int(lo * den),
                             None if hi is None else int(hi * den), den, band)


def _ref_perf_add(x, y):
    """PerfLaurent.__add__ on FField coefficients, as it was."""
    F = x.ring.field
    hi = bound_min(x.w_hi, y.w_hi)
    lo, band = min(x.w_lo, y.w_lo), min(x.band, y.band)
    hs = _cut(x.ring, hi)
    out = {}
    for src in (x.terms, y.terms):
        for e, c in src.items():
            if hs is not None and sum(e) >= hs:
                continue
            cur = out.get(e)
            s = F(c) if cur is None else cur + F(c)
            if s:
                out[e] = s
            elif cur is not None:
                del out[e]
    return _perf(x.ring, {e: c.coords for e, c in out.items()}, lo, hi, band)


def _ref_perf_mul(x, y):
    """PerfLaurent.__mul__ on FField coefficients, as it was."""
    F = x.ring.field
    lo = x.w_lo + y.w_lo
    hi = bound_min(bound_add(x.w_lo, y.w_hi), bound_add(y.w_lo, x.w_hi))
    band = min(x.band, y.band)
    hs = _cut(x.ring, hi)
    out = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if hs is not None and sum(e) >= hs:
                continue
            if any(abs(v) > band for v in e[1:]):
                raise BandOverflow(
                    f"product cross exponents {e[1:]} exceed the band")
            prod = F(c1) * F(c2)
            cur = out.get(e)
            s = prod if cur is None else cur + prod
            if s:
                out[e] = s
            elif cur is not None:
                del out[e]
    return _perf(x.ring, {e: c.coords for e, c in out.items()}, lo, hi, band)


PERF_RING = ainf_handle(Params.create(3, 2, 2, k=2)).ring
_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def perf_laurents(draw):
    """Up to 5 terms on a coarse exponent grid (so products collide and
    cancel), an optional w_lo and w_hi with denominators up to 9, and a
    band just above the terms' cross exponents (so products overflow)."""
    ring = PERF_RING
    elts = [e for e in ring.field.elements() if e]
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-2, 2).map(lambda v: 3 * v),
                  st.integers(-2, 2).map(lambda v: 3 * v)),
        st.sampled_from(elts), max_size=5))
    cross = max((abs(e[1]) for e in terms), default=0)
    x = PerfLaurent(ring, terms, draw(st.one_of(st.none(), _fractions)),
                    draw(st.one_of(st.none(), _fractions)))
    band = draw(st.one_of(st.integers(cross, cross + 9),
                          st.just(ring.band_cap)))
    return _perf(ring, x.terms, x.w_lo, x.w_hi, band)


def _perf_outcome(fn, *args):
    try:
        r = fn(*args)
    except BandOverflow as exc:
        return "BandOverflow", str(exc)
    return list(r.terms.items()), r.w_lo, r.w_hi, r.band


@settings(max_examples=100, deadline=None)
@given(st.lists(perf_laurents(), min_size=1, max_size=6))
def test_perf_laurent_sum_is_the_left_fold(parts):
    got, want = PerfLaurent.sum(parts), _fold(_ref_perf_add, parts)
    assert (got.terms, got.w_lo, got.w_hi, got.band) == \
        (want.terms, want.w_lo, want.w_hi, want.band)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(PERF_RING.field.elements())),
                          perf_laurents()), min_size=1, max_size=5))
def test_perf_laurent_lincomb_is_the_sum_of_the_scaled_terms(pairs):
    # each term times its F_q scalar, then the old sum; a zero scalar
    # still meets the windows and band
    F = PERF_RING.field
    scaled = [_perf(x.ring, {e: r for e, v in x.terms.items()
                             if any(r := (c * F(v)).coords)},
                    x.w_lo, x.w_hi, x.band) for c, x in pairs]
    got = PerfLaurent.lincomb([(c.coords, x) for c, x in pairs])
    want = _fold(_ref_perf_add, scaled)
    assert (got.terms, got.w_lo, got.w_hi, got.band) == \
        (want.terms, want.w_lo, want.w_hi, want.band)


_ONE = PERF_RING.field.one


@settings(max_examples=150, deadline=None)
@given(perf_laurents(), perf_laurents())
# a key that cancels and comes back: (3, 0) is 1 - 1 + 1, placed first
# here and last by the old loop
@example(PerfLaurent(PERF_RING, {(0, 0): _ONE, (3, 0): _ONE, (6, 0): _ONE}),
         PerfLaurent(PERF_RING, {(3, 0): _ONE, (0, 0): -_ONE,
                                 (-3, 0): _ONE}))
def test_perf_laurent_product_is_the_old_pair_loop(x, y):
    # the old loop's terms, window and band, or the same BandOverflow at
    # the same pair; the terms in the order of the one product rule
    got, want = (_perf_outcome(operator.mul, x, y),
                 _perf_outcome(_ref_perf_mul, x, y))
    if "BandOverflow" in (got[0], want[0]):
        assert got == want
        return
    assert (dict(got[0]),) + got[1:] == (dict(want[0]),) + want[1:]
    hs = _cut(x.ring, want[2])
    first = _ref_pair_loop(
        x.ring.oe, x.terms, y.terms, 1,
        lambda k1, k2: None if hs is not None and sum(k1) + sum(k2) >= hs
        else tuple(a + b for a, b in zip(k1, k2)))
    assert got[0] == list(first.items())


def test_perf_laurent_product_cuts_and_overflows_at_the_old_pair():
    ring = PERF_RING
    one = ring.field.one
    x = PerfLaurent(ring, {(0, 0): one, (9, 9): one}, None, Fraction(3))
    y = PerfLaurent(ring, {(0, 0): one, (18, 6): one, (0, 3): one})
    # the product's w_hi is 3: (9, 9) * (18, 6) is cut before its cross
    # exponent 15 is read, and (9, 9) * (0, 3) overflows the band 10
    got = _perf(ring, x.terms, x.w_lo, x.w_hi, 10)
    with pytest.raises(BandOverflow, match=r"\(12,\) exceed the band"):
        got * y
    assert _perf_outcome(operator.mul, got, y) == _perf_outcome(
        _ref_perf_mul, got, y)


# -- WAlg: the product -------------------------------------------------------

@st.composite
def walgs(draw):
    """Up to 5 terms on a small exponent grid, coefficients often
    divisible by 3 and 9 (so products vanish mod p^prec)."""
    prec = draw(st.integers(1, 3))
    coord = st.sampled_from([0, 1, 2, 3, 6, 9, 18, 26])
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-1, 1)),
        st.tuples(coord, coord), max_size=5))
    return WAlg(P322, prec, terms)


_Y1, _Y0Y1 = (0, 81), (81, 81)


@settings(max_examples=150, deadline=None)
@given(walgs(), walgs())
# a key whose first pair vanishes: [0,1]Y0Y1 * [0,3]Y1 is 0 mod 3, and the
# key Y0Y1^2 sits there, before Y0^2Y1^2, which the old loop put first
@example(WAlg(P322, 1, {_Y0Y1: (0, 1), _Y1: (0, 1)}),
         WAlg(P322, 2, {_Y1: (0, 3), _Y0Y1: (0, 1)}))
# a key that cancels and comes back: (1, 0) is 1 - 1 + 1, placed first
# here and last by the old loop
@example(WAlg(P322, 1, {(0, 0): (1, 0), (1, 0): (1, 0), (2, 0): (1, 0)}),
         WAlg(P322, 1, {(1, 0): (1, 0), (0, 0): (2, 0), (-1, 0): (1, 0)}))
def test_walg_product_terms_are_the_old_pair_loop(x, y):
    # the old loop's keys and values; the order of the one product rule
    ring, prec = oe_ring(P322), min(x.prec, y.prec)
    got = (x * y).terms
    assert got == _ref_pair_loop(ring, x.terms, y.terms, prec, first=False)
    assert list(got.items()) == \
        list(_ref_pair_loop(ring, x.terms, y.terms, prec).items())


def test_walg_product_drops_zero_products_and_cancelled_keys():
    one, minus = (1, 0), (26, 0)
    x = WAlg(P322, 3, {(0, 0): one, (1, 0): one})        # 1 + T
    y = WAlg(P322, 3, {(1, 0): one, (0, 0): minus})      # T - 1
    # T * 1 and 1 * T land on (1, 0) first and cancel
    assert list((x * y).terms.items()) == [((0, 0), minus), ((2, 0), one)]
    three = WAlg(P322, 3, {(1, 0): (3, 0)})
    nine = WAlg(P322, 3, {(0, 1): (9, 9)})
    assert (three * nine).is_zero()
    assert sparse.product(oe_ring(P322), three.terms, nine.terms, 3) == {}


# -- the substitution tables' floor drop --------------------------------------

def _ref_level_floors(params, x):
    """mvring's per-pi-level support floors of an atom, as they were."""
    ring = oe_ring(params)
    prec = params.N
    fl = [None] * prec
    for (n0, _), c in x.terms.items():
        v = ring.raw_val(c, x.prec)
        if v < prec and (fl[v] is None or n0 < fl[v]):
            fl[v] = n0
    run = None
    out = []
    for v in range(prec):
        if fl[v] is not None:
            run = fl[v] if run is None else min(run, fl[v])
        cur = run
        if x.w_hi is not None:
            cur = x.w_hi if cur is None else min(cur, x.w_hi)
        out.append(cur)
    return out


def _ref_level_drop(table):
    """mvring's integer level drop, as it was."""
    worst = 0
    atoms = list(table.atoms)
    for i in range(table.params.f):
        atoms.append(table.inverse(i))
    for a in atoms:
        fl = _ref_level_floors(table.params, a)
        if fl[0] is None:
            continue
        for v in range(1, len(fl)):
            if fl[v] is not None:
                worst = max(worst, (fl[0] - fl[v] + v - 1) // v)
    return worst


def _ref_slope(ctx, f):
    """embed's digit-floor slope of the iota generators, as it was."""
    worst = Fraction(0)
    for a in list(ctx.atoms) + [ctx.inverse(i) for i in range(f)]:
        f0 = a.floors.at(0)
        if f0 is None:
            continue
        for v in range(1, a.prec):
            fv = a.floors.at(v)
            if fv is not None:
                worst = max(worst, (f0 - fv) / v)
    return worst


def _drop_outcome(fn):
    try:
        return fn()
    except (NotAUnit, WindowTooSmall) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("g", [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2)])
def test_drop_rounds_up_to_the_old_level_drop(g):
    pr = Params.create(*g)
    okr = ok_ring(pr)
    tables = [phi_images(pr), phi_q_images(pr)] + [
        gamma_images(pr, okr(c)) for c in
        ((1 + pr.p,) + (0,) * (pr.f - 1), (2,) + (1,) * (pr.f - 1))]
    for table in tables:
        assert _drop_outcome(lambda: math.ceil(table.drop())) == \
            _drop_outcome(lambda: _ref_level_drop(table))


@pytest.mark.parametrize("g", [(3, 1, 1), (3, 2, 2)])
def test_iota_drop_is_the_old_slope(g):
    pr = Params.create(*g)
    ctx = iota_context(pr)
    assert ctx.drop() == _ref_slope(ctx, pr.f)


def test_a_fractional_drop_rounds_the_clamp_up():
    # Y + 9 Y^-2 and its inverse Y^-1 - 9 Y^-4 drop 3 support in 2 levels
    atom = MvLaurent(P311, 3, {(1, ()): (1,), (-2, ()): (9,)})
    table = _SubstImages(P311, [atom], P311.M, 1)
    assert table.drop() == Fraction(3, 2)
    assert _ref_level_drop(table) == 2
    x = MvLaurent(P311, 3, {(1, ()): (1,)}, None, 5)
    got = table.apply(x)
    assert got.w_hi == 5 - (3 - 1) * 2 and type(got.w_hi) is int
