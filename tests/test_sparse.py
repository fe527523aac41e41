"""The n-ary sums of TSeries, MvLaurent and WAlg against the chain of
binary additions they replace, and the geometric series.

Each reference below is the two-operand addition written out: the terms
of both operands summed mod p^prec and filtered by the meet of the
windows, with the precision, windows, band, horizons and floors met as
one ``+`` meets them.  The n-ary sum must equal its left fold.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvphi import sparse
from mvphi.coeff import Params, oe_ring
from mvphi.embed import WAlg, _hmono, iota
from mvphi.iwasawa import TSeries
from mvphi.mvring import MvLaurent
from mvphi.sparse import bound_min

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
    return TSeries(x.params, prec, window, out, _normalized=True)


def _ref_mv_add(x, y):
    prec = min(x.prec, y.prec)
    w_hi = bound_min(x.w_hi, y.w_hi)
    out = _ref_terms(x.params, x.terms, y.terms, prec,
                     None if w_hi is None else lambda k: k[0] < w_hi)
    return MvLaurent(x.params, prec, out, min(x.w_lo, y.w_lo), w_hi,
                     min(x.band, y.band), _normalized=True)


def _ref_walg_add(x, y):
    prec = min(x.prec, y.prec)
    H = _hmono(tuple(bound_min(a, b) for a, b in
                     zip(x.H[:prec], y.H[:prec])))
    out = _ref_terms(x.params, x.terms, y.terms, prec)
    return WAlg(x.params, prec, out, H, x.floors.meet(y.floors),
                _normalized=True)


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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=6))
def test_walg_sum_is_the_left_fold(picks):
    pool = _iota_pool()
    parts = [pool[i] for i in picks]
    got, want = WAlg.sum(parts), _fold(_ref_walg_add, parts)
    assert (got.terms, got.prec, got.H) == (want.terms, want.prec, want.H)
    g, w = got.floors, want.floors
    assert (g.Lv, g.B, g.sigma) == (w.Lv, w.B, w.sigma)


def test_iota_pool_has_horizons_and_mixed_floors():
    pool = _iota_pool()
    assert any(h is not None for x in pool for h in x.H)
    assert len({(x.floors.Lv, x.floors.B, x.floors.sigma)
                for x in pool}) > 4


# -- evaluate and the geometric series --------------------------------------

def test_evaluate_without_terms_returns_zero_itself():
    zero = MvLaurent.zero(P322)
    powers = sparse.Powers([MvLaurent.monomial(P322, 1)],
                           lambda: MvLaurent.one(P322))
    assert sparse.evaluate([], powers, zero, None) is zero


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
    _check_geometric(u, MvLaurent.one(P322, 3, None, 6), same)


def test_geometric_matches_the_loop_on_iota_units():
    def same(a, b):
        assert (a.terms, a.prec, a.H) == (b.terms, b.prec, b.H)
        assert (a.floors.Lv, a.floors.B, a.floors.sigma) == \
            (b.floors.Lv, b.floors.B, b.floors.sigma)
    y = iota(MvLaurent.monomial(P311, 1))
    tinv = WAlg.teich_monomial(P311, y.prec, (Fraction(-1),))
    u = (tinv * y) - WAlg.one(P311, y.prec)
    assert not u.is_zero()
    _check_geometric(-u, WAlg.one(P311, y.prec), same)
