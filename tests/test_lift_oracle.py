"""The precision lift oracle: each operation at (N, M) = (3, 12) against the
same operation on a lift of its input at (N, M) = (5, 30); for the
Frobenius-basis decomposition, each component against its lift.

The high input lifts the low one: each coefficient plus a multiple of p^3,
and, when the low input has a window, extra terms at or above its w_hi.  So
the high result stands for the truth, and the low result must keep its
claims (Caruso, Roe & Vaccon, *Tracking p-adic precision*, LMS J. Comput.
Math. 2014):

- its coefficients agree with the high ones mod p^prec below its w_hi;
- its support is at or above its w_lo;
- a certified norm (s = 2) equals the high result's norm.

The inputs are 30 fixed-seed 3-term elements per grid point and exponent
range, with pure-Y exponents >= 0 or in -2..3.  An error at either
precision fails the case too.  The recomposition sum_a a * phi(g_a) takes
q of them at a time: component j of recomposition k is input (k + j) mod 30.

The perfectoid embedding iota is checked the same way, against a high
side at (N, M, B, k) = (5, 16, 18, 5): its coefficients, over the exact
pure exponents, agree mod p^3 wherever the low result's horizons claim
them.
"""

import random

import pytest

from fractions import Fraction

from mvphi.coeff import Params, oe_ring, ok_ring
from mvphi.embed import iota
from mvphi.errors import BandOverflow, WindowTooSmall
from mvphi.mvring import (MvLaurent, apply_gamma, apply_phi, apply_phi_q,
                          invert_unit, norm_s, phi_basis, phi_decompose,
                          recompose)


GRID = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2)]
RANGES = {"nonneg": (0, 3), "mixed": (-2, 3)}
LOW = dict(N=3, M=12)
# the band bounds cross exponents only: the high one admits the powers of
# invert_unit's series up to t^5
HIGH = dict(N=5, M=30, B=18)
# iota's high side: k = 5 holds the roots of depth N, and M = 16 keeps the
# fixpoint's set-up short
IOTA_HIGH = dict(N=5, M=16, B=18, k=5)
INPUTS = 30


def _unit(pr):
    return ok_ring(pr)((pr.p + 1,) + (1,) * (pr.f - 1))


def _one_plus_p(x):
    pr = x.params
    return MvLaurent.one(pr) + x.scalar_mul((pr.p,) + (0,) * (pr.h - 1))


OPS = {
    "phi": apply_phi,
    "phi_q": apply_phi_q,
    "gamma": lambda x: apply_gamma(_unit(x.params), x),
    "invert": lambda x: invert_unit(_one_plus_p(x)),
    "norm": lambda x: x,
}


def _key(rng, f, lo, hi):
    d = [rng.randint(lo, hi) for _ in range(f)]
    return sum(d), tuple(d[1:])


def _inputs(p, f, h, lo, hi, high=HIGH):
    """(low input, high input) pairs: the high one is a lift of the low."""
    rng = random.Random(7)
    low, high = Params.create(p, f, h, **LOW), Params.create(p, f, h, **high)
    out = []
    for _ in range(INPUTS):
        terms = {}
        while len(terms) < 3:
            c = tuple(rng.randrange(p ** 3) for _ in range(h))
            if any(c):
                terms[_key(rng, f, lo, hi)] = c
        w_hi = None
        if rng.random() < 0.5:
            w_hi = max(k[0] for k in terms) + rng.randint(1, 3)
        lift = {k: tuple(a + p ** 3 * rng.randrange(p ** 2) for a in c)
                for k, c in terms.items()}
        if w_hi is not None:
            for _ in range(2):
                _, cross = _key(rng, f, lo, hi)
                lift[(w_hi + rng.randint(0, 2), cross)] = \
                    (rng.randrange(1, p ** 5),) + (0,) * (h - 1)
        out.append((MvLaurent(low, low.N, terms, None, w_hi),
                    MvLaurent(high, high.N, lift)))
    return out


def _claims_hold(lo, hi):
    m = lo.params.p ** lo.prec
    for k in set(lo.terms) | set(hi.terms):
        if lo.w_hi is None or k[0] < lo.w_hi:
            assert [a % m for a in lo.coefficient(*k)] == \
                [b % m for b in hi.coefficient(*k)], ("coefficient", k)
    assert all(k[0] >= lo.w_lo for k in lo.terms), ("floor", lo.w_lo)
    nl = norm_s(lo, 2)
    if nl.certified:
        assert nl.val == norm_s(hi, 2).val, ("norm", nl)


_FLOOR = ("invert_unit's monomial factor claims the floor 0, so images of "
          "negative exponents claim too wide a window")
_GEOM = ("sparse.geometric leaves out the first power that is zero in its "
         "window, and that power's narrower window with it")
_BAND = ("invert_unit's series forms a power that is 0 mod p^N, and its "
         "cross exponents pass the band")
_PHI_Q = "the phi_q table at (5,2,2) misses Y_i^q"
_LIFT = ("phi_decompose's comp_hi counts only the mod-p step: an unknown "
         "term of degree w >= w_hi lands in g at degree w/p at level 0, and "
         "the lower-degree terms of phi(Y) carry it down p - 1 degrees per "
         "pi-level")
_CROSS = ("at f = 2 the cross variables' images need the inverses of item 2 "
          "(not verified as the cause)")
_WINDOW = ("at f = 2 the phi table at the decompose window (W = 20) that "
           "recompose applies disagrees with the lift on 6 of 30 mixed "
           "inputs even with the floor and the series mended, where the "
           "M = 12 table agrees on 30 of 30 at (3,2,2) and 29 of 30 at "
           "(5,2,2)")
_IOTA = ("the generator images claim too wide a horizon: at (3,1,1) and "
         "N = 3, y_0 carries 9 [Y^(7/9)] at level 2 below H[2] = 4/3, a "
         "coefficient that is 0 mod 27 at N = 4 and 5; unchanged at M = 24 "
         "and 40, so not the degree window (cause not established)")


def _xfail(raises, *why, item=2):
    return pytest.mark.xfail(strict=True, raises=raises,
                             reason=f"ROADMAP item {item}: " + "; ".join(why))


# (point, range, operation) -> the mark of a known failure
XFAIL = {}
for _pfh in GRID:
    XFAIL[_pfh, "mixed", "gamma"] = _xfail(AssertionError, _FLOOR)
    for _op in ("phi", "phi_q"):
        XFAIL[_pfh, "mixed", _op] = _xfail(AssertionError, _FLOOR, _GEOM)
for _pfh in GRID[:2]:
    XFAIL[_pfh, "mixed", "invert"] = _xfail(AssertionError, _GEOM)
for _pfh in GRID[2:]:
    XFAIL[_pfh, "nonneg", "invert"] = _xfail(BandOverflow, _BAND)
    XFAIL[_pfh, "mixed", "invert"] = _xfail((AssertionError, BandOverflow),
                                            _BAND, _GEOM)
for _range in RANGES:
    XFAIL[GRID[3], _range, "phi_q"] = _xfail(WindowTooSmall, _PHI_Q)


def _cases():
    for p, f, h in GRID:
        for rname in RANGES:
            for op in OPS:
                mark = XFAIL.get(((p, f, h), rname, op), ())
                yield pytest.param((p, f, h), rname, op, marks=mark,
                                   id=f"{p}{f}{h}-{rname}-{op}")


@pytest.mark.parametrize("pfh,rname,op", _cases())
def test_low_precision_results_keep_their_claims(pfh, rname, op):
    fn = OPS[op]
    for x_lo, x_hi in _inputs(*pfh, *RANGES[rname]):
        _claims_hold(fn(x_lo), fn(x_hi))


# (point, range, windowed) -> the mark of a known failure: every case but
# the exact inputs at f = 1
DECOMPOSE_XFAIL = {}
for _pfh in GRID:
    for _range in RANGES:
        if _pfh[1] == 1:
            DECOMPOSE_XFAIL[_pfh, _range, True] = _xfail(AssertionError, _LIFT)
        else:
            DECOMPOSE_XFAIL[_pfh, _range, False] = _xfail(AssertionError,
                                                          _CROSS)
            DECOMPOSE_XFAIL[_pfh, _range, True] = _xfail(AssertionError,
                                                         _LIFT, _CROSS)


def _decompose_cases():
    for p, f, h in GRID:
        for rname in RANGES:
            for windowed in (False, True):
                mark = DECOMPOSE_XFAIL.get(((p, f, h), rname, windowed), ())
                kind = "windowed" if windowed else "exact"
                yield pytest.param((p, f, h), rname, windowed, marks=mark,
                                   id=f"{p}{f}{h}-{rname}-{kind}")


@pytest.mark.parametrize("pfh,rname,windowed", _decompose_cases())
def test_decomposition_components_keep_their_claims(pfh, rname, windowed):
    # the same inputs as above, split by whether the input has a window
    for x_lo, x_hi in _inputs(*pfh, *RANGES[rname]):
        if (x_lo.w_hi is not None) == windowed:
            lo, hi = phi_decompose(x_lo), phi_decompose(x_hi)
            assert sorted(lo) == sorted(hi)
            for a in lo:
                _claims_hold(lo[a], hi[a])


# (point, range) -> the mark of a known failure: every mixed case but
# (3,1,1); at (2,1,1) it fails on the floor, at f = 2 on coefficients too
RECOMPOSE_XFAIL = {(GRID[0], "mixed"): _xfail(AssertionError, _FLOOR, _GEOM)}
for _pfh in GRID[2:]:
    RECOMPOSE_XFAIL[_pfh, "mixed"] = _xfail(AssertionError, _FLOOR, _GEOM,
                                            _WINDOW)


@pytest.mark.parametrize("pfh,rname", [
    pytest.param(pfh, rname, id=f"{''.join(map(str, pfh))}-{rname}",
                 marks=RECOMPOSE_XFAIL.get((pfh, rname), ()))
    for pfh in GRID for rname in RANGES])
def test_recompositions_keep_their_claims(pfh, rname):
    pairs = _inputs(*pfh, *RANGES[rname])
    lo_pr, hi_pr = pairs[0][0].params, pairs[0][1].params
    basis = phi_basis(lo_pr)
    for k in range(INPUTS):
        comps = [pairs[(k + j) % INPUTS] for j in range(len(basis))]
        _claims_hold(recompose({a: x for a, (x, _) in zip(basis, comps)},
                               lo_pr),
                     recompose({a: x for a, (_, x) in zip(basis, comps)},
                               hi_pr))


def _iota_claims_hold(lo, hi):
    """A difference mod p^3 of the two embeddings, at an exponent read as
    Fractions, of valuation w fails where the low result claims level w
    there: H[w] is None or above the exponent sum."""
    ring, m = oe_ring(lo.params), lo.params.p ** lo.prec

    def exact(x):
        scale = x.params.p ** x.params.k
        return {tuple(Fraction(e, scale) for e in k): c
                for k, c in x.terms.items()}
    a, b = exact(lo), exact(hi)
    zero = (0,) * lo.params.h
    for k in set(a) | set(b):
        d = [(u - v) % m for u, v in zip(a.get(k, zero), b.get(k, zero))]
        if any(d):
            w = ring.raw_val(d, lo.prec)
            assert lo.H[w] is not None and sum(k) >= lo.H[w], ("iota", k, w)


@pytest.mark.parametrize("pfh,rname", [
    pytest.param(pfh, rname, id=f"{''.join(map(str, pfh))}-{rname}",
                 marks=_xfail(AssertionError, _IOTA, item=1)
                 if pfh[0] == 3 else ())
    for pfh in GRID for rname in RANGES])
def test_the_embedding_keeps_its_claims(pfh, rname):
    for x_lo, x_hi in _inputs(*pfh, *RANGES[rname], high=IOTA_HIGH):
        _iota_claims_hold(iota(x_lo), iota(x_hi))
