import random

import pytest

from mvphi.coeff import Params, oe_ring, ok_ring
from mvphi.mvring import MvLaurent
from mvphi.phimod import (PhiModule, TAG_AMV, TAG_A0, TAG_DAGGER,
                          mat_identity, mat_mul, mat_eq_within,
                          is_etale, commutation_holds, base_change,
                          unramified_char, oc_certificate_check,
                          integral_bound, tensor)
from mvphi.errors import NotAUnit, ZeroDeterminant


def params(p, f, h, **kw):
    return Params.create(p, f, h, **kw)


def mono(pr, n0, cross=None, scalar=1):
    return MvLaurent.monomial(pr, n0, cross, scalar)


def unit_scalar(pr, u):
    return oe_ring(pr).from_int(u, pr.N)


def test_is_etale_identity_and_p():
    pr = params(3, 1, 1)
    m = PhiModule(1, TAG_AMV, mat_identity(pr, 1))
    assert is_etale(m)
    mp = PhiModule(1, TAG_AMV, [[mono(pr, 0, None, 3)]])
    assert not is_etale(mp)
    mp0 = PhiModule(1, TAG_A0, [[mono(pr, 0, None, 3)]])
    assert not is_etale(mp0)
    mpd = PhiModule(1, TAG_DAGGER, [[mono(pr, 0, None, 3)]], s=1)
    assert not is_etale(mpd)


def test_is_etale_tag_dependence():
    pr = params(3, 1, 1)
    x = mono(pr, 2, None, 2)  # 2 Y^2: unit in the Laurent ring only
    assert is_etale(PhiModule(1, TAG_AMV, [[x]]))
    assert not is_etale(PhiModule(1, TAG_A0, [[x]]))
    assert not is_etale(PhiModule(1, TAG_DAGGER, [[x]], s=1))
    u = MvLaurent.one(pr) + mono(pr, -1, None, 3)  # 1 + p/Y: dagger s=1 edge
    assert is_etale(PhiModule(1, TAG_AMV, [[u]]))
    assert not is_etale(PhiModule(1, TAG_DAGGER, [[u]], s=1))
    assert is_etale(PhiModule(1, TAG_DAGGER, [[u]], s=2))


def test_unramified_char():
    pr = params(3, 2, 2)
    okr = ok_ring(pr)
    rng = random.Random(60)
    samples = [okr.random_unit(rng) for _ in range(2)]
    m = unramified_char(pr, unit_scalar(pr, 2), samples)
    assert m.rank == 1
    assert is_etale(m)
    assert commutation_holds(m)
    rep = oc_certificate_check(m, mat_identity(pr, 1), 1)
    assert rep["ok"] and rep["s"] == 1
    with pytest.raises(NotAUnit):
        unramified_char(pr, unit_scalar(pr, 3))


def test_base_change_identity_and_composition():
    pr = params(3, 1, 1)
    okr = ok_ring(pr)
    rng = random.Random(61)
    a = okr.random_unit(rng)
    lam = unit_scalar(pr, 2)
    m = unramified_char(pr, lam, [a])
    m_id = base_change(m, mat_identity(pr, 1))
    assert mat_eq_within(m_id.P, m.P)
    U = [[mono(pr, 2)]]
    m1 = base_change(m, U)
    # d=1: P becomes lam * phi_q(Y^2)/Y^2
    assert is_etale(m1)
    assert commutation_holds(m1)
    V = [[mono(pr, 1)]]
    m2 = base_change(m1, V)
    m12 = base_change(m, mat_mul(U, V))
    assert mat_eq_within(m2.P, m12.P)


def test_base_change_preserves_etale_rank2():
    pr = params(3, 1, 1)
    okr = ok_ring(pr)
    rng = random.Random(62)
    a = okr.random_unit(rng)
    one = MvLaurent.one(pr)
    zero = MvLaurent.zero(pr)
    P = [[mono(pr, 1), one], [zero, mono(pr, 0, None, 2)]]
    G = mat_identity(pr, 2)
    m = PhiModule(2, TAG_AMV, P, [(a, G)])
    assert is_etale(m)
    U = [[one, mono(pr, 1)], [zero, one]]
    m2 = base_change(m, U)
    assert is_etale(m2)
    assert commutation_holds(m2) == commutation_holds(m)


def test_commutation_invariant_unramified():
    pr = params(3, 2, 2)
    okr = ok_ring(pr)
    rng = random.Random(63)
    m = unramified_char(pr, unit_scalar(pr, 4),
                        [okr.random_unit(rng) for _ in range(2)])
    assert commutation_holds(m)
    # breaking a sample must be detected
    bad = [(a, [[mono(pr, 1)]]) for a, _ in m.action[:1]]
    m_bad = PhiModule(1, TAG_AMV, m.P, bad)
    assert not commutation_holds(m_bad)


def test_oc_certificate_monotone_and_failure():
    pr = params(3, 1, 1)
    m = unramified_char(pr, unit_scalar(pr, 2))
    rep1 = oc_certificate_check(m, mat_identity(pr, 1), 1)
    rep2 = oc_certificate_check(m, mat_identity(pr, 1), 2)
    assert rep1["ok"] and rep2["ok"]
    # P with a term needing s >= 2: p * (1 + p Y^-3) style
    x = MvLaurent.one(pr).scalar_mul(2) + mono(pr, -3, None, 3)
    m2 = PhiModule(1, TAG_AMV, [[x]])
    r1 = oc_certificate_check(m2, mat_identity(pr, 1), 1)
    assert r1["ok"] and r1["s"] >= 3
    # sum p^n Y^{-20 n^2} needs s >= 40, past the search bound s + 16
    terms = {(-20 * n * n, ()): ((3 ** n),) for n in range(3)}
    bad = MvLaurent(pr, pr.N, terms)
    m3 = PhiModule(1, TAG_AMV, [[MvLaurent.one(pr)]])
    r2 = oc_certificate_check(m3, [[MvLaurent.one(pr) + bad - bad]], 1)
    assert r2["ok"]
    m4 = PhiModule(1, TAG_AMV, [[bad]])
    r3 = oc_certificate_check(m4, mat_identity(pr, 1), 1)
    assert not r3["ok"] and "witness" in r3 and r3["s"] == 17


def test_is_etale_uncertified_window():
    from mvphi.errors import Uncertified
    pr = params(3, 1, 1)
    # all terms divisible by p, finite window: the lead cannot be resolved
    x = MvLaurent(pr, pr.N, {(0, ()): (3,)}, 0, 4, pr.B)
    with pytest.raises(Uncertified):
        is_etale(PhiModule(1, TAG_AMV, [[x]]))


def test_phi_equivariance_includes_q_version():
    from mvphi.embed import verify_phi_equivariance
    pr = params(3, 2, 2)
    rep = verify_phi_equivariance(MvLaurent.monomial(pr, 1))
    assert rep["ok"] and rep["congruent_q"]


def test_integral_bound_examples():
    pr = params(3, 1, 1)
    assert integral_bound(PhiModule(1, TAG_AMV, mat_identity(pr, 1))) == 0
    m = PhiModule(1, TAG_AMV, [[mono(pr, 3, None, 2)]])
    assert integral_bound(m) == 3
    zero = MvLaurent.zero(pr)
    diag = PhiModule(2, TAG_AMV, [[mono(pr, 1), zero],
                                  [zero, mono(pr, 2)]])
    assert integral_bound(diag) == 3
    with pytest.raises(ZeroDeterminant):
        integral_bound(PhiModule(1, TAG_AMV, [[mono(pr, 0, None, 3)]]))


def test_integral_bound_random_diag_plus_unit():
    pr = params(3, 2, 2)
    rng = random.Random(64)
    for _ in range(10):
        d = rng.randrange(1, 4)
        zero = MvLaurent.zero(pr)
        P = [[zero] * d for _ in range(d)]
        want = 0
        for i in range(d):
            e = rng.randrange(0, 3)
            u = rng.randrange(1, 3)
            want += e
            P[i][i] = mono(pr, e, None, u)
        m = PhiModule(d, TAG_AMV, P)
        assert integral_bound(m) == want


def test_tensor():
    pr = params(3, 1, 1)
    okr = ok_ring(pr)
    rng = random.Random(65)
    a = okr.random_unit(rng)
    m1 = unramified_char(pr, unit_scalar(pr, 2), [a])
    m2 = unramified_char(pr, unit_scalar(pr, 4), [a])
    t = tensor(m1, m2)
    assert t.rank == 1
    assert t.P[0][0].coefficient(0) == (8 % 27,)
    assert is_etale(t)
    assert len(t.action) == 1
    # integral bounds add on diagonal examples
    zero = MvLaurent.zero(pr)
    d1 = PhiModule(2, TAG_AMV, [[mono(pr, 1), zero], [zero, mono(pr, 1)]])
    d2 = PhiModule(1, TAG_AMV, [[mono(pr, 2)]])
    assert integral_bound(tensor(d1, d2)) == \
        1 * integral_bound(d1) + 2 * integral_bound(d2)


def test_tensor_trivial_factor():
    pr = params(3, 1, 1)
    triv = unramified_char(pr, unit_scalar(pr, 1))
    m = unramified_char(pr, unit_scalar(pr, 2))
    t = tensor(triv, m)
    assert mat_eq_within(t.P, m.P)
