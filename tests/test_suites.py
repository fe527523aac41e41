import random

import pytest
from hypothesis import given, settings, strategies as st

from mvphi.coeff import Params, ok_ring
from mvphi.mvring import (MvLaurent, norm_s, member, apply_gamma,
                          TAG_DAGGER)
from mvphi.suites import SUITES, run_suite, rand_mv


def test_run_suite_rejects_unknown():
    pr = Params.create(3, 1, 1)
    with pytest.raises(ValueError):
        run_suite("nonsense", pr)


@pytest.mark.parametrize("name", SUITES)
def test_each_suite_passes_on_smallest_params(name):
    pr = Params.create(3, 1, 1)
    rep = run_suite(name, pr, seed=11)
    assert rep["ok"], [a for a in rep["assertions"] if not a["ok"]]
    assert rep["suite"] == name
    assert all("id" in a for a in rep["assertions"])


def test_suite_reports_are_deterministic():
    pr = Params.create(2, 1, 1)
    a = run_suite("decompose", pr, seed=3)
    b = run_suite("decompose", pr, seed=3)
    assert a == b


def test_gamma_preserves_dagger_membership():
    pr = Params.create(3, 2, 2)
    okr = ok_ring(pr)
    rng = random.Random(70)
    a = okr.random_unit(rng)
    s = 2
    hits = 0
    for _ in range(12):
        x = rand_mv(pr, rng)
        if not member(x, TAG_DAGGER, s):
            continue
        assert member(apply_gamma(a, x), TAG_DAGGER, s)
        hits += 1
    assert hits >= 3


@given(st.integers(-4, 6), st.integers(0, 2), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_monomial_norm_formula(n0, v, s):
    from fractions import Fraction
    pr = Params.create(3, 1, 1)
    x = MvLaurent.monomial(pr, n0, None, 3 ** v)
    nv = norm_s(x, s)
    assert nv.val == Fraction(v) + Fraction(n0, s)
    assert nv.certified
