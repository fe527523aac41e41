"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test runs one criterion over the whole parameter grid
(p, f, h) in {(2,1,1), (3,1,1), (3,2,2), (5,2,2)} with N = 3, M = 12,
prints one PASS/FAIL line, and enforces the runtime budget.  All
comparisons are exact (integers and rationals); there are no tolerances
to calibrate.
"""

import random
import time
from fractions import Fraction

from mvphi.coeff import Params
from mvphi import suites as su
from mvphi.embed import verify_norm_compare
from mvphi.errors import Uncertified
from mvphi.perfd import (ainf_handle, pr_radius, BElt, member_B0r,
                         PerfLaurent)
from mvphi import witt as wt

GRID = [Params.create(p, f, h) for (p, f, h) in su.DEFAULT_GRID]

_RESULTS = []


def _criterion(num, label, budget, runner):
    t0 = time.time()
    ok, detail = runner()
    took = time.time() - t0
    verdict = "PASS" if ok and took < budget else "FAIL"
    line = (f"ACCEPTANCE {num:2d} {label}: {verdict} "
            f"({took:.2f}s / budget {budget}s)")
    print(line)
    _RESULTS.append(line)
    assert ok, f"criterion {num} failed: {detail}"
    assert took < budget, f"criterion {num} exceeded {budget}s ({took:.2f}s)"


def _grid_suite(name, **kw):
    def run():
        reports = []
        for pr in GRID:
            reports.append(su.run_suite(name, pr, seed=0, **kw))
        bad = [a for r in reports for a in r["assertions"] if not a["ok"]]
        return not bad, bad[:4]
    return run


def test_acceptance_01_frobenius_congruence():
    _criterion(1, "Frobenius congruence phi(Y_i) in Y_{i-1}^p + p*m", 30,
               _grid_suite("frobenius"))


def test_acceptance_02_action_congruences():
    _criterion(2, "unit-action congruences (generic and 1 + p^n)", 30,
               _grid_suite("action"))


def test_acceptance_03_norm_equivariance():
    _criterion(3, "norm equivariance |phi(x)|_ps = |x|_s = |gamma(x)|_s", 60,
               _grid_suite("norms", n_samples=300))


def test_acceptance_04_local_analyticity():
    _criterion(4, "analyticity bound |gamma(x) - x|_s <= p^(-1/(p-1))", 30,
               _grid_suite("analytic"))


def test_acceptance_05_iota_fixpoint():
    _criterion(5, "embedding fixpoint: stabilization, digit 0, uniqueness, "
                  "equivariance", 120,
               _grid_suite("iota"))


def test_acceptance_06_norm_comparison():
    def run():
        bad = []
        for pr in GRID:
            rng = random.Random(0)
            for s in (1, 2):
                done = tried = 0
                while done < 20 and tried < 200:
                    tried += 1
                    x = su.rand_iota_sample(pr, rng, s)
                    try:
                        rep = verify_norm_compare(x, s)
                    except Uncertified:
                        continue
                    done += 1
                    if not rep["ok"]:
                        bad.append((pr.p, pr.f, s, rep))
                if done < 20:
                    bad.append((pr.p, pr.f, s, f"only {done} certified"))
        return not bad, bad[:4]
    _criterion(6, "norm comparison s*|x|_s = |iota(x)|_{1/s}", 60, run)


def test_acceptance_07_witt_oracle():
    _criterion(7, "Witt oracle: ghosts, Z/p^N, Teichmuller products", 60,
               _grid_suite("witt"))


def test_acceptance_08_phi_decomposition():
    _criterion(8, "Frobenius-basis decomposition roundtrip and membership",
               60, _grid_suite("decompose"))


def test_acceptance_09_phi_modules():
    _criterion(9, "etale modules: characters, rejections, integral bound",
               30, _grid_suite("phimod"))


def test_acceptance_10_radius_bookkeeping():
    def run():
        bad = []
        for pr in GRID:
            for i in range(pr.f):
                got = pr_radius(pr, i, Fraction(1))
                want = Fraction(pr.p - 1, (pr.q - 1) * pr.p ** i)
                if got != want:
                    bad.append((pr.p, pr.f, i, got, want))
            h = ainf_handle(pr)
            for s in (1, 2):
                pi_over = wt.from_expansion(
                    h, (h.zero(), PerfLaurent.one(h.ring))
                    + (h.zero(),) * (pr.N - 2))
                inside = BElt(pi_over, Fraction(1, s), shift=s)
                outside = BElt(pi_over, Fraction(1, s), shift=s + 1)
                if not member_B0r(inside) or member_B0r(outside):
                    bad.append((pr.p, pr.f, s, "boundary"))
        return not bad, bad[:4]
    _criterion(10, "radius bookkeeping and boundary membership", 5, run)


def test_acceptance_summary():
    print()
    for line in _RESULTS:
        print(line)
    assert len(_RESULTS) == 10
