"""Verification suites: every explicitly checkable congruence and identity.

Each suite ``suite_<name>(params, rng)`` returns its assertions, one JSON-able
entry each with a stable identifier; ``run_suite`` builds the report
{"suite", "params", "assertions", "ok"} from them.  The acceptance tests and
the command-line ``check`` subcommand both run these.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coeff import Params, fq_field, oe_ring, ok_ring
from .iwasawa import TSeries, phi_y, gamma_y
from .mvring import (MvLaurent, norm_s, member, apply_phi, apply_gamma,
                     phi_decompose, recompose, roundtrip_ok,
                     check_local_analyticity)
from .witt import (gen_structure_polys, ghost_components, eval_int,
                   FiniteFieldHandle, from_int, witt_add, witt_mul, teich)
from .perfd import ainf_handle, PerfLaurent
from .embed import (iota_generators, verify_norm_compare,
                    verify_phi_equivariance, congruent_mod, WAlg)
from .phimod import (PhiModule, TAG_AMV, TAG_A0, TAG_DAGGER, mat_identity,
                     unramified_char, oc_certificate_check, integral_bound,
                     is_etale)
from .errors import Uncertified


SUITES = ("frobenius", "action", "norms", "analytic", "iota", "witt",
          "decompose", "phimod")

DEFAULT_GRID = ((2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2))


def _tally(name, n, trial):
    """One assertion: all n draws trial() hold.  Every draw runs, in order,
    so a failure does not change which numbers the later draws take."""
    held = sum(bool(trial()) for _ in range(n))
    return {"id": name, "ok": held == n, "checked": n}


def _certified(name, n, cap, trial):
    """One assertion over draws k = 1, 2, ... until n are certified or cap
    are drawn: trial(k) is None when draw k is not certified, else whether
    it agrees.  It holds when every certified draw agrees and n certified."""
    agree = checked = k = 0
    while checked < n and k < cap:
        k += 1
        res = trial(k)
        if res is not None:
            checked += 1
            agree += bool(res)
    return {"id": name, "ok": agree == checked and checked >= n,
            "checked": checked}


def _coeff(params: Params, rng, v: int, lo: int) -> tuple:
    """h coordinates drawn from [lo, p^N), each times p^v mod p^N."""
    q = params.p ** params.N
    return tuple((rng.randrange(lo, q) * params.p ** v) % q
                 for _ in range(params.h))


def _near_one(okr, rng, s: int, m: int):
    """The unit 1 + p^s z of O_K, z's coordinates drawn from [0, m)."""
    ps = okr.params.p ** s
    return okr((1 + ps * rng.randrange(m),) +
               tuple(ps * rng.randrange(m) for _ in range(okr.params.f - 1)))


def _in_p_m_plus_m_pow(diff: TSeries, power: int) -> bool:
    """Membership in p*m + m^power, term by term inside the window."""
    p = diff.params.p
    return all(sum(e) >= 1 and (sum(e) >= power or all(v % p == 0 for v in c))
               for e, c in diff.terms.items())


def frobenius_congruence(i: int, fy: TSeries) -> bool:
    """fy = phi_y(params, i) lies in Y_{i-1}^p + p*m."""
    params = fy.params
    e = [0] * params.f
    e[(i - 1) % params.f] = params.p
    lead = TSeries(params, params.N, params.M,
                   {tuple(e): (1,) + (0,) * (params.h - 1)})
    # diff has window M, so no term reaches degree M: membership in
    # p*m + m^M is membership in p*m
    return _in_p_m_plus_m_pow(fy - lead, params.M)


def gamma_congruence(a, i: int, gy: TSeries) -> bool:
    """gy = gamma_y(a, i) lies in sigma_i(a) * Y_i + p*m + m^p."""
    params = gy.params
    sig = a.okr.sigma(a, i).reduce(params.N)
    yi = TSeries.variable(params, i, params.N).scalar_mul(sig)
    return _in_p_m_plus_m_pow(gy - yi, params.p)


def suite_frobenius(params: Params, rng) -> list:
    return [{"id": f"frobenius/phi_y[{i}]-in-Y[{(i - 1) % params.f}]^p+p*m",
             "ok": frobenius_congruence(i, phi_y(params, i))}
            for i in range(params.f)]


def suite_action(params: Params, rng) -> list:
    okr = ok_ring(params)
    p, f = params.p, params.f
    assertions = []
    for t in range(10):
        a = okr.random_unit(rng)
        for i in range(f):
            assertions.append(
                {"id": f"action/unit{t}/gamma_y[{i}]-sigma*Y in p*m+m^p",
                 "ok": gamma_congruence(a, i, gamma_y(a, i))})
    for n in (1, 2):
        a = _near_one(okr, rng, n, p)
        for i in range(f):
            diff = gamma_y(a, i) - TSeries.variable(params, i, params.N)
            assertions.append(
                {"id": f"action/1+p^{n}/gamma_y[{i}]-Y in p*m+m^(p^{n})",
                 "ok": bool(_in_p_m_plus_m_pow(diff, p ** n))})
    return assertions


def rand_mv(params: Params, rng, nterms=3, anchor=None) -> MvLaurent:
    terms = {}
    for _ in range(nterms):
        n0 = rng.randrange(-3, 5)
        cross = tuple(rng.randrange(-2, 3) for _ in range(params.f - 1))
        v = rng.randrange(0, params.N)
        c = [rng.randrange(params.p ** params.N) for _ in range(params.h)]
        c[0] = c[0] or 1
        c = tuple((x * params.p ** v) % params.p ** params.N for x in c)
        if any(c):
            terms[(n0, cross)] = c
    x = MvLaurent(params, params.N, terms)
    if anchor is not None:
        x = x + anchor
    return x


def _norm_kept(params, rng, s, act, radius):
    """The k-th draw's trial: does the image act(x, k) of a random x
    anchored at Y_0^-s have |act(x, k)|_radius = |x|_s, when both norms
    are certified?"""
    anchor = MvLaurent.monomial(params, -s)

    def trial(k):
        x = rand_mv(params, rng, anchor=anchor)
        nx, nimg = norm_s(x, s), norm_s(act(x, k), radius)
        if nx.certified and nimg.certified:
            return nimg.val == nx.val
    return trial


def suite_norms(params: Params, rng, n_samples: int = 100) -> list:
    okr = ok_ring(params)
    units = [okr.random_unit(rng) for _ in range(3)]
    per_s = max(1, n_samples // 3)
    return [_certified(f"norms/s={s}/{name}", per_s, 5 * per_s,
                       _norm_kept(params, rng, s, act, radius))
            for s in (1, 2, 3)
            for name, act, radius in (
                ("phi-equivariance", lambda x, k: apply_phi(x), params.p * s),
                ("gamma-invariance",
                 lambda x, k: apply_gamma(units[k % len(units)], x), s))]


def suite_analytic(params: Params, rng) -> list:
    okr = ok_ring(params)
    assertions = []
    for s in (1, 2):
        # at s >= N the only class of 1 + p^s O_K mod p^N is 1
        m = params.p ** max(0, params.N - s)
        gammas = [_near_one(okr, rng, s, m) for _ in range(5)]
        rows = check_local_analyticity(params, s, gammas)
        assertions.append({"id": f"analytic/s={s}/bound-1-over-p-1",
                           "ok": all(r["ok"] for r in rows),
                           "rows": len(rows)})
    return assertions


def suite_iota(params: Params, rng) -> list:
    res = iota_generators(params)
    assertions = [{"id": "iota/stabilization-certificates",
                   "ok": res.certificates == list(range(1, params.N))}]
    field = fq_field(params)
    scale = params.p ** params.k
    d0_ok = True
    for i, y in enumerate(res.ys):
        d0 = y.digit0()
        want = tuple(scale if j == i else 0 for j in range(params.f))
        d0_ok = d0_ok and list(d0) == [want] and d0[want] == field.one
    assertions.append({"id": "iota/digit0-is-generator", "ok": bool(d0_ok)})
    offsets = []
    for i in range(params.f):
        e = tuple(Fraction(rng.randrange(1, 3)) if j == i else Fraction(0)
                  for j in range(params.f))
        offsets.append(WAlg.teich_monomial(params, params.N, e))
    pert = iota_generators(params, seed_offsets=offsets)
    pert_ok = all(congruent_mod(a, b, params.N)
                  for a, b in zip(res.ys, pert.ys))
    assertions.append({"id": "iota/perturbed-seed-same-fixpoint",
                       "ok": bool(pert_ok)})
    eq_ok = True
    for i in range(params.f):
        cross = tuple(1 if j == i - 1 else 0 for j in range(params.f - 1)) \
            if i else None
        rep = verify_phi_equivariance(MvLaurent.monomial(params, 1, cross))
        eq_ok = eq_ok and rep["ok"]
    assertions.append({"id": "iota/phi-equivariance-generators",
                       "ok": bool(eq_ok)})

    def product_trial():
        x, y = rand_mv(params, rng, nterms=2), rand_mv(params, rng, nterms=2)
        return verify_phi_equivariance(x * y)["congruent"]

    def norm_trial(k):
        s = (1, 2)[k % 2]
        x = rand_iota_sample(params, rng, s)
        try:
            return verify_norm_compare(x, s)["ok"]
        except Uncertified:
            return None
    return assertions + [
        _tally("iota/phi-equivariance-products", 20, product_trial),
        _certified("iota/norm-comparison", 20, 160, norm_trial)]


def rand_iota_sample(params: Params, rng, s: int) -> MvLaurent:
    """Small elements with norms in a certifiable range."""
    terms = {}
    a0 = rng.randrange(-1, 2)
    terms[(a0, tuple(rng.randrange(-1, 2) for _ in range(params.f - 1)))] = \
        (rng.randrange(1, params.p),) + (0,) * (params.h - 1)
    for _ in range(2):
        n0 = rng.randrange(a0, a0 + 3)
        cross = tuple(rng.randrange(-1, 2) for _ in range(params.f - 1))
        c = _coeff(params, rng, rng.randrange(0, params.N), 0)
        if any(c):
            terms.setdefault((n0, cross), c)
    return MvLaurent(params, params.N, terms)


def suite_witt(params: Params, rng) -> list:
    p, N = params.p, params.N
    sp = gen_structure_polys(p, N)
    mod = p ** (N + 2)

    def ghost_trial():
        xs = [rng.randrange(60) for _ in range(N)]
        ys = [rng.randrange(60) for _ in range(N)]
        svals = [eval_int(sp.sums[n], xs + ys) for n in range(N)]
        pvals = [eval_int(sp.prods[n], xs + ys) for n in range(N)]
        gx, gy = ghost_components(p, N, xs), ghost_components(p, N, ys)
        gs, gp = ghost_components(p, N, svals), ghost_components(p, N, pvals)
        return all((gs[n] - gx[n] - gy[n]) % mod == 0 and
                   (gp[n] - gx[n] * gy[n]) % mod == 0 for n in range(N))
    fh = FiniteFieldHandle(fq_field(Params.create(p, 1, 1)))

    def zp_trial():
        a, b = rng.randrange(p ** N), rng.randrange(p ** N)
        wa, wb = from_int(fh, a, N), from_int(fh, b, N)
        return witt_add(wa, wb).eq(from_int(fh, a + b, N)) and \
            witt_mul(wa, wb).eq(from_int(fh, a * b, N))
    h = ainf_handle(params)
    ring = h.ring
    elts = [e for e in fq_field(params).elements() if e]

    def mono():
        return PerfLaurent(ring, {tuple(rng.randrange(-4, 5) * ring.scale
                                        for _ in range(params.f)):
                                  rng.choice(elts)})

    def teich_trial():
        x, y = mono(), mono()
        return witt_mul(teich(h, x, N), teich(h, y, N)).eq(teich(h, x * y, N))
    return [_tally("witt/ghost-identities", 100, ghost_trial),
            _tally("witt/Z-mod-p^N-oracle", 200, zp_trial),
            _tally("witt/teichmuller-multiplicative", 100, teich_trial)]


def rand_pure_cone(params: Params, rng) -> MvLaurent:
    """Three-term samples with nonnegative exponents in every generator."""
    terms = {}
    for _ in range(3):
        z = [rng.randrange(0, 3) for _ in range(params.f)]
        c = _coeff(params, rng, rng.randrange(0, params.N), 1)
        if any(c):
            terms[(sum(z), tuple(z[1:]))] = c
    return MvLaurent(params, params.N, terms)


def suite_decompose(params: Params, rng) -> list:
    def roundtrip(x):
        return roundtrip_ok(x, recompose(phi_decompose(x), params))
    # mod p the lift is one exact pass; mixed-sign supports certify
    assertions = [
        _tally("decompose/roundtrip-prec1", 50,
               lambda: roundtrip(rand_mv(params, rng, nterms=3).reduce(1))),
        _tally(f"decompose/roundtrip-prec{params.N}", 50,
               lambda: roundtrip(rand_pure_cone(params, rng)))]
    s = 1
    ps = params.p * s
    member_ok = 0
    for _ in range(10):
        terms = {}
        for _ in range(3):
            v = rng.randrange(0, params.N)
            n0 = rng.randrange(-ps * v, 5)
            cross = tuple(rng.randrange(-2, 3) for _ in range(params.f - 1))
            c = _coeff(params, rng, v, 1)
            if any(c):
                terms[(n0, cross)] = c
        x = MvLaurent(params, params.N, terms)
        if not member(x, TAG_DAGGER, ps):
            continue
        if all(member(g, TAG_DAGGER, s)
               for g in phi_decompose(x).values()):
            member_ok += 1
        else:
            member_ok -= 100
    assertions.append({"id": "decompose/dagger-membership",
                       "ok": member_ok > 0})
    return assertions


def suite_phimod(params: Params, rng) -> list:
    okr = ok_ring(params)
    ring = oe_ring(params)
    lam = ring.from_int(1 + params.p * rng.randrange(1, params.p),
                        params.N)
    samples = [okr.random_unit(rng) for _ in range(2)]
    m = unramified_char(params, lam, samples)
    cert = oc_certificate_check(m, mat_identity(params, 1), 1)
    pmod = PhiModule(1, TAG_A0, [[MvLaurent.monomial(
        params, 0, None, params.p)]])
    pmod2 = PhiModule(1, TAG_DAGGER, [[MvLaurent.monomial(
        params, 0, None, params.p)]], s=1)

    def bound_trial():
        d = rng.randrange(1, 4)
        zero = MvLaurent.zero(params)
        P = [[zero] * d for _ in range(d)]
        want = 0
        for i in range(d):
            e = rng.randrange(0, 3)
            u = rng.randrange(1, params.p)
            want += e
            cross = tuple(rng.randrange(-1, 2)
                          for _ in range(params.f - 1))
            P[i][i] = MvLaurent.monomial(params, e, cross, u) + \
                MvLaurent.monomial(params, e + 1, None, params.p)
        return integral_bound(PhiModule(d, TAG_AMV, P)) == want
    return [{"id": "phimod/unramified-char-etale", "ok": bool(is_etale(m))},
            {"id": "phimod/unramified-char-oc-cert-s1",
             "ok": bool(cert["ok"] and cert["s"] == 1)},
            {"id": "phimod/P=(p)-rejected-integral-tags",
             "ok": not is_etale(pmod) and not is_etale(pmod2)},
            _tally("phimod/integral-bound-diagonal", 20, bound_trial)]


def run_suite(name: str, params: Params, seed: int = 0, **kw) -> dict:
    """The report {"suite", "params", "assertions", "ok"} of one suite run
    at seed; the one count a caller may set is norms' n_samples."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {SUITES})")
    assertions = globals()[f"suite_{name}"](params, random.Random(seed), **kw)
    return {"suite": name,
            "params": {"p": params.p, "f": params.f, "h": params.h,
                       "N": params.N, "M": params.M},
            "assertions": assertions,
            "ok": all(a["ok"] for a in assertions)}
