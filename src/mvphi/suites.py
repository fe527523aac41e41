"""Verification suites: every explicitly checkable congruence and identity.

Each suite returns a JSON-able report {"suite", "params", "assertions",
"ok"} with one entry per assertion carrying a stable identifier.  The
acceptance tests and the command-line ``check`` subcommand both run these.
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


def _report(name, params, assertions):
    return {"suite": name,
            "params": {"p": params.p, "f": params.f, "h": params.h,
                       "N": params.N, "M": params.M},
            "assertions": assertions,
            "ok": all(a["ok"] for a in assertions)}


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


def suite_frobenius(params: Params, rng) -> dict:
    assertions = []
    for i in range(params.f):
        prev = (i - 1) % params.f
        assertions.append({"id": f"frobenius/phi_y[{i}]-in-Y[{prev}]^p+p*m",
                           "ok": frobenius_congruence(i, phi_y(params, i))})
    return _report("frobenius", params, assertions)


def suite_action(params: Params, rng, n_units: int = 10) -> dict:
    okr = ok_ring(params)
    p, f = params.p, params.f
    assertions = []
    for t in range(n_units):
        a = okr.random_unit(rng)
        for i in range(f):
            assertions.append(
                {"id": f"action/unit{t}/gamma_y[{i}]-sigma*Y in p*m+m^p",
                 "ok": gamma_congruence(a, i, gamma_y(a, i))})
    for n in (1, 2):
        coords = [1 + p ** n * rng.randrange(p)] + \
            [p ** n * rng.randrange(p) for _ in range(f - 1)]
        a = okr(tuple(coords))
        for i in range(f):
            diff = gamma_y(a, i) - TSeries.variable(params, i, params.N)
            ok = _in_p_m_plus_m_pow(diff, p ** n)
            assertions.append(
                {"id": f"action/1+p^{n}/gamma_y[{i}]-Y in p*m+m^(p^{n})",
                 "ok": bool(ok)})
    return _report("action", params, assertions)


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


def _norm_kept(params, rng, s, act, radius, per_s):
    """(agreeing, checked) over random x anchored at Y_0^-s: until per_s
    have both norms certified or 5 * per_s are drawn, does the image
    act(x, k) of the k-th draw have |act(x, k)|_radius = |x|_s?"""
    anchor = MvLaurent.monomial(params, -s)
    agree = checked = k = 0
    while checked < per_s and k < 5 * per_s:
        k += 1
        x = rand_mv(params, rng, anchor=anchor)
        nx = norm_s(x, s)
        nimg = norm_s(act(x, k), radius)
        if nx.certified and nimg.certified:
            checked += 1
            agree += nimg.val == nx.val
    return agree, checked


def suite_norms(params: Params, rng, n_samples: int = 100,
                n_units: int = 3) -> dict:
    okr = ok_ring(params)
    units = [okr.random_unit(rng) for _ in range(n_units)]
    assertions = []
    per_s = max(1, n_samples // 3)
    for s in (1, 2, 3):
        for name, act, radius in (
                ("phi-equivariance", lambda x, k: apply_phi(x), params.p * s),
                ("gamma-invariance",
                 lambda x, k: apply_gamma(units[k % len(units)], x), s)):
            agree, checked = _norm_kept(params, rng, s, act, radius, per_s)
            assertions.append({"id": f"norms/s={s}/{name}",
                               "ok": agree == checked and checked >= per_s,
                               "checked": checked})
    return _report("norms", params, assertions)


def suite_analytic(params: Params, rng, n_gammas: int = 5) -> dict:
    okr = ok_ring(params)
    p, f = params.p, params.f
    assertions = []
    for s in (1, 2):
        # at s >= N the only class of 1 + p^s O_K mod p^N is 1
        m = p ** max(0, params.N - s)
        gammas = []
        for _ in range(n_gammas):
            coords = [1 + p ** s * rng.randrange(m)] + \
                [p ** s * rng.randrange(m) for _ in range(f - 1)]
            gammas.append(okr(tuple(coords)))
        rows = check_local_analyticity(params, s, gammas)
        ok = all(r["ok"] for r in rows)
        assertions.append({"id": f"analytic/s={s}/bound-1-over-p-1",
                           "ok": bool(ok), "rows": len(rows)})
    return _report("analytic", params, assertions)


def suite_iota(params: Params, rng, n_products: int = 20,
               n_norm_samples: int = 20) -> dict:
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
    prod_ok = 0
    for _ in range(n_products):
        x = rand_mv(params, rng, nterms=2)
        y = rand_mv(params, rng, nterms=2)
        rep = verify_phi_equivariance(x * y)
        if rep["congruent"]:
            prod_ok += 1
    assertions.append({"id": "iota/phi-equivariance-products",
                       "ok": prod_ok == n_products, "checked": n_products})
    if n_norm_samples:
        done = tried = failed = 0
        while done < n_norm_samples and tried < 8 * n_norm_samples:
            tried += 1
            s = (1, 2)[tried % 2]
            x = rand_iota_sample(params, rng, s)
            try:
                rep = verify_norm_compare(x, s)
            except Uncertified:
                continue
            done += 1
            if not rep["ok"]:
                failed += 1
        assertions.append({"id": "iota/norm-comparison",
                           "ok": failed == 0 and done >= n_norm_samples,
                           "checked": done})
    return _report("iota", params, assertions)


def rand_iota_sample(params: Params, rng, s: int) -> MvLaurent:
    """Small elements with norms in a certifiable range."""
    terms = {}
    a0 = rng.randrange(-1, 2)
    terms[(a0, tuple(rng.randrange(-1, 2) for _ in range(params.f - 1)))] = \
        (rng.randrange(1, params.p),) + (0,) * (params.h - 1)
    for _ in range(2):
        n0 = rng.randrange(a0, a0 + 3)
        cross = tuple(rng.randrange(-1, 2) for _ in range(params.f - 1))
        v = rng.randrange(0, params.N)
        c = tuple((rng.randrange(params.p ** params.N) * params.p ** v)
                  % params.p ** params.N for _ in range(params.h))
        if any(c):
            terms.setdefault((n0, cross), c)
    return MvLaurent(params, params.N, terms)


def suite_witt(params: Params, rng, n_ghost: int = 100,
               n_zp: int = 200, n_teich: int = 100) -> dict:
    p, N = params.p, params.N
    sp = gen_structure_polys(p, N)
    mod = p ** (N + 2)
    ghost_ok = 0
    for _ in range(n_ghost):
        xs = [rng.randrange(60) for _ in range(N)]
        ys = [rng.randrange(60) for _ in range(N)]
        svals = [eval_int(sp.sums[n], xs + ys) for n in range(N)]
        pvals = [eval_int(sp.prods[n], xs + ys) for n in range(N)]
        gx, gy = ghost_components(p, N, xs), ghost_components(p, N, ys)
        gs, gp = ghost_components(p, N, svals), ghost_components(p, N, pvals)
        if all((gs[n] - gx[n] - gy[n]) % mod == 0 and
               (gp[n] - gx[n] * gy[n]) % mod == 0 for n in range(N)):
            ghost_ok += 1
    assertions = [{"id": "witt/ghost-identities", "ok": ghost_ok == n_ghost,
                   "checked": n_ghost}]
    fh = FiniteFieldHandle(fq_field(Params.create(p, 1, 1)))
    zp_ok = 0
    for _ in range(n_zp):
        a, b = rng.randrange(p ** N), rng.randrange(p ** N)
        wa, wb = from_int(fh, a, N), from_int(fh, b, N)
        if witt_add(wa, wb).eq(from_int(fh, a + b, N)) and \
                witt_mul(wa, wb).eq(from_int(fh, a * b, N)):
            zp_ok += 1
    assertions.append({"id": "witt/Z-mod-p^N-oracle", "ok": zp_ok == n_zp,
                       "checked": n_zp})
    h = ainf_handle(params)
    ring = h.ring
    field = fq_field(params)
    elts = [e for e in field.elements() if e]
    teich_ok = 0
    for _ in range(n_teich):
        x = PerfLaurent(ring, {tuple(rng.randrange(-4, 5) * ring.scale
                                     for _ in range(params.f)):
                               rng.choice(elts)})
        y = PerfLaurent(ring, {tuple(rng.randrange(-4, 5) * ring.scale
                                     for _ in range(params.f)):
                               rng.choice(elts)})
        if witt_mul(teich(h, x, N), teich(h, y, N)).eq(teich(h, x * y, N)):
            teich_ok += 1
    assertions.append({"id": "witt/teichmuller-multiplicative",
                       "ok": teich_ok == n_teich, "checked": n_teich})
    return _report("witt", params, assertions)


def rand_pure_cone(params: Params, rng) -> MvLaurent:
    """Three-term samples with nonnegative exponents in every generator."""
    terms = {}
    for _ in range(3):
        z = [rng.randrange(0, 3) for _ in range(params.f)]
        key = (sum(z), tuple(z[1:]))
        v = rng.randrange(0, params.N)
        c = tuple((rng.randrange(1, params.p ** params.N) * params.p ** v)
                  % params.p ** params.N for _ in range(params.h))
        if any(c):
            terms[key] = c
    return MvLaurent(params, params.N, terms)


def suite_decompose(params: Params, rng, n_samples: int = 50) -> dict:
    assertions = []
    ok = 0
    for _ in range(n_samples):
        # mod p the lift is one exact pass; mixed-sign supports certify
        x = rand_mv(params, rng, nterms=3).reduce(1)
        ok += roundtrip_ok(x, recompose(phi_decompose(x), params))
    assertions.append({"id": "decompose/roundtrip-prec1",
                       "ok": ok == n_samples, "checked": n_samples})
    ok = 0
    for _ in range(n_samples):
        x = rand_pure_cone(params, rng)
        ok += roundtrip_ok(x, recompose(phi_decompose(x), params))
    assertions.append({"id": f"decompose/roundtrip-prec{params.N}",
                       "ok": ok == n_samples, "checked": n_samples})
    s = 1
    ps = params.p * s
    member_ok = 0
    n_member = max(10, n_samples // 5)
    for _ in range(n_member):
        terms = {}
        for _ in range(3):
            v = rng.randrange(0, params.N)
            n0 = rng.randrange(-ps * v, 5)
            cross = tuple(rng.randrange(-2, 3) for _ in range(params.f - 1))
            c = tuple((rng.randrange(1, params.p ** params.N) *
                       params.p ** v) % params.p ** params.N
                      for _ in range(params.h))
            if any(c):
                terms[(n0, cross)] = c
        x = MvLaurent(params, params.N, terms)
        if not member(x, TAG_DAGGER, ps):
            continue
        if all(member(g, TAG_DAGGER, s)
               for g in phi_decompose(x).values()):
            member_ok += 1
        else:
            member_ok -= 10 * n_member
    assertions.append({"id": "decompose/dagger-membership",
                       "ok": member_ok > 0})
    return _report("decompose", params, assertions)


def suite_phimod(params: Params, rng, n_matrices: int = 20) -> dict:
    okr = ok_ring(params)
    ring = oe_ring(params)
    assertions = []
    lam = ring.from_int(1 + params.p * rng.randrange(1, params.p),
                        params.N)
    samples = [okr.random_unit(rng) for _ in range(2)]
    m = unramified_char(params, lam, samples)
    cert = oc_certificate_check(m, mat_identity(params, 1), 1)
    assertions.append({"id": "phimod/unramified-char-etale",
                       "ok": bool(is_etale(m))})
    assertions.append({"id": "phimod/unramified-char-oc-cert-s1",
                       "ok": bool(cert["ok"] and cert["s"] == 1)})
    pmod = PhiModule(1, TAG_A0, [[MvLaurent.monomial(
        params, 0, None, params.p)]])
    pmod2 = PhiModule(1, TAG_DAGGER, [[MvLaurent.monomial(
        params, 0, None, params.p)]], s=1)
    assertions.append({"id": "phimod/P=(p)-rejected-integral-tags",
                       "ok": not is_etale(pmod) and not is_etale(pmod2)})
    bound_ok = 0
    for _ in range(n_matrices):
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
        mod = PhiModule(d, TAG_AMV, P)
        if integral_bound(mod) == want:
            bound_ok += 1
    assertions.append({"id": "phimod/integral-bound-diagonal",
                       "ok": bound_ok == n_matrices, "checked": n_matrices})
    return _report("phimod", params, assertions)


def run_suite(name: str, params: Params, seed: int = 0, **kw) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {SUITES})")
    rng = random.Random(seed)
    fn = globals()[f"suite_{name}"]
    return fn(params, rng, **kw)
