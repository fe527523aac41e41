"""The benchmark workloads: parameters, set-up, request streams and checks.

Each workload names the public calls that build the tables its requests
read (``setup``), a seeded stream of request inputs (``stream``), one
request with its output check (``run``), and a JSON encoding of a
request's outputs for the determinism digest (``encode``).  Every program
call goes through a module attribute (``mvring.apply_phi``, not a copied
name) so that the tracer's wrappers see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mvphi import coeff, embed, mvring, perfd, phimod, witt
from mvphi import serialize as ser
from mvphi.errors import Uncertified

import gen

# a never-seen unit arrives once every NEW_UNIT_EVERY action requests
NEW_UNIT_EVERY = 32
POOL_UNITS = 3
# The pool's units do not vary with the seed: each unit's table has its own
# cost and three units do not average out, so a seeded pool would move
# setup_s and latency_p50_ms with the seed.
POOL_SEED = 0
# every BELT_EVERY-th embed request also expands digits via to_belt, on an
# element of shape BELT_SHAPE (see gen.two_term)
BELT_EVERY = 8
BELT_SHAPE = (1, 1, 2)
# element shapes cycled by the witt-n4 requests (_element_shapes)
SHAPES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    smoke_params: dict
    setup: Callable      # (Params) -> None
    stream: Callable     # (Params, seed) -> iterator of request inputs
    run: Callable        # (Params, request, tally) -> (ok, outputs)
    encode: Callable     # outputs -> JSON-able
    # requests per full cycle of the stream's fixed pattern; a run ends on
    # a cycle boundary so that every run has the same mix
    period: int

    def make_params(self, smoke: bool = False) -> coeff.Params:
        return coeff.Params.create(**(self.smoke_params if smoke
                                      else self.params))


def _shape(P):
    return P.p, P.f, P.h, P.N


def _mv(P, terms):
    return mvring.MvLaurent(P, P.N, terms)


def walg_json(x) -> dict:
    """A WAlg has no serializer of its own: exact terms, level horizons."""
    return {"prec": x.prec,
            "H": [ser.fraction_json(h) for h in x.H],
            "terms": [{"exponents": list(e), "coeff": list(c)}
                      for e, c in sorted(x.terms.items())]}


def _comps_json(comps) -> list:
    return [{"basis": [n0, list(cross)], "g": ser.mv_json(g)}
            for (n0, cross), g in sorted(comps.items())]


# ---------------------------------------------------------------------------
# decompose-f2: the Frobenius-basis decomposition and its roundtrip
# ---------------------------------------------------------------------------

def decompose_setup(P):
    mvring.phi_images(P, mvring.decompose_window(P))


def decompose_stream(P, seed):
    rng = gen.Rng(seed)
    while True:
        # mod p the lift is one exact pass over mixed-sign supports; at
        # full precision only pure-cone supports stay inside the window
        yield "prec1", gen.mixed_sign(rng, *_shape(P))
        yield "full", gen.pure_cone(rng, *_shape(P))


def decompose_run(P, req, tally):
    family, terms = req
    x = _mv(P, terms)
    if family == "prec1":
        x = x.reduce(1)
    comps = mvring.phi_decompose(x)
    back = mvring.recompose(comps, P)
    supmax = max((k[0] for k in x.terms), default=0)
    ok = (x - back).is_zero() and (back.w_hi is None or back.w_hi > supmax)
    return ok, comps


# ---------------------------------------------------------------------------
# action-f2: Frobenius and unit action on anchored Laurent elements
# ---------------------------------------------------------------------------

def _unit_pool(P):
    rng = gen.Rng(POOL_SEED)
    return [gen.unit_coords(rng, P.p, P.f, P.N) for _ in range(POOL_UNITS)]


def action_setup(P):
    mvring.phi_images(P)
    mvring.phi_q_images(P)
    okr = coeff.ok_ring(P)
    for coords in _unit_pool(P):
        mvring.gamma_images(P, okr(coords))


def action_stream(P, seed):
    rng = gen.Rng(seed)
    pool = _unit_pool(P)
    seen = set(pool)
    # units of O_K mod p^N; past that many requests the units repeat
    n_units = P.p ** (P.N * P.f) - P.p ** ((P.N - 1) * P.f)
    new_at = rng.below(NEW_UNIT_EVERY)
    extra_at = rng.below(4)
    i = 0
    while True:
        s = 1 + i % 3
        terms = gen.mixed_sign(rng, *_shape(P), anchor=-s)
        if i % NEW_UNIT_EVERY == new_at and len(seen) < n_units:
            unit = gen.unit_coords(rng, P.p, P.f, P.N)
            while unit in seen:
                unit = gen.unit_coords(rng, P.p, P.f, P.N)
            seen.add(unit)
        else:
            unit = pool[rng.below(POOL_UNITS)]
        extra = None
        if i % 8 == extra_at:
            extra = ("phi_q",)
        elif i % 8 == extra_at + 4:
            extra = ("phimod",) + gen.diagonal_phimod(rng, P.p, P.f)
        yield s, terms, unit, extra
        i += 1


def _norms_agree(a, b) -> bool:
    """Equal exponents wherever both norms are certified."""
    return not (a.certified and b.certified) or a.val == b.val


def action_run(P, req, tally):
    s, terms, unit, extra = req
    x = _mv(P, terms)
    a = coeff.ok_ring(P)(unit)
    nx = mvring.norm_s(x, s)
    phx = mvring.apply_phi(x)
    nphx = mvring.norm_s(phx, P.p * s)
    gx = mvring.apply_gamma(a, x)
    ngx = mvring.norm_s(gx, s)
    ok = _norms_agree(nx, nphx) and _norms_agree(nx, ngx)
    out = {"norms": [nx, nphx, ngx], "phi": phx, "gamma": gx}
    if extra and extra[0] == "phi_q":
        pqx = mvring.apply_phi_q(x)
        npqx = mvring.norm_s(pqx, P.q * s)
        ok = ok and _norms_agree(nx, npqx)
        out["norms"].append(npqx)
        out["phi_q"] = pqx
    elif extra:
        entries, want = extra[1], extra[2]
        d = len(entries)
        zero = mvring.MvLaurent.zero(P)
        mat = [[zero] * d for _ in range(d)]
        for i, (e, cross, u) in enumerate(entries):
            mat[i][i] = mvring.MvLaurent.monomial(P, e, cross, u) + \
                mvring.MvLaurent.monomial(P, e + 1, None, P.p)
        mod = phimod.PhiModule(d, phimod.TAG_AMV, mat)
        etale = phimod.is_etale(mod)
        bound = phimod.integral_bound(mod)
        ok = ok and etale and bound == want
        out["phimod"] = [etale, bound]
    return ok, out


def action_encode(out) -> dict:
    enc = {"norms": [ser.norm_json(n) for n in out["norms"]],
           "phi": ser.mv_json(out["phi"]),
           "gamma": ser.mv_json(out["gamma"])}
    if "phi_q" in out:
        enc["phi_q"] = ser.mv_json(out["phi_q"])
    if "phimod" in out:
        enc["phimod"] = out["phimod"]
    return enc


# ---------------------------------------------------------------------------
# embed-f2: the perfectoid embedding, its norm comparison and equivariance
# ---------------------------------------------------------------------------

def embed_setup(P):
    embed.iota_context(P)
    mvring.phi_images(P)
    mvring.phi_q_images(P)
    perfd.ainf_handle(P)
    witt.gen_structure_polys(P.p, P.N)


def embed_stream(P, seed):
    rng = gen.Rng(seed)
    i = 0
    while True:
        if i % BELT_EVERY == BELT_EVERY - 1:
            # one element shape for every expansion, so that the tail
            # percentile reads the same path whichever rank it lands on
            s = 1 + i // BELT_EVERY % 2
            yield s, gen.two_term(rng, *_shape(P), *BELT_SHAPE), True
        else:
            yield 1 + i % 2, gen.iota_sample(rng, *_shape(P)), False
        i += 1


def _element_shapes(P):
    """(a, db, v) for ``gen.two_term``, in the order witt-n4 cycles them.

    A digit expansion costs 15-300 ms by the shape of its element and a
    run holds under a hundred of them, so three shapes of well-separated
    cost are cycled in a fixed order and only the coefficients come from
    the seed: the median then reads the middle shape and the tail the
    costliest, whatever the run's length."""
    return [(0, 1, P.N - 1), (0, 1, 0), (-1, 1, 0)]


def _belt_check(w, s):
    """Digit expansion: the radius-1/s valuation read off the Witt digits
    equals the graded-level minimum of the algebra element."""
    r = Fraction(1, s)
    belt = embed.to_belt(w, r)
    nb = perfd.b_val_r(belt)
    return nb == embed.b_val_walg(w, r), belt, nb


def embed_run(P, req, tally):
    s, terms, with_belt = req
    x = _mv(P, terms)
    w = embed.iota(x)
    try:
        cmp = embed.verify_norm_compare(x, s)
        tally["norm_compare.certified"] += 1
    except Uncertified:
        cmp = None
    tally["norm_compare.checks"] += 1
    eq = embed.verify_phi_equivariance(x)
    ok = eq["congruent"] and (cmp is None or cmp["ok"])
    out = {"iota": w, "compare": cmp, "equivariance": eq}
    if with_belt:
        belt_ok, belt, nb = _belt_check(w, s)
        ok = ok and belt_ok
        out["belt"] = (belt, nb)
    return ok, out


def _belt_json(belt, nb) -> dict:
    return {"witt": ser.witt_json(belt.witt), "b_val": ser.norm_json(nb)}


def embed_encode(out) -> dict:
    cmp = out["compare"]
    enc = {"iota": walg_json(out["iota"]),
           "compare": None if cmp is None else
           {"ok": cmp["ok"], "ring_side": ser.fraction_json(cmp["ring_side"]),
            "witt_side": ser.fraction_json(cmp["witt_side"])},
           "equivariance": out["equivariance"]}
    if "belt" in out:
        enc["belt"] = _belt_json(*out["belt"])
    return enc


# ---------------------------------------------------------------------------
# witt-n4: Witt structure polynomials over the perfectoid ring at N = 4
# ---------------------------------------------------------------------------

def witt_setup(P):
    embed.iota_context(P)
    perfd.ainf_handle(P)
    witt.gen_structure_polys(P.p, P.N)


def witt_stream(P, seed):
    rng = gen.Rng(seed)
    scale = P.p ** P.k
    units = P.p ** P.h - 1
    shapes = _element_shapes(P)
    i = 0
    while True:
        shape = shapes[i % len(shapes)]
        yield (1 + i % 2, gen.two_term(rng, *_shape(P), *shape),
               gen.perf_monomial(rng, P.f, scale, units),
               gen.perf_monomial(rng, P.f, scale, units))
        i += 1


def witt_run(P, req, tally):
    s, terms, mx, my = req
    w = embed.iota(_mv(P, terms))
    ok, belt, nb = _belt_check(w, s)
    member = perfd.member_B0r(belt)
    h = perfd.ainf_handle(P)
    elts = [e for e in h.field.elements() if e]
    x = perfd.PerfLaurent(h.ring, {mx[0]: elts[mx[1]]})
    y = perfd.PerfLaurent(h.ring, {my[0]: elts[my[1]]})
    prod = witt.witt_mul(witt.teich(h, x, P.N), witt.teich(h, y, P.N))
    ok = ok and prod.eq(witt.teich(h, x * y, P.N))
    return ok, {"belt": (belt, nb), "member": member, "teich": prod}


def witt_encode(out) -> dict:
    return {"belt": _belt_json(*out["belt"]), "member": out["member"],
            "teich": ser.witt_json(out["teich"])}


WORKLOADS = {w.name: w for w in (
    Workload("decompose-f2", dict(p=5, f=2, h=2, N=3, M=12),
             dict(p=3, f=1, h=1, N=3, M=12),
             decompose_setup, decompose_stream, decompose_run,
             _comps_json, 2),
    Workload("action-f2", dict(p=3, f=2, h=2, N=3, M=12),
             dict(p=3, f=1, h=1, N=3, M=8),
             action_setup, action_stream, action_run, action_encode,
             3 * NEW_UNIT_EVERY),
    Workload("embed-f2", dict(p=3, f=2, h=2, N=3, M=12, k=4),
             dict(p=3, f=1, h=1, N=3, M=12, k=4),
             embed_setup, embed_stream, embed_run, embed_encode,
             2 * BELT_EVERY),
    Workload("witt-n4", dict(p=3, f=1, h=1, N=4, M=12, k=4),
             dict(p=3, f=1, h=1, N=3, M=12, k=4),
             witt_setup, witt_stream, witt_run, witt_encode, 2 * SHAPES),
)}
