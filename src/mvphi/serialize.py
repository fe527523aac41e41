"""JSON encodings for every value the command-line tool exchanges.

Scalars are little-endian coordinate arrays in the polynomial basis; norms
and rational exponents are exact {num, den} pairs, never floats.  Dumps are
key-sorted so a fixed configuration reproduces identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .coeff import Params, ok_ring
from .iwasawa import TSeries
from .mvring import MvLaurent, NormValue
from .perfd import PerfLaurent
from .phimod import PhiModule


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def fraction_json(x):
    if x is None:
        return None
    fr = Fraction(x)
    return {"num": fr.numerator, "den": fr.denominator}


def norm_json(nv: NormValue):
    return {"exponent": fraction_json(nv.val), "certified": nv.certified}


def tseries_json(s: TSeries):
    terms = [{"exponents": list(e), "coeff": list(c)}
             for e, c in sorted(s.terms.items())]
    return {"meta": {"p": s.params.p, "f": s.params.f, "h": s.params.h,
                     "N": s.prec, "M": s.window},
            "terms": terms}


def tseries_str(s: TSeries, names="Y") -> str:
    if not s.terms:
        return "0"
    p = s.params.p
    m = p ** s.prec
    bits = []
    for e in sorted(s.terms, key=lambda t: (sum(t), t)):
        c = s.terms[e]
        if s.params.h == 1:
            v = c[0] - m if c[0] > m // 2 else c[0]
            coeff = "" if v == 1 and any(e) else str(v)
            if v == -1 and any(e):
                coeff = "-"
        else:
            coeff = str(list(c))
        mon = "*".join(
            (f"{names}{j}" if s.params.f > 1 else names) +
            (f"^{d}" if d > 1 else "")
            for j, d in enumerate(e) if d)
        bits.append(coeff + ("*" if coeff not in ("", "-") and mon else "")
                    + mon if mon else str(coeff or 1))
    return " + ".join(bits).replace("+ -", "- ")


def mv_json(x: MvLaurent):
    terms = [{"y0": n0, "cross": list(cross), "coeff": list(c)}
             for (n0, cross), c in sorted(x.terms.items())]
    return {"pi_prec": x.prec, "window": [x.w_lo, x.w_hi], "band": x.band,
            "terms": terms}


def mv_from(params: Params, obj) -> MvLaurent:
    terms = {}
    for t in obj["terms"]:
        if len(t["coeff"]) != params.h or len(t["cross"]) != params.f - 1:
            raise ValueError(f"a term needs {params.h} coefficients and "
                             f"{params.f - 1} cross exponents: {t}")
        terms[(t["y0"], tuple(t["cross"]))] = tuple(t["coeff"])
    w_lo, w_hi = obj["window"]
    return MvLaurent(params, obj["pi_prec"], terms, w_lo, w_hi, obj["band"])


def perf_json(x: PerfLaurent):
    scale = x.ring.scale
    terms = []
    for e, c in sorted(x.terms.items()):
        pure = [Fraction(v, scale) for v in e]
        y0 = sum(pure, Fraction(0))
        cross = pure[1:]
        terms.append({"y0": fraction_json(y0),
                      "cross": [fraction_json(v) for v in cross],
                      "coeff": list(c.coords)})
    return {"window": [fraction_json(x.w_lo), fraction_json(x.w_hi)],
            "band": fraction_json(Fraction(x.band, scale)),
            "terms": terms}


def witt_json(w) -> dict:
    return {"prec": w.prec,
            "digits": [perf_json(d) for d in w.digits()]}


def phimodule_json(m: PhiModule):
    return {"rank": m.rank, "tag": m.tag, "s": m.s,
            "P": [[mv_json(x) for x in row] for row in m.P],
            "action": [{"a": list(a.coords),
                        "G": [[mv_json(x) for x in row] for row in G]}
                       for a, G in m.action]}


def phimodule_from(params: Params, obj) -> PhiModule:
    okr = ok_ring(params)
    P = [[mv_from(params, x) for x in row] for row in obj["P"]]
    action = []
    for entry in obj.get("action", []):
        a = okr(tuple(entry["a"]))
        G = [[mv_from(params, x) for x in row] for row in entry["G"]]
        action.append((a, G))
    return PhiModule(obj["rank"], obj["tag"], P, action, obj.get("s"))
