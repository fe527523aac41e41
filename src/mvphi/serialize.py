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
from .mvring import MvLaurent, NormValue, _check_radius
from .perfd import PerfLaurent
from .phimod import PhiModule, TAG_A0, TAG_AMV, TAG_DAGGER


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


def as_int(v, what: str) -> int:
    """v when it is an int; a bool or a float is a ValueError."""
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def mv_from(params: Params, obj) -> MvLaurent:
    terms = {}
    for t in obj["terms"]:
        coeff = tuple(as_int(c, "a coefficient") for c in t["coeff"])
        key = (as_int(t["y0"], "y0"),
               tuple(as_int(e, "a cross exponent") for e in t["cross"]))
        if len(coeff) != params.h or len(key[1]) != params.f - 1:
            raise ValueError(f"a term needs {params.h} coefficients and "
                             f"{params.f - 1} cross exponents: {t}")
        if key in terms:
            raise ValueError(f"two terms at y0 = {key[0]}, cross = "
                             f"{list(key[1])}")
        terms[key] = coeff
    w_lo, w_hi = (None if w is None else as_int(w, "a window bound")
                  for w in obj["window"])
    prec, band = as_int(obj["pi_prec"], "pi_prec"), as_int(obj["band"], "band")
    if prec < 1 or band < 0:
        raise ValueError(f"need pi_prec >= 1 and band >= 0, got {prec} and "
                         f"{band}")
    if prec > params.N:
        raise ValueError(f"pi_prec {prec} exceeds the precision N = "
                         f"{params.N}; it needs --prec {prec} or more")
    return MvLaurent(params, prec, terms, w_lo, w_hi, band)


def perf_json(x: PerfLaurent):
    scale = x.ring.scale
    terms = []
    for e, c in sorted(x.terms.items()):
        pure = [Fraction(v, scale) for v in e]
        y0 = sum(pure, Fraction(0))
        cross = pure[1:]
        terms.append({"y0": fraction_json(y0),
                      "cross": [fraction_json(v) for v in cross],
                      "coeff": list(c)})
    return {"window": [fraction_json(x.w_lo), fraction_json(x.w_hi)],
            "band": fraction_json(Fraction(x.band, scale)),
            "terms": terms}


def witt_json(w) -> dict:
    return {"prec": w.prec,
            "digits": [perf_json(d) for d in w.digits()]}


def matrix_from(params: Params, rows, side: int) -> list:
    """A side x side matrix of Laurent elements."""
    if len(rows) != side or any(len(row) != side for row in rows):
        raise ValueError(f"a matrix must be {side} x {side}")
    return [[mv_from(params, x) for x in row] for row in rows]


def phimodule_from(params: Params, obj) -> PhiModule:
    rank, tag, s = as_int(obj["rank"], "rank"), obj["tag"], obj.get("s")
    if rank < 1 or tag not in (TAG_AMV, TAG_A0, TAG_DAGGER):
        raise ValueError(f"need rank >= 1 and a known tag: {rank}, {tag!r}")
    if tag == TAG_DAGGER or s is not None:
        _check_radius(as_int(s, "s"))
    okr = ok_ring(params)
    P = matrix_from(params, obj["P"], rank)
    action = [(okr(tuple(as_int(c, "a unit coordinate") for c in entry["a"])),
               matrix_from(params, entry["G"], rank))
              for entry in obj.get("action", [])]
    return PhiModule(rank, tag, P, action, s)
