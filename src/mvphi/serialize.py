"""JSON encodings for every value the command-line tool exchanges.

Scalars are little-endian coordinate arrays in the polynomial basis; norms
and rational exponents are exact {num, den} pairs, never floats.  Dumps are
key-sorted so a fixed configuration reproduces identical bytes.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from fractions import Fraction

from .coeff import Params, ok_ring
from .iwasawa import TSeries
from .mvring import MvLaurent, NormValue, _check_radius, check_tag
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


def as_int(v, what: str) -> int:
    """v when it is an int; a bool or a float is a ValueError."""
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


# the JSON name of each type json.load returns
_JSON = {dict: "an object", list: "a list", str: "a string",
         int: "an integer", float: "a number", bool: "a boolean",
         type(None): "null"}


def _kind(v) -> str:
    name = _JSON.get(type(v), type(v).__name__)
    return name + (f" of {len(v)}" if type(v) is list else "")


def read_json(path, what: str = "the input file", kind=None):
    """The JSON document in the file at path, or on stdin when path is
    None; text that is no UTF-8 JSON, or a document whose type is not kind,
    is a ValueError naming its source (``the config file cfg.json``)."""
    src = f"{what} {path}" if path else "the standard input"
    with (open(path, encoding="utf-8") if path
          else nullcontext(sys.stdin)) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{src} is not JSON: {exc}") from exc
    if kind is not None and type(doc) is not kind:
        raise ValueError(f"{src} must be {_JSON[kind]}, got {_kind(doc)}")
    return doc


def field(obj, key: str, what: str, kind=None, size=None):
    """obj[key] of the JSON object obj, named what; an obj that is no
    object, a missing key, or a value whose type is not kind (a list of
    size entries, when size is given) is a ValueError naming the field."""
    if type(obj) is not dict:
        raise ValueError(f"{what} must be an object, got {_kind(obj)}")
    if key not in obj:
        raise ValueError(f"{what} has no field {key!r}")
    v = obj[key]
    if kind is not None and (type(v) is not kind
                             or size is not None and len(v) != size):
        want = _JSON[kind] + (f" of {size}" if size is not None else "")
        raise ValueError(f"{what}'s {key} must be {want}, got {_kind(v)}")
    return v


def mv_from(params: Params, obj) -> MvLaurent:
    terms = {}
    for t in field(obj, "terms", "the element", list):
        coeff = tuple(as_int(c, "a coefficient")
                      for c in field(t, "coeff", "a term", list))
        key = (as_int(field(t, "y0", "a term"), "y0"),
               tuple(as_int(e, "a cross exponent")
                     for e in field(t, "cross", "a term", list)))
        if len(coeff) != params.h or len(key[1]) != params.f - 1:
            raise ValueError(f"a term needs {params.h} coefficients and "
                             f"{params.f - 1} cross exponents: {t}")
        if key in terms:
            raise ValueError(f"two terms at y0 = {key[0]}, cross = "
                             f"{list(key[1])}")
        terms[key] = coeff
    w_lo, w_hi = (None if w is None else as_int(w, "a window bound")
                  for w in field(obj, "window", "the element", list, 2))
    prec = as_int(field(obj, "pi_prec", "the element"), "pi_prec")
    band = as_int(field(obj, "band", "the element"), "band")
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
    """A side x side matrix of Laurent elements, from a list of rows."""
    if len(rows) != side or any(type(row) is not list or len(row) != side
                                for row in rows):
        raise ValueError(f"a matrix must be {side} x {side}")
    return [[mv_from(params, x) for x in row] for row in rows]


def phimodule_from(params: Params, obj) -> PhiModule:
    rank = as_int(field(obj, "rank", "the module"), "rank")
    tag, s = field(obj, "tag", "the module"), obj.get("s")
    if rank < 1:
        raise ValueError(f"need rank >= 1: {rank}")
    check_tag(tag, s)
    if s is not None:
        _check_radius(as_int(s, "s"))
    okr = ok_ring(params)
    P = matrix_from(params, field(obj, "P", "the module", list), rank)
    entries = field(obj, "action", "the module", list) if "action" in obj \
        else []
    action = [(okr(tuple(as_int(c, "a unit coordinate")
                         for c in field(e, "a", "an action entry", list))),
               matrix_from(params, field(e, "G", "an action entry", list),
                           rank))
              for e in entries]
    return PhiModule(rank, tag, P, action, s)
