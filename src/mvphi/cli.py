"""Command-line driver: computations and verification suites as JSON.

Exit codes: 0 pass, 1 assertion failure, 2 usage or precondition violation,
3 internal error.  A ValueError, KeyError, TypeError or OSError is a usage
error only while the flags, the config file, the ``--out`` path or the
input element are read (``_usage``); raised later, by the kernel, it is
internal.  A fixed configuration (including the seed) produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from .coeff import Params, ok_ring
from .iwasawa import phi_y, gamma_y
from .mvring import (MvLaurent, norm_s, phi_decompose, recompose,
                     roundtrip_ok)
from .phimod import (mat_identity, is_etale, commutation_holds,
                     oc_certificate_check)
from .embed import iota_generators, to_belt, verify_norm_compare
from .suites import SUITES, frobenius_congruence, gamma_congruence, run_suite
from . import serialize as ser
from .errors import KernelError


class UsageError(KernelError):
    """Bad flags, config file or input element."""


@contextmanager
def _usage():
    """Report errors of reading and parsing the user's input as usage
    errors (exit 2)."""
    try:
        yield
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise UsageError(exc) from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvphi",
        description="truncated-precision kernel for multivariable "
                    "Frobenius-module rings")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--f", type=int, default=None)
        sp.add_argument("--h", type=int, default=None)
        sp.add_argument("--prec", type=int, default=None,
                        help="pi-adic precision N")
        sp.add_argument("--deg", type=int, default=None,
                        help="total-degree window M")
        sp.add_argument("--band", type=int, default=None,
                        help="cross-exponent band B")
        sp.add_argument("--depth", type=int, default=None,
                        help="denominator depth k")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with default flag values")
        sp.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")

    common(sub.add_parser("phi-y", help="Frobenius images of the generators"))
    g = sub.add_parser("gamma-y", help="unit action on the generators")
    common(g)
    g.add_argument("--a", type=str, default=None,
                   help="unit coordinates, comma separated")
    common(sub.add_parser("iota", help="perfectoid embedding of the "
                                       "generators, digit by digit"))
    n = sub.add_parser("norm", help="s-norm of a Laurent element (JSON in)")
    common(n)
    n.add_argument("--s", type=int, default=1)
    n.add_argument("--in", dest="infile", type=str, default=None)
    d = sub.add_parser("decompose", help="Frobenius-basis decomposition "
                                         "(JSON in)")
    common(d)
    d.add_argument("--in", dest="infile", type=str, default=None)
    e = sub.add_parser("etale", help="etale test for a module (JSON in)")
    common(e)
    e.add_argument("--in", dest="infile", type=str, default=None)
    o = sub.add_parser("oc-cert", help="overconvergence certificate check "
                                       "(JSON in)")
    common(o)
    o.add_argument("--s", type=int, default=1)
    o.add_argument("--in", dest="infile", type=str, default=None)
    c = sub.add_parser("check", help="run a verification suite")
    common(c)
    c.add_argument("--suite", type=str, required=True, choices=SUITES)
    return ap


DEFAULTS = {"p": 3, "f": 1, "h": None, "prec": 3, "deg": 12, "band": 6,
            "depth": 4, "seed": 0}


def resolve_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = dict(json.load(fh))
        for key, val in loaded.items():
            if key not in DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")
            if not (key == "h" and val is None):
                ser.as_int(val, f"config {key}")
        cfg.update(loaded)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["h"] is None:
        cfg["h"] = cfg["f"]
    return cfg


def make_params(cfg) -> Params:
    return Params.create(cfg["p"], cfg["f"], cfg["h"], cfg["prec"],
                         cfg["deg"], cfg["band"], cfg["depth"])


def configure(args):
    """The resolved flags and their parameters."""
    with _usage():
        cfg = resolve_config(args)
        return cfg, make_params(cfg)


def emit(args, payload: dict) -> None:
    text = ser.dumps(payload)
    out = getattr(args, "out", None)
    if out:
        with _usage():
            fh = open(out, "w")
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def read_input(args) -> dict:
    infile = getattr(args, "infile", None)
    if infile:
        with open(infile) as fh:
            return json.load(fh)
    return json.load(sys.stdin)


def cmd_phi_y(args) -> int:
    cfg, params = configure(args)
    out = []
    for i in range(params.f):
        s = phi_y(params, i)
        out.append({"i": i, "series": ser.tseries_json(s),
                    "str": ser.tseries_str(s),
                    "congruence_mod_p": frobenius_congruence(i, s)})
    emit(args, {"config": cfg, "phi_y": out})
    return 0 if all(r["congruence_mod_p"] for r in out) else 1


def cmd_gamma_y(args) -> int:
    cfg, params = configure(args)
    okr = ok_ring(params)
    if args.a:
        with _usage():
            coords = tuple(int(t) for t in args.a.split(","))
            if len(coords) != params.f:
                raise UsageError(f"--a needs {params.f} coordinates")
            a = okr(coords)
    else:
        a = okr.random_unit(random.Random(cfg["seed"]))
    if not a.is_unit():
        raise UsageError("the action needs a unit")
    out = []
    codes = []
    for i in range(params.f):
        gy = gamma_y(a, i)
        ok = gamma_congruence(a, i, gy)
        codes.append(ok)
        out.append({"i": i, "series": ser.tseries_json(gy),
                    "str": ser.tseries_str(gy),
                    "congruence": ok})
    emit(args, {"config": cfg, "a": list(a.coords), "gamma_y": out})
    return 0 if all(codes) else 1


def cmd_iota(args) -> int:
    cfg, params = configure(args)
    res = iota_generators(params)
    gens = []
    for i, y in enumerate(res.ys):
        belt = to_belt(y, Fraction(1))
        gens.append({"i": i, "witt": ser.witt_json(belt.witt)})
    table = []
    ok = True
    for s in (1, 2):
        for i in range(params.f):
            # Y_i = Y_0 * X_i
            cross = tuple(1 if j == i - 1 else 0
                          for j in range(params.f - 1))
            rep = verify_norm_compare(MvLaurent.monomial(params, 1, cross), s)
            ok = ok and rep["ok"]
            table.append({"s": s, "i": i,
                          "ring_side": ser.fraction_json(rep["ring_side"]),
                          "witt_side": ser.fraction_json(rep["witt_side"]),
                          "ok": rep["ok"]})
    payload = {"config": cfg,
               "stabilization": res.certificates,
               "stabilization_ok": res.certificates == list(
                   range(1, params.N)),
               "generators": gens,
               "norm_table": table}
    emit(args, payload)
    return 0 if ok and payload["stabilization_ok"] else 1


def _check_s(s: int) -> None:
    if s < 1:
        raise UsageError(f"--s must be a positive integer, got {s}")


def cmd_norm(args) -> int:
    _check_s(args.s)
    cfg, params = configure(args)
    with _usage():
        x = ser.mv_from(params, read_input(args))
    nv = norm_s(x, args.s)
    emit(args, {"config": cfg, "s": args.s, "norm": ser.norm_json(nv)})
    return 0


def cmd_decompose(args) -> int:
    cfg, params = configure(args)
    with _usage():
        x = ser.mv_from(params, read_input(args))
    comps = phi_decompose(x)
    roundtrip = roundtrip_ok(x, recompose(comps, params))
    payload = {"config": cfg,
               "components": [{"monomial": {"y0": a[0], "cross": list(a[1])},
                               "g": ser.mv_json(g)}
                              for a, g in sorted(comps.items())],
               "roundtrip": roundtrip}
    emit(args, payload)
    return 0 if roundtrip else 1


def cmd_etale(args) -> int:
    cfg, params = configure(args)
    with _usage():
        m = ser.phimodule_from(params, read_input(args))
    et = is_etale(m)
    comm = commutation_holds(m)
    emit(args, {"config": cfg, "is_etale": bool(et),
                "commutation": bool(comm)})
    return 0


def cmd_oc_cert(args) -> int:
    _check_s(args.s)
    cfg, params = configure(args)
    with _usage():
        obj = read_input(args)
        m = ser.phimodule_from(params, obj["module"])
        if "U" in obj:
            U = ser.matrix_from(params, obj["U"], m.rank)
        else:
            U = mat_identity(params, m.rank)
    rep = oc_certificate_check(m, U, args.s)
    payload = {"config": cfg, "ok": rep["ok"], "s": rep["s"],
               "entries": rep["entries"]}
    if "witness" in rep:
        payload["witness"] = rep["witness"]
    emit(args, payload)
    return 0 if rep["ok"] else 1


def cmd_check(args) -> int:
    cfg, params = configure(args)
    report = run_suite(args.suite, params, seed=cfg["seed"])
    emit(args, {"config": cfg, "report": report})
    return 0 if report["ok"] else 1


COMMANDS = {
    "phi-y": cmd_phi_y,
    "gamma-y": cmd_gamma_y,
    "iota": cmd_iota,
    "norm": cmd_norm,
    "decompose": cmd_decompose,
    "etale": cmd_etale,
    "oc-cert": cmd_oc_cert,
    "check": cmd_check,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
