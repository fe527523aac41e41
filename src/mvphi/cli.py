"""Command-line driver: computations and verification suites as JSON.

``main`` owns a run: it checks ``--s``, resolves the flags and their
``Params``, calls one ``cmd_*(args, cfg, params)``, which returns its
payload and pass flag, and writes ``{"config": cfg, **payload}`` once.
Exit codes: 0 pass, 1 assertion failure, 2 usage or precondition violation,
3 internal error.  A ValueError, KeyError, TypeError or OSError is a usage
error only while the flags, the config file, the ``--out`` path or the
input element are read (``_usage``); raised later, by the kernel, it is
internal.  A fixed configuration (including the seed) produces
byte-identical output.
"""

from __future__ import annotations

import argparse
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


DEFAULTS = {"p": 3, "f": 1, "h": None, "prec": 3, "deg": 12, "band": 6,
            "depth": 4, "seed": 0}
# the help line of each integer flag that has one
HELP = {"prec": "pi-adic precision N", "deg": "total-degree window M",
        "band": "cross-exponent band B", "depth": "denominator depth k"}


def resolve_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        loaded = ser.read_json(args.config, "the config file", dict)
        for key, val in loaded.items():
            if key not in DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")
            if not (key == "h" and val is None):
                ser.as_int(val, f"config {key}")
        cfg.update(loaded)
    for key in DEFAULTS:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def emit(args, payload: dict) -> None:
    text = ser.dumps(payload)
    if args.out:
        with _usage():
            fh = open(args.out, "w")
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_phi_y(args, cfg, params):
    out = []
    for i in range(params.f):
        s = phi_y(params, i)
        out.append({"i": i, "series": ser.tseries_json(s),
                    "str": ser.tseries_str(s),
                    "congruence_mod_p": frobenius_congruence(i, s)})
    return {"phi_y": out}, all(r["congruence_mod_p"] for r in out)


def cmd_gamma_y(args, cfg, params):
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
    for i in range(params.f):
        gy = gamma_y(a, i)
        out.append({"i": i, "series": ser.tseries_json(gy),
                    "str": ser.tseries_str(gy),
                    "congruence": gamma_congruence(a, i, gy)})
    return ({"a": list(a.coords), "gamma_y": out},
            all(r["congruence"] for r in out))


def cmd_iota(args, cfg, params):
    res = iota_generators(params)
    gens = [{"i": i, "witt": ser.witt_json(to_belt(y, Fraction(1)).witt)}
            for i, y in enumerate(res.ys)]
    table = []
    for s in (1, 2):
        for i in range(params.f):
            # Y_i = Y_0 * X_i
            cross = tuple(1 if j == i - 1 else 0
                          for j in range(params.f - 1))
            rep = verify_norm_compare(MvLaurent.monomial(params, 1, cross), s)
            table.append({"s": s, "i": i,
                          "ring_side": ser.fraction_json(rep["ring_side"]),
                          "witt_side": ser.fraction_json(rep["witt_side"]),
                          "ok": rep["ok"]})
    stable = res.certificates == list(range(1, params.N))
    return ({"stabilization": res.certificates, "stabilization_ok": stable,
             "generators": gens, "norm_table": table},
            stable and all(r["ok"] for r in table))


def cmd_norm(args, cfg, params):
    with _usage():
        x = ser.mv_from(params, ser.read_json(args.infile))
    return {"s": args.s, "norm": ser.norm_json(norm_s(x, args.s))}, True


def cmd_decompose(args, cfg, params):
    with _usage():
        x = ser.mv_from(params, ser.read_json(args.infile))
    comps = phi_decompose(x)
    roundtrip = roundtrip_ok(x, recompose(comps, params))
    return ({"components": [{"monomial": {"y0": a[0], "cross": list(a[1])},
                             "g": ser.mv_json(g)}
                            for a, g in sorted(comps.items())],
             "roundtrip": roundtrip}, roundtrip)


def cmd_etale(args, cfg, params):
    with _usage():
        m = ser.phimodule_from(params, ser.read_json(args.infile))
    return {"is_etale": bool(is_etale(m)),
            "commutation": bool(commutation_holds(m))}, True


def cmd_oc_cert(args, cfg, params):
    with _usage():
        obj = ser.read_json(args.infile)
        m = ser.phimodule_from(params, ser.field(obj, "module", "the input"))
        if "U" in obj:
            U = ser.matrix_from(params, ser.field(obj, "U", "the input", list),
                                m.rank)
        else:
            U = mat_identity(params, m.rank)
    rep = oc_certificate_check(m, U, args.s)
    return rep, rep["ok"]


def cmd_check(args, cfg, params):
    report = run_suite(args.suite, params, seed=cfg["seed"])
    return {"report": report}, report["ok"]


_IN = ("--in", {"dest": "infile", "type": str, "default": None})
_S = ("--s", {"type": int, "default": 1})
# each subcommand's handler, help line and flags past the common ones, in
# the order --help lists them
COMMANDS = {
    "phi-y": (cmd_phi_y, "Frobenius images of the generators", ()),
    "gamma-y": (cmd_gamma_y, "unit action on the generators",
                (("--a", {"type": str, "default": None,
                          "help": "unit coordinates, comma separated"}),)),
    "iota": (cmd_iota, "perfectoid embedding of the generators, digit by "
                       "digit", ()),
    "norm": (cmd_norm, "s-norm of a Laurent element (JSON in)", (_S, _IN)),
    "decompose": (cmd_decompose, "Frobenius-basis decomposition (JSON in)",
                  (_IN,)),
    "etale": (cmd_etale, "etale test for a module (JSON in)", (_IN,)),
    "oc-cert": (cmd_oc_cert, "overconvergence certificate check (JSON in)",
                (_S, _IN)),
    "check": (cmd_check, "run a verification suite",
              (("--suite", {"type": str, "required": True,
                            "choices": SUITES}),)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvphi",
        description="truncated-precision kernel for multivariable "
                    "Frobenius-module rings")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        for key in DEFAULTS:
            sp.add_argument("--" + key, type=int, default=None,
                            help=HELP.get(key))
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with default flag values")
        sp.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")
        for flag, kw in flags:
            sp.add_argument(flag, **kw)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "s", 1) < 1:
            raise UsageError(f"--s must be a positive integer, got {args.s}")
        with _usage():
            cfg = resolve_config(args)
            params = Params.create(cfg["p"], cfg["f"], cfg["h"], cfg["prec"],
                                   cfg["deg"], cfg["band"], cfg["depth"])
        cfg["h"] = params.h
        payload, ok = COMMANDS[args.command][0](args, cfg, params)
        emit(args, {"config": cfg, **payload})
        return 0 if ok else 1
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
