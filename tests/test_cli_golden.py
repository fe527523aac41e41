"""CLI commands print exactly the text kept in tests/data/cli.

The q = 2 commands cover the Y = [1] - 1 generator through the group sum;
the iota and witt-suite commands cover Witt arithmetic over the perfection
and over a finite field.  The norm and decompose commands read Laurent
elements with mixed-sign and cross terms from tests/data/cli; two norm
inputs sit on a certification boundary (s * norm = w_hi, and
s * norm = s * prec + w_lo).  The (3,2,2) decompose input has a term past
its recomposition's certified window, so its roundtrip is false and the
command exits 1; the (5,2,2) one is a pure-cone, full-precision input whose
roundtrip certifies.  The etale and oc-cert commands read a rank-2
dagger-tagged module whose determinant has a Y_0^{-1} term and one entry
that first passes at s = 2; the phimod suite runs the unit criterion and
the integral bound at f = 2.  The norms suite samples both norm checks:
|phi x| at radius p * s and |gamma x| at radius s against |x|_s.

The parser's shape, its subcommands and each one's arguments as argparse
holds them, is kept in tests/data/parser.json; unlike the --help text it
does not depend on the Python version or the terminal width.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = {
    "phi-y_p2_f1": "phi-y --p 2 --f 1",
    "phi-y_p2_f1_h2": "phi-y --p 2 --f 1 --h 2",
    "gamma-y_p2_f1_a3": "gamma-y --p 2 --f 1 --a 3",
    "gamma-y_p2_f1_h2_seed4": "gamma-y --p 2 --f 1 --h 2 --seed 4",
    "check-action_p2_f1": "check --suite action --p 2 --f 1",
    "iota_p2_f1_prec2": "iota --p 2 --f 1 --prec 2",
    "iota_p3_f1": "iota --p 3 --f 1",
    "check-witt_p3_f1": "check --suite witt --p 3 --f 1",
    "norm_p3_f2_s2": "norm --p 3 --f 2 --s 2 --in "
                     "tests/data/cli/norm_p3_f2_s2.json",
    "norm_p3_f2_s2_whi": "norm --p 3 --f 2 --s 2 --in "
                         "tests/data/cli/norm_p3_f2_s2_whi.json",
    "norm_p3_f2_s2_prec": "norm --p 3 --f 2 --s 2 --in "
                          "tests/data/cli/norm_p3_f2_s2_prec.json",
    "decompose_p3_f2": "decompose --p 3 --f 2 --in "
                       "tests/data/cli/decompose_p3_f2.json",
    "decompose_p5_f2": "decompose --p 5 --f 2 --h 2 --in "
                       "tests/data/cli/decompose_p5_f2.json",
    "etale_p3_f1": "etale --p 3 --f 1 --in tests/data/cli/etale_p3_f1.json",
    "oc-cert_p3_f1_s1": "oc-cert --p 3 --f 1 --s 1 --in "
                        "tests/data/cli/oc-cert_p3_f1_s1.json",
    "check-phimod_p3_f2": "check --suite phimod --p 3 --f 2",
    "check-norms_p3_f1": "check --suite norms --p 3 --f 1",
}
# the exit code of each command, when it is not 0
EXIT_CODE = {"decompose_p3_f2": 1}


def parser_shape(parser):
    """Each subcommand of parser in order, with its help line and its
    arguments in order: option strings, dest, type name, default,
    required, choices and help; the -h actions are left out."""
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    return [{"command": name, "help": helps[name], "arguments": [
        {"options": a.option_strings, "dest": a.dest,
         "type": getattr(a.type, "__name__", None), "default": a.default,
         "required": a.required,
         "choices": None if a.choices is None else list(a.choices),
         "help": a.help}
        for a in sp._actions if not isinstance(a, argparse._HelpAction)]}
        for name, sp in sub.choices.items()]


def test_the_parser_has_the_shape_of_its_golden():
    from mvphi.cli import build_parser
    golden = ROOT / "tests" / "data" / "parser.json"
    assert parser_shape(build_parser()) == json.loads(golden.read_text())


def test_golden_list_is_complete():
    assert sorted(p.stem for p in (ROOT / "tests" / "data" / "cli")
                  .glob("*.out")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, "-m", "mvphi"]
                          + GOLDEN[name].split(), capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == EXIT_CODE.get(name, 0), proc.stderr
    golden = ROOT / "tests" / "data" / "cli" / (name + ".out")
    assert proc.stdout == golden.read_text()
