import copy
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mvphi.coeff import Params
from mvphi.mvring import MvLaurent
from mvphi.phimod import unramified_char
from mvphi import serialize as ser
from mvphi.suites import SUITES


def run_cli(args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "mvphi"] + args,
                          capture_output=True, text=True, input=stdin)
    return proc


def phimodule_json(m):
    """The JSON input of ``etale`` and ``oc-cert`` for the module m, the
    inverse of ``serialize.phimodule_from``."""
    return {"rank": m.rank, "tag": m.tag, "s": m.s,
            "P": [[ser.mv_json(x) for x in row] for row in m.P],
            "action": [{"a": list(a.coords),
                        "G": [[ser.mv_json(x) for x in row] for row in G]}
                       for a, G in m.action]}


def test_phi_y_p2_example():
    proc = run_cli(["phi-y", "--p", "2", "--f", "1"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    entry = data["phi_y"][0]
    assert entry["congruence_mod_p"] is True
    assert entry["str"] in ("2*Y + Y^2", "Y^2 + 2*Y")


def test_phi_y_p3_congruence():
    proc = run_cli(["phi-y", "--p", "3", "--f", "1"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert all(e["congruence_mod_p"] for e in data["phi_y"])


def test_gamma_y_identity_unit():
    proc = run_cli(["gamma-y", "--p", "3", "--f", "1", "--a", "1"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    entry = data["gamma_y"][0]
    assert entry["series"]["terms"] == [{"coeff": [1], "exponents": [1]}]


def test_gamma_y_rejects_non_unit():
    proc = run_cli(["gamma-y", "--p", "3", "--f", "1", "--a", "3"])
    assert proc.returncode == 2


def test_iota_digits_p2():
    proc = run_cli(["iota", "--p", "2", "--f", "1", "--prec", "2"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["stabilization_ok"] is True
    witt = data["generators"][0]["witt"]
    assert witt["prec"] == 2
    digits = witt["digits"]
    assert digits[0]["terms"][0]["y0"] == {"num": 1, "den": 1}
    assert digits[1]["terms"][0]["y0"] == {"num": 1, "den": 2}
    assert all(row["ok"] for row in data["norm_table"])


def test_norm_roundtrip_stdin():
    pr = Params.create(3, 1, 1)
    x = MvLaurent.monomial(pr, -2, None, 3)
    payload = json.dumps(ser.mv_json(x))
    proc = run_cli(["norm", "--p", "3", "--f", "1", "--s", "2"],
                   stdin=payload)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["norm"]["exponent"] == {"num": 0, "den": 1}
    assert data["norm"]["certified"] is True


def test_decompose_roundtrip_cli():
    pr = Params.create(3, 1, 1)
    x = MvLaurent.monomial(pr, 4) + MvLaurent.monomial(pr, 1, None, 2)
    proc = run_cli(["decompose", "--p", "3", "--f", "1"],
                   stdin=json.dumps(ser.mv_json(x)))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["roundtrip"] is True
    assert len(data["components"]) == 3


def test_decompose_uncovered_window_is_no_roundtrip():
    # the recomposition's window is [0, -1): x - back is zero only because
    # nothing is certified, so the roundtrip must not be claimed
    proc = run_cli(["decompose", "--p", "3", "--f", "1"],
                   stdin=json.dumps({"pi_prec": 3, "window": [0, 5],
                                     "band": 6, "terms": [
                                         {"y0": 1, "cross": [],
                                          "coeff": [1]}]}))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["roundtrip"] is False


def test_a_window_below_two_names_the_least_deg():
    # a degree window of 1 holds no linear term, so the change of variables
    # between T- and Y-coordinates has nothing to invert
    for cmd in ("phi-y", "gamma-y", "iota"):
        proc = run_cli([cmd, "--p", "2", "--f", "1", "--deg", "1"])
        assert proc.returncode == 2
        assert proc.stderr == ("error: the degree window 1 holds no linear "
                               "term to invert; it needs --deg 2 or more\n")


def test_band_overflow_names_the_least_band():
    # (B + M)(p + 1) = (6 + 12) * 4 = 72 < 81 <= (9 + 12) * 4
    base = ["check", "--suite", "iota", "--p", "3", "--f", "2", "--prec", "4"]
    proc = run_cli(base)
    assert proc.returncode == 2
    assert "(-81,) exceeds band 72" in proc.stderr
    assert "--band 9 admits it" in proc.stderr
    proc = run_cli(base + ["--band", "8"])
    assert proc.returncode == 2
    assert "exceeds band 80" in proc.stderr
    assert "--band 9 admits it" in proc.stderr
    proc = run_cli(base + ["--band", "9"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["ok"] is True


def test_decompose_rejects_a_band_above_the_working_band(tmp_path, capsys):
    # decompose works at (B + M)(p + 1) = 72; an element read at band 73
    # is a usage error naming the least --band, ceil(73 / 4) - 12 = 7
    from pathlib import Path
    from mvphi import cli
    doc = json.loads((Path(__file__).parent / "data" / "cli" /
                      "decompose_p3_f2.json").read_text())
    path = tmp_path / "band73.json"
    path.write_text(json.dumps(dict(doc, band=73)))
    args = ["decompose", "--p", "3", "--f", "2", "--in", str(path)]
    assert cli.main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "error: the element's band 73 exceeds band 72; --band 7 admits it"]
    assert cli.main(args + ["--band", "7"]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_etale_cli():
    pr = Params.create(3, 1, 1)
    m = unramified_char(pr, __import__("mvphi.coeff", fromlist=["oe_ring"])
                        .oe_ring(pr).from_int(2, pr.N))
    proc = run_cli(["etale", "--p", "3", "--f", "1"],
                   stdin=json.dumps(phimodule_json(m)))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["is_etale"] is True and data["commutation"] is True


def test_oc_cert_cli():
    pr = Params.create(3, 1, 1)
    from mvphi.coeff import oe_ring
    m = unramified_char(pr, oe_ring(pr).from_int(2, pr.N))
    payload = json.dumps({"module": phimodule_json(m)})
    proc = run_cli(["oc-cert", "--p", "3", "--f", "1", "--s", "1"],
                   stdin=payload)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["ok"] is True and data["s"] == 1


def test_check_suite_and_unknown_suite():
    proc = run_cli(["check", "--suite", "frobenius", "--p", "3", "--f", "1"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["report"]["ok"] is True
    bad = run_cli(["check", "--suite", "nope", "--p", "3", "--f", "1"])
    assert bad.returncode == 2


def test_check_analytic_suite_at_precision_one():
    # at N = 1 the radius s = 2 is past the precision: the only class of
    # 1 + p^2 O_K mod p is 1, and the draw must not ask for p^(N - s)
    for p, f in ((3, 1), (3, 2)):
        proc = run_cli(["check", "--suite", "analytic", "--p", str(p),
                        "--f", str(f), "--prec", "1"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["report"]["ok"] is True


def test_check_witt_suite_ghost_oracle():
    proc = run_cli(["check", "--suite", "witt", "--p", "3", "--f", "1"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    ids = {a["id"]: a["ok"] for a in data["report"]["assertions"]}
    assert ids["witt/ghost-identities"] is True


def test_determinism_byte_identical():
    args = ["check", "--suite", "witt", "--p", "2", "--f", "1",
            "--seed", "7"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "f": 1, "prec": 2}))
    proc = run_cli(["phi-y", "--config", str(cfg), "--prec", "3"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["config"]["p"] == 5 and data["config"]["prec"] == 3


@pytest.mark.parametrize("data,line", [
    (b"[1]", "must be an object, got a list of 1"),
    (b'"str"', "must be an object, got a string"),
    (b"not json", "is not JSON: Expecting value: line 1 column 1 (char 0)"),
    (b"\xff", "is not JSON: 'utf-8' codec can't decode byte 0xff in position "
              "0: invalid start byte"),
])
def test_a_config_file_that_is_no_object_names_the_file(data, line, tmp_path,
                                                        capsys):
    from mvphi import cli
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    assert cli.main(["phi-y", "--config", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: the config file {path} {line}\n"


def test_out_file(tmp_path):
    out = tmp_path / "result.json"
    proc = run_cli(["phi-y", "--p", "2", "--f", "1", "--out", str(out)])
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["phi_y"][0]["congruence_mod_p"] is True


def test_serialize_roundtrips():
    pr = Params.create(3, 2, 2)
    x = MvLaurent.monomial(pr, -1, (2,), 4) + MvLaurent.monomial(pr, 3)
    back = ser.mv_from(pr, json.loads(json.dumps(ser.mv_json(x))))
    assert back.terms == x.terms and back.w_hi == x.w_hi
    from mvphi.coeff import oe_ring, ok_ring
    okr = ok_ring(pr)
    m = unramified_char(pr, oe_ring(pr).from_int(2, pr.N),
                        samples=(okr.coordinates_of_felt(okr.field.one),))
    enc = json.loads(json.dumps(phimodule_json(m)))
    assert phimodule_json(ser.phimodule_from(pr, enc)) == enc


def test_iota_norm_table_tests_each_generator(monkeypatch, tmp_path):
    from mvphi import cli
    from mvphi.embed import IotaResult
    seen = []

    def record(x, s):
        seen.append((s, x))
        return {"ok": True, "ring_side": None, "witt_side": None}
    monkeypatch.setattr(cli, "iota_generators",
                        lambda params: IotaResult((), [1, 2]))
    monkeypatch.setattr(cli, "verify_norm_compare", record)
    assert cli.main(["iota", "--p", "3", "--f", "2", "--h", "2",
                     "--out", str(tmp_path / "iota.json")]) == 0
    pr = Params.create(3, 2, 2)
    y0, y1 = MvLaurent.monomial(pr, 1), MvLaurent.monomial(pr, 1, (1,))
    assert seen == [(1, y0), (1, y1), (2, y0), (2, y1)]


def test_norm_radius_must_be_positive(capsys):
    from mvphi import cli
    for cmd in ("norm", "oc-cert"):
        for s in ("0", "-1"):
            assert cli.main([cmd, "--p", "3", "--f", "1", "--s", s]) == 2
            assert "--s must be a positive integer" in capsys.readouterr().err


def test_mv_from_rejects_wrong_vector_lengths(tmp_path):
    import pytest
    from mvphi import cli
    pr = Params.create(3, 2, 2)
    bad = {"pi_prec": 3, "window": [0, None], "band": 6,
           "terms": [{"y0": 1, "cross": [0, 0, 5], "coeff": [1, 2, 3, 4]}]}
    with pytest.raises(ValueError):
        ser.mv_from(pr, bad)
    short = dict(bad, terms=[{"y0": 1, "cross": [0], "coeff": [1]}])
    with pytest.raises(ValueError):
        ser.mv_from(pr, short)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["norm", "--p", "3", "--f", "2", "--h", "2",
                     "--in", str(path)]) == 2


def test_kernel_value_error_is_internal(monkeypatch, capsys, tmp_path):
    # a ValueError or KeyError raised by the kernel after the input was
    # read is an internal error (3), not a usage error (2)
    from mvphi import cli
    from mvphi.coeff import OERing

    def inexact(self, a, v, prec):
        raise ValueError("division by p^v is not exact")
    monkeypatch.setattr(OERing, "raw_div_exact_p", inexact)
    assert cli.main(["iota", "--p", "2", "--f", "1", "--prec", "2",
                     "--out", str(tmp_path / "iota.json")]) == 3
    assert "internal error: ValueError: division by p^v is not exact" \
        in capsys.readouterr().err

    def missing(x, s):
        raise KeyError("table entry")
    monkeypatch.setattr(cli, "norm_s", missing)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(ser.mv_json(
        MvLaurent.monomial(Params.create(3, 1, 1), 1))))
    assert cli.main(["norm", "--p", "3", "--f", "1", "--in",
                     str(path)]) == 3
    assert "internal error: KeyError" in capsys.readouterr().err

    # every other subcommand: the kernel call after the input was read
    # raises, alternately a ValueError and a KeyError
    data = Path(__file__).resolve().parent / "data" / "cli"
    calls = [
        ("phi_y", ["phi-y", "--p", "2", "--f", "1"]),
        ("gamma_y", ["gamma-y", "--p", "2", "--f", "1", "--a", "3"]),
        ("phi_decompose", ["decompose", "--p", "3", "--f", "2", "--in",
                           str(data / "decompose_p3_f2.json")]),
        ("is_etale", ["etale", "--p", "3", "--f", "1", "--in",
                      str(data / "etale_p3_f1.json")]),
        ("oc_certificate_check", ["oc-cert", "--p", "3", "--f", "1", "--s",
                                  "1", "--in",
                                  str(data / "oc-cert_p3_f1_s1.json")]),
        ("run_suite", ["check", "--suite", "frobenius", "--p", "3", "--f",
                       "1"]),
    ]
    for n, (name, argv) in enumerate(calls):
        exc = (ValueError, KeyError)[n % 2]

        def broken(*args, exc=exc, **kw):
            raise exc("kernel fault")
        monkeypatch.setattr(cli, name, broken)
        assert cli.main(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert f"internal error: {exc.__name__}" in err, (argv[0], err)


def test_input_errors_are_usage_errors(tmp_path, capsys):
    from mvphi import cli
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    no_key = tmp_path / "no_key.json"
    no_key.write_text(json.dumps({"pi_prec": 3}))

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def mv(terms=({"y0": 0, "cross": [], "coeff": [1]},), **kw):
        return dict({"pi_prec": 3, "window": [0, None], "band": 6,
                     "terms": list(terms)}, **kw)

    def module(P, rank=1, tag="A_mv", **kw):
        return dict({"rank": rank, "tag": tag, "P": P}, **kw)
    bad_elements = [
        mv([{"y0": 0, "cross": [], "coeff": [1.5]}]),
        mv([{"y0": 1.5, "cross": [], "coeff": [1]}]),
        mv([{"y0": 0, "cross": [], "coeff": [True]}]),
        mv(pi_prec=-1), mv(pi_prec=0), mv(band=-1), mv(window=[0, 1.5]),
        mv([{"y0": 1, "cross": [], "coeff": [1]},
            {"y0": 1, "cross": [], "coeff": [2]}]),
    ]
    bad_modules = [
        module([[mv(), mv()]]),                        # 1 x 2, rank 1
        module([[mv()]], rank=2),
        module([[mv()]], tag="bogus"),
        module([[mv()]], rank=0),
        module([[mv()]], tag="dagger_s_minus"),        # no s
        module([[mv()]], tag="dagger_s_minus", s=0),
        module([[mv()]], tag="dagger_s_minus", s=1.5),
        module([[mv()]], action=[{"a": [2], "G": [[mv(), mv()]]}]),
    ]
    cases = [
        ["phi-y", "--p", "4", "--f", "1"],                  # Params.create
        ["phi-y", "--config", str(tmp_path / "missing.json")],
        ["phi-y", "--config", str(bad_json)],
        ["norm", "--p", "3", "--f", "1", "--in", str(bad_json)],
        ["norm", "--p", "3", "--f", "1", "--in", str(no_key)],  # mv_from
        ["oc-cert", "--p", "3", "--f", "1", "--in", str(no_key)],
        ["gamma-y", "--p", "3", "--f", "1", "--a", "x"],
        ["gamma-y", "--p", "3", "--f", "2", "--h", "2", "--a", "1"],
        ["phi-y", "--p", "2", "--f", "1",
         "--out", str(tmp_path / "no" / "dir.json")],
        ["phi-y", "--config", write("prec.json", {"prec": 2.5})],
        ["phi-y", "--config", write("foo.json", {"foo": 1})],
        ["phi-y", "--config", write("list.json", [1])],
        ["oc-cert", "--p", "3", "--f", "1", "--in",
         write("u.json", {"module": module([[mv()]]),
                          "U": [[mv(), mv()]]})],
    ]
    for i, x in enumerate(bad_elements):
        cases.append(["norm", "--p", "3", "--f", "1", "--in",
                      write(f"mv{i}.json", x)])
    for i, m in enumerate(bad_modules):
        cases += [["etale", "--p", "3", "--f", "1", "--in",
                   write(f"m{i}.json", m)],
                  ["oc-cert", "--p", "3", "--f", "1", "--in",
                   write(f"oc{i}.json", {"module": m})]]
    for argv in cases:
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_residue_degree_below_one_is_a_usage_error(capsys):
    from mvphi import cli
    for h in ("0", "-2"):
        assert cli.main(["phi-y", "--p", "3", "--h", h]) == 2
        err = capsys.readouterr().err
        assert f"h = {h}" in err and "h >= 1" in err


def test_an_exponent_past_the_recursion_limit_is_substituted(tmp_path,
                                                             capsys):
    # a power of a substitution atom was one recursive call per step, so
    # y0 = 1200 exited 3 with a RecursionError
    from mvphi import cli
    data = Path(__file__).resolve().parent / "data" / "cli"
    obj = json.loads((data / "etale_p3_f1.json").read_text())
    obj["P"][0][0]["terms"][0]["y0"] = 1200
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["etale", "--p", "3", "--f", "1", "--in",
                     str(path)]) == 0
    out = capsys.readouterr()
    assert out.err == "" and set(json.loads(out.out)) == {
        "config", "is_etale", "commutation"}


def test_the_iota_fixpoint_names_the_least_deg_and_depth():
    # phi(Y_i) leads with a term of degree p, so the fixpoint's window must
    # exceed p; with N = 1 no step runs and any window is enough
    for p in ("2", "3"):
        for cmd in (["iota"], ["check", "--suite", "iota"]):
            proc = run_cli(cmd + ["--p", p, "--f", "1", "--deg", p])
            assert proc.returncode == 2
            assert proc.stderr == (
                f"error: the embedding window {p} misses the degree-{p} "
                f"leading term of phi(Y_i); the fixpoint needs --deg "
                f"{int(p) + 1} or more\n")
    assert run_cli(["iota", "--p", "3", "--f", "1", "--deg", "4"]
                   ).returncode == 0
    assert run_cli(["iota", "--p", "3", "--f", "1", "--prec", "1", "--deg",
                    "3"]).returncode == 0
    proc = run_cli(["iota", "--p", "3", "--f", "1", "--prec", "4",
                    "--depth", "3"])
    assert proc.returncode == 2
    assert proc.stderr == ("error: need denominator depth k >= N for the "
                           "fixpoint; it needs --depth 4 or more\n")
    assert run_cli(["iota", "--p", "3", "--f", "1", "--prec", "4",
                    "--depth", "4"]).returncode == 0


def test_an_element_past_the_precision_names_the_least_prec(tmp_path):
    # an element may not claim more pi-adic digits than --prec gives it
    data = Path(__file__).resolve().parent / "data" / "cli"
    x = json.loads((data / "norm_p3_f2_s2.json").read_text())
    m = json.loads((data / "etale_p3_f1.json").read_text())
    x["pi_prec"] = m["P"][1][1]["pi_prec"] = 4
    cases = [(["norm", "--p", "3", "--f", "2", "--s", "2"], x),
             (["etale", "--p", "3", "--f", "1"], m)]
    for argv, obj in cases:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        proc = run_cli(argv + ["--in", str(path)])
        assert proc.returncode == 2, argv
        assert proc.stderr == ("error: pi_prec 4 exceeds the precision N = "
                               "3; it needs --prec 4 or more\n"), argv
        assert run_cli(argv + ["--prec", "4", "--in", str(path)]
                       ).returncode == 0, argv


# the documents of tests/data/cli with the flags of their golden commands
_DATA = Path(__file__).resolve().parent / "data" / "cli"
_DOCS = {"norm_p3_f2_s2": "norm --p 3 --f 2 --s 2",
         "norm_p3_f2_s2_whi": "norm --p 3 --f 2 --s 2",
         "norm_p3_f2_s2_prec": "norm --p 3 --f 2 --s 2",
         "decompose_p3_f2": "decompose --p 3 --f 2",
         "decompose_p5_f2": "decompose --p 5 --f 2 --h 2",
         "etale_p3_f1": "etale --p 3 --f 1",
         "oc-cert_p3_f1_s1": "oc-cert --p 3 --f 1 --s 1"}
_DOC = {name: json.loads((_DATA / f"{name}.json").read_text())
        for name in _DOCS}
_ONE = {"pi_prec": 3, "window": [0, None], "band": 6,
        "terms": [{"y0": 1, "cross": [], "coeff": [1]}]}
_MODULE = _DOC["etale_p3_f1"]


@pytest.mark.parametrize("cmd,doc,line", [
    ("norm", {k: v for k, v in _ONE.items() if k != "window"},
     "the element has no field 'window'"),
    ("norm", dict(_ONE, terms=5),
     "the element's terms must be a list, got an integer"),
    ("norm", dict(_ONE, terms=[5]),
     "a term must be an object, got an integer"),
    ("norm", dict(_ONE, terms="abc"),
     "the element's terms must be a list, got a string"),
    ("norm", dict(_ONE, window=[]),
     "the element's window must be a list of 2, got a list of 0"),
    ("norm", dict(_ONE, terms=[{"y0": 1, "cross": []}]),
     "a term has no field 'coeff'"),
    ("decompose", [_ONE], "the element must be an object, got a list of 1"),
    ("etale", dict(_MODULE, P=None),
     "the module's P must be a list, got null"),
    ("etale", dict(_MODULE, action=None),
     "the module's action must be a list, got null"),
    ("etale", dict(_MODULE, action=[{"a": [1]}]),
     "an action entry has no field 'G'"),
    ("oc-cert", [_MODULE], "the input must be an object, got a list of 1"),
    ("oc-cert", {"module": _MODULE, "U": {}},
     "the input's U must be a list, got an object"),
    ("oc-cert", _MODULE, "the input has no field 'module'"),
])
def test_a_malformed_document_names_its_field(cmd, doc, line, tmp_path,
                                              capsys):
    from mvphi import cli
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert cli.main([cmd, "--p", "3", "--f", "1", "--in", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {line}\n"


# each integer flag's draws: its valid range from one below its least
# value, with p <= 5, f <= 2 and N <= 3
_FLAGS = {"p": (1, 5), "f": (0, 2), "h": (0, 4), "prec": (0, 3),
          "deg": (0, 13), "band": (0, 12), "depth": (0, 5), "seed": (-1, 3),
          "s": (0, 3)}
# a replacement value of another type, length or bound; a negative exponent
# e under a substitution costs about e^2 products (7 s at -2000), so the
# draws stay within -200..2000
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-200, 2000),
                    st.sampled_from([1.5, "x", [], {}]),
                    st.lists(st.integers(-3, 3), max_size=3))


# a valid --config document, the one the draws mutate, and the values of
# another type that may replace one of its keys'
_CONFIG = {"p": 3, "f": 1, "h": None, "prec": 2, "deg": 12, "band": 6,
           "depth": 4, "seed": 0}
_NOT_INT = st.one_of(st.none(), st.booleans(),
                     st.sampled_from([1.5, "x", [], {}, [1], "3"]))


@st.composite
def _configs(draw):
    """The text of a --config file: ``_CONFIG`` with one key's value
    redrawn (an integer of its flag's range, or another type), one key
    removed or an unknown one added, another document in its place, or its
    text cut short."""
    doc, key = dict(_CONFIG), draw(st.sampled_from(sorted(_CONFIG)))
    how = draw(st.sampled_from(["value", "remove", "unknown", "document",
                                "cut"]))
    if how == "value":
        doc[key] = draw(st.one_of(st.integers(*_FLAGS[key]), _NOT_INT))
    elif how == "remove":
        del doc[key]
    elif how == "unknown":
        doc[draw(st.sampled_from(["s", "suite", "Prec"]))] = 1
    elif how == "document":
        doc = draw(st.one_of(_NOT_INT, st.integers(-3, 3)))
    text = json.dumps(doc)
    if how == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _paths(node, path=()):
    yield path
    items = node.items() if type(node) is dict else \
        enumerate(node) if type(node) is list else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


@st.composite
def _documents(draw):
    """A document of tests/data/cli with one node replaced by another type,
    length or bound, or removed."""
    name = draw(st.sampled_from(sorted(_DOC)))
    doc = copy.deepcopy(_DOC[name])
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return name, draw(_VALUES)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    node, how = parent[path[-1]], draw(st.sampled_from(
        ["replace", "remove", "grow", "nudge"]))
    if how == "remove":
        del parent[path[-1]]
    elif how == "grow" and type(node) is list:
        node.append(copy.deepcopy(node[0]) if node else 0)
    elif how == "nudge" and type(node) is int:
        parent[path[-1]] = node + draw(st.integers(-3, 3))
    else:
        parent[path[-1]] = draw(_VALUES)
    return name, doc


@st.composite
def _runs(draw):
    """(argv, document, config): a golden document, mutated or not, or a
    command without input; up to three of its flags drawn around their
    range; and the text of a --config file, or None."""
    if draw(st.booleans()):
        name, doc = draw(_documents())
        argv = _DOCS[name].split()
    else:
        argv, doc = [draw(st.sampled_from(
            ["phi-y", "gamma-y", "iota", "check"]))], None
        if argv[0] == "check":
            argv += ["--suite", draw(st.sampled_from(SUITES))]
        if argv[0] == "gamma-y" and draw(st.booleans()):
            # one word, so that a leading minus is not read as a flag
            argv.append("--a=" + ",".join(map(str, draw(st.lists(
                st.integers(-3, 9), max_size=3)))))
    keys = [k for k in _FLAGS if k != "s" or argv[0] in ("norm", "oc-cert")]
    for key in draw(st.lists(st.sampled_from(keys), max_size=3,
                             unique=True)):
        argv += [f"--{key}", str(draw(st.integers(*_FLAGS[key])))]
    return argv, doc, draw(st.one_of(st.none(), _configs()))


def _band73():
    return ["decompose", "--p", "3", "--f", "2"], \
        dict(_DOC["decompose_p3_f2"], band=73), None


def _y0_1200():
    doc = copy.deepcopy(_DOC["etale_p3_f1"])
    doc["P"][0][0]["terms"][0]["y0"] = 1200
    return ["etale", "--p", "3", "--f", "1"], doc, None


# the --out target: absent, a file in the temp directory, the directory
# itself, or a file under a directory that does not exist
_OUT = {"absent": None, "file": ("out.json",), "dir": (),
        "missing": ("no", "out.json")}


@example(_band73(), "absent")
@example(_y0_1200(), "file")
@settings(derandomize=True, deadline=None, max_examples=150)
@given(_runs(), st.sampled_from(sorted(_OUT)))
def test_the_command_line_boundary_exits_0_1_or_2(run, dest):
    # exit 3 is a kernel bug; a usage error is one line and no output; a
    # result written to --out is one JSON document and no stdout
    from mvphi import cli
    argv, doc, config = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "cfg.json"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        target = None if _OUT[dest] is None else Path(tmp, *_OUT[dest])
        if target is not None:
            argv = argv + ["--out", str(target)]
        with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
                redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        written = target.read_text() if code in (0, 1) and target else None
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    elif target is not None:
        assert dest == "file" and out.getvalue() == "", argv
        assert "config" in json.loads(written), argv
