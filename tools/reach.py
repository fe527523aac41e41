"""Which library functions the system never runs.

Traces every call into ``src/mvphi`` (``sys.settrace``, call events only)
while running, in one process:

- the 8 verification suites at the CI grid points (2,1,1), (3,1,1),
  (3,2,2), (5,2,2), (2,2,4) and (3,1,3), and witt, iota and norms at
  (3,1,1) with ``--prec 4``;
- every CLI golden command of ``tests/test_cli_golden.py``;
- the demos;
- a fixed number of seed-1 requests of each benchmark workload, after its
  set-up.

It then prints each function or method defined in ``src/mvphi`` that was
never called, as ``module.py:line qualified.name``, one per line.  A
function counts as reached when it is called, that is when its first line
runs.  The list is informational: the script exits 0 whatever it finds.

Stdlib only; run it from anywhere in the repository:

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIB = os.path.join(ROOT, "src", "mvphi")

GRID = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (5, 2, 2), (2, 2, 4), (3, 1, 3)]
SUITES = ["frobenius", "action", "norms", "analytic", "iota", "witt",
          "decompose", "phimod"]
PREC4_SUITES = ["witt", "iota", "norms"]
REQUESTS = {"decompose-f2": 400, "action-f2": 400, "embed-f2": 120,
            "witt-n4": 30}


def library_functions():
    """{(path, first line): (line of def, qualified name)} for every
    function and method in the library; the first line is that of the
    first decorator, as the function's code object has it."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out[(path, first)] = (child.lineno, name)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for name in sorted(os.listdir(LIB)):
        if name.endswith(".py"):
            path = os.path.join(LIB, name)
            with open(path) as fh:
                walk(ast.parse(fh.read(), path), path, "")
    return out


def golden_commands():
    """The argument lists of the CLI golden commands, read from the test
    module's ``GOLDEN`` literal without importing it."""
    path = os.path.join(ROOT, "tests", "test_cli_golden.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "GOLDEN"):
            return [cmd.split() for cmd in ast.literal_eval(node.value)
                    .values()]
    raise RuntimeError("no GOLDEN table in tests/test_cli_golden.py")


def runs():
    """(label, thunk) for every traced run."""
    from mvphi import cli

    def command(argv):
        return lambda: cli.main(argv)
    for p, f, h in GRID:
        for s in SUITES:
            argv = ["check", "--p", str(p), "--f", str(f), "--h", str(h),
                    "--suite", s]
            yield " ".join(argv), command(argv)
    for s in PREC4_SUITES:
        argv = ["check", "--p", "3", "--f", "1", "--h", "1", "--prec", "4",
                "--suite", s]
        yield " ".join(argv), command(argv)
    for argv in golden_commands():
        yield " ".join(argv), command(argv)
    demos = os.path.join(ROOT, "demos")
    for name in sorted(os.listdir(demos)):
        if name.endswith(".py"):
            path = os.path.join(demos, name)
            yield name, lambda path=path: runpy.run_path(path,
                                                         run_name="__main__")
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads
    for name, count in REQUESTS.items():
        yield f"{name} x {count}", lambda name=name, count=count: \
            serve(workloads.WORKLOADS[name], count)


def serve(wl, count: int):
    """The workload's set-up and its first ``count`` seed-1 requests."""
    params = wl.make_params()
    wl.setup(params)
    stream, tally = wl.stream(params, 1), Counter()
    for _ in range(count):
        wl.run(params, next(stream), tally)


def main() -> int:
    # the golden commands read their inputs relative to the root, and the
    # library is imported by its absolute path, the one its code objects
    # carry
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    called = set()
    prefix = LIB + os.sep

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            called.add((code.co_filename, code.co_firstlineno))
        # no line events: a call is all that is recorded
        return None

    # on from the first import of the library, whose decorators run then
    sys.settrace(tracer)
    for label, run in runs():
        print(f"reach: {label}", file=sys.stderr)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run()
        except Exception:
            traceback.print_exc()
    sys.settrace(None)
    funcs = library_functions()
    missed = sorted((os.path.relpath(path, os.path.dirname(LIB)), line, name)
                    for (path, first), (line, name) in funcs.items()
                    if (path, first) not in called)
    for path, line, name in missed:
        print(f"{path}:{line} {name}")
    print(f"reach: {len(missed)} of {len(funcs)} library functions "
          f"never called", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
