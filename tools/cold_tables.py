"""Cold wall time of the T-series tables, one fresh interpreter each.

Prints one line with the milliseconds of:

- ``mvring.phi_images`` at (p,f,h) = (5,2,2), window 20: the group sums,
  the T->Y reversion and the substitution behind the Frobenius table;
- ``mvring.gamma_images`` of one new unit at (3,2,2), after another
  unit's table has built the shared reversion: the per-unit group sums
  and substitution a new unit costs;
- ``iwasawa.y_to_t_inverse`` at (2,3,3), window 16: the reversion at
  h = 3, where the coefficients fold through the general table.

Only the call is timed, not the import.  The module caches have no public
clear, so each figure comes from its own interpreter.  The line is
informational: the script exits 0 whatever it measures.

Stdlib only; run it from anywhere in the repository:

    python tools/cold_tables.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _phi_images():
    from mvphi import mvring
    from mvphi.coeff import Params
    P = Params.create(5, 2, 2)
    return lambda: mvring.phi_images(P, 20)


def _gamma_images():
    from mvphi import mvring
    from mvphi.coeff import Params, ok_ring
    P = Params.create(3, 2, 2)
    okr = ok_ring(P)
    mvring.gamma_images(P, okr((1, 1)))
    return lambda: mvring.gamma_images(P, okr((2, 1)))


def _y_to_t_inverse():
    from mvphi.coeff import Params
    from mvphi.iwasawa import y_to_t_inverse
    P = Params.create(2, 3, 3)
    return lambda: y_to_t_inverse(P, 16)


PROBES = {
    "phi_images (5,2,2) W=20": _phi_images,
    "gamma_images of a new unit (3,2,2)": _gamma_images,
    "y_to_t_inverse (2,3,3) W=16": _y_to_t_inverse,
}


def probe(name: str) -> float:
    """Seconds of one probe's call, in this interpreter."""
    call = PROBES[name]()
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--probe":
        print(probe(sys.argv[2]))
        return 0
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    parts = []
    for name in PROBES:
        try:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--probe", name],
                env=env, capture_output=True, text=True, check=True,
                timeout=300).stdout
            parts.append(f"{name} {1e3 * float(out):.1f} ms")
        except (subprocess.SubprocessError, ValueError) as exc:
            parts.append(f"{name} failed ({type(exc).__name__})")
    print("Cold T-series tables (one fresh interpreter each): "
          + "; ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
