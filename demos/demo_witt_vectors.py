"""Witt vectors from first principles: ghost components and digit forms.

Structure polynomials are solved from the ghost identities over the
integers; this script prints the first few, spot-checks the identities on
random integers, and exhibits the isomorphism of length-N vectors over the
prime field with integers mod p^N.
"""

import random

from mvphi.coeff import Params, fq_field
from mvphi.witt import (gen_structure_polys, ghost_components, eval_int,
                        FiniteFieldHandle, from_int,
                        witt_add, witt_mul, teich)


def poly_str(poly, names):
    bits = []
    for e, c in sorted(poly.items()):
        mono = "*".join(f"{names[i]}^{d}" if d > 1 else names[i]
                        for i, d in enumerate(e) if d)
        bits.append(f"{c}{'*' + mono if mono else ''}")
    return " + ".join(bits) if bits else "0"


def main():
    p, N = 3, 3
    sp = gen_structure_polys(p, N)
    names = [f"X{i}" for i in range(N)] + [f"Y{i}" for i in range(N)]
    print(f"structure polynomials for p = {p}:")
    print("  S0 =", poly_str(sp.sums[0], names))
    print("  S1 =", poly_str(sp.sums[1], names))
    print("  P1 =", poly_str(sp.prods[1], names))

    rng = random.Random(0)
    xs = [rng.randrange(20) for _ in range(N)]
    ys = [rng.randrange(20) for _ in range(N)]
    svals = [eval_int(sp.sums[n], xs + ys) for n in range(N)]
    print(f"\nghost check on {xs} + {ys}:")
    print("  ghost(x)      =", ghost_components(p, N, xs))
    print("  ghost(y)      =", ghost_components(p, N, ys))
    print("  ghost(x + y)  =", ghost_components(p, N, svals))

    pr = Params.create(p, 1, 1, N=N)
    h = FiniteFieldHandle(fq_field(pr))
    a, b = 14, 22
    wa, wb = from_int(h, a, N), from_int(h, b, N)
    total = witt_add(wa, wb)
    print(f"\nW(F_{p}) / p^{N} is Z / {p ** N}:")
    print(f"  {a} as digits {[d.coords[0] for d in wa.digits()]}")
    print(f"  {b} as digits {[d.coords[0] for d in wb.digits()]}")
    print(f"  sum digits    {[d.coords[0] for d in total.digits()]}")
    print(f"  expected      "
          f"{[d.coords[0] for d in from_int(h, a + b, N).digits()]}")

    F = fq_field(Params.create(2, 2, 2))
    h2 = FiniteFieldHandle(F)
    x = F((1, 1))
    print("\nTeichmuller lifts are multiplicative:")
    prod = witt_mul(teich(h2, x, 3), teich(h2, x, 3))
    print("  [x]*[x] digits:", [d.coords for d in prod.digits()])
    print("  [x^2]   digits:", [d.coords for d in teich(h2, x * x, 3).digits()])


if __name__ == "__main__":
    main()
