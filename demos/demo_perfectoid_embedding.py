"""The embedding of the Laurent ring into Witt vectors of the perfection.

The generator images y_i are pinned down by a Frobenius-inverse fixpoint:
digit zero is the plain variable and each iteration wins one more pi-adic
digit, at the cost of p-power roots of the exponents.  The script prints
the digits, then compares the two norms the embedding is supposed to match.
"""

from fractions import Fraction

from mvphi.coeff import Params
from mvphi.mvring import MvLaurent
from mvphi.embed import iota_generators, to_belt, verify_norm_compare
from mvphi.perfd import gauss_val


def main():
    for (p, f) in [(2, 1), (3, 1), (3, 2)]:
        pr = Params.create(p, f)
        res = iota_generators(pr)
        print(f"\n=== p = {p}, f = {f}: fixpoint after "
              f"{len(res.certificates)} steps, certificates mod "
              f"p^{res.certificates} ===")
        for i, y in enumerate(res.ys):
            belt = to_belt(y, Fraction(1))
            gvs = [gauss_val(d) for d in belt.digits()]
            print(f"  y_{i} digit Gauss valuations: "
                  f"{[str(v) if v is not None else 'zero' for v in gvs]}")

        samples = [MvLaurent.monomial(pr, 1),
                   MvLaurent.monomial(pr, -1, None, p),
                   MvLaurent.one(pr) + MvLaurent.monomial(pr, 2)]
        print("  norm comparison s*|x|_s vs |iota(x)|_(1/s):")
        for s in (1, 2):
            for x in samples:
                rep = verify_norm_compare(x, s)
                print(f"    s={s}: ring {rep['ring_side']}, "
                      f"witt {rep['witt_side']}, equal: {rep['ok']}")


if __name__ == "__main__":
    main()
