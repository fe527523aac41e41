"""Seeded input generators for the benchmark workloads.

They follow the shapes of the verification suites' samplers (mixed-sign
Laurent supports, pure-cone elements, small certifiable-norm elements) but
are the benchmark's own: editing the suites cannot change a workload.  They
return plain Python data (term dicts and coordinate tuples); the program
only ever sees the elements built from them.  Nothing here imports mvphi.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class Rng:
    """SplitMix64, so one seed gives one stream on every Python version."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform in [0, n) up to a bias below n / 2^64."""
        return self.next64() % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform in [lo, hi)."""
        return lo + self.below(hi - lo)


def mixed_sign(rng: Rng, p: int, f: int, h: int, N: int, nterms: int = 3,
               anchor: int | None = None) -> dict:
    """Laurent terms with Y_0-exponents in [-3, 5) and cross exponents in
    [-2, 3); each coefficient has a random p-adic valuation below N.  With
    ``anchor`` the monomial Y_0^anchor is added, which pins the s-norm."""
    mod = p ** N
    terms = {}
    for _ in range(nterms):
        n0 = rng.between(-3, 5)
        cross = tuple(rng.between(-2, 3) for _ in range(f - 1))
        v = rng.below(N)
        c = [rng.below(mod) for _ in range(h)]
        c[0] = c[0] or 1
        c = tuple((x * p ** v) % mod for x in c)
        if any(c):
            terms[(n0, cross)] = c
    if anchor is not None:
        key = (anchor, (0,) * (f - 1))
        old = terms.get(key, (0,) * h)
        terms[key] = ((old[0] + 1) % mod,) + old[1:]
    return terms


def pure_cone(rng: Rng, p: int, f: int, h: int, N: int,
              nterms: int = 3) -> dict:
    """Terms with nonnegative exponent in every generator Y_i (each < 3)."""
    mod = p ** N
    terms = {}
    for _ in range(nterms):
        z = [rng.below(3) for _ in range(f)]
        v = rng.below(N)
        c = tuple((rng.between(1, mod) * p ** v) % mod for _ in range(h))
        if any(c):
            terms[(sum(z), tuple(z[1:]))] = c
    return terms


def iota_sample(rng: Rng, p: int, f: int, h: int, N: int) -> dict:
    """Small elements whose norms sit in a certifiable range: one unit
    monomial near Y_0^0 plus two nearby terms of random valuation."""
    mod = p ** N
    a0 = rng.between(-1, 2)
    terms = {(a0, tuple(rng.between(-1, 2) for _ in range(f - 1))):
             (rng.between(1, p),) + (0,) * (h - 1)}
    for _ in range(2):
        n0 = rng.between(a0, a0 + 3)
        cross = tuple(rng.between(-1, 2) for _ in range(f - 1))
        v = rng.below(N)
        c = tuple((rng.below(mod) * p ** v) % mod for _ in range(h))
        if any(c):
            terms.setdefault((n0, cross), c)
    return terms


def two_term(rng: Rng, p: int, f: int, h: int, N: int, a: int, db: int,
             v: int) -> dict:
    """A unit monomial at Y_0^a plus, db degrees up, a term of valuation
    exactly v (db = 0 keeps the monomial alone, as in ``iota_sample``)."""
    mod = p ** N
    zero = (0,) * (f - 1)
    terms = {(a, zero): (rng.between(1, p),) + (0,) * (h - 1)}
    if db:
        unit = rng.below(mod // p) * p + rng.between(1, p)
        c = (unit,) + tuple(rng.below(mod) for _ in range(h - 1))
        terms[(a + db, zero)] = tuple((x * p ** v) % mod for x in c)
    return terms


def unit_coords(rng: Rng, p: int, f: int, N: int) -> tuple:
    """Coordinates of a unit of O_K in the Teichmueller basis: the basis
    lifts are independent mod p, so some coordinate must be prime to p."""
    while True:
        coords = tuple(rng.below(p ** N) for _ in range(f))
        if any(c % p for c in coords):
            return coords


def diagonal_phimod(rng: Rng, p: int, f: int) -> tuple:
    """A diagonal phi-module u_i Y^e_i X^c_i + p Y^(e_i + 1) and its
    integral bound sum e_i: entries as (e, cross, u) triples."""
    entries = []
    for _ in range(rng.between(1, 4)):
        entries.append((rng.below(3),
                        tuple(rng.between(-1, 2) for _ in range(f - 1)),
                        rng.between(1, p)))
    return tuple(entries), sum(e for e, _, _ in entries)


def perf_monomial(rng: Rng, f: int, scale: int, n_units: int) -> tuple:
    """A perfectoid monomial: integer exponents in [-4, 5) at the given
    denominator scale, and the index of a nonzero residue-field element."""
    return (tuple(rng.between(-4, 5) * scale for _ in range(f)),
            rng.below(n_units))
