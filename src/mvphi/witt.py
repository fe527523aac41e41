"""Truncated p-typical Witt vectors over perfect rings of characteristic p.

Structure polynomials are generated once per (p, N) by solving the ghost
identities over the integers (each step an exact division by p^n);
arithmetic applies them coordinatewise by one evaluation walk, so the same
code runs over any perfect base (finite fields, perfectoid Laurent rings);
a handle supplies only what differs between bases, the element kernel of
the walk included (the field's own operators, or raw term dicts).

For E unramified, O_E = W(F), so the ramified functor W_{O_E} coincides with
W itself and O_E-scalars act through their Teichmueller digit expansions.
"""

from __future__ import annotations

from operator import add, mul
from typing import Optional

from .caches import cached
from .coeff import FField, OEInt, power


# ---------------------------------------------------------------------------
# integer polynomials over 2N variables: {exponent tuple: int}, no zero terms
# ---------------------------------------------------------------------------

def _padd(a: dict, b: dict, k: int = 1) -> dict:
    """a + k * b."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + k * c
    return {e: c for e, c in out.items() if c}


def _pmul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ghost(nvars, offset, n, p):
    """w_n = sum_{j <= n} p^j Z_{offset+j}^{p^(n-j)}."""
    acc = {}
    for j in range(n + 1):
        e = tuple(p ** (n - j) if i == offset + j else 0
                  for i in range(nvars))
        acc = _padd(acc, {e: 1}, p ** j)
    return acc


def _mod_p_terms(poly: dict, p: int) -> tuple:
    """The terms of a polynomial with coefficient c mod p != 0, as
    (c mod p, ((j, d), ...) over the variables j of exponent d > 0)."""
    return tuple((c % p, tuple((j, d) for j, d in enumerate(e) if d))
                 for e, c in poly.items() if c % p)


def eval_int(poly: dict, values) -> int:
    """The value of an integer polynomial at integer arguments."""
    total = 0
    for e, c in poly.items():
        for v, d in zip(values, e):
            if d:
                c *= v ** d
        total += c
    return total


class StructPlan:
    """A structure polynomial's ``terms`` mod p laid out for evaluation.

    Term products form a prefix tree (node n multiplies its parent by
    X_j^d, nodes[n] = (j, d)) shared by terms with equal leading factors;
    ``index`` holds (c, path of nodes, mask of variables) per term, and
    ``groups`` each variable set with its terms' exponent vectors.
    """

    __slots__ = ("nodes", "index", "groups", "used")

    def __init__(self, terms: tuple):
        ids, index, groups = {}, [], {}
        for c, factors in terms:
            node, path = -1, []
            for f in factors:
                node = ids.setdefault((node, f), len(ids))
                path.append(node)
            js, ds = zip(*factors) if factors else ((), ())
            index.append((c, tuple(path), sum(1 << j for j in js)))
            groups.setdefault(js, []).append(ds)
        self.nodes = tuple(f for _, f in ids)
        self.index = tuple(index)
        self.groups = tuple((js, tuple(vecs)) for js, vecs in groups.items())
        self.used = tuple(sorted({j for js in groups for j in js}))


class StructurePolys:
    """Addition and multiplication polynomials S_n, P_n for W_N, as
    {exponent: int} dicts over X_0..X_{N-1}, Y_0..Y_{N-1}, and the plans of
    their terms mod p (``sum_plans``, ``prod_plans``), which the arithmetic
    over a characteristic-p handle evaluates."""

    def __init__(self, p: int, N: int, sums, prods):
        self.p = p
        self.N = N
        self.sums = sums
        self.prods = prods
        self.sum_plans = [StructPlan(_mod_p_terms(s, p)) for s in sums]
        self.prod_plans = [StructPlan(_mod_p_terms(q, p)) for q in prods]


def _div_exact(poly: dict, m: int) -> dict:
    if any(c % m for c in poly.values()):
        raise RuntimeError("non-integral structure polynomial (bug)")
    return {e: c // m for e, c in poly.items()}


@cached
def gen_structure_polys(p: int, N: int) -> StructurePolys:
    nv = 2 * N
    one = {(0,) * nv: 1}
    sums, prods = [], []
    for n in range(N):
        wx = _ghost(nv, 0, n, p)
        wy = _ghost(nv, N, n, p)
        acc_s, acc_p = {}, {}
        for j in range(n):
            e = p ** (n - j)
            acc_s = _padd(acc_s, power(sums[j], e, one, _pmul), p ** j)
            acc_p = _padd(acc_p, power(prods[j], e, one, _pmul), p ** j)
        sums.append(_div_exact(_padd(_padd(wx, wy), acc_s, -1), p ** n))
        prods.append(_div_exact(_padd(_pmul(wx, wy), acc_p, -1), p ** n))
    return StructurePolys(p, N, sums, prods)


def ghost_components(p: int, N: int, values) -> list:
    """Ghost vector of an integer tuple (x_0, ..., x_{N-1})."""
    out = []
    for n in range(N):
        out.append(sum(p ** j * values[j] ** (p ** (n - j))
                       for j in range(n + 1)))
    return out


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------

class FiniteFieldHandle:
    """Perfect-ring handle over F_{p^h}."""

    def __init__(self, field: FField):
        self.field = field
        self.p = field.p

    def zero(self):
        return self.field.zero

    def is_zero(self, a):
        return not a

    def eq(self, a, b):
        return a == b

    def embed_residue(self, lam: OEInt):
        return lam

    def kernel(self, vals) -> tuple:
        """Field elements are their own node values and carry no window:
        the plain sum, whatever the plan."""
        one, zero = self.field.one, self.field.zero
        return (one, lambda j, d: power(vals[j], d, one), mul,
                lambda plan, parts: sum(
                    [v for c, v in parts for _ in range(c)], zero))


WITT_COORDS = "witt-coordinates"
TEICH_EXPANSION = "teichmuller-expansion"


class WittVec:
    """Length-N Witt vector over a handle, in either coordinate form.

    The forms are related by (x_0, x_1, ...) = sum_n p^n [x_n^{1/p^n}]:
    expansion digit d_n is the p^n-th root of coordinate x_n.
    """

    __slots__ = ("handle", "prec", "form", "comps")

    def __init__(self, handle, prec: int, form: str, comps: tuple):
        if len(comps) != prec:
            raise ValueError("component count must equal the precision")
        self.handle = handle
        self.prec = prec
        self.form = form
        self.comps = tuple(comps)

    def coordinates(self) -> "WittVec":
        if self.form == WITT_COORDS:
            return self
        comps = [d.frobenius(n) if n else d for n, d in enumerate(self.comps)]
        return WittVec(self.handle, self.prec, WITT_COORDS, tuple(comps))

    def expansion(self) -> "WittVec":
        if self.form == TEICH_EXPANSION:
            return self
        comps = [x.pth_root(n) if n else x for n, x in enumerate(self.comps)]
        return WittVec(self.handle, self.prec, TEICH_EXPANSION, tuple(comps))

    def digits(self) -> tuple:
        return self.expansion().comps

    def is_zero(self) -> bool:
        return all(self.handle.is_zero(c) for c in self.comps)

    def eq(self, other) -> bool:
        _same_ring(self, other)
        a, b = self.coordinates(), other.coordinates()
        return all(self.handle.eq(x, y) for x, y in zip(a.comps, b.comps))


def _same_ring(u: WittVec, v: WittVec):
    if u.handle is not v.handle or u.prec != v.prec:
        raise ValueError("operands live over different Witt rings")


def _coordinatewise(u: WittVec, v: WittVec, plans: str) -> WittVec:
    """Evaluate the structure polynomials whose plans are the attribute
    ``plans`` of ``StructurePolys`` on the Witt coordinates of u and v.

    ``handle.kernel(vals)``, built once per operation, gives the node
    values ``one`` and ``power(j, d)`` (vals[j] to the d >= 1), their
    ``mul``, and ``total(plan, parts)``, which adds the (c, node value)
    pairs, c times each, into an element with the bounds of the sum of
    every term of the plan.  One walk per plan multiplies out only the
    terms with no zero value, each node on their paths once; the mask of
    zero values and the powers are shared by the N plans.
    """
    _same_ring(u, v)
    handle = u.handle
    vals = u.coordinates().comps + v.coordinates().comps
    dead = sum(1 << j for j, x in enumerate(vals) if handle.is_zero(x))
    one, power, mul, total = handle.kernel(vals)
    pows, comps = {}, []
    for plan in getattr(gen_structure_polys(handle.p, u.prec), plans):
        nodes, value, parts = plan.nodes, {}, []
        for ci, path, mask in plan.index:
            if mask & dead:
                continue
            term = None
            for n in path:
                got = value.get(n)
                if got is None:
                    jd = nodes[n]
                    pw = pows.get(jd)
                    if pw is None:
                        pw = pows[jd] = power(*jd)
                    got = value[n] = pw if term is None else mul(term, pw)
                term = got
            parts.append((ci, one if term is None else term))
        comps.append(total(plan, parts))
    return WittVec(handle, u.prec, WITT_COORDS, tuple(comps))


def witt_add(u: WittVec, v: WittVec) -> WittVec:
    return _coordinatewise(u, v, "sum_plans")


def witt_mul(u: WittVec, v: WittVec) -> WittVec:
    return _coordinatewise(u, v, "prod_plans")


def witt_neg(u: WittVec) -> WittVec:
    minus_one = from_int(u.handle, -1, u.prec)
    return witt_mul(u, minus_one)


def witt_sub(u: WittVec, v: WittVec) -> WittVec:
    return witt_add(u, witt_neg(v))


def teich(handle, x, prec: int) -> WittVec:
    return from_expansion(handle, (x,), prec)


def witt_zero(handle, prec: int) -> WittVec:
    return from_expansion(handle, (), prec)


def from_expansion(handle, digits, prec: Optional[int] = None) -> WittVec:
    pr = len(digits) if prec is None else prec
    if len(digits) > pr:
        raise ValueError("too many digits for the precision")
    comps = tuple(digits) + tuple(handle.zero()
                                  for _ in range(pr - len(digits)))
    return WittVec(handle, pr, TEICH_EXPANSION, comps)


def from_oe_scalar(handle, c: OEInt) -> WittVec:
    """O_E scalar as a Witt vector via its Teichmueller digit expansion."""
    digits = c.ring.teich_digits(c.coords, c.prec)
    return from_expansion(handle,
                          tuple(handle.embed_residue(d) for d in digits))


def from_int(handle, n: int, prec: int) -> WittVec:
    """Integer as a Witt vector: an integer is an O_E scalar, and the
    Teichmueller lift of a digit in F_p is the same in Z_p and in O_E."""
    return from_oe_scalar(handle, handle.field.oe.from_int(n, prec))


def map_coefficients(sigma, u: WittVec) -> WittVec:
    """Apply a base-ring endomorphism to every Teichmueller digit."""
    digits = tuple(sigma(d) for d in u.digits())
    return WittVec(u.handle, u.prec, TEICH_EXPANSION, digits)


def scalar_mul(c: OEInt, u: WittVec) -> WittVec:
    return witt_mul(from_oe_scalar(u.handle, c.reduce(u.prec)), u)
