"""The group ring O_E[[O_K]] in coordinates T_j = [e_j] - 1.

A ``TSeries`` is a truncated power series in f variables with OEInt-valued
coefficients, cut at a total-degree window and a uniform pi-precision.
Group-like elements, the generators Y_i, the Frobenius substitution phi and
the unit-group action all live here, together with the change of variables
between T- and Y-coordinates (series reversion).

Series products run on ``sparse.product``, group sums on ``lincomb``, the
change of variables on a packed (Kronecker) layout: one Python int per
series or degree row, so a product is one integer product (Harvey, JSC 2009).
"""

from __future__ import annotations

from itertools import product
from operator import add
from typing import Optional

from .caches import cached
from .coeff import (Params, OKElement, _row_reduce, binomial_row, oe_ring,
                    ok_ring)
from .errors import PrecisionExhausted, SingularJacobian
from . import sparse
from .sparse import from_slots, slot_bytes, to_slots


class TSeries(sparse.Terms):
    """Truncated multivariate power series with coefficient precision.

    terms: exponent tuple (length f) -> raw O_E coordinate tuple, all
    reduced mod p^prec, zero coefficients dropped, total degree < window.
    """

    __slots__ = ("params", "prec", "window", "terms")

    def __init__(self, params: Params, prec: int, window: int, terms: dict):
        self.params = params
        self.prec = prec
        self.window = window
        self.terms = sparse.reduce(oe_ring(params), terms, prec,
                                   lambda e: sum(e) < window)

    @staticmethod
    def _make(params, prec, window, terms):
        """The series of terms cut at the window, each coordinate reduced
        into [0, p^prec) and no coefficient zero, as every class keeps."""
        x = object.__new__(TSeries)
        x.params, x.prec, x.window, x.terms = params, prec, window, terms
        return x

    # -- constructors --------------------------------------------------------

    @staticmethod
    def one(params: Params, prec: int, window: Optional[int] = None):
        return TSeries._monomial(params, (0,) * params.f, prec, window)

    @staticmethod
    def variable(params: Params, j: int, prec: int,
                 window: Optional[int] = None):
        e = tuple(1 if i == j else 0 for i in range(params.f))
        return TSeries._monomial(params, e, prec, window)

    @staticmethod
    def _monomial(params: Params, e: tuple, prec: int, window):
        w = params.M if window is None else window
        terms = {e: (1,) + (0,) * (params.h - 1)} if sum(e) < w else {}
        return TSeries._make(params, prec, w, terms)

    # -- ring operations -------------------------------------------------------

    @staticmethod
    def lincomb(pairs) -> "TSeries":
        """sum c * x over (raw scalar c, series x) pairs, at the least
        precision and window."""
        xs = [x for _, x in pairs]
        params = sparse.common(xs, "params", "parameter sets")
        prec = min([x.prec for x in xs])
        window = min([x.window for x in xs])
        out = sparse.lincomb(oe_ring(params),
                             [(c, x.terms, x.prec) for c, x in pairs], prec,
                             lambda e: sum(e) < window)
        return TSeries._make(params, prec, window, out)

    def __mul__(self, other):
        params = sparse.common((self, other), "params", "parameter sets")
        prec = min(self.prec, other.prec)
        window = min(self.window, other.window)

        def join(e1, e2):
            e = tuple(map(add, e1, e2))
            return e if sum(e) < window else None
        return TSeries._make(params, prec, window, sparse.product(
            oe_ring(params), self.terms, other.terms, prec, join))

    def __eq__(self, other):
        return (isinstance(other, TSeries) and self.params == other.params
                and self.prec == other.prec and self.window == other.window
                and self.terms == other.terms)

    def constant_term(self) -> tuple:
        return self.terms.get((0,) * self.params.f, (0,) * self.params.h)

    def coefficient(self, e: tuple) -> tuple:
        return self.terms.get(tuple(e), (0,) * self.params.h)

    def truncate(self, window: int) -> "TSeries":
        return TSeries._make(self.params, self.prec, min(self.window, window),
                             {e: c for e, c in self.terms.items()
                              if sum(e) < window})

    def reduce(self, prec: int) -> "TSeries":
        if prec >= self.prec:
            return self
        return TSeries(self.params, prec, self.window, self.terms)

    def substitute(self, G: "Reversion") -> "TSeries":
        """Substitute T_j -> G_j: one packed sum over the reversion's table
        of every monomial G^e, mod p^prec and cut at the least window."""
        window = min(self.window, G[0].window)
        prec = min(self.prec, G[0].prec)
        m = self.params.p ** prec
        nb, packed, lay = G.nb, G.packed, G.layout
        acc = 0
        for e, c in self.terms.items():
            x = packed.get(e)
            if x is not None:
                acc += from_slots([v % m for v in c], nb) * x
        # the positions of degree < window are the lowest window * row
        cut = 8 * nb * lay.span * lay.row * window
        return TSeries._make(self.params, prec, window,
                             lay.unpack(acc & ((1 << cut) - 1), nb, m))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            mon = "*".join(f"T{j}^{d}" if d > 1 else f"T{j}"
                           for j, d in enumerate(e) if d)
            bits.append(f"{list(c)}{'*' + mon if mon else ''}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# the packed (Kronecker) layout
# ---------------------------------------------------------------------------

class Layout:
    """Kronecker layout of series in f variables below a degree window W.

    T^e sits at position |e| R + sum_{j<f-1} e_j W^j, R = W^(f-1).  The
    position is linear in e and one-to-one below the window, and every
    exponent of degree >= W lands at a position >= W R, so the product of
    two packed series is their packed truncated product.  A position holds
    2h-1 slots, the coordinates of an O_E product before
    ``OERing.fold_runs`` reduces them by the defining polynomial, one pass
    per packed int, each wide enough for the sum it collects.  The
    positions of degree d, [d R, (d+1) R), form row d.
    """

    def __init__(self, ring, f: int, window: int):
        self.h = ring.h
        self.span = 2 * ring.h - 1
        self.fold_runs = ring.fold_runs
        self.row = window ** (f - 1)
        self.size = window * self.row
        self.pos = {e: sum(e) * self.row
                    + sum(ej * window ** j for j, ej in enumerate(e[:-1]))
                    for e in product(range(window), repeat=f)
                    if sum(e) < window}
        self.by_pos = sorted((q, e) for e, q in self.pos.items())

    def unpack(self, x: int, nb: int, m: int) -> dict:
        """The terms below the window of a packed sum of products, reduced
        by the defining polynomial and mod m; zeros dropped."""
        span, slots = self.span, to_slots(x, nb, self.size * self.span)
        self.fold_runs(slots, m)
        runs = list(zip(*[slots[i::span] for i in range(self.h)]))
        return {e: r for q, e in self.by_pos if any(r := runs[q])}

    def reduce_row(self, x: int, nb: int, m: int) -> int:
        """One packed row of sums of products, every position reduced."""
        if not x:
            return 0
        slots = to_slots(x, nb, self.row * self.span)
        self.fold_runs(slots, m)
        return from_slots(slots, nb)


# ---------------------------------------------------------------------------
# group-likes and generators
# ---------------------------------------------------------------------------

def group_like(x: OKElement, window: Optional[int] = None) -> TSeries:
    """prod_j (1 + T_j)^{x_j}, expanded with p-adic binomials.

    The coefficient at multidegree d is certified mod p^{x.prec - v_p(d_j!)};
    the result is reported at the uniform precision x.prec - guard(window).
    """
    params = x.okr.params
    w = params.M if window is None else window
    guard = params.guard(w)
    out_prec = x.prec - guard
    if out_prec <= 0:
        raise PrecisionExhausted(
            f"group_like needs input precision > {guard} for window {w}")
    f, pad = params.f, (0,) * (params.h - 1)
    # the product of the univariate binomial series of each variable
    acc = TSeries.one(params, out_prec, w)
    for j in range(f):
        row = {tuple(d if t == j else 0 for t in range(f)): (c,) + pad
               for d, (c, _) in enumerate(
                   binomial_row(params.p, x.coords[j], x.prec, w))}
        acc = acc * TSeries(params, out_prec, w, row)
    return acc


def y_generator(params: Params, i: int, window: Optional[int] = None) -> TSeries:
    """The i-th distinguished generator of the group ring.

    It is the sum over nonzero lambda in F_q of the Teichmueller scalar
    sigma_i(lambda)^{-1} times the group-like of the Teichmueller lift of
    lambda, less 1 when q = 2 (there it is [1] - 1 = T_0).
    """
    if not 0 <= i < params.f:
        raise ValueError("generator index out of range")
    return _group_sums(params, 1, params.M if window is None else window)[i]


# ---------------------------------------------------------------------------
# reversion: T as series in Y
# ---------------------------------------------------------------------------

class Reversion(tuple):
    """The series G_0, ..., G_{f-1} that ``revert_series`` returns, and
    every monomial G^e below the window, ``packed[e]`` one int of nb-byte
    slots on ``layout`` that can sum one product per monomial."""

    layout: Layout
    nb: int
    packed: dict


def revert_series(series, window: int) -> Reversion:
    """Compositional inverse of T -> (series_i(T)) on the degree filtration.

    Each series must have zero constant term; the window must hold the
    linear part L, and L must be invertible mod p (SingularJacobian
    otherwise).  Returns G with G_j(series(T)) = T_j + O(degree window).

    One pass up the degrees (Brent & Kung, JACM 1978): with H the part of
    the series of degree >= 2, G = L^-1 T - L^-1 H(G).  The degree-d part
    of each G^e (|e| >= 2) is a sum of products of parts of lower degree,
    and then G[d] = -L^-1 H(G)[d].  Every part is one packed row.
    """
    if not series:
        raise ValueError("empty series tuple")
    params = series[0].params
    f = params.f
    if len(series) != f:
        raise ValueError("need exactly f series")
    prec = min(s.prec for s in series)
    for s in series:
        if any(s.constant_term()):
            raise ValueError("series must have zero constant term")
    if window < 2:
        raise SingularJacobian(f"the degree window {window} holds no linear "
                               "term to invert; it needs --deg 2 or more")
    series = [s.truncate(window) for s in series]
    # linear part L[i][j] = coeff of T_j in series_i, as h-tuples
    unit_vecs = [tuple(1 if t == j else 0 for t in range(f))
                 for j in range(f)]
    L = [[series[i].coefficient(unit_vecs[j]) for j in range(f)]
         for i in range(f)]
    Linv = _invert_coeff_matrix(params, L, prec)
    if Linv is None:
        raise SingularJacobian("linear part of the change of variables "
                               "is singular mod p")
    high = [TSeries(params, prec, window,
                    {e: c for e, c in s.terms.items() if sum(e) > 1})
            for s in series]
    ring = oe_ring(params)
    lay = Layout(ring, f, window)
    m = params.p ** prec
    nb = slot_bytes(len(lay.pos) * params.h * (m - 1) ** 2)
    row_bits = 8 * nb * lay.span * lay.row
    # G[d] = sum over |e| >= 2 of coef[j][e] * G^e[d], coef = -L^-1 H
    coef = []
    for j in range(f):
        lin = TSeries.lincomb([(ring.raw_neg(c, prec), v)
                               for c, v in zip(Linv[j], high)])
        coef.append({e: from_slots(c, nb) for e, c in lin.terms.items()})
    # rows[e][d]: the degree-d part of G^e, packed as row 0
    rows = {e: [0] * window for e in lay.pos if sum(e)}
    for j in range(f):
        rows[unit_vecs[j]][1] = sum(
            from_slots(c, nb) << 8 * nb * lay.span * (lay.pos[u] - lay.row)
            for u, c in zip(unit_vecs, Linv[j]))
    jobs = []           # G^e = G_j * G^(e - unit j), graded
    for _, e in lay.by_pos:
        if sum(e) >= 2:
            j = next(t for t, et in enumerate(e) if et)
            rest = e[:j] + (e[j] - 1,) + e[j + 1:]
            jobs.append((sum(e), rows[e], rows[unit_vecs[j]], rows[rest]))
    for d in range(2, window):
        for deg, out, gj, rest in jobs:
            if deg > d:
                break
            acc = 0
            for k in range(1, d - deg + 2):
                acc += gj[k] * rest[d - k]
            out[d] = lay.reduce_row(acc, nb, m)
        for j in range(f):
            acc = 0
            for e, c in coef[j].items():
                acc += c * rows[e][d]
            rows[unit_vecs[j]][d] = lay.reduce_row(acc, nb, m)
    packed = {e: sum(r << (d * row_bits) for d, r in enumerate(rs))
              for e, rs in rows.items()}
    packed[(0,) * f] = from_slots((1,), nb)
    G = Reversion(TSeries._make(params, prec, window,
                                lay.unpack(packed[u], nb, m))
                  for u in unit_vecs)
    G.layout, G.nb, G.packed = lay, nb, packed
    return G


def _invert_coeff_matrix(params, L, prec):
    """Invert an f x f matrix of raw O_E tuples; None when singular mod p.

    O_E / p^prec is free of rank h over Z / p^prec, so L is the fh x fh
    matrix whose entry (i h + r, j h + k) is coordinate r of L[i][j] x^k,
    invertible exactly when L is; L^-1[i][j] is column j h of its inverse
    at rows i h .. i h + h - 1.
    """
    ring = oe_ring(params)
    f, h, p = params.f, params.h, params.p
    fh = f * h
    xk = [tuple(int(r == k) for r in range(h)) for k in range(h)]
    mult = [[[ring.raw_mul(L[i][j], xk[k], prec) for k in range(h)]
             for j in range(f)] for i in range(f)]
    rows = [[mult[i][j][k][r] for j in range(f) for k in range(h)]
            + [int(c == i * h + r) for c in range(fh)]
            for i in range(f) for r in range(h)]
    reduced, pivots = _row_reduce(rows, p, p ** prec)
    if pivots[:fh] != list(range(fh)):
        return None
    return [[tuple(reduced[i * h + r][fh + j * h] for r in range(h))
             for j in range(f)] for i in range(f)]


def y_to_t_inverse(params: Params,
                   window: Optional[int] = None) -> Reversion:
    """Series G with T_j = G_j(Y_0, ..., Y_{f-1}) to the degree window,
    with the table of every monomial G^e."""
    return _reversion(params, params.M if window is None else window)


@cached
def _reversion(params: Params, w: int) -> Reversion:
    ys = tuple(y_generator(params, i, w) for i in range(params.f))
    return revert_series(ys, w)


def to_y_coordinates(s: TSeries) -> TSeries:
    """Re-express a T-series in Y-coordinates: sum c_e G^e over the cached
    monomial table of the reversion."""
    G = y_to_t_inverse(s.params, s.window)
    return s.substitute(G)


# ---------------------------------------------------------------------------
# phi and the action in Y-coordinates
# ---------------------------------------------------------------------------

@cached(maxsize=32)
def _group_sums(params: Params, mult, window: int) -> tuple:
    """For each i < f, the sum over nonzero lambda of sigma_i(lambda^{-1})
    [mult omega(lambda)], less 1 when q = 2: the constant terms cancel only
    for q > 2.  ``mult`` is an int or a unit of O_K; a stream of new units
    evicts the least recently used.

    Each group-like is built once, and each sum is one ``TSeries.lincomb``
    of them.
    """
    okr = ok_ring(params)
    pr = params.n_work(window)
    lams = [lam for lam in okr.fq_elements() if lam]
    gls = [group_like(mult * okr.coordinates_of_felt(lam, pr), window)
           for lam in lams]
    # a group-like's precision x.prec - guard(window) is at most N
    prec = min([g.prec for g in gls])
    less_one = ([(okr.oe.raw_minus_one, TSeries.one(params, prec, window))]
                if params.q == 2 else [])
    sums = []
    for i in range(params.f):
        # sigma_i(omega(lambda^-1)) = omega(lambda^(-p^i)), Frobenius acting
        # on a Teichmueller lift by the p-th power of its residue; lambda
        # lies in F_{p^h}^x, so one power mod p^h - 1 and no inverse
        e = -params.p ** i % (params.p ** params.h - 1)
        sums.append(TSeries.lincomb(
            [(okr.oe.raw_teich(lam ** e, prec), g)
             for lam, g in zip(lams, gls)] + less_one))
    return tuple(sums)


def phi_power_y(params: Params, i: int, power: int,
                window: Optional[int] = None) -> TSeries:
    """phi^power(Y_i) expressed as a series in the Y-generators.

    Multiplication by p^power on the group exponents; one substitution, so
    the degree window is not compounded.
    """
    w = params.M if window is None else window
    return to_y_coordinates(_group_sums(params, params.p ** power, w)[i])


def phi_y(params: Params, i: int, window: Optional[int] = None) -> TSeries:
    """phi(Y_i) expressed as a series in the Y-generators."""
    return phi_power_y(params, i, 1, window)


def gamma_y(a: OKElement, i: int, window: Optional[int] = None) -> TSeries:
    """a(Y_i) expressed as a series in the Y-generators.

    The unit must carry precision N + v_p((window-1)!) for the result to be
    certified at N; lower input precision flows into a lower (honest)
    output precision.
    """
    params = a.okr.params
    w = params.M if window is None else window
    need = params.n_work(w)
    a_eff = a.okr(a.coords, need) if a.prec > need else a
    return to_y_coordinates(_group_sums(params, a_eff, w)[i])
