"""The group ring O_E[[O_K]] in coordinates T_j = [e_j] - 1.

A ``TSeries`` is a truncated power series in f variables with OEInt-valued
coefficients, cut at a total-degree window and a uniform pi-precision.
Group-like elements, the generators Y_i, the Frobenius substitution phi and
the unit-group action all live here, together with the change of variables
between T- and Y-coordinates (series reversion).

Hot loops work on raw coordinate tuples via the OERing kernels.
"""

from __future__ import annotations

from typing import Optional

from .caches import cached
from .coeff import (Params, OKElement, oe_ring, ok_ring, padic_binomial,
                    vp_factorial)
from .errors import PrecisionExhausted, SingularJacobian
from . import sparse


class TSeries:
    """Truncated multivariate power series with coefficient precision.

    terms: exponent tuple (length f) -> raw O_E coordinate tuple, all
    reduced mod p^prec, zero coefficients dropped, total degree < window.
    """

    __slots__ = ("params", "prec", "window", "terms")

    def __init__(self, params: Params, prec: int, window: int, terms: dict,
                 _normalized: bool = False):
        self.params = params
        self.prec = prec
        self.window = window
        self.terms = terms if _normalized else sparse.reduce(
            oe_ring(params), terms, prec, lambda e: sum(e) < window)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(params: Params, prec: int, window: Optional[int] = None):
        return TSeries(params, prec, params.M if window is None else window,
                       {}, _normalized=True)

    @staticmethod
    def one(params: Params, prec: int, window: Optional[int] = None):
        w = params.M if window is None else window
        h = params.h
        return TSeries(params, prec, w,
                       {(0,) * params.f: tuple([1] + [0] * (h - 1))},
                       _normalized=True)

    @staticmethod
    def variable(params: Params, j: int, prec: int,
                 window: Optional[int] = None):
        w = params.M if window is None else window
        e = tuple(1 if i == j else 0 for i in range(params.f))
        h = params.h
        return TSeries(params, prec, w, {e: tuple([1] + [0] * (h - 1))},
                       _normalized=True)

    # -- ring operations -------------------------------------------------------

    def _meet(self, other):
        return min(self.prec, other.prec), min(self.window, other.window)

    def __add__(self, other):
        prec, window = self._meet(other)
        out = sparse.add(oe_ring(self.params), self.terms, other.terms, prec,
                         lambda e: sum(e) < window)
        return TSeries(self.params, prec, window, out, _normalized=True)

    def __neg__(self):
        return TSeries(self.params, self.prec, self.window,
                       sparse.neg(oe_ring(self.params), self.terms, self.prec),
                       _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        prec, window = self._meet(other)
        ring = oe_ring(self.params)
        out = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) >= window:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = ring.raw_mul(c1, c2, prec)
                cur = out.get(e)
                out[e] = ring.raw_add(cur, prod, prec) if cur is not None \
                    else prod
        for e in [e for e, c in out.items() if not any(c)]:
            del out[e]
        return TSeries(self.params, prec, window, out, _normalized=True)

    def scalar_mul(self, c) -> "TSeries":
        """Multiply by an OEInt (or raw tuple at self.prec)."""
        ring = oe_ring(self.params)
        prec = self.prec
        if hasattr(c, "coords"):
            prec = min(prec, c.prec)
            craw = ring.raw_reduce(c.coords, prec)
        else:
            craw = ring.raw_reduce(c, prec)
        return TSeries(self.params, prec, self.window,
                       sparse.smul(ring, self.terms, craw, prec),
                       _normalized=True)

    def __eq__(self, other):
        return (isinstance(other, TSeries) and self.params == other.params
                and self.prec == other.prec and self.window == other.window
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.prec, self.window, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> tuple:
        return self.terms.get((0,) * self.params.f, (0,) * self.params.h)

    def coefficient(self, e: tuple) -> tuple:
        return self.terms.get(tuple(e), (0,) * self.params.h)

    def truncate(self, window: int) -> "TSeries":
        return TSeries(self.params, self.prec, min(self.window, window),
                       {e: c for e, c in self.terms.items()
                        if sum(e) < window}, _normalized=True)

    def reduce(self, prec: int) -> "TSeries":
        if prec >= self.prec:
            return self
        return TSeries(self.params, prec, self.window, self.terms)

    def substitute(self, images, cap: Optional[int] = None,
                   powers: Optional[sparse.Powers] = None) -> "TSeries":
        """Substitute T_j -> images[j]; images need zero constant term.

        ``cap`` truncates the result (and all intermediates) at a smaller
        total degree.  ``powers`` is a power table of the images at this
        window and may be shared across calls with identical images.
        """
        params = self.params
        window = self.window if cap is None else min(self.window, cap)
        prec = self.prec
        for im in images:
            if any(im.constant_term()):
                raise ValueError("substitution images must have zero constant")
            prec = min(prec, im.prec)
            window = min(window, im.window)

        def one():
            return TSeries.one(params, prec, window)
        if powers is None:
            powers = sparse.Powers([im.truncate(window) for im in images], one)
        return sparse.evaluate(((e, c) for e, c in self.terms.items()
                                if sum(e) < window), powers,
                               TSeries.zero(params, prec, window), one)

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
# group-likes and generators
# ---------------------------------------------------------------------------

def group_like(x: OKElement, window: Optional[int] = None) -> TSeries:
    """prod_j (1 + T_j)^{x_j}, expanded with p-adic binomials.

    The coefficient at multidegree d is certified mod p^{x.prec - v_p(d_j!)};
    the result is reported at the uniform precision x.prec - guard(window).
    """
    params = x.okr.params
    p = params.p
    w = params.M if window is None else window
    guard = vp_factorial(w - 1, p)
    out_prec = x.prec - guard
    if out_prec <= 0:
        raise PrecisionExhausted(
            f"group_like needs input precision > {guard} for window {w}")
    ring = oe_ring(params)
    f = params.f
    # univariate binomial rows per variable
    rows = [[ring.raw_reduce(
        padic_binomial(params, x.coords[j], d, x.prec).coords, out_prec)
        for d in range(w)] for j in range(f)]
    out = {}

    def rec(j, e, coeff):
        if j == f:
            if any(coeff):
                out[tuple(e)] = coeff
            return
        room = w - 1 - sum(e)
        for d in range(room + 1):
            c = ring.raw_mul(coeff, rows[j][d], out_prec) if d else coeff
            rec(j + 1, e + [d], c)
    rec(0, [], (1,) + (0,) * (params.h - 1))
    return TSeries(params, out_prec, w, out, _normalized=True)


def y_generator(params: Params, i: int, window: Optional[int] = None) -> TSeries:
    """The i-th distinguished generator of the group ring.

    For q > 2 it is sum over nonzero lambda in F_q of the Teichmueller scalar
    sigma_i(lambda)^{-1} times the group-like of the Teichmueller lift of
    lambda; for q = 2 it is [1] - 1 = T_0.
    """
    return _y_generator(params, i, params.M if window is None else window)


@cached
def _y_generator(params: Params, i: int, w: int) -> TSeries:
    if not 0 <= i < params.f:
        raise ValueError("generator index out of range")
    if params.q == 2:
        return TSeries.variable(params, 0, params.N, w)
    return _group_sum(params, i, lambda x: x, w)


def phi_map(s: TSeries) -> TSeries:
    """Substitute T_j -> (1 + T_j)^p - 1 (multiplication by p on O_K)."""
    params = s.params
    images = []
    for j in range(params.f):
        t = TSeries.variable(params, j, s.prec, s.window)
        one = TSeries.one(params, s.prec, s.window)
        img = one
        for _ in range(params.p):
            img = img * (one + t)
        images.append(img - one)
    return s.substitute(images)


def okx_coordinates(a: OKElement):
    """Matrix of multiplication by the unit a in the Teichmueller basis.

    Column j holds the coordinates of a * t_j; invertible mod p.
    """
    from .errors import NotAUnit
    if not a.is_unit():
        raise NotAUnit("action requires a unit of O_K")
    okr = a.okr
    f = a.okr.params.f
    cols = []
    for j in range(f):
        ej = okr(tuple(1 if t == j else 0 for t in range(f)), a.prec)
        cols.append((a * ej).coords)
    return [[cols[j][i] for j in range(f)] for i in range(f)]


def gamma_map(a: OKElement, s: TSeries) -> TSeries:
    """The unit a acting by substitution T_j -> prod_k (1+T_k)^{c_kj} - 1."""
    params = s.params
    c = okx_coordinates(a)
    okr = a.okr
    images = []
    one = TSeries.one(params, s.prec, s.window)
    for j in range(params.f):
        col = okr(tuple(c[k][j] for k in range(params.f)), a.prec)
        images.append(group_like(col, s.window) - one)
    return s.substitute(images)


# ---------------------------------------------------------------------------
# reversion: T as series in Y
# ---------------------------------------------------------------------------

def revert_series(series, window: int):
    """Compositional inverse of T -> (series_i(T)) on the degree filtration.

    Each series must have zero constant term; the linear part must be
    invertible mod p (SingularJacobian otherwise).  Returns G with
    G_j(series(T)) = T_j + O(degree window).
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
    # linear part L[i][j] = coeff of T_j in series_i, as h-tuples
    unit_vecs = [tuple(1 if t == j else 0 for t in range(f)) for j in range(f)]
    L = [[series[i].coefficient(unit_vecs[j]) for j in range(f)]
         for i in range(f)]
    Linv = _invert_coeff_matrix(params, L, prec)
    if Linv is None:
        raise SingularJacobian("linear part of the change of variables "
                               "is singular mod p")
    high = [s.truncate(window) - _linear_series(params, L[i], prec, window)
            for i, s in enumerate(series)]
    # G starts as Linv * Z and gains one correct degree per pass
    zvars = [TSeries.variable(params, j, prec, window) for j in range(f)]
    G = [_linear_combo(params, Linv[j], zvars, prec, window)
         for j in range(f)]
    for cap in range(2, window + 1):
        powers = sparse.Powers([g.truncate(cap) for g in G],
                               lambda: TSeries.one(params, prec, cap))
        newG = []
        highs = [high[i].substitute(G, cap=cap, powers=powers)
                 for i in range(f)]
        for j in range(f):
            acc = _linear_combo(params, Linv[j], highs, prec, window)
            g = _linear_combo(params, Linv[j], zvars, prec, window) - acc
            # the cap shrank the window metadata; the iterate is correct to
            # degree < cap by induction, so restore the target window
            newG.append(TSeries(params, prec, window, g.terms,
                                _normalized=True))
        G = newG
    return tuple(G)


def _linear_series(params, row, prec, window):
    out = {}
    for j, c in enumerate(row):
        if any(c):
            e = tuple(1 if t == j else 0 for t in range(params.f))
            out[e] = c
    return TSeries(params, prec, window, out)


def _linear_combo(params, row, vecs, prec, window):
    acc = TSeries.zero(params, prec, window)
    for c, v in zip(row, vecs):
        acc = acc + v.scalar_mul(c)
    return acc


def _invert_coeff_matrix(params, L, prec):
    """Invert an f x f matrix of raw O_E tuples; None when singular mod p."""
    ring = oe_ring(params)
    f = params.f
    a = [[ring.raw_reduce(L[i][j], prec) for j in range(f)] for i in range(f)]
    one = (1,) + (0,) * (params.h - 1)
    inv = [[one if i == j else (0,) * params.h for j in range(f)]
           for i in range(f)]
    for col in range(f):
        piv = None
        for r in range(col, f):
            if ring.reduce_mod_p(a[r][col]):
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pivinv = ring.raw_inv(a[col][col], prec)
        a[col] = [ring.raw_mul(x, pivinv, prec) for x in a[col]]
        inv[col] = [ring.raw_mul(x, pivinv, prec) for x in inv[col]]
        for r in range(f):
            if r != col and any(a[r][col]):
                c = a[r][col]
                a[r] = [ring.raw_sub(x, ring.raw_mul(c, y, prec), prec)
                        for x, y in zip(a[r], a[col])]
                inv[r] = [ring.raw_sub(x, ring.raw_mul(c, y, prec), prec)
                          for x, y in zip(inv[r], inv[col])]
    return inv


def y_to_t_inverse(params: Params, window: Optional[int] = None):
    """Series G with T_j = G_j(Y_0, ..., Y_{f-1}) to the degree window."""
    return _y_to_t_inverse(params, params.M if window is None else window)


@cached
def _y_to_t_inverse(params: Params, w: int):
    ys = tuple(y_generator(params, i, w) for i in range(params.f))
    return revert_series(ys, w)


@cached
def _y_to_t_powers(params: Params, w: int) -> sparse.Powers:
    G = y_to_t_inverse(params, w)
    prec = min(g.prec for g in G)
    return sparse.Powers(G, lambda: TSeries.one(params, prec, w))


def to_y_coordinates(s: TSeries) -> TSeries:
    """Re-express a T-series in Y-coordinates via the cached reversion."""
    return s.substitute(list(y_to_t_inverse(s.params, s.window)),
                        powers=_y_to_t_powers(s.params, s.window))


# ---------------------------------------------------------------------------
# phi and the action in Y-coordinates
# ---------------------------------------------------------------------------

def _group_sum(params: Params, i: int, transform, window: int) -> TSeries:
    """sum over nonzero lambda of sigma_i(lambda^{-1}) [transform(omega(lambda))]."""
    okr = ok_ring(params)
    guard = vp_factorial(window - 1, params.p)
    prec_in = params.N + guard
    acc = TSeries.zero(params, params.N, window)
    for lam in okr.fq_elements():
        if not lam:
            continue
        coeff = okr.sigma(okr.coordinates_of_felt(lam.inverse(), prec_in), i)
        x = transform(okr.coordinates_of_felt(lam, prec_in))
        acc = acc + group_like(x, window).scalar_mul(coeff)
    return acc


def phi_power_y(params: Params, i: int, power: int,
                window: Optional[int] = None) -> TSeries:
    """phi^power(Y_i) expressed as a series in the Y-generators.

    Multiplication by p^power on the group exponents; one substitution, so
    the degree window is not compounded.
    """
    return _phi_power_y(params, i, power,
                        params.M if window is None else window)


@cached
def _phi_power_y(params: Params, i: int, power: int, w: int) -> TSeries:
    m = params.p ** power
    if params.q == 2:
        # phi^e(Y) = (1+Y)^(2^e) - 1 exactly
        one = TSeries.one(params, params.N, w)
        base = one + TSeries.variable(params, 0, params.N, w)
        acc, e = one, m
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc - one
    return to_y_coordinates(_group_sum(params, i, lambda x: x * m, w))


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
    if params.q == 2:
        one = TSeries.one(params, params.N, w)
        img = group_like(a.okr(a.coords, min(a.prec, params.n_work(w))), w)
        return img - one
    guard = vp_factorial(w - 1, params.p)
    need = params.N + guard
    a_eff = a.okr(a.coords, need) if a.prec > need else a
    gam_t = _group_sum(params, i, lambda x: a_eff * x, w)
    return to_y_coordinates(gam_t)
