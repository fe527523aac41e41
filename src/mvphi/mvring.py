"""Truncated arithmetic in the multivariable Laurent ring.

``MvLaurent`` represents an element of the pi-adically complete Laurent ring
generated by Y_0 and the unit-norm cross variables X_i = Y_i/Y_0 as a finite
sum of terms c * Y_0^{n_0} * prod X_i^{n_i} together with a two-sided
precision: coefficients live mod p^prec, terms with n_0 >= w_hi are unknown
(w_hi = None means the element is exact), w_lo is a proven support floor, and
cross exponents are capped by a band.

The s-indexed sup norms, the subring membership certificates, the Frobenius
and unit-group substitutions, and the Frobenius-basis decomposition all
operate on this representation with conservative interval propagation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add
from typing import Optional

from .caches import cached
from .coeff import Params, OKElement, oe_ring
from .errors import (BandOverflow, NotAUnit, WindowTooSmall)
from . import iwasawa, sparse
from .sparse import bound_add, bound_min


class MvLaurent(sparse.Terms):
    __slots__ = ("params", "prec", "w_lo", "w_hi", "band", "terms")

    def __init__(self, params: Params, prec: int, terms: dict,
                 w_lo: Optional[int] = None, w_hi: Optional[int] = None,
                 band: Optional[int] = None):
        self.params = params
        self.prec = prec
        self.w_hi = w_hi
        self.band = band = params.B if band is None else band

        def keep(k):
            if w_hi is not None and k[0] >= w_hi:
                return False
            if any(abs(e) > band for e in k[1]):
                raise _band_overflow(params, "cross exponent", k[1], band)
            return True
        self.terms = out = sparse.reduce(oe_ring(params), terms, prec, keep)
        support_lo = min((k[0] for k in out), default=0)
        self.w_lo = support_lo if w_lo is None else min(w_lo, support_lo)

    @staticmethod
    def _make(params, prec, terms, w_lo, w_hi, band):
        """Terms cut at w_hi and band, coordinates in [0, p^prec) and no
        coefficient zero; w_lo as given."""
        x = object.__new__(MvLaurent)
        x.params, x.prec, x.terms, x.w_lo, x.w_hi, x.band = \
            params, prec, terms, w_lo, w_hi, band
        return x

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(params, prec=None, band=None):
        return MvLaurent._make(params, params.N if prec is None else prec,
                               {}, 0, None, params.B if band is None else band)

    @staticmethod
    def one(params, prec=None, band=None):
        return MvLaurent.monomial(params, 0, None, 1, prec, band)

    @staticmethod
    def monomial(params, n0, cross=None, scalar=1, prec=None, band=None):
        pr = params.N if prec is None else prec
        cr = (0,) * (params.f - 1) if cross is None else tuple(cross)
        c = (scalar,) + (0,) * (params.h - 1)
        return MvLaurent(params, pr, {(n0, cr): c}, None, None, band)

    # -- views ----------------------------------------------------------------

    def lift_band(self, band: int) -> "MvLaurent":
        if band < self.band:
            raise ValueError("band can only be raised")
        if band == self.band:
            return self
        return MvLaurent._make(self.params, self.prec, self.terms, self.w_lo,
                               self.w_hi, band)

    def with_window(self, w_hi) -> "MvLaurent":
        """Weaken the window (narrow the claim); never strengthens it."""
        new_hi = bound_min(self.w_hi, w_hi)
        terms = {k: c for k, c in self.terms.items()
                 if new_hi is None or k[0] < new_hi}
        lo = min(self.w_lo, min((k[0] for k in terms), default=self.w_lo))
        return MvLaurent._make(self.params, self.prec, terms, lo, new_hi,
                               self.band)

    def reduce(self, prec: int) -> "MvLaurent":
        if prec >= self.prec:
            return self
        terms = sparse.reduce(oe_ring(self.params), self.terms, prec)
        return MvLaurent._make(self.params, prec, terms, self.w_lo,
                               self.w_hi, self.band)

    def coefficient(self, n0: int, cross=None) -> tuple:
        cr = (0,) * (self.params.f - 1) if cross is None else tuple(cross)
        return self.terms.get((n0, cr), (0,) * self.params.h)

    def pure_y_exponents(self):
        """Term keys as full exponent vectors (d_0, ..., d_{f-1})."""
        for (n0, cross), c in self.terms.items():
            yield (n0 - sum(cross),) + tuple(cross), c

    def __eq__(self, other):
        return (isinstance(other, MvLaurent) and self.params == other.params
                and self.prec == other.prec and self.terms == other.terms
                and self.w_lo == other.w_lo and self.w_hi == other.w_hi)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (n0, cross) in sorted(self.terms):
            c = self.terms[(n0, cross)]
            mon = f"Y^{n0}" if n0 else ""
            for i, e in enumerate(cross):
                if e:
                    mon += f"X{i + 1}^{e}"
            bits.append(f"{list(c)}{'*' + mon if mon else ''}")
        win = f"[{self.w_lo},{self.w_hi})" if self.w_hi is not None else "exact"
        return " + ".join(bits) + f" ~(p^{self.prec},{win})"

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def lincomb(pairs) -> "MvLaurent":
        """sum c * x over (raw scalar c, element x) pairs, at the least
        precision and band and the meet of the windows."""
        xs = [x for _, x in pairs]
        params = sparse.common(xs, "params", "parameter sets")
        prec = min([x.prec for x in xs])
        w_hi = min((x.w_hi for x in xs if x.w_hi is not None), default=None)
        out = sparse.lincomb(oe_ring(params),
                             [(c, x.terms, x.prec) for c, x in pairs], prec,
                             None if w_hi is None else lambda k: k[0] < w_hi)
        return MvLaurent._make(params, prec, out, min([x.w_lo for x in xs]),
                               w_hi, min([x.band for x in xs]))

    def __mul__(self, other):
        params = sparse.common((self, other), "params", "parameter sets")
        prec = min(self.prec, other.prec)
        w_lo = bound_add(self.w_lo, other.w_lo)
        w_hi = bound_min(bound_add(self.w_lo, other.w_hi),
                         bound_add(other.w_lo, self.w_hi))
        band = min(self.band, other.band)

        def join(k1, k2):
            # the window cut first: a cut pair's cross exponent is not read
            n0 = k1[0] + k2[0]
            if w_hi is not None and n0 >= w_hi:
                return None
            cross = tuple([a + b for a, b in zip(k1[1], k2[1])])
            if any(abs(e) > band for e in cross):
                raise _band_overflow(params, "product cross exponent",
                                     cross, band)
            return n0, cross
        out = sparse.product(oe_ring(params), self.terms, other.terms, prec,
                             join)
        return MvLaurent._make(params, prec, out, w_lo, w_hi, band)


def _band_overflow(params: Params, what: str, cross, band: int):
    """The error for a cross exponent (or an int band) past the band; it
    names the least --band admitting it, if the band is B or (B + M)(p + 1)."""
    e = cross if isinstance(cross, int) else max(map(abs, cross))
    least = {params.B: e,
             _work_band(params): -(-e // (params.p + 1)) - params.M}
    tail = f"; --band {least[band]} admits it" if band in least else ""
    return BandOverflow(f"{what} {cross} exceeds band {band}{tail}")


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def leading_slice(x: MvLaurent) -> list:
    """The terms ((n_0, cross), coefficient) with a unit coefficient and
    the least Y_0-degree n_0 among those; empty when no coefficient is a
    unit at x's precision."""
    raw_val = oe_ring(x.params).raw_val
    units = [(k, c) for k, c in x.terms.items() if raw_val(c, x.prec) == 0]
    if not units:
        return []
    n0 = min(k[0] for k, _ in units)
    return [(k, c) for k, c in units if k[0] == n0]


def invert_unit(x: MvLaurent, horizon: Optional[int] = None) -> MvLaurent:
    """Inverse of u * monomial * (1 + t) with t topologically nilpotent.

    The leading slice (valuation-0 terms of minimal Y_0-degree) must be a
    single monomial with unit coefficient, and every term of t must have
    coefficient valuation >= 1 or Y_0-degree >= 1.  ``horizon`` bounds the
    knowledge window of the geometric series when x is exact but t has
    unit-coefficient terms (defaults to the params degree window).
    """
    params = x.params
    ring = oe_ring(params)
    leads = leading_slice(x)
    if not leads:
        raise NotAUnit("no unit-coefficient term at this precision")
    if len(leads) > 1:
        raise NotAUnit("leading slice is not a single monomial")
    (ln0, lcross), lc = leads[0]
    lc_inv = ring.raw_inv(lc, x.prec)
    # m_inv = monomial inverse; t = x * m_inv * lc_inv - 1.  Its floor 0
    # is not its support floor -ln0: the two strict xfails in
    # tests/test_mvring.py pin the windows that this floor overstates
    m_inv = MvLaurent._make(params, x.prec,
                            {(-ln0, tuple(-e for e in lcross)): lc_inv},
                            0, None, x.band)
    normalized = (x * m_inv)
    one = MvLaurent.one(params, x.prec, x.band)
    t = normalized - one
    has_degree_terms = False
    for (n0, cross), c in t.terms.items():
        v = ring.raw_val(c, t.prec)
        if v >= 1:
            continue
        if n0 >= 1:
            has_degree_terms = True
            continue
        raise NotAUnit(f"term Y^{n0} obstructs topological nilpotency")
    w_hi = t.w_hi
    if w_hi is None and has_degree_terms:
        w_hi = params.M if horizon is None else horizon
    if w_hi is not None:
        t = t.with_window(w_hi)
    t_lo = min(t.w_lo, 0)
    cap = x.prec * (1 + abs(t_lo)) + (w_hi - min(t.w_lo, 0)
                                      if w_hi is not None else 0) + 4
    # the powers of -t start from the exact 1; the sum takes the window w_hi
    acc = sparse.geometric(-t, one, cap).with_window(w_hi)
    return acc * m_inv


# ---------------------------------------------------------------------------
# norms and membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormValue:
    """p-adic size as an exponent: value p^{-val}; val None means zero."""
    val: Optional[Fraction]
    certified: bool

    def __repr__(self):
        v = "inf" if self.val is None else str(self.val)
        return f"NormValue({v}{'' if self.certified else ', uncertified'})"


def _check_radius(s: int) -> None:
    if s < 1:
        raise ValueError(f"the radius index s must be >= 1, got {s}")


def norm_s(x: MvLaurent, s: int) -> NormValue:
    """sup-norm exponent: min over terms of v_p(c) + n_0/s, for s >= 1,
    found and certified on the integers s * v_p(c) + n_0.  A term with
    n_0 at or above the least so far cannot lower it: its v_p is not read."""
    _check_radius(s)
    raw_val, prec = oe_ring(x.params).raw_val, x.prec
    best = None
    for (n0, _), c in x.terms.items():
        if best is None or n0 < best:
            best = bound_min(best, s * raw_val(c, prec) + n0)
    if best is None:
        return NormValue(None, False)
    certified = ((x.w_hi is None or best < x.w_hi)
                 and best < s * prec + x.w_lo)
    return NormValue(Fraction(best, s), certified)


# the rings A_mv, A0 and A^{dagger,s}: ``member``'s ring tags and the base
# tags of a ``phimod.PhiModule``
TAG_AMV = "A_mv"
TAG_A0 = "A0"
TAG_DAGGER = "dagger_s_minus"


def check_tag(tag: str, s: Optional[int]) -> None:
    """ValueError unless tag is a ring tag and the dagger tag carries s."""
    if tag not in (TAG_AMV, TAG_A0, TAG_DAGGER):
        raise ValueError(f"unknown ring tag {tag!r}")
    if tag == TAG_DAGGER and s is None:
        raise ValueError("the dagger tag needs the radius index s")


def member(x: MvLaurent, tag: str, s: Optional[int] = None) -> bool:
    """Membership certificate for the represented terms at the precision."""
    check_tag(tag, s)
    if tag == TAG_A0:
        lead = leading_slice(x)
        return not lead or lead[0][0][0] >= 0
    if tag == TAG_DAGGER:
        v = norm_s(x, s).val
        return v is None or v >= 0
    return True


# ---------------------------------------------------------------------------
# phi, phi_q and the unit action
# ---------------------------------------------------------------------------

def _work_band(params: Params) -> int:
    return (params.B + params.M) * (params.p + 1)


class _SubstImages(sparse.Substitution):
    """Cached substitution data: images of the Y-generators and their powers,
    with each image's Y_0 support floor per pi-level.  An image holds its
    unit term Y^unit_degree only at horizon (window - unit_degree) >= 1;
    below that ``invert`` raises ``WindowTooSmall``, and so does ``apply``
    on a windowed input, whose clamp needs ``drop()`` and every inverse."""

    def __init__(self, params: Params, images, horizon: int,
                 unit_degree: int):
        self.params, self.unit_degree = params, unit_degree
        self.band = band = _work_band(params)
        self.ring = oe_ring(params)
        self.unit = {(0, (0,) * (params.f - 1)): self.ring.raw_one}
        # the closures hold the atoms, not self: no reference cycle, so a
        # table evicted from a bounded cache is freed at once
        atoms = [im.lift_band(band) for im in images]
        raw_val, N = self.ring.raw_val, params.N

        def invert(i: int) -> MvLaurent:
            if horizon < 1:
                raise WindowTooSmall(
                    f"the images' window {horizon + unit_degree} misses "
                    f"their unit term Y^{unit_degree}; inverting them "
                    f"needs --deg {unit_degree + 1} or more")
            return invert_unit(atoms[i], horizon)

        def floors(x: MvLaurent) -> list:
            """Per-pi-level support floors of an atom, window included."""
            fl = [None] * N
            for (n0, _), c in x.terms.items():
                v = raw_val(c, x.prec)
                if v < N:
                    fl[v] = n0 if fl[v] is None else min(fl[v], n0)
            run = None
            for v in range(N):
                if fl[v] is not None:
                    run = fl[v] if run is None else min(run, fl[v])
                fl[v] = bound_min(run, x.w_hi)
            return fl
        super().__init__(atoms, lambda: MvLaurent.one(params, N, band),
                         invert, floors)

    @classmethod
    def of_series(cls, params: Params, series, unit_degree: int):
        """The table of the generators' images given as Y-series, each read
        into an atom at the working band (prod Y_i^{e_i} = Y_0^{sum e} prod
        X_i^{e_i}), its degree window the Y_0-knowledge horizon."""
        atoms = [MvLaurent(params, s.prec, {(sum(e), e[1:]): c
                                            for e, c in s.terms.items()},
                           None, s.window, _work_band(params))
                 for s in series]
        return cls(params, atoms, series[0].window - unit_degree, unit_degree)

    def clamp(self, prec: int, w_hi) -> Optional[int]:
        """The window of ``apply(x)`` for x at prec and w_hi, None if exact.

        Unknown x-terms sit at pure-Y total degree >= w_hi; their images
        have level-0 support >= unit_degree * w_hi, and each pi-level can
        cost at most drop() of support, rounded up."""
        if w_hi is None:
            return None
        return self.unit_degree * w_hi \
            - (min(prec, self.params.N) - 1) * math.ceil(self.drop())

    def raw_apply(self, terms: dict, prec: int, w_hi) -> tuple:
        """``apply`` on x's terms, prec and w_hi as (prec, terms, w_lo, w_hi)
        with no ``MvLaurent`` built: one ``sparse.lincomb`` of the monomials,
        cut at their windows and the clamp; a clamped w_lo is re-floored on
        the surviving keys, as ``with_window`` does."""
        clamp = self.clamp(prec, w_hi)  # a narrow table fails here
        monomial, parts, lo, hi, tp = self.monomial, [], 0, None, prec
        for (n0, cross), c in terms.items():
            m = monomial((n0 - sum(cross),) + cross)
            if m is None:
                parts.append((c, self.unit, tp))
            else:
                parts.append((c, m.terms, m.prec))
                prec, lo, hi = min(prec, m.prec), min(lo, m.w_lo), \
                    bound_min(hi, m.w_hi)
        hi = bound_min(hi, clamp)
        out = sparse.lincomb(self.ring, parts, prec,
                             None if hi is None else lambda k: k[0] < hi)
        if clamp is not None:
            lo = min([lo] + [k[0] for k in out])
        return prec, out, lo, hi

    def apply(self, x: MvLaurent) -> MvLaurent:
        return MvLaurent._make(self.params,
                               *self.raw_apply(x.terms, x.prec, x.w_hi),
                               self.band)


def phi_images(params: Params, window: Optional[int] = None) -> _SubstImages:
    return _phi_images(params, params.M if window is None else window)


@cached
def _phi_images(params: Params, w: int) -> _SubstImages:
    return _SubstImages.of_series(
        params, [iwasawa.phi_y(params, i, w) for i in range(params.f)],
        params.p)


@cached
def phi_q_images(params: Params) -> _SubstImages:
    return _SubstImages.of_series(
        params, [iwasawa.phi_power_y(params, i, params.f)
                 for i in range(params.f)], params.q)


def decompose_window(params: Params) -> int:
    """Image window for the basis decomposition: wide enough that the
    pi-adic lifting and the recomposition stay certified past the inputs.

    Cross variables map to quotients of generator images, so for f > 1 the
    lift loses roughly 2p + (N-2)(p-1) degrees of certified window to the
    inverse expansions before the final division by p."""
    if params.f == 1:
        return max(params.M, 4 * params.p)
    return max(params.M, 4 * params.p, 20)


# one table per unit; a stream of new units evicts the least recently used
_GAMMA_TABLES = 32


@cached(maxsize=_GAMMA_TABLES)
def gamma_images(params: Params, a: OKElement) -> _SubstImages:
    return _SubstImages.of_series(
        params, [iwasawa.gamma_y(a, i) for i in range(params.f)], 1)


def apply_phi(x: MvLaurent) -> MvLaurent:
    """The Frobenius substitution Y_i -> phi(Y_i) on a Laurent element."""
    return phi_images(x.params).apply(x)


def apply_phi_q(x: MvLaurent) -> MvLaurent:
    """The f-th Frobenius power, as the single substitution [a] -> [qa]."""
    return phi_q_images(x.params).apply(x)


def apply_gamma(a: OKElement, x: MvLaurent) -> MvLaurent:
    if not a.is_unit():
        raise NotAUnit("the action is defined for units only")
    return gamma_images(x.params, a).apply(x)


# ---------------------------------------------------------------------------
# the Frobenius-basis decomposition
# ---------------------------------------------------------------------------

@cached
def phi_basis(params: Params) -> tuple:
    """The q basis monomials Y_0^{n_0} prod X_i^{n_i}, 0 <= n_j <= p-1, as
    keys (n_0, (n_1, ...)) in lexicographic order."""
    return tuple((d[0], d[1:])
                 for d in itertools.product(range(params.p), repeat=params.f))


def phi_decompose(x: MvLaurent) -> dict:
    """Components g_a with x = sum over basis monomials a of a * phi(g_a).

    Buckets pure-Y exponents by residue class mod p (exact mod p since
    phi(Y_i) = Y_{i-1}^p there) and lifts pi-adically by successive
    approximation, one digit per pass.  The Frobenius images are certified
    mod p^N only, so the components carry at most N digits.  Each pass
    works on the residue classes its level meets, in basis order; the
    classes no level meets share one empty component.
    """
    params = x.params
    x = x.reduce(min(x.prec, params.N))
    p, f, band = params.p, params.f, _work_band(params)
    if x.band > band:
        raise _band_overflow(params, "the element's band", x.band, band)
    images = phi_images(params, decompose_window(params))
    ring = images.ring
    one, raw_val = ring.raw_one, ring.raw_val
    # the remainder as (prec, terms, w_lo, w_hi), as _recompose returns it
    comps, rem, h_run = {}, (x.prec, x.terms, x.w_lo, x.w_hi), x.w_hi
    for n in range(x.prec):
        if not rem[1]:
            break
        # a term is a * phi(g) mod p: a its key mod p, g's pure-Y exponents
        # its own by p rotated one place (one-to-one: no key occurs twice)
        delta = {}
        for (n0, cross), c in rem[1].items():
            if raw_val(c, rem[0]) == n:
                q = [e // p for e in cross]
                w = tuple([n0 // p - sum(q)] + q)[:f - 1]
                delta.setdefault((n0 % p, tuple(e % p for e in cross)),
                                 {})[(n0 // p, w)] = c
        if not delta:
            # valuation skipped a level; keep going
            continue
        level = [(a, delta[a], rem[0], None) for a in sorted(delta)]
        for a, g, _, _ in level:
            for k in g:
                if any(abs(e) > band for e in k[1]):
                    raise _band_overflow(params, "cross exponent", k[1], band)
            got = comps.get(a)
            comps[a] = sparse.lincomb(ring, [(one, t, x.prec) for t in (
                got, g)], x.prec) if got else g
        rem = _recompose(images, level, {}, rem)
        h_run = bound_min(h_run, rem[3])
    if rem[1]:
        raise WindowTooSmall("decomposition left a remainder within the "
                             f"window: {MvLaurent._make(params, *rem, band)!r}")
    # the terms are reduced mod p^prec and band-checked above: cut at
    # comp_hi, each is its own support floor
    comp_hi = sparse.ceil_cut(bound_add(h_run, 1 - p), 1, p)
    empty = MvLaurent._make(params, x.prec, {}, 0, comp_hi, band)
    out = dict.fromkeys(phi_basis(params), empty)
    for a, terms in comps.items():
        if comp_hi is not None:
            terms = {k: c for k, c in terms.items() if k[0] < comp_hi}
        if terms:
            out[a] = MvLaurent._make(params, x.prec, terms,
                                     min([k[0] for k in terms]), comp_hi,
                                     band)
    return out


def recompose(components: dict, params: Params) -> MvLaurent:
    """sum_a a * phi(g_a), for checking the decomposition roundtrip."""
    nonempty, empty = [], {}
    for a, g in components.items():
        if g.terms:
            nonempty.append((a, g.terms, g.prec, g.w_hi))
        else:
            key = g.prec, g.w_hi
            empty[key] = min(a[0], empty.get(key, a[0]))
    images = phi_images(params, decompose_window(params))
    return MvLaurent._make(params, *_recompose(images, nonempty, empty),
                           images.band)


def _times_basis(params: Params, band: int, a: tuple, g: tuple) -> tuple:
    """a * g for a = (n0, cross) and g = (prec, terms, w_lo, w_hi) from
    ``raw_apply``: keys move by a, checked against the band in the same
    pass, the window by n0.  For 1 <= prec <= m this is
    ``MvLaurent.monomial(params, n0, cross, 1, m, band) * g``: 1 * c is c
    at g's precision; the exact monomial has w_lo = n0; and g's terms lie
    below its w_hi, so the product's window filter drops none."""
    (n0, cross), (prec, terms, w_lo, w_hi), out = a, g, {}
    for (m0, x), c in terms.items():
        key = tuple(map(_add, x, cross))
        if any(abs(e) > band for e in key):
            raise _band_overflow(params, "product cross exponent", key, band)
        out[(m0 + n0, key)] = c
    return prec, out, w_lo + n0, bound_add(w_hi, n0)


def _recompose(images: _SubstImages, comps: list, empty: dict,
               rem=None) -> tuple:
    """sum_a a * phi(g_a) over the nonempty components (a, terms, prec,
    w_hi), or rem minus it for rem = (prec, terms, w_lo, w_hi), as (prec,
    terms, w_lo, w_hi): one ``raw_apply`` per component, each cut and
    re-floored on its own (one ``lincomb`` over all their monomials would
    not be), and one ``lincomb`` of the products.  ``empty`` maps the
    (prec, w_hi) of empty components to their least basis degree n0; they
    add only their precision and window, the least at the least n0, as
    the clamp plus n0 grows with n0."""
    params = images.params
    c, parts, prec, w_lo, w_hi = images.ring.raw_one, [], params.N, 0, None
    if rem is not None:
        parts, c = [(c, rem[1], rem[0])], images.ring.raw_minus_one
        prec, w_lo, w_hi = min(prec, rem[0]), min(0, rem[2]), rem[3]
    for a, terms, gp, gw in comps:
        gp, t, lo, hi = _times_basis(params, images.band, a,
                                     images.raw_apply(terms, gp, gw))
        parts.append((c, t, gp))
        prec, w_lo, w_hi = min(prec, gp), min(w_lo, lo), bound_min(w_hi, hi)
    for (gp, gw), n0 in empty.items():
        prec = min(prec, gp)
        w_hi = bound_min(w_hi, bound_add(images.clamp(gp, gw), n0))
    out = sparse.lincomb(images.ring, parts, prec,
                         None if w_hi is None else lambda k: k[0] < w_hi)
    return prec, out, w_lo, w_hi


def roundtrip_ok(x: MvLaurent, back: MvLaurent) -> bool:
    """x equals its recomposition ``back``, and back's certified window
    covers x's support, without which the equality would be vacuous."""
    supmax = max((k[0] for k in x.terms), default=0)
    return (x - back).is_zero() and (back.w_hi is None or back.w_hi > supmax)


# ---------------------------------------------------------------------------
# local analyticity of the action
# ---------------------------------------------------------------------------

def analytic_generators(params: Params, s: int):
    gens = [("Y0", MvLaurent.monomial(params, 1)),
            ("p/Y0^s", MvLaurent.monomial(params, -s, None, params.p))]
    for i in range(1, params.f):
        cross = tuple(1 if j == i - 1 else 0 for j in range(params.f - 1))
        gens.append((f"X{i}", MvLaurent.monomial(params, 0, cross)))
    return gens


def check_local_analyticity(params: Params, s: int, gammas) -> list:
    """Measure |gamma(x) - x|_s for generators x and gamma in 1 + p^s O_K.

    Returns one row per (gamma, generator) with the measured exponent and
    whether it clears the analyticity threshold 1/(p-1).
    """
    bound = Fraction(1, params.p - 1)
    rows = []
    for a in gammas:
        for name, x in analytic_generators(params, s):
            diff = apply_gamma(a, x) - x
            nv = norm_s(diff, s)
            ok = nv.val is None or nv.val >= bound
            rows.append({
                "gamma": list(a.coords),
                "generator": name,
                "exponent": nv.val,
                "certified": nv.certified,
                "ok": bool(ok),
            })
    return rows
