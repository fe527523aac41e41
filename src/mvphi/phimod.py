"""Etale Frobenius-power modules as matrices over the Laurent ring.

A module of rank d is the matrix P of the q-power Frobenius in a chosen
basis (column convention: the operator sends e_j to sum_i P[i][j] e_i)
together with finitely many sampled unit-action matrices G_a.  Etaleness is
the unit criterion on det P, which is tag-dependent: over the full Laurent
ring any unit-coefficient monomial leads; over the integral and dagger
tags the Y_0-degree must also vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .coeff import Params, oe_ring
from .errors import NotAUnit, Uncertified, ZeroDeterminant
from .mvring import (MvLaurent, TAG_A0, TAG_AMV, TAG_DAGGER, _work_band,
                     apply_phi_q, apply_gamma, check_tag, invert_unit,
                     leading_slice)


@dataclass
class PhiModule:
    rank: int
    tag: str
    P: list                      # d x d MvLaurent
    action: list = field(default_factory=list)  # (OKElement, matrix) samples
    s: Optional[int] = None      # radius index for the dagger tag


# -- matrix helpers ----------------------------------------------------------

def _lifted(x: MvLaurent) -> MvLaurent:
    band = _work_band(x.params)
    return x.lift_band(band) if x.band < band else x


def mat_mul(A, B):
    d = len(A)
    return [[MvLaurent.sum([_lifted(A[i][k]) * _lifted(B[k][j])
                            for k in range(d)]) for j in range(d)]
            for i in range(d)]


def mat_map(A, fn):
    return [[fn(x) for x in row] for row in A]


def mat_det(A):
    d = len(A)
    if d == 1:
        return A[0][0]
    terms = []
    for j in range(d):
        term = A[0][j] * mat_det([row[:j] + row[j + 1:] for row in A[1:]])
        terms.append(-term if j % 2 else term)
    return MvLaurent.sum(terms)


def mat_identity(params, d):
    one = MvLaurent.one(params)
    zero = MvLaurent.zero(params)
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def mat_inverse(A):
    d = len(A)
    det = mat_det(A)
    det_inv = invert_unit(det)
    if d == 1:
        return [[det_inv]]
    cof = []
    for i in range(d):
        row = []
        for j in range(d):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(A) if k != j]
            m = mat_det(minor)
            if (i + j) % 2:
                m = -m
            row.append(m * det_inv)
        cof.append(row)
    return cof


def mat_eq_within(A, B) -> bool:
    """Entrywise agreement inside the common certified window."""
    return all((a - b).is_zero() for ra, rb in zip(A, B)
               for a, b in zip(ra, rb))


# -- the unit criterion per base tag -----------------------------------------

def _unit_criterion(x: MvLaurent, tag: str, s: Optional[int]) -> bool:
    """The leading slice is one monomial: every other unit-coefficient term
    then has a larger Y_0-degree.  The integral and dagger tags also need
    that monomial at Y_0-degree 0, and the dagger tag every other term at
    s * v_p + n_0 >= 1."""
    check_tag(tag, s)
    front = leading_slice(x)
    if len(front) != 1:
        return False
    lead = front[0][0]
    if tag == TAG_A0:
        return lead[0] == 0
    if tag == TAG_DAGGER:
        raw_val = oe_ring(x.params).raw_val
        return lead[0] == 0 and all(s * raw_val(c, x.prec) + k[0] >= 1
                                    for k, c in x.terms.items() if k != lead)
    return True


def is_etale(m: PhiModule) -> bool:
    """det P passes the tag-dependent unit criterion at precision.

    Raises Uncertified when the determinant has no unit-level term but a
    finite window, so the leading slice cannot be resolved.
    """
    det = mat_det(m.P)
    if not leading_slice(det) and det.w_hi is not None:
        raise Uncertified("det P has no resolvable leading slice "
                          "within the window")
    return _unit_criterion(det, m.tag, m.s)


def commutation_holds(m: PhiModule) -> bool:
    """G_a gamma_a(P) = P phi_q(G_a) for every stored action sample."""
    for a, G in m.action:
        lhs = mat_mul(G, mat_map(m.P, lambda x: apply_gamma(a, x)))
        rhs = mat_mul(m.P, mat_map(G, apply_phi_q))
        if not mat_eq_within(lhs, rhs):
            return False
    return True


def _conjugate(m: PhiModule, U, name: str):
    """U^-1, U^-1 P phi_q(U) and the samples (a, U^-1 G_a gamma_a(U)); the
    matrix U, called ``name`` in the error, must have a unit determinant."""
    if not _unit_criterion(mat_det(U), TAG_AMV, None):
        raise NotAUnit(f"{name} matrix has non-unit determinant")
    U_inv = mat_inverse(U)
    P = mat_mul(mat_mul(U_inv, m.P), mat_map(U, apply_phi_q))
    action = [(a, mat_mul(mat_mul(U_inv, G),
                          mat_map(U, lambda x: apply_gamma(a, x))))
              for a, G in m.action]
    return U_inv, P, action


def base_change(m: PhiModule, U) -> PhiModule:
    """Conjugate the basis: P -> U^-1 P phi_q(U), G_a -> U^-1 G_a gamma_a(U)."""
    _, P, action = _conjugate(m, U, "base-change")
    return PhiModule(m.rank, m.tag, P, action, m.s)


def unramified_char(params: Params, lam, samples=()) -> PhiModule:
    """Rank 1, Frobenius acting by the unit scalar lam, trivial unit action."""
    lam_l = MvLaurent.one(params).scalar_mul(lam)
    ring = oe_ring(params)
    c = lam_l.coefficient(0)
    if not any(c) or ring.raw_val(c, lam_l.prec) != 0:
        raise NotAUnit("unramified character needs a unit scalar")
    one = MvLaurent.one(params)
    action = [(a, [[one]]) for a in samples]
    return PhiModule(1, TAG_AMV, [[lam_l]], action)


def oc_certificate_check(m: PhiModule, U, s: int):
    """Verify a witness basis for overconvergence at radius index >= s.

    Every entry of U, U^-1, U^-1 P phi_q(U) and the transformed action
    matrices must lie in the dagger ring up to a Y_0-power read off the
    unit-level slice.  Returns the per-entry results at the least radius
    index in s .. s + 16 that passes, or at s + 16 with a failure witness.
    """
    U_inv, P_t, action = _conjugate(m, U, "certificate")
    mats = {"U": U, "U_inv": U_inv, "P": P_t}
    for idx, (_, G) in enumerate(action):
        mats[f"G{idx}"] = G
    for s_try in range(s, s + 17):
        report = {"s": s_try, "entries": {}, "ok": True}
        for name, A in mats.items():
            for i, row in enumerate(A):
                for j, x in enumerate(row):
                    ok, witness = _dagger_with_shift(x, s_try)
                    report["entries"][f"{name}[{i}][{j}]"] = ok
                    if not ok:
                        report["ok"] = False
                        report["witness"] = {
                            "entry": f"{name}[{i}][{j}]",
                            "term": witness,
                        }
        if report["ok"]:
            return report
    return report


def _dagger_with_shift(x: MvLaurent, s: int):
    """Membership in the dagger ring localized at Y_0.

    The Y_0-shift is read off the unit-valuation slice; with that shift
    fixed, every term must satisfy s*v + n_0 + shift >= 0.
    """
    lead = leading_slice(x)
    shift = max(0, -lead[0][0][0]) if lead else 0
    raw_val = oe_ring(x.params).raw_val
    for (n0, cross), c in x.terms.items():
        v = raw_val(c, x.prec)
        if s * v + n0 + shift < 0:
            return False, {"y0": n0, "cross": list(cross), "val": v,
                           "shift": shift}
    return True, None


def integral_bound(m: PhiModule) -> int:
    """Y_0-adic valuation of det P mod pi: the containment exponent for the
    maximal integral submodule."""
    lead = leading_slice(mat_det(m.P))
    if not lead:
        raise ZeroDeterminant("det P vanishes mod pi at this precision")
    return lead[0][0][0]


def tensor(m1: PhiModule, m2: PhiModule) -> PhiModule:
    """Kronecker product of the structure matrices (matching action samples)."""
    if m1.tag != m2.tag:
        raise ValueError("tensor factors must share the base-ring tag")
    P = _kron(m1.P, m2.P)
    keyed2 = {a.coords: (a, G) for a, G in m2.action}
    action = []
    for a, G1 in m1.action:
        got = keyed2.get(a.coords)
        if got is not None:
            action.append((a, _kron(G1, got[1])))
    return PhiModule(m1.rank * m2.rank, m1.tag, P, action, m1.s)


def _kron(A, B):
    da, db = len(A), len(B)
    out = []
    for i in range(da):
        for k in range(db):
            row = []
            for j in range(da):
                for l in range(db):
                    row.append(A[i][j] * B[k][l])
            out.append(row)
    return out
