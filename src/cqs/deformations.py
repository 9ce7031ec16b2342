"""Graded T1 of a cyclic quotient singularity and its distinguished subspaces.

First-order deformations form a finite-dimensional vector space T1 graded
by the character lattice M; the carrying degrees are -R for R = k*r^i
built from the Hilbert basis:

  (i)    R = r^2 or r^(e-1):            dim T1(-R) = 1,
  (ii)   R = r^i, 3 <= i <= e-2:        dim T1(-R) = 2,
  (iii)  R = k*r^i, 2 <= k <= a_i - 1:  dim T1(-R) = 1.

A homogeneous deformation x^(-R) d_a is cut out by flatness conditions
iso[kappa] on the reflexive powers of the relative dualizing sheaf; each
iso[kappa] says that every M-point r of the zone Z_{R,kappa} satisfies
<a, kappa*R - r> = 0.  The subspaces computed here are

  V   iso[kappa] for all multiples of the index m (equivalently, the
      single linear condition <a, Rbar - m*R> = 0),
  W   iso[-1],
  VW  V intersect W,
  qG  iso[kappa] for every kappa.

V, VW and qG have exact closed-form dimensions per degree; W does not
have a known closed form and is always reported from the lattice oracle.
Every closed form in this module is cross-checked against the zone
oracles by :mod:`cqs.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cone_geometry import (
    ClassData,
    HilbertData,
    LatticeTag,
    ZoneSpec,
    zone_points,
)
from .lattice import MPoint, NPoint, det2, ext_gcd, pairing
from .representations import DegenerateSingularityError, NQForm


class InternalConsistencyError(RuntimeError):
    """A structural theorem failed on computed data; indicates a bug."""


@dataclass(frozen=True, order=True)
class DegreeId:
    """T1-carrying degree R = k * r^i (the T1 piece sits in degree -R)."""

    i: int
    k: int


@dataclass(frozen=True)
class DeformationDirection:
    """A representative a in N of a homogeneous deformation x^(-R) d_a.

    For degrees with k >= 2 a valid representative satisfies <a, r^i> = 0;
    for the quotient degrees r^2 and r^(e-1) any a outside the line
    spanned by alpha resp. beta represents a generator.
    """

    a: NPoint
    degree: DegreeId


@dataclass(frozen=True)
class DegreeReport:
    degree: DegreeId
    dim_t1: int
    dim_v: int
    dim_w: int
    dim_vw: int
    dim_qg: int
    last_deformation: bool


@dataclass(frozen=True)
class Totals:
    dim_t1: int
    dim_v: int
    dim_w: int
    dim_vw: int
    dim_qg: int


@dataclass(frozen=True)
class ClassificationFlags:
    grounded: bool
    t_singularity: bool
    t0_singularity: bool
    qg_exists: bool


@dataclass(frozen=True)
class T1Report:
    nq: NQForm
    per_degree: tuple[DegreeReport, ...]
    totals: Totals
    flags: ClassificationFlags
    embdim: int

    @property
    def gap(self) -> int:
        """dim V - dim VW; always embdim-4 or embdim-5."""
        return self.totals.dim_v - self.totals.dim_vw


@dataclass(frozen=True)
class CayleyFamily:
    """Cone over the Cayley construction for the unobstructed qG-family.

    The interval decomposes as I = I' + d*[0,1] with d = floor(A+B) and
    |I'| = {A+B} < 1.  The total space is the toric variety of the cone
    spanned by (I', e^0) and ([0,1], e^j), j = 1..d, inside Q^(d+2); its
    ray matrix is returned with primitive integer rows.  When |I| is
    integral the base interval degenerates to a single rational point and
    the two base rays coincide (``degenerate_base``).
    """

    d: int
    i_prime: tuple[Fraction, Fraction]
    denominator: int
    degenerate_base: bool
    rays: tuple[tuple[int, ...], ...]


def _require_embdim4(h: HilbertData) -> None:
    if h.e <= 3:
        raise DegenerateSingularityError(
            f"embedding dimension {h.e} <= 3: smooth points and A_(n-1) "
            "singularities (q = n-1) carry no graded deformation theory here"
        )


def t1_degrees(h: HilbertData) -> tuple[DegreeId, ...]:
    """All T1-carrying degrees, ordered by (i, k)."""
    _require_embdim4(h)
    return tuple(
        DegreeId(i, k) for i in range(2, h.e) for k in range(1, h.coefficient(i))
    )


def degree_vector(h: HilbertData, d: DegreeId) -> MPoint:
    return d.k * h.element(d.i)


def t1_graded(h: HilbertData) -> list[tuple[DegreeId, int]]:
    """Per-degree dimensions of T1."""
    out = []
    for d in t1_degrees(h):
        dim = 2 if d.k == 1 and 3 <= d.i <= h.e - 2 else 1
        out.append((d, dim))
    return out


def _basis_completion(v: NPoint) -> NPoint:
    """Some w with {v, w} a Z-basis of N (det(v, w) = 1)."""
    _, s, t = ext_gcd(v.x, v.y)
    return NPoint(-t, s)


def _degree_perp(r: MPoint) -> NPoint:
    """Primitive generator of the line r^perp in N."""
    return NPoint(-r.v, r.u)


def t1_space(cd: ClassData, d: DegreeId) -> tuple[NPoint, ...]:
    """Representatives in N spanning T1(-R) for the degree R = k*r^i.

    Case (ii) is all of N; case (iii) is the line (r^i)^perp.  The
    quotient degrees r^2 and r^(e-1) are represented by a completion of
    alpha resp. beta to a basis; all constraint functionals evaluated on
    zone points kill alpha resp. beta there, so the choice is immaterial.
    """
    if d.k >= 2:
        return (_degree_perp(cd.hilbert.element(d.i)),)
    if d.i == 2:
        return (_basis_completion(cd.alpha),)
    if d.i == cd.hilbert.e - 1:
        return (_basis_completion(cd.beta),)
    return (NPoint(1, 0), NPoint(0, 1))


def phi_functional(R: MPoint, a: NPoint, cd: ClassData) -> int:
    """<a, Rbar - m*R>; zero exactly on the V-directions in degree -R."""
    return pairing(a, cd.rbar) - cd.m * pairing(a, R)


def v_dims(cd: ClassData) -> dict[DegreeId, int]:
    """Closed-form dimensions of T1_V per degree.

    Nothing survives at r^2 and r^(e-1); each interior r^i contributes a
    line (the kernel of <., Rbar - m*r^i>); a multiple k*r^i with k >= 2
    contributes iff the cone is grounded and r^i is the central degree.
    """
    h = cd.hilbert
    out = {}
    for d in t1_degrees(h):
        if d.k == 1:
            # the counting needs Rbar - m*R != 0, which holds at every
            # lattice degree (only the rational Rbar/m is annihilated)
            if (cd.rbar - cd.m * h.element(d.i)).is_zero():
                raise InternalConsistencyError(f"vanishing functional at r^{d.i}")
            out[d] = 0 if d.i in (2, h.e - 1) else 1
        else:
            out[d] = 1 if h.grounded and d.i == h.central_index else 0
    return out


def qg_dims(cd: ClassData) -> dict[DegreeId, int]:
    """Closed-form dimensions of T1_qG per degree.

    Zero unless grounded; on a grounded cone the qG directions are the
    lines Rbar^perp in degree -k*Rbar for integers 1 <= k <= min(a_l - 1,
    |I|), where l is the central index.
    """
    h = cd.hilbert
    out = {d: 0 for d in t1_degrees(h)}
    if not h.grounded:
        return out
    ab, ell = cd.ab, h.central_index
    if ab is None or ab.a_central != h.coefficient(ell):
        raise InternalConsistencyError("a_l from the interval disagrees with the recursion")
    for k in range(1, ab.a_central):
        if k <= cd.interval.length:
            out[DegreeId(ell, k)] = 1
    return out


def vw_dims(cd: ClassData) -> dict[DegreeId, int]:
    """Closed-form dimensions of T1_VW per degree.

    Zero unless grounded; on a grounded cone the VW directions sit in
    degree -k*Rbar for 1 <= k <= min(a_l - 1, c*|I|, c'*|I|) where
    c = -1/g and c' = 1/h in (Z/mZ)*.
    """
    h = cd.hilbert
    out = {d: 0 for d in t1_degrees(h)}
    if not h.grounded:
        return out
    ell = h.central_index
    bound = min(cd.abc.c, cd.c_prime) * cd.interval.length
    for k in range(1, cd.ab.a_central):
        if k <= bound:
            out[DegreeId(ell, k)] = 1
    return out


def _offsets(R: MPoint, kappa: int, cd: ClassData, tag=LatticeTag.M) -> list[tuple[int, int]]:
    """iota(kappa*R - r) = (du, dv) for every lattice point r of Z_{R,kappa}.

    det * <a, kappa*R - r> = A*du + B*dv with (A, B) = _iota_coeffs(a, cd);
    det != 0, so every "= 0" test and every rank is decided on integers.
    """
    ku, kv = kappa * pairing(cd.alpha, R), kappa * pairing(cd.beta, R)
    return [(ku - u, kv - v) for u, v in zone_points(ZoneSpec(R, kappa, tag), cd)]


def _iota_coeffs(a: NPoint, cd: ClassData) -> tuple[int, int]:
    """(A, B) with det * <a, r> = A*<alpha, r> + B*<beta, r> for every r."""
    return det2(a, cd.beta), det2(cd.alpha, a)


def iso_oracle(xi: DeformationDirection, kappa: int, cd: ClassData) -> bool:
    """Brute-force iso[kappa]: <a, kappa*R - r> = 0 on every zone M-point."""
    R = degree_vector(cd.hilbert, xi.degree)
    A, B = _iota_coeffs(xi.a, cd)
    return all(A * du + B * dv == 0 for du, dv in _offsets(R, kappa, cd))


def stable_iso_oracle(xi: DeformationDirection, kappa: int, cd: ClassData) -> bool:
    """iso[kappa + l*m] for all integers l, decided finitely.

    An empty zone makes every shift hold; otherwise the condition is
    iso[kappa] together with <a, Rbar - m*R> = 0, because consecutive
    shifts differ exactly by that pairing.
    """
    R = degree_vector(cd.hilbert, xi.degree)
    offsets = _offsets(R, kappa, cd)
    if not offsets:
        return True
    A, B = _iota_coeffs(xi.a, cd)
    if any(A * du + B * dv != 0 for du, dv in offsets):
        return False
    return phi_functional(R, xi.a, cd) == 0


def _containment_oracle(R: MPoint, cd: ClassData, tag: LatticeTag) -> bool:
    # containment of the zone's lattice points in the line Q*(Rbar - m*R)
    line = cd.rbar - cd.m * R
    if line.is_zero():
        raise InternalConsistencyError("Rbar - m*R vanished; R = Rbar/m is not a lattice degree")
    lu, lv = pairing(cd.alpha, line), pairing(cd.beta, line)
    return all(du * lv - dv * lu == 0 for du, dv in _offsets(R, 0, cd, tag))


def qg_oracle(R: MPoint, cd: ClassData) -> bool:
    """Zone criterion for qG: Mtilde points of Z_R lie on Q*(Rbar - m*R).

    Decides whether the V-line in degree -R (when one exists) consists of
    qG-deformations; degrees without V-deformations have dim qG = 0 no
    matter what this containment says.
    """
    return _containment_oracle(R, cd, LatticeTag.M_TILDE)


def vw_oracle(R: MPoint, cd: ClassData) -> bool:
    """Zone criterion for VW, with the shifted lattice M + (1/m)Rbar."""
    return _containment_oracle(R, cd, LatticeTag.M_SHIFTED)


def _rank(rows: list[tuple]) -> int:
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        return 0
    if len(rows[0]) == 1:
        return 1
    first = rows[0]
    for r in rows[1:]:
        if first[0] * r[1] - first[1] * r[0] != 0:
            return 2
    return 1


def _constrained_dim(cd: ClassData, d: DegreeId, kappa: int, with_phi: bool) -> int:
    R = degree_vector(cd.hilbert, d)
    basis = t1_space(cd, d)
    offsets = _offsets(R, kappa, cd)
    if d.k == 1 and d.i in (2, cd.hilbert.e - 1):
        # quotient degree: every constraint must kill alpha resp. beta,
        # and <alpha, kappa*R - r> = du, <beta, kappa*R - r> = dv
        side = 0 if d.i == 2 else 1
        if any(off[side] != 0 for off in offsets):
            raise InternalConsistencyError("zone constraint does not descend to the quotient")
    coeffs = [_iota_coeffs(a, cd) for a in basis]
    rows = [tuple(A * du + B * dv for A, B in coeffs) for du, dv in offsets]
    if with_phi:
        rows.append(tuple(phi_functional(R, a, cd) for a in basis))
    return len(basis) - _rank(rows)


def v_dims_oracle(cd: ClassData) -> dict[DegreeId, int]:
    """dim ker Phi per degree, i.e. directions with <a, Rbar - m*R> = 0."""
    out = {}
    for d in t1_degrees(cd.hilbert):
        R = degree_vector(cd.hilbert, d)
        basis = t1_space(cd, d)
        out[d] = len(basis) - _rank([tuple(phi_functional(R, a, cd) for a in basis)])
    return out


def w_dims_oracle(cd: ClassData) -> dict[DegreeId, int]:
    """dim T1_W per degree, by exact rank of the iso[-1] zone constraints.

    No closed form is known for W alone; this enumeration is the
    definition, and reports derive the W column from it.
    """
    return {d: _constrained_dim(cd, d, -1, False) for d in t1_degrees(cd.hilbert)}


def vw_dims_oracle(cd: ClassData) -> dict[DegreeId, int]:
    """dim (V intersect W) per degree via the same rank computation."""
    return {d: _constrained_dim(cd, d, -1, True) for d in t1_degrees(cd.hilbert)}


def classify(cd: ClassData) -> ClassificationFlags:
    """T0 / T-singularity / qG-existence / groundedness of a class.

    The implications T0 => T-singularity => (some qG-deformation exists)
    => grounded hold by construction and are re-checked here.
    """
    grounded = cd.ab is not None
    length = cd.interval.length
    t0 = length == 1
    t_sing = length >= 1 and length.denominator == 1
    qg_exists = grounded and length >= 1
    if (t0 and not t_sing) or (t_sing and not qg_exists) or (qg_exists and not grounded):
        raise InternalConsistencyError(f"classification chain broken for {cd.nq}")
    return ClassificationFlags(grounded, t_sing, t0, qg_exists)


def totals(cd: ClassData) -> T1Report:
    """Assemble the full per-degree and total report for a class.

    Raises DegenerateSingularityError when the embedding dimension is
    at most 3.  Before returning, the report is checked against the
    independent total formulas (V = e-4 [+ floor(A)+floor(B)],
    qG = floor(A+B), VW by the fractional-part cases), the V-VW gap
    dichotomy, and the qG/VW comparison statements; a failure raises
    InternalConsistencyError and indicates a bug, not bad input.
    """
    h = cd.hilbert
    t1 = dict(t1_graded(h))
    v = v_dims(cd)
    qg = qg_dims(cd)
    vw = vw_dims(cd)
    w = w_dims_oracle(cd)
    a_central = h.coefficient(h.central_index) if h.grounded else None
    per_degree = tuple(
        DegreeReport(
            d,
            t1[d],
            v[d],
            w[d],
            vw[d],
            qg[d],
            h.grounded and d.i == h.central_index and d.k == a_central - 1,
        )
        for d in t1_degrees(h)
    )
    tot = Totals(
        sum(r.dim_t1 for r in per_degree),
        sum(r.dim_v for r in per_degree),
        sum(r.dim_w for r in per_degree),
        sum(r.dim_vw for r in per_degree),
        sum(r.dim_qg for r in per_degree),
    )
    report = T1Report(cd.nq, per_degree, tot, classify(cd), h.e)
    _check_theorems(report, cd)
    return report


def _check_theorems(report: T1Report, cd: ClassData) -> None:
    t, e = report.totals, report.embdim
    for r in report.per_degree:
        if not (r.dim_qg <= r.dim_vw <= r.dim_v <= r.dim_t1 and r.dim_vw <= r.dim_w):
            raise InternalConsistencyError(f"inclusion chain broken at {r.degree} for {report.nq}")
    ab = cd.ab
    if ab is not None:
        expect_v = e - 4 + ab.floor_a + ab.floor_b
        expect_qg = math.floor(ab.A + ab.B)
        one_over_m = Fraction(1, cd.m)
        if ab.frac_a == one_over_m or ab.frac_b == one_over_m:
            expect_vw = expect_qg
        else:
            expect_vw = ab.floor_a + ab.floor_b + 1
    else:
        expect_v, expect_qg, expect_vw = e - 4, 0, 0
    if (t.dim_v, t.dim_qg, t.dim_vw) != (expect_v, expect_qg, expect_vw):
        raise InternalConsistencyError(
            f"totals {t} disagree with the interval formulas "
            f"V={expect_v}, qG={expect_qg}, VW={expect_vw} for {report.nq}"
        )
    if report.gap not in (e - 4, e - 5):
        raise InternalConsistencyError(f"V/VW gap {report.gap} outside {{e-4, e-5}} for {report.nq}")
    if cd.abc.b == 1 and (t.dim_qg, t.dim_vw) != (0, 0):
        raise InternalConsistencyError(f"b=1 class {report.nq} has qG or VW deformations")
    if report.flags.t_singularity and t.dim_qg != t.dim_vw:
        raise InternalConsistencyError(f"T-singularity {report.nq} with qG != VW")
    if not t.dim_qg <= t.dim_vw <= t.dim_qg + 1:
        raise InternalConsistencyError(f"qG <= VW <= qG+1 fails for {report.nq}")


def cayley_family(cd: ClassData) -> CayleyFamily:
    """Ray matrix of the Cayley cone over the interval I = I' + d*[0,1].

    d = floor(A+B) on a grounded interval (for embdim >= 4 this equals
    dim T1_qG) and 0 otherwise, in which case the family is the trivial
    one over a point and the cone is C(I) itself.  The decomposition is
    fixed as I' = [-A, B-d].
    """
    i = cd.interval
    d = math.floor(cd.ab.A + cd.ab.B) if cd.ab is not None else 0
    g, h = i.g, i.h - d * i.m
    width = d + 2
    degenerate = g == h

    def ray(first: int, slot: int, height: int) -> tuple[int, ...]:
        vec = [0] * width
        vec[0] = first
        vec[slot] = height
        return tuple(vec)

    rays = [ray(g, 1, i.m)]
    if not degenerate:
        rays.append(ray(h, 1, i.m))
    for j in range(1, d + 1):
        rays.append(ray(0, j + 1, 1))
        rays.append(ray(1, j + 1, 1))
    return CayleyFamily(
        d,
        (Fraction(g, i.m), Fraction(h, i.m)),
        i.m,
        degenerate,
        tuple(rays),
    )
