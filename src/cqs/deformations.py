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

V, VW and qG have exact closed-form dimensions per degree.  W is
reported by ``w_fast``: each chain k*r^i, 2 <= k <= a_i - 1, is decided
in closed form from four lattice points (``w_chain_threshold``), and
each degree -r^i (k = 1) still walks its kappa = -1 zone.  Every closed
form in this module is cross-checked against the zone oracles by
:mod:`cqs.verify`, and ``w_fast`` against ``w_dims_oracle``, which walks
the zone of every degree, by :mod:`cqs.verify` and acceptance
criterion 8.

The oracles work in iota coordinates only.  A zone is named by its
iota size iota(R) = k*iota(r^i), read from ``cd.hilbert.iota``, and a
degree by d = (i, k): ``qg_oracle(cd, d)`` and ``vw_oracle(cd, d)`` take
it as ``t1_space`` and ``phi_vector`` do, so no oracle builds or pairs an
M-point.  Each reads its zones
through ``zone_walk``, a generator, lazily: ``zone_span`` reads a zone
Z_{R,kappa} against the base iota(kappa*R) into a basis of at most two
vectors and stops at the second, the containment oracles behind
``qg_oracle`` and ``vw_oracle`` stop at the first point off their line,
and the emptiness that ``stable_iso_oracle`` needs is the zone's first
point.  ``t1_space`` gives each direction a as its integer functional
(A, B) on iota, and ``phi_vector`` is iota(Rbar - m*R).
``iso_oracle``, ``stable_iso_oracle`` and the W and VW ranks then decide
on at most three integer pairs, and one walk and one read serve every
direction in the degree.  ``v_dims_oracle`` is the same rank rule,
``_constrained_dim``, on the phi row alone, with no zone.
``assemble_report`` builds and checks a report from columns its caller
already holds.

The rule of the oracles: an oracle may stop once the points it has read
fix its answer (a witness off a line, or full rank), and it never
consults a closed form.  The fast path ``w_fast`` and its oracle walk
their zones by two different algorithms: ``w_fast`` lists each zone
with ``zone_points``, which walks M only, a residue per fiber, and the
oracles walk every zone, on M, M_tilde and M + Rbar/m, with
``zone_walk``; so acceptance criterion 8 and the ``w_fast`` tests
compare two walks.  ``w_fast`` keeps that walk until the benchmark
runner's ``peak_rss_mb`` counts the child alone: the runner keeps every
output, so a faster ``analyze_long`` completes more operations and
reads a higher peak, past its bound.
``zone_points`` goes together with ``w_fast``'s walk once W at k = 1
has its closed form.

Every per-degree column (``t1_dims``, ``v_dims``, ``qg_dims``,
``vw_dims``, ``w_fast``) is a dict keyed by the one degree table of the
class, ``h.degrees``, in table order; read first, it refuses e <= 3
with DegenerateSingularityError before any column is started.
``t1_dims`` starts it as ``dict.fromkeys(table, 1)`` and sets its 2s.
V, qG and VW are one rule, the central chain -k*Rbar of a grounded
class: each takes its column from ``_central_chain(cd, bound)``, which
is 1 at (l, k) for 1 <= k <= min(a_l - 1, bound) and 0 elsewhere.  qG
bounds k by floor(|I|), VW by floor(min(c, c')*|I|), and V takes the
whole chain and sets its interior k = 1 degrees.  ``w_fast`` fills a
list in table order, a slice per chain, and zips it with the table.
``assemble_report`` reads each column as it is, and refuses one whose
keys are not the table in order.
The records of this module are NamedTuples, like ``DegreeId``.

``cone_geometry.hilbert_basis``, which builds ``cd.hilbert`` and so the
degree table, ``w_fast`` and ``cayley_d`` each refuse a class past the
bound of their own work (MAX_T1_DEGREES, MAX_ZONE_FIBERS, MAX_CAYLEY_D)
with OracleBoundError before doing it, so every caller gets the refusal.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat
from operator import eq, le
from typing import NamedTuple

from .cone_geometry import (
    ClassData,
    DegreeId,
    HilbertData,
    LatticeTag,
    OracleBoundError,
    ZoneSpec,
    zone_points,
    zone_walk,
)
from .lattice import MPoint
from .representations import NQForm


# w_fast refuses a class whose W zones walk more fibers than this, the sum
# of <alpha, r^i> over the zones of the r^i, the only ones it walks: its
# time grows with it, at about 0.9 us a fiber on a 2-vCPU VM.  The u_i are
# distinct integers in (0, n), so nq:n/1, with n(n-1)/2 fibers, walks the
# most of its n: nq:7746/1 (29,996,385) is the largest class admitted and
# takes 27 s there, under 60 s in the VM's 1.7 times slower state, and
# nq:7747/1 is the first refused.  nq:2995/1498 walks 2.24 M fibers and
# nq:10007/5003 3; cf:3,...,3 with 30 threes would walk 2.5e12.
MAX_ZONE_FIBERS = 3 * 10**7


class InternalConsistencyError(RuntimeError):
    """A structural theorem failed on computed data; indicates a bug."""


class DegreeReport(NamedTuple):
    degree: DegreeId
    dim_t1: int
    dim_v: int
    dim_w: int
    dim_vw: int
    dim_qg: int
    last_deformation: bool


class Totals(NamedTuple):
    dim_t1: int
    dim_v: int
    dim_w: int
    dim_vw: int
    dim_qg: int


class ClassificationFlags(NamedTuple):
    grounded: bool
    t_singularity: bool
    t0_singularity: bool
    qg_exists: bool


class T1Report(NamedTuple):
    nq: NQForm
    per_degree: tuple[DegreeReport, ...]
    totals: Totals
    flags: ClassificationFlags
    embdim: int

    @property
    def gap(self) -> int:
        """dim V - dim VW; always embdim-4 or embdim-5."""
        return self.totals.dim_v - self.totals.dim_vw


class CayleyFamily(NamedTuple):
    """Cone over the Cayley construction for the unobstructed qG-family.

    The interval decomposes as I = I' + d*[0,1] with d = floor(A+B) and
    |I'| = {A+B} < 1.  The total space is the toric variety of the cone
    spanned by (I', e^0) and ([0,1], e^j), j = 1..d, inside Q^(d+2); its
    ray matrix is returned with primitive integer rows.  When |I| is
    integral the base interval degenerates to a single rational point and
    the two base rays coincide (``degenerate_base``).  ``i_prime`` holds
    the numerators of the ends of I' over ``denominator``, the m of I,
    unreduced.
    """

    d: int
    i_prime: tuple[int, int]
    denominator: int
    degenerate_base: bool
    rays: tuple[tuple[int, ...], ...]


def degree_vector(cd: ClassData, d: DegreeId) -> MPoint:
    """R = k*r^i as an M-point, for output: k times the r^i that
    ``cd.m_point`` builds from iota(r^i); the oracles read the pair instead."""
    return d.k * cd.m_point(*cd.hilbert.iota[d.i - 1])


def t1_dims(h: HilbertData) -> dict[DegreeId, int]:
    """Per-degree dimensions of T1: 2 at r^i, 3 <= i <= e-2, and 1 elsewhere.

    Like ``_central_chain``, a dict filled from the degree table and then
    set at its non-default entries.  Those are set by plain
    pairs (i, k), which equal and hash as DegreeId(i, k), so the keys
    stay the table's DegreeIds.
    """
    out = dict.fromkeys(h.degrees, 1)
    out.update(((i, 1), 2) for i in range(3, h.e - 1))
    return out


def t1_space(cd: ClassData, d: DegreeId) -> tuple[tuple[int, int], ...]:
    """The directions spanning T1(-R), R = k*r^i, as integer functionals on iota.

    A direction a in N is read as the pair (A, B) with
    det(alpha, beta) * <a, x> = A*<alpha, x> + B*<beta, x>, so it pairs
    with an M-vector x through iota(x) alone; only the line of (A, B)
    matters to every test here.  Case (ii) is all of N, spanned by (1, 0)
    and (0, 1).  Case (iii) is the line (r^i)^perp, the functional
    (v_i, -u_i) that kills (u_i, v_i) = iota(r^i).  The quotient degree
    r^2 is N mod alpha: every vector it is tested on has <alpha, x> = 0
    (``_constrained_dim`` checks this), so the direction is read by its
    <beta, .>, (0, 1); likewise (1, 0) at r^(e-1), which is N mod beta.
    """
    if d.k >= 2:
        u_i, v_i = cd.hilbert.iota[d.i - 1]
        return ((v_i, -u_i),)
    if d.i == 2:
        return ((0, 1),)
    if d.i == cd.hilbert.e - 1:
        return ((1, 0),)
    return ((1, 0), (0, 1))


def phi_vector(cd: ClassData, d: DegreeId) -> tuple[int, int]:
    """iota(Rbar - m*R) for R = k*r^i: a direction is a V-direction in
    degree -R exactly when its functional vanishes here.  From the frame
    pairings, iota(Rbar) = (m, m)."""
    u_i, v_i = cd.hilbert.iota[d.i - 1]
    m = cd.m
    return m - m * d.k * u_i, m - m * d.k * v_i


def _central_chain(cd: ClassData, bound: int | None) -> dict[DegreeId, int]:
    """The column of the central chain -k*Rbar, 1 <= k <= ``bound``.

    On a grounded class it is 1 at (l, k) for 1 <= k <= min(a_l - 1, bound),
    where l is the central index, and 0 at every other degree; ``bound``
    None means the whole chain.  An ungrounded class has no central chain,
    and its column is 0 at every degree.
    """
    h = cd.hilbert
    out = dict.fromkeys(h.degrees, 0)
    if h.grounded:
        ell, a = h.central_index, h.coefficient(h.central_index)
        top = a - 1 if bound is None else min(a - 1, bound)
        out.update(((ell, k), 1) for k in range(1, top + 1))
    return out


def v_dims(cd: ClassData) -> dict[DegreeId, int]:
    """Closed-form dimensions of T1_V per degree.

    Nothing survives at r^2 and r^(e-1); each interior r^i contributes a
    line (the kernel of <., Rbar - m*r^i>); a multiple k*r^i with k >= 2
    contributes iff the cone is grounded and r^i is the central degree.
    So V is the whole central chain with every interior k = 1 degree set.
    """
    h = cd.hilbert
    out = _central_chain(cd, None)
    # the counting needs Rbar - m*r^i != 0, that is iota(r^i) != (1, 1),
    # which holds at every lattice degree (only Rbar/m has iota (1, 1))
    if (1, 1) in h.iota[1:-1]:
        raise InternalConsistencyError(f"vanishing functional at r^{h.iota.index((1, 1)) + 1}")
    out.update(((i, 1), 1) for i in range(3, h.e - 1))
    return out


def qg_dims(cd: ClassData) -> dict[DegreeId, int]:
    """Closed-form dimensions of T1_qG per degree.

    The central chain up to floor(|I|): zero unless grounded; on a grounded
    cone the qG directions are the lines Rbar^perp in degree -k*Rbar for
    integers 1 <= k <= min(a_l - 1, |I|), where l is the central index.
    """
    h, ab, iv = cd.hilbert, cd.ab, cd.interval
    qg = _central_chain(cd, (iv.h - iv.g) // iv.m)  # k <= |I| iff k <= floor(|I|)
    if h.grounded and (ab is None or ab.a_central != h.coefficient(h.central_index)):
        raise InternalConsistencyError("a_l from the interval disagrees with the recursion")
    return qg


def vw_dims(cd: ClassData) -> dict[DegreeId, int]:
    """Closed-form dimensions of T1_VW per degree.

    The central chain up to floor(min(c, c')*|I|): zero unless grounded; on
    a grounded cone the VW directions sit in degree -k*Rbar for
    1 <= k <= min(a_l - 1, c*|I|, c'*|I|) where c = -1/g and c' = 1/h in
    (Z/mZ)*.
    """
    iv = cd.interval
    # k <= min(c, c') * |I| iff k <= its floor
    return _central_chain(cd, min(cd.abc.c, cd.c_prime) * (iv.h - iv.g) // iv.m)


def zone_span(
    zone: Iterable[tuple[int, int]], base: tuple[int, int]
) -> tuple[tuple[int, int], ...]:
    """A basis of the vectors p - base, p in ``zone``: no vector, one, or two.

    ``zone`` yields the points of Z_{R,kappa}, as ``zone_walk`` walks them
    (or ``zone_points`` lists them), and ``base`` is iota(kappa*R), so each
    p - base is -iota(kappa*R - r) for a zone point r.  The points are read
    once, in order, and the read stops at the second independent vector,
    so a walk is left unfinished once the span is all of Z^2.  Vectors
    with base (0, 0) give a basis of their span, and its length is their
    rank.
    """
    bu, bv = base
    rest = iter(zone)
    for u, v in rest:
        if u != bu or v != bv:
            x0, y0 = u - bu, v - bv
            break
    else:
        return ()
    # (u - bu, v - bv) is parallel to (x0, y0) iff x0*v - y0*u = c
    c = x0 * bv - y0 * bu
    for u, v in rest:
        if x0 * v - y0 * u != c:
            return (x0, y0), (u - bu, v - bv)
    return ((x0, y0),)


def iso_oracle(f: tuple[int, int], span: tuple[tuple[int, int], ...]) -> bool:
    """Brute-force iso[kappa]: <a, kappa*R - r> = 0 on every zone M-point r.

    ``f`` = (A, B) is the direction a as ``t1_space`` gives it and
    ``span`` is ``zone_span`` of the zone Z_{R,kappa} against
    iota(kappa*R).  The condition is linear in iota(kappa*R - r), so it
    holds on the zone exactly when A*x + B*y = 0 on each basis vector.
    """
    A, B = f
    for x, y in span:
        if A * x + B * y:
            return False
    return True


def stable_iso_oracle(f: tuple[int, int], phi: tuple[int, int], nonempty: bool, iso: bool) -> bool:
    """iso[kappa + l*m] for all integers l, decided finitely.

    ``iso`` is ``iso_oracle``'s answer for the direction ``f`` on the zone
    Z_{R,kappa}, ``nonempty`` says whether that zone holds a point (the
    first point of its walk decides it), and ``phi`` is ``phi_vector`` of
    the degree.  An empty zone makes every shift hold; otherwise the
    condition is iso[kappa] together with <a, Rbar - m*R> = 0, because
    consecutive shifts differ exactly by that pairing.
    """
    return not nonempty or (iso and f[0] * phi[0] + f[1] * phi[1] == 0)


def _containment_oracle(cd: ClassData, d: DegreeId, tag: LatticeTag) -> bool:
    # containment of the lattice points of Z_{R,0}, R = k*r^i, in the line
    # Q*(Rbar - m*R), whose iota is phi_vector(cd, d); the walk stops at
    # the first point off the line
    lu, lv = phi_vector(cd, d)
    if not (lu or lv):
        raise InternalConsistencyError("Rbar - m*R vanished; R = Rbar/m is not a lattice degree")
    u_i, v_i = cd.hilbert.iota[d.i - 1]
    # at kappa = 0 the base iota(kappa*R) is the origin
    return all(u * lv == v * lu for u, v in zone_walk(cd, (d.k * u_i, d.k * v_i), 0, tag))


def qg_oracle(cd: ClassData, d: DegreeId) -> bool:
    """Zone criterion for qG: Mtilde points of Z_R lie on Q*(Rbar - m*R).

    Decides whether the V-line in degree -R, R = k*r^i (when one exists)
    consists of qG-deformations; degrees without V-deformations have
    dim qG = 0 no matter what this containment says.
    """
    return _containment_oracle(cd, d, LatticeTag.M_TILDE)


def vw_oracle(cd: ClassData, d: DegreeId) -> bool:
    """Zone criterion for VW, with the shifted lattice M + (1/m)Rbar."""
    return _containment_oracle(cd, d, LatticeTag.M_SHIFTED)


def _constrained_dim(
    cd: ClassData, d: DegreeId, span: tuple[tuple[int, int], ...], with_phi: bool
) -> int:
    """Directions in degree -R that every constraint of a zone (and
    <a, Rbar - m*R> = 0 when ``with_phi``) leaves free.

    ``span`` is ``zone_span`` of the zone against iota(kappa*R): a point
    r of Z_{R,kappa} constrains a by <a, x> = 0 for x = kappa*R - r, and
    these iota(x) span the same space as ``span``.  ``with_phi`` adds
    ``phi_vector(cd, d)``.  With T1(-R) = N (k = 1, 3 <= i <= e-2) the
    free directions number 2 minus the rank of these vectors; in a
    one-dimensional degree the direction (A, B) is free unless some
    vector (x, y) has A*x + B*y != 0.  A quotient degree must see
    <alpha, x> = 0 resp. <beta, x> = 0 on every vector.
    """
    functionals = t1_space(cd, d)
    if d.k == 1 and d.i in (2, cd.hilbert.e - 1):
        side = 0 if d.i == 2 else 1
        if any(x[side] for x in span):
            raise InternalConsistencyError("zone constraint does not descend to the quotient")
    rows = (*span, phi_vector(cd, d)) if with_phi else span
    if len(functionals) == 2:
        return 2 - len(zone_span(rows, (0, 0)))
    ((A, B),) = functionals
    return 0 if any(A * x + B * y for x, y in rows) else 1


def v_dims_oracle(cd: ClassData) -> dict[DegreeId, int]:
    """dim ker Phi per degree, i.e. directions with <a, Rbar - m*R> = 0:
    the rank rule of ``_constrained_dim`` on the phi row alone, no zone."""
    return {d: _constrained_dim(cd, d, (), True) for d in cd.hilbert.degrees}


def w_dims_oracle(cd: ClassData) -> dict[DegreeId, int]:
    """dim T1_W per degree, by exact rank of the iso[-1] zone constraints.

    This enumeration is the definition, against which ``w_fast`` and its
    chain closed form are checked, and it reads neither.  A zone point r
    gives the M-vector x = -R - r, with iota(x) = (du, dv).  In an interior
    degree (k = 1, 3 <= i <= e-2) the rank is the rank of these vectors;
    in a one-dimensional degree spanned by a it is 1 exactly when some
    A*du + B*dv != 0.  ``zone_walk`` walks each zone, and the rank reads
    the walk once, stopping at the second independent vector.
    """
    return _iso_minus_one_dims(cd, False)


def w_fast(cd: ClassData) -> dict[DegreeId, int]:
    """dim T1_W per degree, as ``w_dims_oracle``, walking one zone per r^i.

    A degree -r^i keeps its own kappa = -1 zone and rank, read against
    the base iota(-r^i) from ``cd.hilbert.iota``; its ``ZoneSpec`` takes
    r^i as the M-point ``cd.m_point`` builds from that pair.  The chain
    k*r^i, 2 <= k <= a_i - 1, is decided in closed form: W = 1 for k below
    ``w_chain_threshold(cd, i)`` and 0 from it on, set as one slice of the
    column, which is a list in table order until it is keyed; no chain
    zone is walked, and an empty chain (a_i = 2) reads no threshold.  A
    class whose zones have more than MAX_ZONE_FIBERS fibers, the sum of
    u_i = <alpha, r^i>, is refused before the first walk.
    """
    h = cd.hilbert
    table, iota = h.degrees, h.iota
    if sum(u for u, _ in iota[1:-1]) > MAX_ZONE_FIBERS:
        raise OracleBoundError(
            f"the W zones of nq:{cd.nq.n}/{cd.nq.q} walk more than "
            f"MAX_ZONE_FIBERS = {MAX_ZONE_FIBERS} fibers"
        )
    col = [0] * len(table)
    j = 0  # table[j] is (i, 1), and table[j + k - 1] is (i, k)
    for i, a in enumerate(h.coeffs, 2):
        u, v = iota[i - 1]
        zone = zone_points(ZoneSpec(cd.m_point(u, v), -1), cd)
        col[j] = _constrained_dim(cd, table[j], zone_span(zone, (-u, -v)), False)
        # the chain degrees with W = 1; an empty chain (a = 2) has none
        ones = w_chain_threshold(cd, i) - 2 if a > 2 else 0
        col[j + 1 : j + 1 + ones] = repeat(1, ones)
        j += a - 1
    return dict(zip(table, col))


def w_chain_threshold(cd: ClassData, i: int) -> int:
    """The K with W(-k*r^i) = 1 exactly for 2 <= k < K, in closed form.

    With (u_j, v_j) = iota(r^j) and (V0, U0) = ``cd.axis_points``,
    K = min(a_i, max(2, min ceil((x + 2)/y))), the inner min over the
    pairs (x, y) = (v_(i-1), v_i), (u_(i+1), u_i), (V0, v_i), (U0, u_i).

    Proof.  For k >= 2, T1(-k*r^i) is the line of a = (r^i)^perp and
    <a, k*r^i> = 0, so iso[-1], <a, -k*r^i - r> = 0, says that iota(r)
    lies on the line L through iota(r^i) for every r in Z_{k*r^i,-1}.
    In iota-coordinates that zone is the box B_k = [-1, k*u_i - 2] x
    [-1, k*v_i - 2], and B_k grows with k.  So W = 1 exactly for k below
    the least k at which B_k holds a point p of iota(M) off L.  Both
    coordinates of p are >= -1, and p lies in one of three places:
      - p >= 0: p is a nonzero semigroup point, a sum of basis elements
        among which some r^j with j != i, as p is off L; so p >= iota(r^j)
        in both coordinates.  For j < i, v_j >= v_(i-1), and for j > i,
        u_j >= u_(i+1): p enters B_k no earlier than r^(i-1) or r^(i+1).
        These two are off L, as adjacent basis elements are a basis of M,
        and u_(i-1) <= u_i - 1 <= k*u_i - 2, v_(i+1) <= v_i - 1 <=
        k*v_i - 2 (u_i, v_i >= 1 for 2 <= i <= e-1); so r^(i-1) is in B_k
        iff v_(i-1) <= k*v_i - 2, and r^(i+1) iff u_(i+1) <= k*u_i - 2.
      - p on u = -1: p = (-1, v) with v >= V0, and (-1, V0) is in B_k
        iff V0 <= k*v_i - 2, as -1 <= k*u_i - 2.  V0 >= 0 by the next
        point, and L has v < 0 where u < 0, so these points are off L.
      - p on v = -1: likewise from (U0, -1).
    No p lies on both lines: iota(Rbar/m) = (1, 1) and Rbar is
    primitive, so (-1, -1) is in iota(M) only when m = 1, that is
    q = n - 1 and e = 3.  Each of the four points is in B_k iff
    k >= ceil((x + 2)/y) for its pair, so the least k is the inner min;
    the chain has 2 <= k <= a_i - 1, so K is clamped to [2, a_i].
    """
    a_i = cd.hilbert.coefficient(i)  # also refuses an i outside 2..e-1
    v0, u0 = cd.axis_points
    iota = cd.hilbert.iota
    (_, v_prev), (u_i, v_i), (u_next, _) = iota[i - 2], iota[i - 1], iota[i]
    least = min(
        -(-(v_prev + 2) // v_i), -(-(u_next + 2) // u_i),
        -(-(v0 + 2) // v_i), -(-(u0 + 2) // u_i),
    )
    return min(a_i, max(2, least))


def vw_dims_oracle(cd: ClassData) -> dict[DegreeId, int]:
    """dim (V intersect W) per degree via the same rank computation."""
    return _iso_minus_one_dims(cd, True)


def _iso_minus_one_dims(cd: ClassData, with_phi: bool) -> dict[DegreeId, int]:
    h, out = cd.hilbert, {}
    for d in h.degrees:
        u_i, v_i = h.iota[d.i - 1]
        u_r, v_r = d.k * u_i, d.k * v_i
        zone = zone_walk(cd, (u_r, v_r), -1)
        out[d] = _constrained_dim(cd, d, zone_span(zone, (-u_r, -v_r)), with_phi)
    return out


def classify(cd: ClassData) -> ClassificationFlags:
    """T0 / T-singularity / qG-existence / groundedness of a class.

    The implications T0 => T-singularity => (some qG-deformation exists)
    => grounded hold by construction and are re-checked here.
    """
    grounded = cd.ab is not None
    iv = cd.interval
    width = iv.h - iv.g  # |I| = width / m
    t0 = width == iv.m
    t_sing = width >= iv.m and width % iv.m == 0
    qg_exists = grounded and width >= iv.m
    if (t0 and not t_sing) or (t_sing and not qg_exists) or (qg_exists and not grounded):
        raise InternalConsistencyError(f"classification chain broken for {cd.nq}")
    return ClassificationFlags(grounded, t_sing, t0, qg_exists)


def totals(cd: ClassData) -> T1Report:
    """The report of a class: V, qG and VW in closed form, W by ``w_fast``.

    Raises DegenerateSingularityError when the embedding dimension is at
    most 3, from the first read of ``cd.hilbert.degrees``, OracleBoundError
    past MAX_T1_DEGREES degrees, from the first read of ``cd.hilbert``, or
    past MAX_ZONE_FIBERS fibers, from ``w_fast``.
    """
    return assemble_report(cd, v_dims(cd), qg_dims(cd), vw_dims(cd), w_fast(cd))


def assemble_report(
    cd: ClassData, v: dict[DegreeId, int], qg: dict[DegreeId, int],
    vw: dict[DegreeId, int], w: dict[DegreeId, int],
) -> T1Report:
    """The report of a class from its V, qG, VW and W columns.

    Every column must be keyed by exactly the degree table of the class,
    ``cd.hilbert.degrees``, in table order, as every column function
    builds it; its values are then read as they stand, and any other
    column is refused.  The totals are the sums of the columns.
    Before returning, the columns are checked against the inclusion chain
    qG <= VW <= V <= T1, VW <= W in every degree, and the totals against
    the independent total formulas (V = e-4 [+ floor(A)+floor(B)], qG =
    floor(A+B), VW by the fractional-part cases), the V-VW gap
    dichotomy, and the qG/VW comparison statements; a failure raises
    InternalConsistencyError and indicates a bug, not bad input.
    """
    h = cd.hilbert
    table, t1 = h.degrees, t1_dims(h)
    # each column as a list in table order
    aligned = []
    for name, col in {"T1": t1, "V": v, "W": w, "VW": vw, "qG": qg}.items():
        if tuple(col) != table:
            raise InternalConsistencyError(
                f"the {name} column of {cd.nq} is not keyed by its T1 degrees in table order"
            )
        aligned.append(list(col.values()))
    last = DegreeId(h.central_index, h.coefficient(h.central_index) - 1) if h.grounded else None
    # each row made as DegreeReport._make makes it, without a Python call per row
    rows = zip(table, *aligned, map(eq, table, repeat(last)))
    per_degree = tuple(map(tuple.__new__, repeat(DegreeReport), rows))
    report = T1Report(cd.nq, per_degree, Totals(*map(sum, aligned)), classify(cd), h.e)
    _check_theorems(report, cd, aligned)
    return report


def _check_theorems(report: T1Report, cd: ClassData, aligned: list[list[int]]) -> None:
    """The theorem checks of ``assemble_report``; ``aligned`` holds the T1,
    V, W, VW and qG columns as lists in table order."""
    t, e = report.totals, report.embdim
    t1, v, w, vw, qg = aligned
    if not (all(map(le, qg, vw)) and all(map(le, vw, v)) and all(map(le, v, t1))
            and all(map(le, vw, w))):
        at = next(
            r.degree for r in report.per_degree
            if not (r.dim_qg <= r.dim_vw <= r.dim_v <= r.dim_t1 and r.dim_vw <= r.dim_w)
        )
        raise InternalConsistencyError(f"inclusion chain broken at {at} for {report.nq}")
    ab = cd.ab
    if ab is not None:
        expect_v = e - 4 + ab.floor_a + ab.floor_b
        expect_qg = (cd.interval.h - cd.interval.g) // cd.m  # floor(A + B) = floor(|I|)
        if ab.rem_a == 1 or ab.rem_b == 1:  # {A} or {B} is 1/m
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


# cayley_family refuses d above this: the ray matrix has (2d+2)*(d+2)
# entries; with the bound lifted, cayley --json prints it in 128 MiB of
# address space at d = 1,500 but not at d = 2,000.
MAX_CAYLEY_D = 500


def cayley_d(cd: ClassData) -> int:
    """d = floor(A+B) on a grounded interval and 0 otherwise.

    Raises OracleBoundError when d exceeds MAX_CAYLEY_D.
    """
    iv = cd.interval
    d = (iv.h - iv.g) // iv.m if cd.ab is not None else 0  # floor(|I|), |I| = A + B
    if d > MAX_CAYLEY_D:
        raise OracleBoundError(
            f"the Cayley family of nq:{cd.nq.n}/{cd.nq.q} has d = {d} > "
            f"MAX_CAYLEY_D = {MAX_CAYLEY_D}, the bound of its ray matrix"
        )
    return d


def cayley_family(cd: ClassData) -> CayleyFamily:
    """Ray matrix of the Cayley cone over the interval I = I' + d*[0,1].

    d = ``cayley_d(cd)``: floor(A+B) on a grounded interval (for embdim >= 4
    this equals dim T1_qG) and 0 otherwise, in which case the family is the
    trivial one over a point and the cone is C(I) itself.  The
    decomposition is fixed as I' = [-A, B-d].
    """
    i = cd.interval
    d = cayley_d(cd)
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
    return CayleyFamily(d, (g, h), i.m, degenerate, tuple(rays))
