"""Hilbert basis, continued fractions, and lattice points of the zones.

The Hilbert basis E = {r^1, ..., r^e} of the dual cone consists of the
lattice points on the compact edges of conv(dual(sigma) cap M minus 0);
e is the embedding dimension.  Adjacent elements form a Z-basis and
satisfy the three-term recursion r^(i-1) + r^(i+1) = a_i * r^i with the
Hirzebruch-Jung coefficients a_i >= 2 of n/(n-q).

The zones Z_{R,kappa} are the half-open parallelograms

    kappa <= <alpha, r> < kappa + <alpha, R>,
    kappa <= <beta,  r> < kappa + <beta,  R>,

whose lattice points generate all the flatness constraints used in
:mod:`cqs.deformations`.  A zone is cut out by the two integer pairings
iota(r) = (<alpha,r>, <beta,r>), so its points are found and returned as
integer pairs (u, v) = iota(r); the zone path uses integers only and
boundary points are decided without tolerance.  ``zone_points`` lists
the M-points of a zone for ``w_fast``, and ``zone_walk`` walks a zone
on M, M_tilde or M + Rbar/m for the oracles.  The Hilbert basis is
found and kept in iota pairs too; ``ClassData.m_point`` builds the
M-point of a pair only where one is printed, listed (a ``ZoneSpec``)
or checked.  ``continued_fraction``
refuses more than MAX_CF_TERMS terms, ``hilbert_basis`` a class with
more than MAX_T1_DEGREES T1-carrying degrees, and
``hilbert_basis_oracle`` an n past ORACLE_BOUND, each with
OracleBoundError before the work it bounds.  ``HilbertData.degrees``
refuses e <= 3, the A_(n-1) classes that are not graded here, with
DegenerateSingularityError, so the degree table is bounded for every class.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from itertools import islice
from math import gcd
from typing import NamedTuple

from .lattice import MPoint, NPoint, det2, ext_gcd, pairing
from .representations import (
    ABCForm,
    CFForm,
    ConeForm,
    DegenerateSingularityError,
    IntervalUD,
    InvalidSingularityError,
    NQForm,
    abc_to_nq,
    central_degree,
    interval_around,
    interval_to_abc,
    mirror_c,
)

# the largest n that brute-force enumeration (and so ``cqs verify``) accepts
ORACLE_BOUND = 10_000
# continued_fraction refuses an expansion longer than this; the cf of nq:n/2
# has about n/2 terms.  With the bound lifted, convert --json prints the cf of
# nq:12000001/2 (6,000,000 terms) in 128 MiB of address space, not nq:16000001/2.
MAX_CF_TERMS = 500_000
# hilbert_basis refuses a class with more T1-carrying degrees, sum(a_i - 1),
# than this before it builds any basis element: the degree table and every
# column grow with the count, and nq:1000003/500001 (500,002 degrees) would
# need far more than 128 MiB; nq:3001/2 has 1,501.
MAX_T1_DEGREES = 20_000


class OracleBoundError(ValueError):
    """Brute-force enumeration was asked to exceed its size guard."""


class DegreeId(NamedTuple):
    """T1-carrying degree R = k * r^i (the T1 piece sits in degree -R)."""

    i: int
    k: int


class _Frozen:
    """Mixin that makes a namedtuple subclass immutable.

    A subclass without ``__slots__`` has an instance dict, which a
    ``cached_property`` writes directly; every other attribute write raises.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class HilbertData(
    _Frozen, namedtuple("HilbertData", "iota coeffs e central_index grounded")
):
    """Ordered Hilbert basis of the dual cone, in iota pairs, plus its central data.

    ``iota[i-1]`` is iota(r^i) = (<alpha,r^i>, <beta,r^i>) (1-based
    indexing as in r^1, ..., r^e), coeffs are [a_2, ..., a_{e-1}], and
    ``grounded`` records whether the central degree Rbar
    (``ClassData.rbar``, the primitive generator of the ray through
    r^1 + r^e) is itself a basis element; then ``central_index`` is its
    1-based position.  ``hilbert_basis`` and ``hilbert_basis_oracle``
    find the pairs and ``_finish`` the rest.  No M-point is kept: a
    reader that prints, walks or checks r^i builds it from its pair with
    ``ClassData.m_point``.  ``degrees``, the degree table, is built on
    first read and kept.
    """

    @cached_property
    def degrees(self) -> tuple[DegreeId, ...]:
        """The T1-carrying degrees (i, k), 2 <= i <= e-1 and 1 <= k <= a_i - 1,
        ordered by (i, k).  Only e >= 4 carries them: e <= 3 is refused
        with DegenerateSingularityError before any entry is built."""
        if self.e <= 3:
            raise DegenerateSingularityError(
                f"embedding dimension {self.e} <= 3: smooth points and A_(n-1) "
                "singularities (q = n-1) carry no graded deformation theory here"
            )
        return tuple([DegreeId(i, k) for i, a in enumerate(self.coeffs, 2) for k in range(1, a)])

    def coefficient(self, i: int) -> int:
        """a_i for 2 <= i <= e-1."""
        if not 2 <= i <= self.e - 1:
            raise IndexError(f"a_i defined for 2 <= i <= e-1, got i={i}")
        return self.coeffs[i - 2]


class LatticeTag(enum.Enum):
    """Which lattice ``zone_walk`` intersects its zone with."""

    M = "M"
    M_TILDE = "M_tilde"      # M + Z * (1/m) Rbar
    M_SHIFTED = "M_shifted"  # M + (1/m) Rbar


class ZoneSpec(NamedTuple):
    """A zone of M as ``zone_points`` takes it: the degree R and kappa.

    ``w_fast`` builds R from its pair with ``ClassData.m_point``.
    """

    R: MPoint
    kappa: int


class ClassData(
    _Frozen,
    namedtuple("ClassData", "nq alpha beta interval abc c_prime rbar m det bw ab"),
):
    """One class S(n,q) in the coordinates of one cone, derived once.

    The descriptions nq, abc and interval sit next to the pairing
    coordinates iota(r) = (<alpha,r>, <beta,r>) of the cone <alpha, beta>.
    iota embeds M as an index-n sublattice of Z^2; the canonical rational
    degree Rbar/m maps to (1,1).  The fiber over u meets iota(M) exactly
    in v = u * bw (mod n), where bw = <beta, r> for any M-point r with
    <alpha, r> = 1.  ``c_prime`` is the abc invariant c' of the mirror
    class.  ``ab`` holds the endpoint data of the interval when it is
    grounded and is None otherwise.

    :func:`class_data` computes every field.  ``hilbert`` is built by
    :func:`hilbert_basis` from them on first read and kept on the record,
    so a caller that never reads it never pays for it, and so is
    ``axis_points``.  The oracles read only the fields and
    ``hilbert.iota``, never a closed-form result.  ``m_point`` maps a pair
    of iota(M) back to its M-point, for the readers that print, walk or
    check one.
    """

    @cached_property
    def hilbert(self) -> HilbertData:
        return hilbert_basis(self)

    def m_point(self, u: int, v: int) -> MPoint:
        """The r in M with iota(r) = (u, v); AssertionError if (u, v) is
        not in iota(M), as a pair off the lattice means a broken frame."""
        # inverse of the matrix with rows alpha, beta, applied to (u, v)
        a, b = self.alpha, self.beta
        x, rx = divmod(b.y * u - a.y * v, self.det)
        y, ry = divmod(a.x * v - b.x * u, self.det)
        if rx or ry:
            raise AssertionError(f"({u}, {v}) not in iota(M) for <{a}, {b}>")
        return MPoint(x, y)

    @cached_property
    def axis_points(self) -> tuple[int, int]:
        """(V0, U0): (-1, V0) and (U0, -1) are the least points of iota(M) on
        the lines u = -1 and v = -1 with the other coordinate >= -1.

        iota(M) is v = bw*u (mod n), so u = -1 gives v = -bw and v = -1 gives
        u = -1/bw (mod n); bw is a unit, as some r in M has <beta, r> = 1.
        """
        n, bw = self.nq.n, self.bw
        return (1 - bw) % n - 1, (1 - pow(bw, -1, n)) % n - 1


def class_data(c: ConeForm) -> ClassData:
    """The class of the cone c, with every derived field in c's coordinates.

    The round trip cone -> interval -> abc -> nq is the single place
    where q is found; Rbar is derived once, the interval is read around
    that Rbar, and ``ab`` from a grounded interval.  A smooth cone (n = 1)
    has no nq and raises InvalidSingularityError.
    """
    rbar = central_degree(c)
    iv = interval_around(c, rbar)
    abc = interval_to_abc(iv)
    _, s, t = ext_gcd(c.alpha.x, c.alpha.y)
    bw = (c.beta.x * s + c.beta.y * t) % c.order  # <beta, [s, t]>, and <alpha, [s, t]> = 1
    ab = ab_floor_data(iv) if is_grounded(iv) else None
    return ClassData(
        abc_to_nq(abc), c.alpha, c.beta, iv, abc, mirror_c(iv),
        rbar, iv.m, det2(c.alpha, c.beta), bw, ab,
    )


def continued_fraction(p: int, s: int) -> CFForm:
    """Hirzebruch-Jung expansion of p/s: ceil, negate remainder, recurse.

    At most MAX_CF_TERMS + 1 terms are generated, once, and the expansion
    is refused with OracleBoundError if they all come.
    """
    terms = tuple(islice(hj_coefficients(p, s), MAX_CF_TERMS + 1))
    if len(terms) > MAX_CF_TERMS:
        raise OracleBoundError(
            f"the continued fraction of {p}/{s} has more than MAX_CF_TERMS = "
            f"{MAX_CF_TERMS} terms"
        )
    return CFForm(terms)


def hj_coefficients(p: int, s: int) -> Iterator[int]:
    """The coefficients of ``continued_fraction(p, s)``, one at a time (each >= 2)."""
    if not (p > s >= 1 and gcd(p, s) == 1):
        raise InvalidSingularityError(f"need p > s >= 1 coprime, got {p}/{s}")
    while s:
        a = -(-p // s)  # ceil(p/s)
        yield a
        p, s = s, a * s - p


def hilbert_basis(cd: ClassData) -> HilbertData:
    """Hilbert basis via the three-term recursion, O(e) exact steps.

    The recursion runs on iota pairs.  Its seeds hold in every cone's
    coordinates: iota(r^1) = (0, n), as r^1 is orthogonal to alpha with
    <beta, r^1> = |det| = n, and iota(r^2) = (1, n - q).  The step
    iota(r^(i+1)) = a_i iota(r^i) - iota(r^(i-1)) then walks to
    iota(r^e), which must be (n, 0).  Reads only the frame fields of
    ``cd``; a ClassData runs it on the first read of ``cd.hilbert``, so
    callers read that.  The expansion is read once, at most MAX_T1_DEGREES
    + 1 terms a_i >= 2, and a class with e >= 4 past MAX_T1_DEGREES
    degrees, sum(a_i - 1), is refused before any pair is built.
    """
    n, q = cd.nq.n, cd.nq.q
    coeffs = tuple(islice(hj_coefficients(n, n - q), MAX_T1_DEGREES + 1))
    if len(coeffs) >= 2 and sum(coeffs) - len(coeffs) > MAX_T1_DEGREES:
        raise OracleBoundError(
            f"nq:{n}/{q} has more than MAX_T1_DEGREES = {MAX_T1_DEGREES} T1 degrees"
        )
    iota = [(0, n), (1, n - q)]
    (u0, v0), (u, v) = iota
    for a in coeffs:
        u0, v0, u, v = u, v, a * u - u0, a * v - v0
        iota.append((u, v))
    if iota[-1] != (n, 0):
        raise AssertionError(f"recursion did not terminate at r^e for <{cd.alpha}, {cd.beta}>")
    return _finish(cd, iota, coeffs)


def hilbert_basis_oracle(cd: ClassData) -> HilbertData:
    """Hilbert basis by brute force, for cross-checking the recursion.

    Walks iota(M) over the box [0, n]^2 with ``zone_walk`` (every basis
    element satisfies 0 <= <alpha,r>, <beta,r> <= n) in order of
    <alpha, .> and keeps the staircase minima, dropping the decomposable
    points (those dominating another nonzero semigroup element in both
    coordinates).  The a_j and the three-term recursion are then read
    and checked on the iota pairs.  Cost O(n); an n past ORACLE_BOUND
    raises OracleBoundError.  Reads the frame fields of ``cd`` only,
    never ``cd.hilbert``.
    """
    n = cd.nq.n
    if n > ORACLE_BOUND:
        raise OracleBoundError(f"n={n} exceeds the oracle bound {ORACLE_BOUND}")
    iota, least = [], n + 1
    for u, v in zone_walk(cd, (n + 1, n + 1), 0):
        if v < least and (u or v):
            iota.append((u, v))
            least = v
    coeffs = []
    for (u0, v0), (u, v), (u1, v1) in zip(iota, iota[1:], iota[2:]):
        # <alpha, r^j> >= 1 away from r^1, so the u-coordinate divides
        a = (u0 + u1) // u
        if (a * u, a * v) != (u0 + u1, v0 + v1):
            raise AssertionError("enumerated basis violates the three-term recursion")
        coeffs.append(a)
    return _finish(cd, iota, coeffs)


def _finish(cd: ClassData, iota: list[tuple[int, int]], coeffs) -> HilbertData:
    # every pair is an integer combination of iota(r^1) and iota(r^2), by
    # the recursion or by the oracle's check of it, so all lie in iota(M)
    # once these two do; Rbar is the basis element with iota(Rbar) = (m, m)
    cd.m_point(*iota[0])
    cd.m_point(*iota[1])
    rbar = (cd.m, cd.m)
    index = iota.index(rbar) + 1 if rbar in iota else None
    return HilbertData(tuple(iota), tuple(coeffs), len(iota), index, index is not None)


def eta(cd: ClassData, i: int) -> tuple[int, int]:
    """eta_i, the smaller of the two neighbour pairing ratios at r^i, as
    the reduced integer pair (p, q), q > 0, so pairs compare as values.

    The ratios are u_(i+1)/u_i and v_(i-1)/v_i of the iota pairs, whose
    denominators <alpha, r^i> and <beta, r^i> are positive for
    2 <= i <= e-1; the smaller is picked by cross-multiplying.  Both are
    in lowest terms already: adjacent basis elements form a Z-basis of M
    and alpha and beta are primitive, so alpha takes coprime values on
    r^i and r^(i+1), and beta on r^(i-1) and r^i.  For e >= 4 the floor
    p // q is a_i - 1; with e = 3 both ratios are exactly a_2 and the
    floor identity does not apply.
    """
    iota = cd.hilbert.iota
    if not 2 <= i <= len(iota) - 1:
        raise IndexError(f"eta_i defined for 2 <= i <= e-1, got i={i}")
    (_, v_prev), (u_i, v_i), (u_next, _) = iota[i - 2 : i + 1]
    return (u_next, u_i) if u_next * v_i <= v_prev * u_i else (v_prev, v_i)


def is_grounded(i: IntervalUD) -> bool:
    """True iff some integer lies strictly between g/m and h/m."""
    z = i.g // i.m + 1
    return i.g < z * i.m < i.h


class ABFloorData(NamedTuple):
    """Endpoint data of a grounded interval [-A, B] = [g/m, h/m], as
    integers over the interval's m: A = floor_a + rem_a/m and
    B = floor_b + rem_b/m, with 0 <= rem_a, rem_b < m."""

    floor_a: int
    floor_b: int
    rem_a: int  # {A} = rem_a/m
    rem_b: int  # {B} = rem_b/m
    a_central: int  # a at the central index: 2 + floor(A) + floor(B)


def ab_floor_data(i: IntervalUD) -> ABFloorData:
    """The floors of A = -g/m and B = h/m and the numerators over m of their
    fractional parts; grounded input only.

    The canonical translate of a grounded interval has g < 0 < h, so
    A and B are positive; floor(A) + floor(B) and the fractional parts do
    not depend on which interior integer is shifted to the origin.
    """
    if not is_grounded(i):
        raise InvalidSingularityError(f"interval [{i.g}/{i.m}, {i.h}/{i.m}] is not grounded")
    (fa, ra), (fb, rb) = divmod(-i.g, i.m), divmod(i.h, i.m)
    return ABFloorData(fa, fb, ra, rb, 2 + fa + fb)


def zone_points(z: ZoneSpec, cd: ClassData) -> list[tuple[int, int]]:
    """All M-points inside the half-open zone, for ``w_fast``.

    The points are returned in iota-coordinates, as the integer pairs
    (u, v) = iota(r), in no particular order.  A pair with
    kappa <= u < kappa + <alpha,R> and kappa <= v < kappa + <beta,R>
    belongs to iota(M) iff v = u*bw (mod n), so over each u the points
    form one arithmetic progression of step n, and the cost is
    proportional to the number of fibers and points, not the zone area.
    The oracles walk their zones, on every lattice, with ``zone_walk``,
    which shares no code with this list and takes iota(R) instead of a
    ``ZoneSpec``.
    """
    R, kappa = z.R, z.kappa  # read once, not per fiber
    u_r, v_r = pairing(cd.alpha, R), pairing(cd.beta, R)
    if u_r <= 0 or v_r <= 0:
        raise InvalidSingularityError(f"degree {R} is not interior to the dual cone")
    n, bw = cd.nq.n, cd.bw
    # the loop below keeps its one-residue set: computing the residue
    # directly makes analyze_long about 3x faster, and the benchmark
    # runner's peak_rss_mb refuses that until it counts the child alone
    # (ROADMAP item 1)
    shifts = (0,)
    found, v_end = [], kappa + v_r
    for u in range(kappa, kappa + u_r):
        residues = {(t + (u - t) * bw) % n for t in shifts}
        for r0 in residues:
            v = kappa + (r0 - kappa) % n
            while v < v_end:
                found.append((u, v))
                v += n
    return found


def zone_walk(
    cd: ClassData, size: tuple[int, int], kappa: int, lattice: LatticeTag = LatticeTag.M
) -> Iterator[tuple[int, int]]:
    """The points of a zone, generated fiber by fiber, for the oracles.

    ``size`` is (u_R, v_R) = iota(R) of the degree R, which the caller
    reads from ``cd.hilbert.iota``; the zone is kappa <= u < kappa + u_R,
    kappa <= v < kappa + v_R on ``lattice``.  The pairs (u, v) come in
    order of u, and a reader that has its answer stops the walk there.
    iota(M) is v = u*bw (mod n), and its shifted coset iota(M + Rbar/m) =
    iota(M) + (1, 1) is v - 1 = (u - 1)*bw (mod n).  iota(M_tilde) =
    iota(M) + Z*(1, 1) is a lattice too: (u, v) lies in iota(M) + t*(1, 1)
    iff v - bw*u = t*(1 - bw) (mod n), and some t solves this iff
    g = gcd(bw - 1, n) divides v - bw*u.  So the fiber over u + 1 is the
    fiber over u advanced by bw modulo the step of the lattice, n or g;
    each fiber costs one addition, and its points come as one ``range``.
    The tests hold the walk against a brute-force enumeration on M and
    on the shifted coset, against the union of the m cosets
    iota(M) + t*(1, 1) on M_tilde, and against the translation identity
    iota(M + Rbar/m) = iota(M) + (1, 1) on the shifted coset.
    """
    u_r, v_r = size
    if u_r <= 0 or v_r <= 0:
        raise InvalidSingularityError(f"zone size {size} is not interior to the dual cone")
    n, bw = cd.nq.n, cd.bw
    step = gcd(bw - 1, n) if lattice is LatticeTag.M_TILDE else n
    lift = 1 if lattice is LatticeTag.M_SHIFTED else 0
    advance, top, v_end = bw % step, kappa + step, kappa + v_r
    # the least v >= kappa of the lattice over u = kappa
    v = kappa + (lift + (kappa - lift) * bw - kappa) % step
    for u in range(kappa, kappa + u_r):
        if v < v_end:
            for w in range(v, v_end, step):
                yield u, w
        v += advance
        if v >= top:
            v -= step


def binomial_equations(h: HilbertData) -> list[str]:
    """The visible binomials x_{i-1} x_{i+1} - x_i^{a_i} of the embedding."""
    return [f"x{i - 1}*x{i + 1} - x{i}^{h.coefficient(i)}" for i in range(2, h.e)]
