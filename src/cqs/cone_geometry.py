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
boundary points are decided without tolerance.  ``continued_fraction``
refuses more than MAX_CF_TERMS terms, and ``hilbert_basis_oracle`` an n
past ORACLE_BOUND, each with OracleBoundError before the work it bounds.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd
from typing import NamedTuple

from .lattice import MPoint, NPoint, det2, ext_gcd, pairing
from .representations import (
    ABCForm,
    CFForm,
    ConeForm,
    IntervalUD,
    InvalidSingularityError,
    NQForm,
    abc_to_nq,
    central_degree,
    dual_generators,
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


class HilbertData(_Frozen, namedtuple("HilbertData", "basis coeffs e central_index grounded")):
    """Ordered Hilbert basis of the dual cone plus its central data.

    ``basis[i-1]`` is r^i (1-based indexing as in r^1, ..., r^e), coeffs
    are [a_2, ..., a_{e-1}], and ``grounded`` records whether the central
    degree Rbar (``ClassData.rbar``, the primitive generator of the ray
    through r^1 + r^e) is itself a basis element; then ``central_index``
    is its 1-based position.  ``hilbert_basis`` and
    ``hilbert_basis_oracle`` compute every field.  ``degrees``, the degree
    table, is built on first read and kept.
    """

    @cached_property
    def degrees(self) -> tuple[DegreeId, ...]:
        """The degrees (i, k), 2 <= i <= e-1 and 1 <= k <= a_i - 1, ordered by (i, k)."""
        return tuple(DegreeId(i, k) for i, a in enumerate(self.coeffs, 2) for k in range(1, a))

    def coefficient(self, i: int) -> int:
        """a_i for 2 <= i <= e-1."""
        if not 2 <= i <= self.e - 1:
            raise IndexError(f"a_i defined for 2 <= i <= e-1, got i={i}")
        return self.coeffs[i - 2]

    def element(self, i: int) -> MPoint:
        """r^i for 1 <= i <= e."""
        if not 1 <= i <= self.e:
            raise IndexError(f"r^i defined for 1 <= i <= e, got i={i}")
        return self.basis[i - 1]


class LatticeTag(enum.Enum):
    """Which lattice the zone is intersected with."""

    M = "M"
    M_TILDE = "M_tilde"      # M + Z * (1/m) Rbar
    M_SHIFTED = "M_shifted"  # M + (1/m) Rbar


class ZoneSpec(NamedTuple):
    R: MPoint
    kappa: int
    lattice: LatticeTag = LatticeTag.M


class ClassData(
    _Frozen,
    namedtuple("ClassData", "nq alpha beta interval abc c_prime r1 re rbar m det bw ab"),
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
    ``iota_basis``.  The oracles read only the fields and basis elements,
    never a closed-form result.
    """

    @cached_property
    def hilbert(self) -> HilbertData:
        return hilbert_basis(self)

    @cached_property
    def iota_basis(self) -> tuple[tuple[int, int], ...]:
        """iota(r^i) = (u_i, v_i) of each basis element, r^i at index i-1."""
        (ax, ay), (bx, by) = (self.alpha.x, self.alpha.y), (self.beta.x, self.beta.y)
        return tuple((ax * r.u + ay * r.v, bx * r.u + by * r.v) for r in self.hilbert.basis)


def class_data(c: ConeForm) -> ClassData:
    """The class of the cone c, with every derived field in c's coordinates.

    The round trip cone -> interval -> abc -> nq is the single place
    where q is found; the dual generators and Rbar are derived once, the
    interval is read around that Rbar, and ``ab`` from a grounded interval.
    A smooth cone (n = 1) has no nq and raises InvalidSingularityError.
    """
    rbar = central_degree(c)
    iv = interval_around(c, rbar)
    abc = interval_to_abc(iv)
    r1, re = dual_generators(c)
    _, s, t = ext_gcd(c.alpha.x, c.alpha.y)
    bw = (c.beta.x * s + c.beta.y * t) % c.order  # <beta, [s, t]>, and <alpha, [s, t]> = 1
    ab = ab_floor_data(iv) if is_grounded(iv) else None
    return ClassData(
        abc_to_nq(abc), c.alpha, c.beta, iv, abc, mirror_c(iv),
        r1, re, rbar, iv.m, det2(c.alpha, c.beta), bw, ab,
    )


def _preimage(cd: ClassData, u: int, v: int) -> MPoint:
    # inverse of the matrix with rows alpha, beta, applied to (u, v)
    a, b = cd.alpha, cd.beta
    x, rx = divmod(b.y * u - a.y * v, cd.det)
    y, ry = divmod(a.x * v - b.x * u, cd.det)
    if rx or ry:
        raise AssertionError(f"({u}, {v}) not in iota(M) for <{a}, {b}>")
    return MPoint(x, y)


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

    Seeds are r^1 and the unique element r^2 with <alpha, r^2> = 1 and
    <beta, r^2> = n - q; the recursion r^(i+1) = a_i r^i - r^(i-1) then
    walks to r^e.  Reads only the frame fields of ``cd``; a ClassData
    runs it on the first read of ``cd.hilbert``, so callers read that.
    """
    n, q = cd.nq.n, cd.nq.q
    coeffs = tuple(hj_coefficients(n, n - q))
    basis = [cd.r1, _preimage(cd, 1, n - q)]
    (x0, y0), (x, y) = (cd.r1.u, cd.r1.v), (basis[1].u, basis[1].v)
    for a in coeffs:
        x0, y0, x, y = x, y, a * x - x0, a * y - y0
        basis.append(MPoint(x, y))
    if basis[-1] != cd.re:
        raise AssertionError(f"recursion did not terminate at r^e for <{cd.alpha}, {cd.beta}>")
    return _finish(cd, tuple(basis), coeffs)


def hilbert_basis_oracle(cd: ClassData) -> HilbertData:
    """Hilbert basis by brute force, for cross-checking the recursion.

    Enumerates all candidates in iota-coordinates (every basis element
    satisfies 0 <= <alpha,r>, <beta,r> <= n), discards the decomposable
    ones (those dominating another nonzero semigroup element in both
    coordinates), walking the candidates in order of <alpha, .>.  Cost
    O(n); an n past ORACLE_BOUND raises OracleBoundError.  Reads the
    frame fields of ``cd`` only, never ``cd.hilbert``.
    """
    n = cd.nq.n
    if n > ORACLE_BOUND:
        raise OracleBoundError(f"n={n} exceeds the oracle bound {ORACLE_BOUND}")
    # the fiber over u is the progression v = u*bw (mod n), so the
    # candidates come out sorted
    pts = [
        (u, v) for u in range(n + 1) for v in range(u * cd.bw % n, n + 1, n) if u or v
    ]
    iota_basis = []
    min_v: int | None = None
    for u, v in pts:
        if min_v is None or v < min_v:
            iota_basis.append((u, v))
            min_v = v
    basis = [_preimage(cd, u, v) for u, v in iota_basis]
    coeffs = []
    for j in range(1, len(basis) - 1):
        s = basis[j - 1] + basis[j + 1]
        # <alpha, r^j> >= 1 away from r^1, so the iota u-coordinate divides
        a = (iota_basis[j - 1][0] + iota_basis[j + 1][0]) // iota_basis[j][0]
        if a * basis[j] != s:
            raise AssertionError("enumerated basis violates the three-term recursion")
        coeffs.append(a)
    return _finish(cd, tuple(basis), tuple(coeffs))


def _finish(cd: ClassData, basis: tuple[MPoint, ...], coeffs) -> HilbertData:
    u, v = cd.rbar.u, cd.rbar.v
    index = next((j for j, r in enumerate(basis, 1) if r.u == u and r.v == v), None)
    return HilbertData(basis, tuple(coeffs), len(basis), index, index is not None)


def eta(cd: ClassData, i: int) -> Fraction:
    """eta_i, the smaller of the two neighbour pairing ratios at r^i.

    For e >= 4 its floor is a_i - 1; with e = 3 both ratios are exactly
    a_2 and the floor identity does not apply.
    """
    iota = cd.iota_basis
    if not 2 <= i <= len(iota) - 1:
        raise IndexError(f"eta_i defined for 2 <= i <= e-1, got i={i}")
    (_, v_prev), (u_i, v_i), (u_next, _) = iota[i - 2 : i + 1]
    return min(Fraction(u_next, u_i), Fraction(v_prev, v_i))


def is_grounded(i: IntervalUD) -> bool:
    """True iff some integer lies strictly between g/m and h/m."""
    z = i.g // i.m + 1
    return i.g < z * i.m < i.h


class ABFloorData(NamedTuple):
    """Endpoint data A = -g/m, B = h/m of a grounded interval [-A, B]."""

    A: Fraction
    B: Fraction
    floor_a: int
    floor_b: int
    frac_a: Fraction
    frac_b: Fraction
    a_central: int  # a at the central index: 2 + floor(A) + floor(B)


def ab_floor_data(i: IntervalUD) -> ABFloorData:
    """A, B with their floors and fractional parts; grounded input only.

    The canonical translate of a grounded interval has g < 0 < h, so
    A = -g/m and B = h/m are positive; floor(A) + floor(B) and the
    fractional parts do not depend on which interior integer is shifted
    to the origin.
    """
    if not is_grounded(i):
        raise InvalidSingularityError(f"interval [{i.g}/{i.m}, {i.h}/{i.m}] is not grounded")
    (fa, ra), (fb, rb) = divmod(-i.g, i.m), divmod(i.h, i.m)
    return ABFloorData(
        Fraction(-i.g, i.m), Fraction(i.h, i.m), fa, fb, Fraction(ra, i.m), Fraction(rb, i.m),
        2 + fa + fb,
    )


def zone_points(z: ZoneSpec, cd: ClassData) -> list[tuple[int, int]]:
    """All points of the requested lattice inside the half-open zone.

    The points are returned in iota-coordinates, as the integer pairs
    (u, v) = iota(r), in no particular order.  A pair with
    kappa <= u < kappa + <alpha,R> and kappa <= v < kappa + <beta,R>
    belongs to iota(M) iff v = u*bw (mod n), and to the shifted coset
    iota(M) + (1,1) = iota(M + Rbar/m) iff v - 1 = (u - 1)*bw (mod n).
    iota(M_tilde) = iota(M) + Z*(1,1) is a lattice too, with one
    progression per fiber: (u, v) lies in iota(M) + t*(1,1) iff
    v - bw*u = t*(1 - bw) (mod n), and some t solves this iff
    g = gcd(bw - 1, n) divides v - bw*u.  So over each u the admissible
    v form one arithmetic progression, of step n or g, and the cost is
    proportional to the number of fibers and points, not the zone area.
    ``w_fast`` lists its zones here; the oracles walk theirs with
    ``zone_walk``, which shares no code with this list.
    """
    R, kappa, lattice = z.R, z.kappa, z.lattice  # read once, not per fiber
    u_r, v_r = pairing(cd.alpha, R), pairing(cd.beta, R)
    if u_r <= 0 or v_r <= 0:
        raise InvalidSingularityError(f"degree {R} is not interior to the dual cone")
    n, bw = cd.nq.n, cd.bw
    if lattice is LatticeTag.M:
        shifts = (0,)
    elif lattice is LatticeTag.M_SHIFTED:
        shifts = (1,)
    else:
        shifts, n = (0,), gcd(bw - 1, n)
    found, v_end = [], kappa + v_r
    for u in range(kappa, kappa + u_r):
        residues = {(t + (u - t) * bw) % n for t in shifts}
        for r0 in residues:
            v = kappa + (r0 - kappa) % n
            while v < v_end:
                found.append((u, v))
                v += n
    return found


def zone_walk(z: ZoneSpec, cd: ClassData) -> Iterator[tuple[int, int]]:
    """The points of ``zone_points(z, cd)``, generated fiber by fiber.

    The same half-open zone and lattice, the same pairs (u, v), in order
    of u; the oracles read it, so a reader that has its answer stops the
    walk there.  The fiber over u + 1 is the fiber over u advanced by bw
    modulo the step of the lattice: n for iota(M) and its shifted coset,
    whose first fiber is (1, 1) + iota(M), and g = gcd(bw - 1, n) for
    iota(M_tilde) = iota(M) + Z*(1, 1), on which v = bw*u (mod g).  So
    each fiber costs one addition, and its points come as one ``range``.
    """
    R, kappa, lattice = z
    u_r, v_r = pairing(cd.alpha, R), pairing(cd.beta, R)
    if u_r <= 0 or v_r <= 0:
        raise InvalidSingularityError(f"degree {R} is not interior to the dual cone")
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
