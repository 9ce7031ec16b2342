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
boundary points are decided without tolerance.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .lattice import MPoint, NPoint, det2, ext_gcd, pairing, primitive
from .representations import (
    ABCForm,
    CFForm,
    ConeForm,
    IntervalUD,
    InvalidSingularityError,
    NQForm,
    abc_to_nq,
    cone_to_interval,
    dual_generators,
    interval_to_abc,
    mirror_c,
)

DEFAULT_ORACLE_BOUND = 10_000
ORACLE_BOUND_ENV = "CQS_ORACLE_BOUND"


class OracleBoundError(ValueError):
    """Brute-force enumeration was asked to exceed its size guard."""


def oracle_bound() -> int:
    """Size guard for brute-force enumeration; override via CQS_ORACLE_BOUND.

    An unset or empty variable means the default; any value that is not
    an integer >= 2 raises OracleBoundError.
    """
    raw = os.environ.get(ORACLE_BOUND_ENV)
    if not raw:
        return DEFAULT_ORACLE_BOUND
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 2:
        raise OracleBoundError(f"{ORACLE_BOUND_ENV} must be an integer >= 2, got {raw!r}")
    return bound


@dataclass(frozen=True)
class HilbertData:
    """Ordered Hilbert basis of the dual cone plus its central data.

    ``basis[i-1]`` is r^i (1-based indexing as in r^1, ..., r^e), coeffs
    are [a_2, ..., a_{e-1}], ``central_degree`` is the primitive
    generator Rbar of the ray through r^1 + r^e, and ``grounded`` records
    whether Rbar itself is a basis element (then ``central_index`` is its
    1-based position).
    """

    basis: tuple[MPoint, ...]
    coeffs: tuple[int, ...]
    e: int
    central_degree: MPoint
    central_index: int | None
    grounded: bool

    @property
    def smooth(self) -> bool:
        return self.e == 2

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


@dataclass(frozen=True)
class ZoneSpec:
    R: MPoint
    kappa: int
    lattice: LatticeTag = LatticeTag.M


@dataclass(frozen=True)
class ClassData:
    """One class S(n,q) in the coordinates of one cone, derived once.

    The descriptions nq, abc and interval sit next to the pairing
    coordinates iota(r) = (<alpha,r>, <beta,r>) of the cone <alpha, beta>.
    iota embeds M as an index-n sublattice of Z^2; the canonical rational
    degree Rbar/m maps to (1,1).  ``unit`` is an M-point with
    <alpha, unit> = 1, so the fiber over u meets iota(M) exactly in
    v = u * bw (mod n) where bw = <beta, unit>.  ``c_prime`` is the abc
    invariant c' of the mirror class.

    The frame fields are all fields before ``hilbert``.  Constructing the
    record runs :func:`hilbert_basis` on them once and stores the result
    as ``hilbert``; ``ab`` holds the endpoint data of the interval when it
    is grounded and is None otherwise.  The oracles read only the frame
    fields and basis elements, never a closed-form result.
    """

    nq: NQForm
    alpha: NPoint
    beta: NPoint
    interval: IntervalUD
    abc: ABCForm
    c_prime: int
    r1: MPoint
    re: MPoint
    rbar: MPoint
    m: int
    det: int
    unit: MPoint
    bw: int
    hilbert: HilbertData = field(init=False)
    ab: ABFloorData | None = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hilbert", hilbert_basis(self))
        grounded = is_grounded(self.interval)
        object.__setattr__(self, "ab", ab_floor_data(self.interval) if grounded else None)


def class_data(c: ConeForm) -> ClassData:
    """The class of the cone c, with every derived field in c's coordinates.

    The round trip cone -> interval -> abc -> nq is the single place
    where q is found; a smooth cone (n = 1) has no nq and raises
    InvalidSingularityError.
    """
    iv = cone_to_interval(c)
    abc = interval_to_abc(iv)
    r1, re = dual_generators(c)
    _, s, t = ext_gcd(c.alpha.x, c.alpha.y)
    unit = MPoint(s, t)
    bw = pairing(c.beta, unit) % c.order
    return ClassData(
        abc_to_nq(abc), c.alpha, c.beta, iv, abc, mirror_c(iv),
        r1, re, primitive(r1 + re), iv.m, det2(c.alpha, c.beta), unit, bw,
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
    """Hirzebruch-Jung expansion of p/s: ceil, negate remainder, recurse."""
    if not (p > s >= 1 and gcd(p, s) == 1):
        raise InvalidSingularityError(f"need p > s >= 1 coprime, got {p}/{s}")
    coeffs = []
    while True:
        a = -(-p // s)  # ceil(p/s)
        coeffs.append(a)
        p, s = s, a * s - p
        if s == 0:
            return CFForm(tuple(coeffs))


def hilbert_basis(cd: ClassData) -> HilbertData:
    """Hilbert basis via the three-term recursion, O(e) exact steps.

    Seeds are r^1 and the unique element r^2 with <alpha, r^2> = 1 and
    <beta, r^2> = n - q; the recursion r^(i+1) = a_i r^i - r^(i-1) then
    walks to r^e.  Reads only the frame fields of ``cd``; every ClassData
    runs it once on construction, so callers read ``cd.hilbert``.
    """
    n, q = cd.nq.n, cd.nq.q
    coeffs = continued_fraction(n, n - q).coefficients
    basis = [cd.r1, _preimage(cd, 1, n - q)]
    for a in coeffs:
        basis.append(a * basis[-1] - basis[-2])
    if basis[-1] != cd.re:
        raise AssertionError(f"recursion did not terminate at r^e for <{cd.alpha}, {cd.beta}>")
    return _finish(cd, tuple(basis), coeffs)


def hilbert_basis_oracle(cd: ClassData, bound: int | None = None) -> HilbertData:
    """Hilbert basis by brute force, for cross-checking the recursion.

    Enumerates all candidates in iota-coordinates (every basis element
    satisfies 0 <= <alpha,r>, <beta,r> <= n), discards the decomposable
    ones (those dominating another nonzero semigroup element in both
    coordinates), and sorts by <alpha, .>.  Cost O(n log n).  Reads the
    frame fields of ``cd`` only, never ``cd.hilbert``.
    """
    n = cd.nq.n
    limit = oracle_bound() if bound is None else bound
    if n > limit:
        raise OracleBoundError(f"n={n} exceeds the oracle bound {limit}")
    pts = []
    for u in range(n + 1):
        v0 = (u * cd.bw) % n
        for v in (v0, v0 + n) if v0 == 0 else (v0,):
            if v <= n and (u, v) != (0, 0):
                pts.append((u, v))
    pts.sort()
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
    grounded = cd.rbar in basis
    index = basis.index(cd.rbar) + 1 if grounded else None
    return HilbertData(basis, tuple(coeffs), len(basis), cd.rbar, index, grounded)


def eta(cd: ClassData, i: int) -> Fraction:
    """eta_i, the smaller of the two neighbour pairing ratios at r^i.

    For e >= 4 its floor is a_i - 1; with e = 3 both ratios are exactly
    a_2 and the floor identity does not apply.
    """
    h = cd.hilbert
    if not 2 <= i <= h.e - 1:
        raise IndexError(f"eta_i defined for 2 <= i <= e-1, got i={i}")
    ri, prev, nxt = h.element(i), h.element(i - 1), h.element(i + 1)
    return min(
        Fraction(pairing(cd.alpha, nxt), pairing(cd.alpha, ri)),
        Fraction(pairing(cd.beta, prev), pairing(cd.beta, ri)),
    )


def is_grounded(i: IntervalUD) -> bool:
    """True iff some integer lies strictly between g/m and h/m."""
    z = i.g // i.m + 1
    return i.g < z * i.m < i.h


@dataclass(frozen=True)
class ABFloorData:
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
    a = Fraction(-i.g, i.m)
    b = Fraction(i.h, i.m)
    fa, fb = a.numerator // a.denominator, b.numerator // b.denominator
    return ABFloorData(a, b, fa, fb, a - fa, b - fb, 2 + fa + fb)


def zone_points(z: ZoneSpec, cd: ClassData) -> list[tuple[int, int]]:
    """All points of the requested lattice inside the half-open zone.

    The points are returned in iota-coordinates, as the integer pairs
    (u, v) = iota(r), in no particular order.  A pair with
    kappa <= u < kappa + <alpha,R> and kappa <= v < kappa + <beta,R>
    belongs to iota(M) iff v = u*bw (mod n); the other two lattices are
    unions of translates of iota(M) by multiples of (1,1) = iota(Rbar/m).
    For each u the admissible v form arithmetic progressions of step n,
    so the cost is proportional to the number of fibers, not the zone
    area.
    """
    u_r, v_r = pairing(cd.alpha, z.R), pairing(cd.beta, z.R)
    if u_r <= 0 or v_r <= 0:
        raise InvalidSingularityError(f"degree {z.R} is not interior to the dual cone")
    n, bw = cd.nq.n, cd.bw
    if z.lattice is LatticeTag.M:
        shifts = (0,)
    elif z.lattice is LatticeTag.M_SHIFTED:
        shifts = (1,)
    else:
        shifts = tuple(range(cd.m))
    found = []
    for u in range(z.kappa, z.kappa + u_r):
        residues = {(t + (u - t) * bw) % n for t in shifts}
        for r0 in residues:
            v = z.kappa + (r0 - z.kappa) % n
            while v < z.kappa + v_r:
                found.append((u, v))
                v += n
    return found


def binomial_equations(h: HilbertData) -> list[str]:
    """The visible binomials x_{i-1} x_{i+1} - x_i^{a_i} of the embedding."""
    return [f"x{i - 1}*x{i + 1} - x{i}^{h.coefficient(i)}" for i in range(2, h.e)]
