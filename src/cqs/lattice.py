"""Exact arithmetic in the rank-two character lattice M and its dual N.

Everything downstream runs on arbitrary-precision integers: no floats,
no fractions, no overflow, no tolerances.  A rational is an integer
numerator over the class's m, or, for eta, a reduced integer pair.
Following the usual convention for toric surfaces, points of M are
written [u,v] and points of N are written (x,y); degrees live in M,
cone generators and deformation directions in N.  Zones are enumerated
in integer coordinates (:mod:`cqs.cone_geometry`), so no point of M_Q is
ever built.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple


class MPoint(NamedTuple):
    """Lattice point [u,v] of M.

    A NamedTuple, so ``+`` and ``*`` are redefined: ``p + q`` is the
    vector sum and ``k * p`` scales; ``p * k`` raises TypeError rather
    than repeat the tuple.
    """

    u: int
    v: int

    def __add__(self, other: "MPoint") -> "MPoint":
        return MPoint(self.u + other.u, self.v + other.v)

    def __mul__(self, k):
        raise TypeError("an MPoint is scaled as k * p, not p * k")

    def __rmul__(self, k: int) -> "MPoint":
        return MPoint(k * self.u, k * self.v)

    def __str__(self) -> str:
        return f"[{self.u},{self.v}]"


class NPoint(NamedTuple):
    """Lattice point (x,y) of the dual lattice N.

    Cone generators are the only N-points built; they are paired with
    M-points and never added or scaled, so NPoint keeps the tuple
    operators (``+`` concatenates).
    """

    x: int
    y: int

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


def pairing(n: NPoint, m: MPoint) -> int:
    """Natural pairing <n, m> = x*u + y*v."""
    return n.x * m.u + n.y * m.v


def det2(p: NPoint, q: NPoint) -> int:
    """Determinant of the 2x2 matrix with rows p, q.  Sign = orientation."""
    return p.x * q.y - p.y * q.x


def primitive(p: MPoint) -> MPoint:
    """p divided by the gcd of its coordinates, in the same direction."""
    if p.u == 0 and p.v == 0:
        raise ValueError("primitive() of the zero vector is undefined")
    d = gcd(p.u, p.v)
    return MPoint(p.u // d, p.v // d)


def ext_gcd(u: int, v: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, s, t) with g = gcd(u,v) > 0 and s*u + t*v = g."""
    if u == 0 and v == 0:
        raise ValueError("ext_gcd(0, 0) is undefined")
    old_r, r = u, v
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t

