"""Exact arithmetic in the rank-two character lattice M and its dual N.

Everything downstream runs on arbitrary-precision integers, with
``fractions.Fraction`` only for interval data and eta: no floats, no
overflow, no tolerances.  Following the usual convention for toric
surfaces, points of M are written [u,v] and points of N are written
(x,y); degrees live in M, cone generators and deformation directions
in N.  Zones are enumerated in integer coordinates
(:mod:`cqs.cone_geometry`), so no point of M_Q is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class MPoint:
    """Lattice point [u,v] of M."""

    u: int
    v: int

    def __add__(self, other: "MPoint") -> "MPoint":
        return MPoint(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "MPoint") -> "MPoint":
        return MPoint(self.u - other.u, self.v - other.v)

    def __neg__(self) -> "MPoint":
        return MPoint(-self.u, -self.v)

    def __rmul__(self, k: int) -> "MPoint":
        return MPoint(k * self.u, k * self.v)

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __str__(self) -> str:
        return f"[{self.u},{self.v}]"


@dataclass(frozen=True)
class NPoint:
    """Lattice point (x,y) of the dual lattice N."""

    x: int
    y: int

    def __add__(self, other: "NPoint") -> "NPoint":
        return NPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "NPoint") -> "NPoint":
        return NPoint(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "NPoint":
        return NPoint(-self.x, -self.y)

    def __rmul__(self, k: int) -> "NPoint":
        return NPoint(k * self.x, k * self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


def pairing(n: NPoint, m: MPoint) -> int:
    """Natural pairing <n, m> = x*u + y*v."""
    return n.x * m.u + n.y * m.v


def det2(p: NPoint, q: NPoint) -> int:
    """Determinant of the 2x2 matrix with rows p, q.  Sign = orientation."""
    return p.x * q.y - p.y * q.x


def det2_m(p: MPoint, q: MPoint) -> int:
    """M-side analogue of :func:`det2` (basis checks for Hilbert data)."""
    return p.u * q.v - p.v * q.u


def primitive(p):
    """p divided by the gcd of its coordinates; same type, same direction."""
    if isinstance(p, MPoint):
        if p.is_zero():
            raise ValueError("primitive() of the zero vector is undefined")
        d = gcd(p.u, p.v)
        return MPoint(p.u // d, p.v // d)
    if isinstance(p, NPoint):
        if p.is_zero():
            raise ValueError("primitive() of the zero vector is undefined")
        d = gcd(p.x, p.y)
        return NPoint(p.x // d, p.y // d)
    raise TypeError(f"primitive() expects MPoint or NPoint, got {type(p)!r}")


def is_primitive(p) -> bool:
    if isinstance(p, MPoint):
        return not p.is_zero() and gcd(p.u, p.v) == 1
    return not p.is_zero() and gcd(p.x, p.y) == 1


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


def mod_inverse(c: int, m: int) -> int:
    """The unique c' in [1, m-1] with c*c' = 1 (mod m); m >= 2 required."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    c %= m
    g, s, _ = ext_gcd(c, m)
    if g != 1:
        raise ValueError(f"{c} is not invertible modulo {m}")
    return s % m
