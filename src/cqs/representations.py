"""Five equivalent descriptions of a cyclic quotient surface singularity.

The quotient of the affine plane by (x,y) -> (eta*x, eta^q*y), eta a
primitive n-th root of unity, can be recorded as any of

  * ``NQForm``      the pair (n, q) with 1 <= q <= n-1 and gcd(n, q) = 1;
  * ``ABCForm``     (a, b, c) where b = gcd(n, q+1), n = a*b, q = b*c - 1;
  * ``ConeForm``    a pointed two-dimensional cone <alpha, beta> in N;
  * ``IntervalUD``  a rational interval [g/m, h/m] whose endpoints share
                    the denominator m in reduced form (m is the index of
                    the dualizing sheaf);
  * ``CFForm``      the Hirzebruch-Jung continued fraction of n/(n-q).

All conversions are exact, and the composite
nq -> cone -> interval -> abc -> nq is the identity.  S(n,q) and S(n,q')
with q*q' = 1 mod n are isomorphic; ``canonical_class`` picks the
representative with the smaller q.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .lattice import MPoint, NPoint, det2, ext_gcd, pairing, primitive


class InvalidSingularityError(ValueError):
    """An input violates a structural invariant (gcd, range, denominators)."""


class DegenerateSingularityError(ValueError):
    """Operation needs embedding dimension >= 4 (smooth and A_{n-1} excluded)."""


class NQForm(namedtuple("NQForm", "n q")):
    """The normalized group action 1/n (1, q)."""

    __slots__ = ()

    def __new__(cls, n: int, q: int) -> NQForm:
        if n < 2:
            raise InvalidSingularityError(f"n must be >= 2, got n={n}")
        if not 1 <= q <= n - 1:
            raise InvalidSingularityError(
                f"q={q} outside [1, n-1] for n={n}"
                + (" (q=0 would be a smooth point)" if q % n == 0 else "")
            )
        if gcd(n, q) != 1:
            raise InvalidSingularityError(f"gcd(n, q) = gcd({n}, {q}) != 1")
        return super().__new__(cls, n, q)


class ABCForm(namedtuple("ABCForm", "a b c")):
    """The triple (a, b, c); n = a*b and q = b*c - 1."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> ABCForm:
        if a < 1 or b < 1:
            raise InvalidSingularityError(f"a, b must be >= 1, got ({a}, {b})")
        if not 1 <= c <= a:
            raise InvalidSingularityError(f"c={c} outside [1, a] for a={a}")
        if gcd(a, c) != 1:
            raise InvalidSingularityError(f"gcd(a, c) = gcd({a}, {c}) != 1")
        self = super().__new__(cls, a, b, c)
        # (n, q) must be recoverable; delegate the remaining checks.
        abc_to_nq(self)
        return self


class ConeForm(namedtuple("ConeForm", "alpha beta")):
    """Pointed two-dimensional cone <alpha, beta> in N, generators primitive."""

    __slots__ = ()

    def __new__(cls, alpha: NPoint, beta: NPoint) -> ConeForm:
        if gcd(alpha.x, alpha.y) != 1 or gcd(beta.x, beta.y) != 1:
            raise InvalidSingularityError("cone generators must be primitive and nonzero")
        if det2(alpha, beta) == 0:
            raise InvalidSingularityError("cone is not two-dimensional (parallel generators)")
        return super().__new__(cls, alpha, beta)

    @property
    def order(self) -> int:
        """Group order n = |det(alpha, beta)|."""
        return abs(det2(self.alpha, self.beta))


class IntervalUD(namedtuple("IntervalUD", "g h m")):
    """Interval [g/m, h/m] with uniform denominators, gcd(g,m)=gcd(h,m)=1.

    Intervals are identified up to integral shift; the constructor stores
    the canonical translate with 0 < h <= m.  In that normalization the
    interval contains an interior integer (namely 0) exactly when g < 0.
    The record holds integers only: a rational read off it is a numerator
    over m, as |I| = (h-g)/m = b/a = n/m^2 is.
    """

    __slots__ = ()

    def __new__(cls, g: int, h: int, m: int) -> IntervalUD:
        if m < 1:
            raise InvalidSingularityError(f"denominator m must be >= 1, got {m}")
        if g >= h:
            raise InvalidSingularityError(f"need g < h, got g={g}, h={h}")
        if gcd(g, m) != 1 or gcd(h, m) != 1:
            raise InvalidSingularityError(
                f"endpoints {g}/{m}, {h}/{m} must be reduced with the same denominator"
            )
        shift = (h - 1) // m  # canonical translate: 0 < h <= m
        return super().__new__(cls, g - shift * m, h - shift * m, m)


class CFForm(namedtuple("CFForm", "coefficients")):
    """Hirzebruch-Jung continued fraction [a2, ..., a_{e-1}], all entries >= 2."""

    __slots__ = ()

    def __new__(cls, coefficients) -> CFForm:
        coeffs = tuple(coefficients)
        if not coeffs:
            raise InvalidSingularityError("continued fraction needs at least one coefficient")
        if any(a < 2 for a in coeffs):
            raise InvalidSingularityError(f"all coefficients must be >= 2, got {list(coeffs)}")
        return super().__new__(cls, coeffs)


SingularityForm = NQForm | ABCForm | ConeForm | IntervalUD | CFForm


def nq_to_abc(s: NQForm) -> ABCForm:
    """b = gcd(n, q+1), a = n/b, c = (q+1)/b."""
    b = gcd(s.n, s.q + 1)
    return ABCForm(s.n // b, b, (s.q + 1) // b)


def abc_to_nq(s: ABCForm) -> NQForm:
    """n = a*b and q = b*c - 1; rejects triples whose (n, q) is invalid."""
    return NQForm(s.a * s.b, s.b * s.c - 1)


def nq_to_cone(s: NQForm) -> ConeForm:
    """The standard model: sigma = <(1,0), (-q,n)>, dual <[0,1], [n,q]>."""
    return ConeForm(NPoint(1, 0), NPoint(-s.q, s.n))


def dual_generators(c: ConeForm) -> tuple[MPoint, MPoint]:
    """Primitive generators (r1, re) of the dual cone.

    r1 is orthogonal to alpha, re to beta; signs are fixed by requiring
    <beta, r1> > 0 and <alpha, re> > 0, i.e. both lie in the dual cone.
    """
    d = det2(c.alpha, c.beta)
    if d > 0:
        r1 = MPoint(-c.alpha.y, c.alpha.x)
        re = MPoint(c.beta.y, -c.beta.x)
    else:
        r1 = MPoint(c.alpha.y, -c.alpha.x)
        re = MPoint(-c.beta.y, c.beta.x)
    return r1, re


def central_degree(c: ConeForm) -> MPoint:
    """Primitive generator of the ray through r1 + re.

    With the signs of ``dual_generators``, r1 + re is
    [beta.y - alpha.y, alpha.x - beta.x] when det(alpha, beta) > 0 and
    its negative otherwise, so it is formed here without them.
    """
    a, b = c.alpha, c.beta
    s = 1 if det2(a, b) > 0 else -1
    return primitive(MPoint(s * (b.y - a.y), s * (a.x - b.x)))


def cone_to_interval(c: ConeForm) -> IntervalUD:
    """Rewrite the cone in coordinates where the central degree is [0,1]."""
    return interval_around(c, central_degree(c))


def interval_around(c: ConeForm, rbar: MPoint) -> IntervalUD:
    """``cone_to_interval(c)``, given rbar = ``central_degree(c)``.

    The central degree Rbar is extended to a basis {F, Rbar} of M via the
    extended Euclidean algorithm; the sign of F is chosen so that alpha
    maps to the left endpoint.  In those coordinates alpha = (g, m) and
    beta = (h, m) with m = <alpha, Rbar> = <beta, Rbar>, and the interval
    is [g/m, h/m], stored in its canonical integral translate.
    """
    m = pairing(c.alpha, rbar)
    if m != pairing(c.beta, rbar) or m <= 0:
        raise InvalidSingularityError("cone is not pointed")
    _, s, t = ext_gcd(rbar.u, rbar.v)
    f = MPoint(t, -s)  # det(f, rbar) = 1, so {f, rbar} is a basis of M
    g, h = pairing(c.alpha, f), pairing(c.beta, f)
    if g > h:
        g, h = -g, -h
    return IntervalUD(g, h, m)


def interval_to_cone(i: IntervalUD) -> ConeForm:
    """C(I) = <(g, m), (h, m)>; generators are primitive by the gcd invariants."""
    return ConeForm(NPoint(i.g, i.m), NPoint(i.h, i.m))


def interval_to_abc(i: IntervalUD) -> ABCForm:
    """a = m, b = h - g, c = -1/g in (Z/mZ)*."""
    c = 1 if i.m == 1 else pow(-i.g, -1, i.m)
    return ABCForm(i.m, i.h - i.g, c)


def mirror_c(i: IntervalUD) -> int:
    """The invariant c' = 1/h in (Z/mZ)* belonging to the mirror (n, q')."""
    return 1 if i.m == 1 else pow(i.h, -1, i.m)


def cf_to_nq(cf: CFForm) -> NQForm:
    """Evaluate a2 - 1/(a3 - 1/(...)) = n/(n-q) bottom-up, exactly."""
    p, s = cf.coefficients[-1], 1
    for a in reversed(cf.coefficients[:-1]):
        p, s = a * p - s, p
    if s <= 0 or gcd(p, s) != 1:
        raise InvalidSingularityError(f"continued fraction evaluates to {p}/{s}")
    return NQForm(p, p - s)


def q_inverse(s: NQForm) -> NQForm:
    """The isomorphic singularity (n, q') with q*q' = 1 mod n."""
    return NQForm(s.n, pow(s.q, -1, s.n))


def to_nq(form: SingularityForm) -> NQForm:
    """Convert any description to its NQForm."""
    if isinstance(form, NQForm):
        return form
    if isinstance(form, ABCForm):
        return abc_to_nq(form)
    if isinstance(form, ConeForm):
        return abc_to_nq(interval_to_abc(cone_to_interval(form)))
    if isinstance(form, IntervalUD):
        return abc_to_nq(interval_to_abc(form))
    if isinstance(form, CFForm):
        return cf_to_nq(form)
    raise TypeError(f"not a singularity description: {type(form)!r}")


def canonical_class(s: SingularityForm) -> NQForm:
    """Isomorphism-class representative (n, min(q, q'))."""
    nq = to_nq(s)
    return NQForm(nq.n, min(nq.q, q_inverse(nq).q))
