import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqs.lattice import (
    MPoint,
    NPoint,
    det2,
    ext_gcd,
    pairing,
    primitive,
)

ints = st.integers(min_value=-10**6, max_value=10**6)


def test_pairing_examples():
    assert pairing(NPoint(1, 0), MPoint(0, 1)) == 0
    assert pairing(NPoint(0, 0), MPoint(7, 9)) == 0
    assert pairing(NPoint(-2, 5), MPoint(5, 3)) == 5


def test_det2_examples():
    assert det2(NPoint(1, 0), NPoint(-11, 20)) == 20
    assert det2(NPoint(1, 0), NPoint(0, 1)) == 1
    assert det2(NPoint(-2, 5), NPoint(2, 5)) == -20
    assert abs(det2(NPoint(-2, 5), NPoint(2, 5))) == 20


def test_primitive_examples():
    assert primitive(MPoint(20, 12)) == MPoint(5, 3)
    assert primitive(MPoint(0, 7)) == MPoint(0, 1)
    assert primitive(MPoint(-6, 9)) == MPoint(-2, 3)
    with pytest.raises(ValueError):
        primitive(MPoint(0, 0))


def test_ext_gcd_examples():
    g, s, t = ext_gcd(20, 12)
    assert g == 4 and 20 * s + 12 * t == 4
    assert ext_gcd(1, 0) == (1, 1, 0)
    g, s, t = ext_gcd(-2, 5)
    assert g == 1 and -2 * s + 5 * t == 1
    with pytest.raises(ValueError):
        ext_gcd(0, 0)


@given(ints, ints, ints, ints, ints, ints)
def test_pairing_bilinear(x, y, u1, v1, u2, v2):
    n = NPoint(x, y)
    m1, m2 = MPoint(u1, v1), MPoint(u2, v2)
    assert pairing(n, m1 + m2) == pairing(n, m1) + pairing(n, m2)


@given(ints, ints, ints, ints)
def test_det2_antisymmetric(a, b, c, d):
    p, q = NPoint(a, b), NPoint(c, d)
    assert det2(p, q) == -det2(q, p)
    assert det2(p, p) == 0


@given(ints, ints, st.integers(min_value=1, max_value=50))
def test_primitive_scaling(u, v, k):
    if u == 0 and v == 0:
        return
    assert primitive(k * MPoint(u, v)) == primitive(MPoint(u, v))


@given(ints, ints)
def test_ext_gcd_postcondition(u, v):
    if u == 0 and v == 0:
        return
    g, s, t = ext_gcd(u, v)
    assert g > 0
    assert s * u + t * v == g
    assert u % g == 0 and v % g == 0
