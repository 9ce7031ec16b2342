from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqs.lattice import NPoint
from cqs.representations import (
    ABCForm,
    CFForm,
    ConeForm,
    IntervalUD,
    InvalidSingularityError,
    NQForm,
    abc_to_nq,
    canonical_class,
    cf_to_nq,
    cone_to_interval,
    interval_to_abc,
    interval_to_cone,
    mirror_c,
    nq_to_abc,
    nq_to_cone,
    q_inverse,
    to_nq,
)


def all_nq(n_max):
    return [
        NQForm(n, q)
        for n in range(2, n_max + 1)
        for q in range(1, n)
        if gcd(n, q) == 1
    ]


class TestValidation:
    def test_nq_invariants(self):
        for n, q in [(6, 3), (1, 0), (5, 0), (5, 5), (4, 2)]:
            with pytest.raises(InvalidSingularityError):
                NQForm(n, q)

    def test_abc_invariants(self):
        with pytest.raises(InvalidSingularityError):
            ABCForm(5, 2, 3)  # recovered (10, 5) has gcd 5
        with pytest.raises(InvalidSingularityError):
            ABCForm(5, 4, 7)  # c out of range
        with pytest.raises(InvalidSingularityError):
            ABCForm(4, 1, 2)  # gcd(a, c) != 1
        for a in (1, 2, 5):
            with pytest.raises(InvalidSingularityError):
                ABCForm(a, 1, 1)  # q = 0 is smooth

    def test_cone_invariants(self):
        with pytest.raises(InvalidSingularityError):
            ConeForm(NPoint(2, 0), NPoint(0, 1))  # not primitive
        with pytest.raises(InvalidSingularityError):
            ConeForm(NPoint(0, 0), NPoint(0, 1))  # zero
        with pytest.raises(InvalidSingularityError):
            ConeForm(NPoint(1, 2), NPoint(-1, -2))  # parallel

    def test_interval_invariants(self):
        with pytest.raises(InvalidSingularityError):
            IntervalUD(2, 1, 3)
        with pytest.raises(InvalidSingularityError):
            IntervalUD(2, 4, 6)
        with pytest.raises(InvalidSingularityError):
            IntervalUD(-2, 2, 0)

    def test_interval_canonical_shift(self):
        assert IntervalUD(3, 7, 5) == IntervalUD(-2, 2, 5)
        assert IntervalUD(-7, -3, 5) == IntervalUD(-2, 2, 5)
        iv = IntervalUD(5, 6, 7)
        assert (iv.g, iv.h) == (5, 6)

    def test_cf_invariants(self):
        with pytest.raises(InvalidSingularityError):
            CFForm(())
        with pytest.raises(InvalidSingularityError):
            CFForm((3, 1, 2))


class TestConversions:
    def test_nq_to_abc(self):
        assert nq_to_abc(NQForm(20, 11)) == ABCForm(5, 4, 3)
        assert nq_to_abc(NQForm(4, 1)) == ABCForm(2, 2, 1)
        assert nq_to_abc(NQForm(7, 3)) == ABCForm(7, 1, 4)

    def test_abc_to_nq(self):
        assert abc_to_nq(ABCForm(5, 4, 3)) == NQForm(20, 11)
        assert abc_to_nq(ABCForm(2, 2, 1)) == NQForm(4, 1)

    def test_nq_to_cone(self):
        cone = nq_to_cone(NQForm(20, 11))
        assert (cone.alpha, cone.beta) == (NPoint(1, 0), NPoint(-11, 20))
        assert nq_to_cone(NQForm(2, 1)).beta == NPoint(-1, 2)
        assert nq_to_cone(NQForm(7, 3)).beta == NPoint(-3, 7)

    def test_cone_to_interval(self):
        assert cone_to_interval(nq_to_cone(NQForm(20, 11))) == IntervalUD(-2, 2, 5)
        assert cone_to_interval(nq_to_cone(NQForm(2, 1))).m == 1
        assert cone_to_interval(nq_to_cone(NQForm(7, 3))) == IntervalUD(5, 6, 7)

    def test_interval_to_cone(self):
        cone = interval_to_cone(IntervalUD(-2, 2, 5))
        assert (cone.alpha, cone.beta) == (NPoint(-2, 5), NPoint(2, 5))
        cone = interval_to_cone(IntervalUD(0, 1, 1))
        assert (cone.alpha, cone.beta) == (NPoint(0, 1), NPoint(1, 1))
        cone = interval_to_cone(IntervalUD(5, 6, 7))
        assert (cone.alpha, cone.beta) == (NPoint(5, 7), NPoint(6, 7))

    def test_interval_to_abc(self):
        assert interval_to_abc(IntervalUD(-2, 2, 5)) == ABCForm(5, 4, 3)
        assert interval_to_abc(IntervalUD(-1, 1, 2)) == ABCForm(2, 2, 1)
        assert interval_to_abc(IntervalUD(5, 6, 7)) == ABCForm(7, 1, 4)

    def test_interval_exposes_length_and_index(self):
        from fractions import Fraction

        iv = IntervalUD(-2, 2, 5)
        abc = interval_to_abc(iv)
        n = abc.a * abc.b
        # |I| = (h-g)/m, read off the record's integers
        assert Fraction(iv.h - iv.g, iv.m) == Fraction(abc.b, abc.a) == Fraction(n, iv.m**2)
        assert iv.m == 5

    def test_q_inverse(self):
        assert q_inverse(NQForm(20, 11)) == NQForm(20, 11)
        assert q_inverse(NQForm(9, 1)) == NQForm(9, 1)
        assert q_inverse(NQForm(7, 3)) == NQForm(7, 5)

    def test_canonical_class(self):
        assert canonical_class(ABCForm(5, 4, 3)) == NQForm(20, 11)
        assert canonical_class(NQForm(7, 5)) == NQForm(7, 3)
        assert canonical_class(IntervalUD(-1, 1, 2)) == NQForm(4, 1)

    def test_cf_to_nq(self):
        assert cf_to_nq(CFForm((3, 2, 2, 2, 3))) == NQForm(20, 11)
        assert cf_to_nq(CFForm((2,))) == NQForm(2, 1)
        assert cf_to_nq(CFForm((2, 4))) == NQForm(7, 3)

    def test_smooth_cone_has_no_nq(self):
        with pytest.raises(InvalidSingularityError):
            to_nq(ConeForm(NPoint(1, 0), NPoint(0, 1)))


class TestRoundTrips:
    @pytest.mark.parametrize("nq", all_nq(40), ids=lambda s: f"{s.n}_{s.q}")
    def test_roundtrips(self, nq):
        assert abc_to_nq(nq_to_abc(nq)) == nq
        iv = cone_to_interval(nq_to_cone(nq))
        assert abc_to_nq(interval_to_abc(iv)) == nq
        assert cone_to_interval(interval_to_cone(iv)) == iv

    @pytest.mark.parametrize("nq", all_nq(40), ids=lambda s: f"{s.n}_{s.q}")
    def test_mirror_identities(self, nq):
        mirror = q_inverse(nq)
        abc, abc_m = nq_to_abc(nq), nq_to_abc(mirror)
        assert (abc.a, abc.b) == (abc_m.a, abc_m.b)
        iv = cone_to_interval(nq_to_cone(nq))
        iv_m = cone_to_interval(nq_to_cone(mirror))
        assert IntervalUD(-iv.h, -iv.g, iv.m) == iv_m
        assert mirror_c(iv) == abc_m.c
        assert canonical_class(nq) == canonical_class(mirror)

    @given(st.integers(min_value=2, max_value=300), st.data())
    def test_roundtrip_random(self, n, data):
        qs = [q for q in range(1, n) if gcd(n, q) == 1]
        nq = NQForm(n, data.draw(st.sampled_from(qs)))
        assert to_nq(cone_to_interval(nq_to_cone(nq))) == nq


def nq_range_by_q_inverse(n_max, skip_degenerate, canonical_only):
    # the enumeration as it was written before nq_range compared integers:
    # one NQForm per pair, and its mirror built through q_inverse
    for n in range(2, n_max + 1):
        for q in range(1, n):
            if gcd(n, q) != 1 or (skip_degenerate and q == n - 1):
                continue
            nq = NQForm(n, q)
            if canonical_only and q_inverse(nq).q < q:
                continue
            yield nq


@pytest.mark.parametrize("skip_degenerate", [False, True])
@pytest.mark.parametrize("canonical_only", [False, True])
def test_nq_range_equals_the_q_inverse_enumeration(skip_degenerate, canonical_only):
    from cqs.verify import nq_range

    got = list(nq_range(200, skip_degenerate, canonical_only))
    assert got == list(nq_range_by_q_inverse(200, skip_degenerate, canonical_only))
    assert all(type(nq) is NQForm for nq in got)
