from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqs import cone_geometry
from cqs.cone_geometry import (
    MAX_CF_TERMS,
    ORACLE_BOUND,
    LatticeTag,
    OracleBoundError,
    ZoneSpec,
    _preimage,
    ab_floor_data,
    binomial_equations,
    class_data,
    continued_fraction,
    eta,
    hilbert_basis,
    hilbert_basis_oracle,
    is_grounded,
    zone_points,
    zone_walk,
)
from cqs.lattice import MPoint, pairing
from cqs.representations import (
    IntervalUD,
    InvalidSingularityError,
    NQForm,
    central_degree,
    interval_to_cone,
    nq_to_cone,
)

from test_deformations import UNIMODULAR, transform


def cone_of(n, q):
    return nq_to_cone(NQForm(n, q))


def data_of(n, q):
    return class_data(cone_of(n, q))


def brute_zone(cone, R, kappa, shifts):
    """Independent zone enumeration for standard cones (alpha = (1,0)).

    Walks integer (x, y) directly against the defining inequalities; the
    lattice is M shifted by (t/m) * Rbar for each t in `shifts`.
    """
    rbar = central_degree(cone)
    m = pairing(cone.alpha, rbar)
    n = cone.order
    q = -cone.beta.x
    u_r, v_r = pairing(cone.alpha, R), pairing(cone.beta, R)
    out = set()
    for t in shifts:
        off_u = Fraction(t * rbar.u, m)
        off_v = Fraction(t * rbar.v, m)
        x = kappa - off_u
        x0 = x.numerator // x.denominator + (0 if x.denominator == 1 else 1)
        while x0 + off_u < kappa + u_r:
            # kappa <= -q*(x+off_u) + n*(y+off_v) < kappa + v_r
            lo = (kappa + q * (x0 + off_u)) / n - off_v
            y = lo.numerator // lo.denominator + (0 if lo.denominator == 1 else 1)
            while -q * (x0 + off_u) + n * (y + off_v) < kappa + v_r:
                out.add((x0 + off_u, y + off_v))
                y += 1
            x0 += 1
    return out


def m_tilde_by_cosets(z, cd):
    """The M_tilde points of the zone z, coset by coset.

    iota(M_tilde) is the union of the m cosets iota(M) + t*(1, 1),
    0 <= t < m; over each u the coset t meets v = t + (u - t)*bw (mod n),
    and each of these residues is walked in steps of n.
    """
    n, bw, kappa = cd.nq.n, cd.bw, z.kappa
    u_r, v_r = pairing(cd.alpha, z.R), pairing(cd.beta, z.R)
    found = []
    for u in range(kappa, kappa + u_r):
        for r0 in {(t + (u - t) * bw) % n for t in range(cd.m)}:
            for v in range(kappa + (r0 - kappa) % n, kappa + v_r, n):
                found.append((u, v))
    return found


def assert_m_tilde_matches_cosets(cd, R, kappas):
    assert gcd(cd.bw - 1, cd.nq.n) * cd.m == cd.nq.n
    for kappa in kappas:
        z = ZoneSpec(R, kappa, LatticeTag.M_TILDE)
        want = m_tilde_by_cosets(z, cd)
        for got in (zone_points(z, cd), list(zone_walk(z, cd))):
            assert len(got) == len(want) and set(got) == set(want), (cd.nq, R, kappa)


def iota(cd, p):
    """(<alpha,p>, <beta,p>) of a point p = (x, y) of M_Q."""
    x, y = p
    return (cd.alpha.x * x + cd.alpha.y * y, cd.beta.x * x + cd.beta.y * y)


class TestClassData:
    def test_worked_example(self):
        cd = data_of(20, 11)
        assert cd.nq == NQForm(20, 11)
        assert (cd.abc.a, cd.abc.b, cd.abc.c, cd.c_prime) == (5, 4, 3, 3)
        assert cd.interval == IntervalUD(-2, 2, 5) and cd.m == 5
        assert cd.rbar == MPoint(5, 3)
        assert cd.ab == ab_floor_data(cd.interval)
        assert hilbert_basis(cd) == cd.hilbert

    def test_any_cone_of_the_class(self):
        from cqs.representations import interval_to_cone

        cd = class_data(interval_to_cone(IntervalUD(-2, 2, 5)))
        assert cd.nq == NQForm(20, 11) and cd.abc == data_of(20, 11).abc
        assert data_of(7, 3).ab is None

    def test_smooth_cone_rejected(self):
        from cqs.lattice import NPoint
        from cqs.representations import ConeForm

        with pytest.raises(InvalidSingularityError):
            class_data(ConeForm(NPoint(1, 0), NPoint(0, 1)))

    def test_frame_derived_once(self, monkeypatch):
        # one class_data derives the dual generators once and Rbar once,
        # wherever the calls come from
        from collections import Counter

        from cqs import cone_geometry, representations

        calls = Counter()
        for name in ("dual_generators", "central_degree"):
            real = getattr(representations, name)

            def counted(c, name=name, real=real):
                calls[name] += 1
                return real(c)

            monkeypatch.setattr(representations, name, counted)
            monkeypatch.setattr(cone_geometry, name, counted)
        class_data(cone_of(20, 11))
        assert calls == {"dual_generators": 1, "central_degree": 1}

    def test_central_degree_is_the_primitive_sum_of_the_dual_generators(self):
        from cqs.lattice import primitive
        from cqs.representations import cone_to_interval, dual_generators, interval_around

        cones = [cone_of(n, q) for n in range(2, 30) for q in range(1, n) if gcd(n, q) == 1]
        for cone in cones + [transform(c, g) for c in cones for g in UNIMODULAR]:
            r1, re = dual_generators(cone)
            rbar = central_degree(cone)
            assert rbar == primitive(r1 + re), cone
            assert interval_around(cone, rbar) == cone_to_interval(cone)


class TestContinuedFraction:
    def test_examples(self):
        assert continued_fraction(20, 9).coefficients == (3, 2, 2, 2, 3)
        assert continued_fraction(2, 1).coefficients == (2,)
        assert continued_fraction(7, 4).coefficients == (2, 4)

    def test_rejects_bad_fractions(self):
        for p, s in [(4, 4), (3, 5), (6, 3), (5, 0)]:
            with pytest.raises(InvalidSingularityError):
                continued_fraction(p, s)

    def test_refused_past_the_bound_after_one_pass(self, monkeypatch):
        # the class nq:100000001/2 expands 100000001/99999999 into 50,000,000
        # terms; one more than the bound is pulled, once, and then refused
        real, pulled = cone_geometry.hj_coefficients, []

        def counted(p, s):
            for a in real(p, s):
                pulled.append(a)
                yield a

        monkeypatch.setattr(cone_geometry, "hj_coefficients", counted)
        with pytest.raises(OracleBoundError, match="MAX_CF_TERMS"):
            continued_fraction(100000001, 99999999)
        assert len(pulled) == MAX_CF_TERMS + 1
        pulled.clear()
        assert len(continued_fraction(2 * MAX_CF_TERMS + 1, 2 * MAX_CF_TERMS - 1).coefficients) \
            == MAX_CF_TERMS == len(pulled)


class TestHilbertBasis:
    def test_worked_example(self):
        cd = data_of(20, 11)
        h = cd.hilbert
        assert [(r.u, r.v) for r in h.basis] == [
            (0, 1), (1, 1), (3, 2), (5, 3), (7, 4), (9, 5), (20, 11),
        ]
        assert h.coeffs == (3, 2, 2, 2, 3)
        assert h.e == 7
        assert h.grounded and h.central_index == 4
        assert h.element(h.central_index) == cd.rbar == MPoint(5, 3)

    def test_a1(self):
        h = data_of(2, 1).hilbert
        assert [(r.u, r.v) for r in h.basis] == [(0, 1), (1, 1), (2, 1)]
        assert h.e == 3

    def test_4_1(self):
        h = data_of(4, 1).hilbert
        assert [(r.u, r.v) for r in h.basis] == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]
        assert h.coeffs == (2, 2, 2)
        assert h.e == 5

    def test_oracle_agrees_on_examples(self):
        for n, q in [(20, 11), (2, 1), (7, 3), (4, 1), (30, 17), (59, 12)]:
            cd = data_of(n, q)
            assert cd.hilbert == hilbert_basis_oracle(cd)

    def test_oracle_7_3(self):
        h = hilbert_basis_oracle(data_of(7, 3))
        assert [(r.u, r.v) for r in h.basis] == [(0, 1), (1, 1), (2, 1), (7, 3)]
        assert h.e == 4

    @pytest.mark.parametrize("n", range(2, 61))
    def test_oracle_sweep(self, n):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue
            cd = data_of(n, q)
            h = cd.hilbert
            assert h == hilbert_basis_oracle(cd)
            for i in range(2, h.e):
                assert h.element(i - 1) + h.element(i + 1) == h.coefficient(i) * h.element(i)
            for r, s in zip(h.basis, h.basis[1:]):
                assert abs(r.u * s.v - r.v * s.u) == 1

    def test_oracle_bound(self):
        with pytest.raises(OracleBoundError):
            hilbert_basis_oracle(data_of(ORACLE_BOUND + 1, 1))

    def test_nonstandard_coordinates(self):
        # same singularity presented as C(I); basis lives in those coordinates
        cd = class_data(interval_to_cone(IntervalUD(-2, 2, 5)))
        h = cd.hilbert
        assert h.e == 7 and h.coeffs == (3, 2, 2, 2, 3)
        assert h == hilbert_basis_oracle(cd)
        assert cd.rbar == MPoint(0, 1)

    def test_equations(self):
        h = data_of(20, 11).hilbert
        eqs = binomial_equations(h)
        assert eqs[0] == "x1*x3 - x2^3"
        assert eqs[2] == "x3*x5 - x4^2"
        assert len(eqs) == 5


class TestEta:
    def test_worked_example(self):
        cd = data_of(20, 11)
        assert eta(cd, 4) == Fraction(7, 5)  # floor 1 = a_4 - 1
        assert eta(cd, 2) == Fraction(20, 9)  # floor 2 = a_2 - 1

    def test_4_1(self):
        cd = data_of(4, 1)
        assert eta(cd, 3) == Fraction(3, 2)

    def test_grounded_identity(self):
        for n, q in [(20, 11), (4, 1), (8, 3), (30, 17)]:
            cone = cone_of(n, q)
            cd = class_data(cone)
            h = cd.hilbert
            if not h.grounded or h.e < 4:
                continue
            from cqs.representations import cone_to_interval

            ab = ab_floor_data(cone_to_interval(cone))
            expected = 1 + min(ab.floor_a + ab.B, ab.A + ab.floor_b)
            assert eta(cd, h.central_index) == expected

    def test_index_bounds(self):
        cd = data_of(20, 11)
        with pytest.raises(IndexError):
            eta(cd, 1)
        with pytest.raises(IndexError):
            eta(cd, 7)


class TestGrounded:
    def test_examples(self):
        assert is_grounded(IntervalUD(-2, 2, 5))
        assert not is_grounded(IntervalUD(5, 6, 7))
        assert is_grounded(IntervalUD(-1, 1, 2))

    def test_matches_hilbert_membership(self):
        for n in range(2, 40):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                cone = cone_of(n, q)
                from cqs.representations import cone_to_interval

                assert is_grounded(cone_to_interval(cone)) == class_data(cone).hilbert.grounded


class TestABFloorData:
    def test_worked_example(self):
        ab = ab_floor_data(IntervalUD(-2, 2, 5))
        assert ab.A == ab.B == Fraction(2, 5)
        assert ab.a_central == 2
        assert ab.frac_a == Fraction(2, 5)

    def test_t_singularity(self):
        ab = ab_floor_data(IntervalUD(-1, 1, 2))
        assert ab.A == ab.B == Fraction(1, 2)
        assert ab.a_central == 2

    def test_longer_interval(self):
        # [-1/2, 3/2] has canonical translate [-3/2, 1/2]; floors are shift-invariant
        ab = ab_floor_data(IntervalUD(-1, 3, 2))
        assert {ab.A, ab.B} == {Fraction(3, 2), Fraction(1, 2)}
        assert ab.a_central == 3
        assert ab.A + ab.B == 2

    def test_rejects_ungrounded(self):
        with pytest.raises(InvalidSingularityError):
            ab_floor_data(IntervalUD(5, 6, 7))


class TestZones:
    def test_irreducible_degree_zone_is_origin(self):
        cd = data_of(20, 11)
        h = cd.hilbert
        for i in range(2, h.e):
            pts = zone_points(ZoneSpec(h.element(i), 0, LatticeTag.M), cd)
            assert pts == [(0, 0)]

    def test_multiple_degree_zone(self):
        cd = data_of(20, 11)
        h = cd.hilbert
        pts = zone_points(ZoneSpec(2 * h.element(2), 0, LatticeTag.M), cd)
        assert set(pts) == {iota(cd, p) for p in [(0, 0), (1, 1)]}
        cd = data_of(7, 3)
        h = cd.hilbert
        pts = zone_points(ZoneSpec(3 * h.element(3), 0, LatticeTag.M), cd)
        assert set(pts) == {iota(cd, p) for p in [(0, 0), (2, 1), (4, 2)]}

    @pytest.mark.parametrize("n,q", [(20, 11), (4, 1), (7, 3), (9, 2)])
    @pytest.mark.parametrize("kappa", [-1, 0, 1, 5])
    def test_against_independent_enumeration(self, n, q, kappa):
        cone = cone_of(n, q)
        cd = class_data(cone)
        h, m = cd.hilbert, cd.m
        degrees = [h.element(2), h.element(h.e - 1), 2 * cd.rbar]
        for R in degrees:
            for tag, shifts in [
                (LatticeTag.M, (0,)),
                (LatticeTag.M_SHIFTED, (1,)),
                (LatticeTag.M_TILDE, range(m)),
            ]:
                z = ZoneSpec(R, kappa, tag)
                want = {iota(cd, p) for p in brute_zone(cone, R, kappa, shifts)}
                assert set(zone_points(z, cd)) == want, (R, kappa, tag)
                assert set(zone_walk(z, cd)) == want, (R, kappa, tag)

    @pytest.mark.parametrize("kappa", [-1, 0, 1, 5])
    def test_nonstandard_cone_against_box_walk(self, kappa):
        # C(I) for I = [-2/5, 2/5]: alpha = (-2,5), det < 0.  Walk the whole
        # box and keep (u, v) whose preimage minus (t/m)*Rbar lies in M.
        cd = class_data(interval_to_cone(IntervalUD(-2, 2, 5)))
        h, m, rbar = cd.hilbert, cd.m, cd.rbar
        a, b = cd.alpha, cd.beta
        assert (a.x, a.y) != (1, 0) and cd.det < 0
        for R in [h.element(2), h.element(h.e - 1), 2 * cd.rbar]:
            u_r, v_r = pairing(a, R), pairing(b, R)
            for tag, shifts in [
                (LatticeTag.M, (0,)),
                (LatticeTag.M_SHIFTED, (1,)),
                (LatticeTag.M_TILDE, range(m)),
            ]:
                want = set()
                for u in range(kappa, kappa + u_r):
                    for v in range(kappa, kappa + v_r):
                        x = Fraction(b.y * u - a.y * v, cd.det)
                        y = Fraction(a.x * v - b.x * u, cd.det)
                        if any(
                            (x - Fraction(t * rbar.u, m)).denominator == 1
                            and (y - Fraction(t * rbar.v, m)).denominator == 1
                            for t in shifts
                        ):
                            want.add((u, v))
                z = ZoneSpec(R, kappa, tag)
                for got in (zone_points(z, cd), list(zone_walk(z, cd))):
                    assert len(got) == len(want) and set(got) == want, (R, kappa, tag)

    def test_translation_by_central_degree(self):
        cd = data_of(20, 11)
        h, m = cd.hilbert, cd.m
        rbar = cd.rbar
        assert iota(cd, (rbar.u, rbar.v)) == (m, m)
        for kappa in (-1, 0, 3):
            base = zone_points(ZoneSpec(h.element(3), kappa, LatticeTag.M), cd)
            shifted = zone_points(ZoneSpec(h.element(3), kappa + m, LatticeTag.M), cd)
            assert {(u + m, v + m) for u, v in base} == set(shifted)

    def test_lattice_indices(self):
        # a degree with iota(R) = (n, n) makes the zone a fundamental box:
        # it holds n points of M, n*m of M_tilde, n of the shifted coset
        for n, q in [(20, 11), (7, 3), (12, 5)]:
            cd = data_of(n, q)
            h, m = cd.hilbert, cd.m
            b = n // m  # r1 + re = b * Rbar
            big = b * cd.rbar
            assert len(zone_points(ZoneSpec(big, 0, LatticeTag.M), cd)) == n
            assert len(zone_points(ZoneSpec(big, 0, LatticeTag.M_TILDE), cd)) == n * m
            assert len(zone_points(ZoneSpec(big, 0, LatticeTag.M_SHIFTED), cd)) == n

    def test_rejects_boundary_degree(self):
        cd = data_of(20, 11)
        with pytest.raises(InvalidSingularityError):
            zone_points(ZoneSpec(MPoint(0, 1), 0, LatticeTag.M), cd)
        with pytest.raises(InvalidSingularityError):
            next(zone_walk(ZoneSpec(MPoint(0, 1), 0, LatticeTag.M), cd))


class TestZoneWalk:
    """zone_walk advances one residue per fiber and shares no code with
    zone_points; both give the same points of every zone."""

    def test_every_zone_up_to_40(self):
        # every degree of every class with n <= 40, in the three lattices,
        # at each kappa that verify reads
        zones = 0
        for n in range(2, 41):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                cd = data_of(n, q)
                h, m = cd.hilbert, cd.m
                for d in h.degrees:
                    R = d.k * h.element(d.i)
                    for tag in LatticeTag:
                        for kappa in (0, -1, m - 1, m, 2 * m):
                            z = ZoneSpec(R, kappa, tag)
                            got, want = list(zone_walk(z, cd)), zone_points(z, cd)
                            assert len(got) == len(want) and set(got) == set(want), (n, q, z)
                            zones += 1
        assert zones == 80_625


class TestMTildeProgression:
    """zone_points walks M_tilde as one progression of step gcd(bw - 1, n)
    per fiber; the reference walks the m cosets of M."""

    @staticmethod
    def degree_zones(cd):
        h, m = cd.hilbert, cd.m
        for d in h.degrees:
            yield d.k * h.element(d.i), (-1, 0, m - 1, m, 2 * m)

    def test_every_class_up_to_40(self):
        zones = 0
        for n in range(2, 41):
            for q in range(1, n):
                if gcd(n, q) == 1:
                    cd = data_of(n, q)
                    for R, kappas in self.degree_zones(cd):
                        assert_m_tilde_matches_cosets(cd, R, kappas)
                        zones += len(kappas)
        assert zones > 10_000

    @pytest.mark.parametrize("g", UNIMODULAR)
    def test_nonstandard_cones(self, g):
        for n in range(2, 26):
            for q in range(1, n):
                if gcd(n, q) == 1:
                    cone = cone_of(n, q)
                    cd = class_data(transform(cone, g))
                    assert (cd.alpha, cd.beta) != (cone.alpha, cone.beta)
                    for R, kappas in self.degree_zones(cd):
                        assert_m_tilde_matches_cosets(cd, R, kappas)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 200).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n - 1).filter(lambda q: gcd(n, q) == 1))
        ),
        st.integers(1, 40),
        st.integers(0, 3),
        st.integers(-60, 60),
    )
    def test_random_boxes(self, nq, u_r, lift, kappa):
        # a random interior degree R with iota(R) = (u_r, v_r) in iota(M)
        n, q = nq
        cd = data_of(n, q)
        v_r = u_r * cd.bw % n + lift * n or n
        R = _preimage(cd, u_r, v_r)
        assert_m_tilde_matches_cosets(cd, R, (kappa,))
        for tag in (LatticeTag.M, LatticeTag.M_SHIFTED):
            z = ZoneSpec(R, kappa, tag)
            got, want = list(zone_walk(z, cd)), zone_points(z, cd)
            assert len(got) == len(want) and set(got) == set(want), tag
