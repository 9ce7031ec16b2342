import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqs import cone_geometry
from cqs.cone_geometry import (
    MAX_CF_TERMS,
    MAX_T1_DEGREES,
    ORACLE_BOUND,
    LatticeTag,
    OracleBoundError,
    ZoneSpec,
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
from cqs.lattice import MPoint, NPoint, pairing
from cqs.representations import (
    DegenerateSingularityError,
    IntervalUD,
    InvalidSingularityError,
    NQForm,
    central_degree,
    interval_to_cone,
    nq_to_cone,
)

from test_deformations import UNIMODULAR, element, refusal_in_128_mib, transform


def cone_of(n, q):
    return nq_to_cone(NQForm(n, q))


def data_of(n, q):
    return class_data(cone_of(n, q))


def zone_degrees(cd):
    """Each R = k*r^i, 2 <= i <= e-1 and 1 <= k <= a_i - 1, in the order of
    ``h.degrees``; at e = 3 too, where that table is refused but the
    zones of these R are still defined."""
    return [k * element(cd, i) for i, a in enumerate(cd.hilbert.coeffs, 2) for k in range(1, a)]


def unimodular_cones():
    """Every class with n < 26 in the four ``UNIMODULAR`` transforms of its
    standard cone."""
    return [
        transform(cone_of(n, q), g)
        for n in range(2, 26) for q in range(1, n) if gcd(n, q) == 1
        for g in UNIMODULAR
    ]


def m_basis(cd, h):
    """The M-points that ``cd.m_point`` builds from the pairs ``h.iota``."""
    return [cd.m_point(u, v) for u, v in h.iota]


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


def walked(z, cd):
    """``zone_walk`` of the zone z, given as the iota size of z.R, listed."""
    size = pairing(cd.alpha, z.R), pairing(cd.beta, z.R)
    return list(zone_walk(cd, size, z.kappa, z.lattice))


def assert_m_tilde_matches_cosets(cd, R, kappas):
    assert gcd(cd.bw - 1, cd.nq.n) * cd.m == cd.nq.n
    for kappa in kappas:
        z = ZoneSpec(R, kappa, LatticeTag.M_TILDE)
        want = m_tilde_by_cosets(z, cd)
        for got in (zone_points(z, cd), walked(z, cd)):
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
        # one class_data derives Rbar once, wherever the calls come from,
        # and never the dual generators: iota(r^1) and iota(r^e) are
        # (0, n) and (n, 0) in every cone
        from collections import Counter

        from cqs import cone_geometry, representations

        calls = Counter()
        for name in ("dual_generators", "central_degree"):
            real = getattr(representations, name)

            def counted(c, name=name, real=real):
                calls[name] += 1
                return real(c)

            monkeypatch.setattr(representations, name, counted)
            monkeypatch.setattr(cone_geometry, name, counted, raising=False)
        class_data(cone_of(20, 11)).hilbert
        assert calls == {"central_degree": 1}

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

    def test_refused_past_the_bound_after_one_pass(self, hj_pulls):
        # the class nq:100000001/2 expands 100000001/99999999 into 50,000,000
        # terms; one more than the bound is pulled, once, and then refused
        with pytest.raises(OracleBoundError, match="MAX_CF_TERMS"):
            continued_fraction(100000001, 99999999)
        assert len(hj_pulls) == MAX_CF_TERMS + 1
        hj_pulls.clear()
        assert len(continued_fraction(2 * MAX_CF_TERMS + 1, 2 * MAX_CF_TERMS - 1).coefficients) \
            == MAX_CF_TERMS == len(hj_pulls)


class TestHilbertBasis:
    def test_worked_example(self):
        cd = data_of(20, 11)
        h = cd.hilbert
        assert m_basis(cd, h) == [
            (0, 1), (1, 1), (3, 2), (5, 3), (7, 4), (9, 5), (20, 11),
        ]
        assert h.coeffs == (3, 2, 2, 2, 3)
        assert h.e == 7
        assert h.grounded and h.central_index == 4
        assert element(cd, h.central_index) == cd.rbar == MPoint(5, 3)

    def test_a1(self):
        cd = data_of(2, 1)
        h = cd.hilbert
        assert m_basis(cd, h) == [(0, 1), (1, 1), (2, 1)]
        assert h.e == 3

    def test_4_1(self):
        cd = data_of(4, 1)
        h = cd.hilbert
        assert m_basis(cd, h) == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]
        assert h.coeffs == (2, 2, 2)
        assert h.e == 5

    def test_oracle_agrees_on_examples(self):
        for n, q in [(20, 11), (2, 1), (7, 3), (4, 1), (30, 17), (59, 12)]:
            cd = data_of(n, q)
            assert cd.hilbert == hilbert_basis_oracle(cd)

    def test_oracle_7_3(self):
        cd = data_of(7, 3)
        h = hilbert_basis_oracle(cd)
        assert m_basis(cd, h) == [(0, 1), (1, 1), (2, 1), (7, 3)]
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
                assert element(cd, i - 1) + element(cd, i + 1) == h.coefficient(i) * element(cd, i)
            basis = m_basis(cd, h)
            for r, s in zip(basis, basis[1:]):
                assert abs(r.u * s.v - r.v * s.u) == 1

    def test_oracle_bound(self):
        with pytest.raises(OracleBoundError):
            hilbert_basis_oracle(data_of(ORACLE_BOUND + 1, 1))

    def test_degree_bound_is_read_in_one_bounded_pass(self, hj_pulls, monkeypatch):
        # nq:(2t+1)/2 has t + 1 degrees in t terms: the class with exactly t
        # degrees is built, the next one is refused, and so is nq:(10^30+1)/2
        # after t + 1 of its 5 * 10^29 terms, each before any M-point
        t = MAX_T1_DEGREES
        assert len(data_of(2 * t - 1, 2).hilbert.degrees) == t
        assert len(hj_pulls) == t - 1
        monkeypatch.setattr(cone_geometry, "MPoint", None)  # no M-point may be built
        for n, terms in ((2 * t + 1, t), (10**30 + 1, t + 1)):
            hj_pulls.clear()
            with pytest.raises(OracleBoundError, match=f"nq:{n}/2 has more than MAX_T1_DEGREES"):
                data_of(n, 2).hilbert
            assert len(hj_pulls) == terms
        # e = 3 (one term, however large) is left to the degenerate check,
        # which the degree table makes before its first entry; read in a
        # child, as a table of 10^30 - 1 entries would take all memory
        monkeypatch.undo()
        h = data_of(10**30, 10**30 - 1).hilbert
        assert (h.e, h.coeffs) == (3, (10**30,))
        out = refusal_in_128_mib(f"NQForm({10**30}, {10**30 - 1})", "cd.hilbert.degrees")
        assert out.startswith("DegenerateSingularityError: embedding dimension 3 <= 3")

    def test_e3_degree_table_is_refused(self):
        # the table refuses e = 3 itself, with the message every caller
        # prints; nq:10^7/(10^7 - 1) would have 9,999,999 entries
        for n, q in ((2, 1), (3, 2), (5, 4)):
            h = data_of(n, q).hilbert
            assert h.e == 3
            with pytest.raises(DegenerateSingularityError, match="dimension 3 <= 3") as refusal:
                h.degrees
        out = refusal_in_128_mib("NQForm(10000000, 9999999)", "cd.hilbert.degrees")
        assert out == f"DegenerateSingularityError: {refusal.value}\n"

    def test_printed_basis_pairs_to_the_iota_basis(self):
        # each M-point is built from its iota pair by cd.m_point; pairing
        # the M-points back gives the same pairs, and (0, n), (1, n - q),
        # (n, 0) at r^1, r^2, r^e, in every cone
        cones = [cone_of(n, q) for n in range(2, 61) for q in range(1, n) if gcd(n, q) == 1]
        for cone in cones + unimodular_cones():
            cd = class_data(cone)
            basis = m_basis(cd, cd.hilbert)
            paired = tuple((pairing(cd.alpha, r), pairing(cd.beta, r)) for r in basis)
            assert paired == cd.hilbert.iota, cone
            n, q = cd.nq
            assert paired[:2] == ((0, n), (1, n - q)) and paired[-1] == (n, 0), cone

    def test_hilbert_data_builds_only_the_two_seeds(self, monkeypatch):
        # either path finds the pairs alone: the only M-points built are
        # r^1 and r^2, whose lattice membership carries every other pair
        built = []

        def counted(x, y):
            built.append(MPoint(x, y))
            return built[-1]

        cones = [cone_of(n, q) for n in range(2, 41) for q in range(1, n) if gcd(n, q) == 1]
        monkeypatch.setattr(cone_geometry, "MPoint", counted)
        for cone in cones + unimodular_cones():
            cd = class_data(cone)
            n, q = cd.nq
            for find in (lambda: cd.hilbert, lambda: hilbert_basis_oracle(cd)):
                built.clear()
                assert find().iota[:2] == ((0, n), (1, n - q))
                paired = [(pairing(cd.alpha, r), pairing(cd.beta, r)) for r in built]
                assert paired == [(0, n), (1, n - q)], cone

    def test_a_frame_that_does_not_carry_its_class_is_refused(self):
        # beta = (-2, 7) is not the cone of nq:7/3, so iota(r^2) = (1, 4)
        # has no M-point in its frame; both paths check the seeds
        cd = class_data(cone_of(7, 3))._replace(beta=NPoint(-2, 7))
        message = re.escape("(1, 4) not in iota(M) for <(1,0), (-2,7)>")
        with pytest.raises(AssertionError, match=message):
            cd.hilbert
        with pytest.raises(AssertionError, match=message):
            hilbert_basis_oracle(cd)

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
        assert eta(cd, 4) == (7, 5)  # floor 1 = a_4 - 1
        assert eta(cd, 2) == (20, 9)  # floor 2 = a_2 - 1

    def test_4_1(self):
        cd = data_of(4, 1)
        assert eta(cd, 3) == (3, 2)

    def test_grounded_identity(self):
        for n, q in [(20, 11), (4, 1), (8, 3), (30, 17)]:
            cone = cone_of(n, q)
            cd = class_data(cone)
            h = cd.hilbert
            if not h.grounded or h.e < 4:
                continue
            from cqs.representations import cone_to_interval

            iv = cone_to_interval(cone)
            ab = ab_floor_data(iv)
            big_a = ab.floor_a + Fraction(ab.rem_a, iv.m)
            big_b = ab.floor_b + Fraction(ab.rem_b, iv.m)
            expected = 1 + min(ab.floor_a + big_b, big_a + ab.floor_b)
            assert Fraction(*eta(cd, h.central_index)) == expected

    def test_is_the_reduced_smaller_ratio(self):
        # the numerator and denominator of the smaller Fraction, so the pair
        # is reduced; every class with e >= 4 and n <= 60, then two far
        # classes: e = 4 with a_i near n/2, and e near n/2
        near = [NQForm(n, q) for n in range(2, 61) for q in range(1, n) if gcd(n, q) == 1]
        far = [NQForm(10007, 5003), NQForm(10007, 2)]
        checked = 0
        for nq in near + far:
            cd = class_data(nq_to_cone(nq))
            iota = cd.hilbert.iota
            if len(iota) < 4:
                continue
            for i in range(2, len(iota)):
                (_, v_prev), (u_i, v_i), (u_next, _) = iota[i - 2 : i + 1]
                expected = min(Fraction(u_next, u_i), Fraction(v_prev, v_i))
                assert eta(cd, i) == (expected.numerator, expected.denominator), (nq, i)
                checked += 1
        assert checked > 5000

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
    # A = floor_a + rem_a/m and B = floor_b + rem_b/m, as (floor, rem) pairs
    def test_worked_example(self):
        ab = ab_floor_data(IntervalUD(-2, 2, 5))
        assert (ab.floor_a, ab.rem_a) == (ab.floor_b, ab.rem_b) == (0, 2)  # A = B = 2/5
        assert ab.a_central == 2

    def test_t_singularity(self):
        ab = ab_floor_data(IntervalUD(-1, 1, 2))
        assert (ab.floor_a, ab.rem_a) == (ab.floor_b, ab.rem_b) == (0, 1)  # A = B = 1/2
        assert ab.a_central == 2

    def test_longer_interval(self):
        # [-1/2, 3/2] has canonical translate [-3/2, 1/2]; floors are shift-invariant
        ab = ab_floor_data(IntervalUD(-1, 3, 2))
        assert {(ab.floor_a, ab.rem_a), (ab.floor_b, ab.rem_b)} == {(1, 1), (0, 1)}
        assert ab.a_central == 3
        assert 2 * (ab.floor_a + ab.floor_b) + ab.rem_a + ab.rem_b == 2 * 2  # A + B = 2

    def test_numerators_over_m_give_the_ends(self):
        # -g/m = floor_a + rem_a/m and h/m = floor_b + rem_b/m, remainders in [0, m)
        for n in range(2, 40):
            for q in range(1, n):
                if gcd(n, q) == 1 and is_grounded(iv := data_of(n, q).interval):
                    ab = ab_floor_data(iv)
                    assert ab.floor_a * iv.m + ab.rem_a == -iv.g and 0 <= ab.rem_a < iv.m
                    assert ab.floor_b * iv.m + ab.rem_b == iv.h and 0 <= ab.rem_b < iv.m
                    assert ab.a_central == 2 + ab.floor_a + ab.floor_b

    def test_rejects_ungrounded(self):
        with pytest.raises(InvalidSingularityError):
            ab_floor_data(IntervalUD(5, 6, 7))


class TestZones:
    def test_irreducible_degree_zone_is_origin(self):
        cd = data_of(20, 11)
        h = cd.hilbert
        for i in range(2, h.e):
            pts = zone_points(ZoneSpec(element(cd, i), 0, LatticeTag.M), cd)
            assert pts == [(0, 0)]

    def test_multiple_degree_zone(self):
        cd = data_of(20, 11)
        h = cd.hilbert
        pts = zone_points(ZoneSpec(2 * element(cd, 2), 0, LatticeTag.M), cd)
        assert set(pts) == {iota(cd, p) for p in [(0, 0), (1, 1)]}
        cd = data_of(7, 3)
        h = cd.hilbert
        pts = zone_points(ZoneSpec(3 * element(cd, 3), 0, LatticeTag.M), cd)
        assert set(pts) == {iota(cd, p) for p in [(0, 0), (2, 1), (4, 2)]}

    @pytest.mark.parametrize("n,q", [(20, 11), (4, 1), (7, 3), (9, 2)])
    @pytest.mark.parametrize("kappa", [-1, 0, 1, 5])
    def test_against_independent_enumeration(self, n, q, kappa):
        cone = cone_of(n, q)
        cd = class_data(cone)
        h, m = cd.hilbert, cd.m
        degrees = [element(cd, 2), element(cd, h.e - 1), 2 * cd.rbar]
        for R in degrees:
            for tag, shifts in [
                (LatticeTag.M, (0,)),
                (LatticeTag.M_SHIFTED, (1,)),
                (LatticeTag.M_TILDE, range(m)),
            ]:
                z = ZoneSpec(R, kappa, tag)
                want = {iota(cd, p) for p in brute_zone(cone, R, kappa, shifts)}
                assert set(zone_points(z, cd)) == want, (R, kappa, tag)
                assert set(walked(z, cd)) == want, (R, kappa, tag)

    @pytest.mark.parametrize("kappa", [-1, 0, 1, 5])
    def test_nonstandard_cone_against_box_walk(self, kappa):
        # C(I) for I = [-2/5, 2/5]: alpha = (-2,5), det < 0.  Walk the whole
        # box and keep (u, v) whose preimage minus (t/m)*Rbar lies in M.
        cd = class_data(interval_to_cone(IntervalUD(-2, 2, 5)))
        h, m, rbar = cd.hilbert, cd.m, cd.rbar
        a, b = cd.alpha, cd.beta
        assert (a.x, a.y) != (1, 0) and cd.det < 0
        for R in [element(cd, 2), element(cd, h.e - 1), 2 * cd.rbar]:
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
                for got in (zone_points(z, cd), walked(z, cd)):
                    assert len(got) == len(want) and set(got) == want, (R, kappa, tag)

    def test_translation_by_central_degree(self):
        cd = data_of(20, 11)
        h, m = cd.hilbert, cd.m
        rbar = cd.rbar
        assert iota(cd, (rbar.u, rbar.v)) == (m, m)
        for kappa in (-1, 0, 3):
            base = zone_points(ZoneSpec(element(cd, 3), kappa, LatticeTag.M), cd)
            shifted = zone_points(ZoneSpec(element(cd, 3), kappa + m, LatticeTag.M), cd)
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
            next(zone_walk(cd, (0, 20), 0))


class TestZoneWalk:
    """zone_walk advances one residue per fiber and shares no code with
    zone_points; both give the same points of every zone.  On M and on
    M + Rbar/m, zone_walk also meets ``brute_zone``, an enumeration that
    reads neither, as M_tilde meets ``m_tilde_by_cosets``."""

    def test_m_and_shifted_against_brute_force_up_to_20(self):
        # every degree of every class with n <= 20, at each kappa that verify
        # reads; the walk is compared as a set and holds no point twice
        zones = 0
        for n in range(2, 21):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                cone = cone_of(n, q)
                cd = class_data(cone)
                m = cd.m
                for R in zone_degrees(cd):
                    size = pairing(cd.alpha, R), pairing(cd.beta, R)
                    for kappa in (0, -1, m - 1, m, 2 * m):
                        for tag, shifts in ((LatticeTag.M, (0,)), (LatticeTag.M_SHIFTED, (1,))):
                            got = list(zone_walk(cd, size, kappa, tag))
                            want = {iota(cd, p) for p in brute_zone(cone, R, kappa, shifts)}
                            assert len(got) == len(set(got)), (n, q, R, kappa, tag)
                            assert set(got) == want, (n, q, R, kappa, tag)
                            zones += 1
        assert zones == 9_590

    def test_every_zone_up_to_40(self):
        # every degree of every class with n <= 40, in the three lattices,
        # at each kappa that verify reads
        zones = 0
        for n in range(2, 41):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                cd = data_of(n, q)
                m = cd.m
                for R in zone_degrees(cd):
                    for tag in LatticeTag:
                        for kappa in (0, -1, m - 1, m, 2 * m):
                            z = ZoneSpec(R, kappa, tag)
                            got, want = walked(z, cd), zone_points(z, cd)
                            assert len(got) == len(want) and set(got) == set(want), (n, q, z)
                            zones += 1
        assert zones == 80_625


class TestMTildeProgression:
    """zone_points walks M_tilde as one progression of step gcd(bw - 1, n)
    per fiber; the reference walks the m cosets of M."""

    @staticmethod
    def degree_zones(cd):
        m = cd.m
        for R in zone_degrees(cd):
            yield R, (-1, 0, m - 1, m, 2 * m)

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
        R = cd.m_point(u_r, v_r)
        assert_m_tilde_matches_cosets(cd, R, (kappa,))
        for tag in (LatticeTag.M, LatticeTag.M_SHIFTED):
            got = list(zone_walk(cd, (u_r, v_r), kappa, tag))
            want = zone_points(ZoneSpec(R, kappa, tag), cd)
            assert len(got) == len(want) and set(got) == set(want), tag
