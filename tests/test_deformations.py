from fractions import Fraction
from math import gcd

import pytest

from cqs.cone_geometry import LatticeTag, ZoneSpec, class_data, zone_points
from cqs.deformations import (
    DeformationDirection,
    DegreeId,
    cayley_family,
    classify,
    degree_vector,
    iso_oracle,
    phi_functional,
    qg_dims,
    qg_oracle,
    stable_iso_oracle,
    t1_degrees,
    t1_graded,
    t1_space,
    totals,
    v_dims,
    v_dims_oracle,
    vw_dims,
    vw_dims_oracle,
    vw_oracle,
    w_dims_oracle,
)
from cqs.lattice import MPoint, NPoint, pairing
from cqs.representations import (
    ConeForm,
    DegenerateSingularityError,
    IntervalUD,
    NQForm,
    interval_to_cone,
    nq_to_cone,
)


def setup_class_data(n, q):
    return class_data(nq_to_cone(NQForm(n, q)))


def interval_data(iv):
    cd = class_data(interval_to_cone(iv))
    assert cd.interval == iv
    return cd


class TestT1Graded:
    def test_worked_example(self):
        h = setup_class_data(20, 11).hilbert
        assert dict(t1_graded(h)) == {
            DegreeId(2, 1): 1,
            DegreeId(2, 2): 1,
            DegreeId(3, 1): 2,
            DegreeId(4, 1): 2,
            DegreeId(5, 1): 2,
            DegreeId(6, 1): 1,
            DegreeId(6, 2): 1,
        }
        assert sum(d for _, d in t1_graded(h)) == 10

    def test_4_1(self):
        h = setup_class_data(4, 1).hilbert
        assert [dim for _, dim in t1_graded(h)] == [1, 2, 1]
        assert sum(dim for _, dim in t1_graded(h)) == 4

    def test_7_3(self):
        h = setup_class_data(7, 3).hilbert
        assert dict(t1_graded(h)) == {
            DegreeId(2, 1): 1,
            DegreeId(3, 1): 1,
            DegreeId(3, 2): 1,
            DegreeId(3, 3): 1,
        }

    def test_rejects_degenerate(self):
        for n, q in [(2, 1), (5, 4), (3, 2)]:
            h = setup_class_data(n, q).hilbert
            with pytest.raises(DegenerateSingularityError):
                t1_graded(h)


class TestClosedForms:
    def test_v_worked_example(self):
        cd = setup_class_data(20, 11)
        v = v_dims(cd)
        assert {d: x for d, x in v.items() if x} == {
            DegreeId(3, 1): 1,
            DegreeId(4, 1): 1,
            DegreeId(5, 1): 1,
        }

    def test_v_7_3_empty(self):
        cd = setup_class_data(7, 3)
        assert sum(v_dims(cd).values()) == 0

    def test_v_4_1(self):
        cd = setup_class_data(4, 1)
        assert {d: x for d, x in v_dims(cd).items() if x} == {DegreeId(3, 1): 1}

    def test_qg_worked_example(self):
        cd = setup_class_data(20, 11)
        assert sum(qg_dims(cd).values()) == 0  # min(a_l - 1, 4/5) < 1

    def test_qg_4_1(self):
        cd = setup_class_data(4, 1)
        assert {d: x for d, x in qg_dims(cd).items() if x} == {DegreeId(3, 1): 1}

    def test_qg_8_3_total_two(self):
        # interval [-3/2, 1/2]: A + B = 2, qG in degrees -Rbar and -2*Rbar
        cd = setup_class_data(8, 3)
        assert {d: x for d, x in qg_dims(cd).items() if x} == {
            DegreeId(3, 1): 1,
            DegreeId(3, 2): 1,
        }

    def test_vw_worked_example(self):
        cd = setup_class_data(20, 11)
        assert {d: x for d, x in vw_dims(cd).items() if x} == {DegreeId(4, 1): 1}

    def test_vw_4_1(self):
        cd = setup_class_data(4, 1)
        assert {d: x for d, x in vw_dims(cd).items() if x} == {DegreeId(3, 1): 1}

    def test_vw_grounded_general_case(self):
        # (20,11): fractional parts 2/5 differ from 1/m, so VW total is
        # floor(A) + floor(B) + 1 = 1
        cd = setup_class_data(20, 11)
        assert sum(vw_dims(cd).values()) == 1


class TestTotals:
    def test_worked_example(self):
        rep = totals(setup_class_data(20, 11))
        t = rep.totals
        assert (t.dim_t1, t.dim_v, t.dim_vw, t.dim_qg) == (10, 3, 1, 0)
        assert rep.gap == 2 == rep.embdim - 5
        assert t.dim_w >= t.dim_vw
        last = [r.degree for r in rep.per_degree if r.last_deformation]
        assert last == [DegreeId(4, 1)]

    def test_7_3(self):
        rep = totals(setup_class_data(7, 3))
        t = rep.totals
        assert (t.dim_t1, t.dim_v, t.dim_vw, t.dim_qg) == (4, 0, 0, 0)
        assert rep.gap == 0 == rep.embdim - 4

    def test_4_1(self):
        rep = totals(setup_class_data(4, 1))
        t = rep.totals
        assert (t.dim_t1, t.dim_v, t.dim_w, t.dim_vw, t.dim_qg) == (4, 1, 1, 1, 1)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateSingularityError):
            totals(setup_class_data(5, 4))

    def test_sums_match_per_degree(self):
        rep = totals(setup_class_data(30, 17))
        assert rep.totals.dim_t1 == sum(r.dim_t1 for r in rep.per_degree)
        assert rep.totals.dim_qg == sum(r.dim_qg for r in rep.per_degree)


class TestIsoOracles:
    def test_iso0_holds_for_t1(self):
        cd = setup_class_data(20, 11)
        h = cd.hilbert
        for d in t1_degrees(h):
            for a in t1_space(cd, d):
                assert iso_oracle(DeformationDirection(a, d), 0, cd)

    def test_v_but_not_w_at_r3(self):
        # direction orthogonal to Rbar - 5*r^3 = [-10,-7]
        cd = setup_class_data(20, 11)
        a = NPoint(7, -10)
        assert pairing(a, MPoint(-10, -7)) == 0
        xi = DeformationDirection(a, DegreeId(3, 1))
        assert stable_iso_oracle(xi, 5, cd)
        assert stable_iso_oracle(xi, 0, cd)
        assert not iso_oracle(xi, -1, cd)

    def test_empty_zone_accepts_everything(self):
        # Z_{r^3,-1} of (7,3) has no lattice points
        cd = setup_class_data(7, 3)
        h = cd.hilbert
        pts = zone_points(ZoneSpec(h.element(3), -1, LatticeTag.M), cd)
        assert pts == []
        for a in (NPoint(5, 17), NPoint(-3, 1), NPoint(0, 0)):
            xi = DeformationDirection(a, DegreeId(3, 1))
            assert iso_oracle(xi, -1, cd)
            assert stable_iso_oracle(xi, -1, cd)

    def test_zero_direction_is_always_stable(self):
        cd = setup_class_data(20, 11)
        xi = DeformationDirection(NPoint(0, 0), DegreeId(4, 1))
        for kappa in (-3, -1, 0, 2, 5):
            assert stable_iso_oracle(xi, kappa, cd)

    def test_stable_iso_equals_two_shifts(self):
        cd = setup_class_data(12, 5)
        h = cd.hilbert
        m = 2  # gcd(12, 6) = 6, a = 2
        for d in t1_degrees(h):
            for a in t1_space(cd, d):
                xi = DeformationDirection(a, d)
                for kappa in (-1, 0, 1):
                    expected = iso_oracle(xi, kappa, cd) and iso_oracle(xi, kappa + m, cd)
                    assert stable_iso_oracle(xi, kappa, cd) == expected


class TestContainmentOracles:
    def test_worked_example(self):
        cd = setup_class_data(20, 11)
        h = cd.hilbert
        r3, r4 = h.element(3), h.element(4)
        assert not qg_oracle(r4, cd)
        assert vw_oracle(r4, cd)
        assert not vw_oracle(r3, cd)
        assert not qg_oracle(r3, cd)

    def test_4_1_central(self):
        cd = setup_class_data(4, 1)
        h = cd.hilbert
        rbar = h.central_degree
        assert qg_oracle(rbar, cd)
        assert vw_oracle(rbar, cd)

    def test_nongrounded_fails_at_constraining_degrees(self):
        # every interior or multiple degree of a non-grounded class fails
        # the containment; corner degrees carry no V-line to constrain
        for n, q in [(7, 3), (10, 3), (5, 2), (13, 5)]:
            cd = setup_class_data(n, q)
            h = cd.hilbert
            from cqs.cone_geometry import is_grounded

            assert not is_grounded(cd.interval)
            for d in t1_degrees(h):
                if d.k >= 2 or 3 <= d.i <= h.e - 2:
                    assert not qg_oracle(degree_vector(h, d), cd), (n, q, d)

    def test_oracles_match_closed_forms(self):
        for n in range(2, 31):
            for q in range(1, n - 1):
                if gcd(n, q) != 1:
                    continue
                cd = setup_class_data(n, q)
                nq, h = cd.nq, cd.hilbert
                v = v_dims(cd)
                qg = qg_dims(cd)
                vw = vw_dims(cd)
                for d in t1_degrees(h):
                    vec = degree_vector(h, d)
                    assert (qg[d] == 1) == (v[d] >= 1 and qg_oracle(vec, cd)), (nq, d)
                    assert (vw[d] == 1) == (v[d] >= 1 and vw_oracle(vec, cd)), (nq, d)


class TestRankOracles:
    def test_w_20_11_hand_enumerated(self):
        # zones Z_{R,-1} cap M walked by hand: empty at r^2/r^6 (full
        # quotient survives), {0} at the interior degrees (one rank-1
        # condition), and a genuine off-line point at the k=2 multiples
        cd = setup_class_data(20, 11)
        assert w_dims_oracle(cd) == {
            DegreeId(2, 1): 1,
            DegreeId(2, 2): 0,
            DegreeId(3, 1): 1,
            DegreeId(4, 1): 1,
            DegreeId(5, 1): 1,
            DegreeId(6, 1): 1,
            DegreeId(6, 2): 0,
        }

    def test_w_7_3_hand_enumerated(self):
        # all four kappa=-1 zones are empty or impose vacuous conditions
        cd = setup_class_data(7, 3)
        assert w_dims_oracle(cd) == {
            DegreeId(2, 1): 1,
            DegreeId(3, 1): 1,
            DegreeId(3, 2): 1,
            DegreeId(3, 3): 1,
        }

    def test_vw_is_v_intersect_w(self):
        for n in range(2, 31):
            for q in range(1, n - 1):
                if gcd(n, q) != 1:
                    continue
                cd = setup_class_data(n, q)
                nq, h = cd.nq, cd.hilbert
                vw = vw_dims(cd)
                vw_rank = vw_dims_oracle(cd)
                w = w_dims_oracle(cd)
                v = v_dims_oracle(cd)
                for d in t1_degrees(h):
                    assert vw[d] == vw_rank[d], (nq, d)
                    assert vw[d] <= w[d], (nq, d)
                    assert v_dims(cd)[d] == v[d], (nq, d)


class TestPhi:
    def test_kernel_direction(self):
        cd = setup_class_data(20, 11)
        h = cd.hilbert
        assert phi_functional(h.element(3), NPoint(7, -10), cd) == 0

    def test_direct_arithmetic(self):
        # R = r^4 = Rbar: Rbar - 5R = -4*Rbar = [-20,-12]
        cd = setup_class_data(20, 11)
        h = cd.hilbert
        assert phi_functional(h.element(4), NPoint(1, 1), cd) == -32

    def test_phi_zero_iff_stable(self):
        cd = setup_class_data(20, 11)
        h = cd.hilbert
        for d in t1_degrees(h):
            vec = degree_vector(h, d)
            for a in t1_space(cd, d):
                xi = DeformationDirection(a, d)
                assert (phi_functional(vec, a, cd) == 0) == stable_iso_oracle(xi, 0, cd)


class TestRepresentativeIndependence:
    def test_quotient_degree_constraints_kill_edge(self):
        cd = setup_class_data(20, 11)
        h = cd.hilbert
        # zone points come as iota pairs r = (<alpha,r>, <beta,r>)
        for i, side, edge in [(2, 0, cd.alpha), (h.e - 1, 1, cd.beta)]:
            R = h.element(i)
            e_r = pairing(edge, R)
            for kappa in (-1, 0, 3):
                for r in zone_points(ZoneSpec(R, kappa, LatticeTag.M), cd):
                    assert kappa * e_r - r[side] == 0


class TestClassify:
    def test_examples(self):
        f = classify(setup_class_data(4, 1))
        assert (f.t0_singularity, f.t_singularity, f.qg_exists, f.grounded) == (
            True, True, True, True,
        )
        f = classify(setup_class_data(20, 11))
        assert (f.t0_singularity, f.t_singularity, f.qg_exists, f.grounded) == (
            False, False, False, True,
        )
        f = classify(setup_class_data(7, 3))
        assert (f.t0_singularity, f.t_singularity, f.qg_exists, f.grounded) == (
            False, False, False, False,
        )

    def test_t_singularity_with_longer_interval(self):
        f = classify(setup_class_data(8, 3))  # |I| = 2
        assert f.t_singularity and not f.t0_singularity and f.qg_exists


class TestCayley:
    def test_d_zero_is_interval_cone(self):
        fam = cayley_family(interval_data(IntervalUD(-2, 2, 5)))
        assert fam.d == 0 and not fam.degenerate_base
        assert fam.rays == ((-2, 5), (2, 5))

    def test_degenerate_t_singularity(self):
        fam = cayley_family(interval_data(IntervalUD(-1, 1, 2)))
        assert fam.d == 1 and fam.degenerate_base
        assert fam.i_prime == (Fraction(-1, 2), Fraction(-1, 2))
        assert fam.rays == ((-1, 2, 0), (0, 0, 1), (1, 0, 1))

    def test_fractional_example(self):
        fam = cayley_family(interval_data(IntervalUD(-2, 4, 5)))
        assert fam.d == 1 and not fam.degenerate_base
        assert fam.i_prime == (Fraction(-2, 5), Fraction(-1, 5))
        assert fam.rays == ((-2, 5, 0), (-1, 5, 0), (0, 0, 1), (1, 0, 1))

    def test_nongrounded_trivial(self):
        fam = cayley_family(interval_data(IntervalUD(5, 6, 7)))
        assert fam.d == 0
        assert fam.rays == ((5, 7), (6, 7))

    def test_rays_primitive(self):
        from math import gcd as _gcd
        from functools import reduce

        for iv in (IntervalUD(-2, 2, 5), IntervalUD(-1, 1, 2), IntervalUD(-3, 1, 2)):
            for ray in cayley_family(interval_data(iv)).rays:
                assert reduce(_gcd, ray) == 1

    def test_minkowski_identity(self):
        # I = I' + d*[0,1] and |I'| is the fractional part of |I|
        for iv in (IntervalUD(-2, 4, 5), IntervalUD(-3, 1, 2), IntervalUD(-7, 1, 2)):
            fam = cayley_family(interval_data(iv))
            left, right = fam.i_prime
            assert left == iv.left
            assert right + fam.d == iv.right
            assert right - left == iv.length - fam.d


# unimodular changes of coordinates of N; all but the first reverse orientation
UNIMODULAR = [((2, 1), (1, 1)), ((0, 1), (1, 0)), ((1, 3), (0, -1)), ((-3, 2), (5, -3))]


def transform(cone, g):
    (a, b), (c, d) = g

    def act(p):
        return NPoint(a * p.x + b * p.y, c * p.x + d * p.y)

    return ConeForm(act(cone.alpha), act(cone.beta))


class TestNonstandardCones:
    @pytest.mark.parametrize("g", UNIMODULAR)
    def test_zone_oracles_are_coordinate_free(self, g):
        checked = 0
        for n in range(2, 26):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                cone = nq_to_cone(NQForm(n, q))
                std = class_data(cone)
                if std.hilbert.e < 4:
                    continue
                cd = class_data(transform(cone, g))
                assert cd.nq == std.nq and (cd.alpha, cd.beta) != (std.alpha, std.beta)
                assert w_dims_oracle(cd) == w_dims_oracle(std)
                assert vw_dims_oracle(cd) == vw_dims_oracle(std)
                for d in t1_degrees(std.hilbert):
                    R, R_std = degree_vector(cd.hilbert, d), degree_vector(std.hilbert, d)
                    assert qg_oracle(R, cd) == qg_oracle(R_std, std), (n, q, d)
                    assert vw_oracle(R, cd) == vw_oracle(R_std, std), (n, q, d)
                checked += 1
        assert checked > 100
