import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cqs import cone_geometry, deformations
from cqs.cone_geometry import LatticeTag, ZoneSpec, class_data, zone_points, zone_walk
from cqs.deformations import (
    ClassificationFlags,
    DegreeId,
    DegreeReport,
    InternalConsistencyError,
    Totals,
    _constrained_dim,
    assemble_report,
    cayley_family,
    classify,
    degree_vector,
    iso_oracle,
    phi_vector,
    qg_dims,
    qg_oracle,
    stable_iso_oracle,
    t1_dims,
    t1_space,
    totals,
    v_dims,
    v_dims_oracle,
    vw_dims,
    vw_dims_oracle,
    vw_oracle,
    w_chain_threshold,
    w_dims_oracle,
    w_fast,
    zone_span,
)
from cqs.lattice import MPoint, NPoint, det2, ext_gcd, pairing
from cqs.representations import (
    ConeForm,
    DegenerateSingularityError,
    IntervalUD,
    NQForm,
    interval_to_cone,
    nq_to_cone,
    q_inverse,
)


def refusal_in_128_mib(form, read):
    """What a child prints that builds ``cd`` from the NQForm expression
    ``form``, evaluates ``read`` and prints the OracleBoundError or
    DegenerateSingularityError it raises as ``Name: message``, in 128 MiB
    of address space; it must finish within 5 s and write nothing to stderr."""
    from test_cli import _limit_128_mib, cqs_env

    script = (
        "from cqs.cone_geometry import OracleBoundError, class_data\n"
        "from cqs.deformations import totals\n"
        "from cqs.representations import (\n"
        "    CFForm, DegenerateSingularityError, NQForm, nq_to_cone, to_nq)\n"
        f"cd = class_data(nq_to_cone({form}))\n"
        f"try:\n    {read}\n"
        "except (OracleBoundError, DegenerateSingularityError) as exc:\n"
        "    print(f'{type(exc).__name__}: {exc}')\n"
    )
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=cqs_env(),
        preexec_fn=_limit_128_mib, timeout=60,
    )
    assert time.monotonic() - start < 5
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


def zone_offsets(R, kappa, cd):
    """iota(kappa*R - r) = (du, dv) for every lattice point r of Z_{R,kappa}.

    The oracles read the zone points against the base iota(kappa*R); this
    list is the same zone read against (0, 0).
    """
    ku, kv = kappa * pairing(cd.alpha, R), kappa * pairing(cd.beta, R)
    return [(ku - u, kv - v) for u, v in zone_points(ZoneSpec(R, kappa), cd)]


def zone_threshold(cd, i):
    """``w_chain_threshold`` as read off a zone walk: the kappa = -1 zone of
    the chain's top R = (a_i - 1)*r^i.

    Each zone point r gives (s, t) = iota(R + r), both >= 1; a point off
    the line of r^i first lies in Z_{k*r^i,-1} at k = max((s + 1)//u_i,
    (t + 1)//v_i) + 2 - a_i, and the least such k, clamped to [2, a_i],
    is the threshold.
    """
    a_i = cd.hilbert.coefficient(i)
    u_i, v_i = cd.hilbert.iota[i - 1]
    entries = [
        max((1 - du) // u_i, (1 - dv) // v_i) + 2 - a_i
        for du, dv in zone_offsets((a_i - 1) * element(cd, i), -1, cd)
        if u_i * dv != v_i * du
    ]
    return min(a_i, max(2, min(entries, default=a_i)))


def element(cd, i):
    """r^i as the M-point that ``cd.m_point`` builds from iota(r^i)."""
    return cd.m_point(*cd.hilbert.iota[i - 1])


def in_iota_m(cd, u, v):
    """(u, v) = iota(r) for some r in M: the inverse of the matrix with rows
    alpha, beta maps it to an integer point."""
    a, b = cd.alpha, cd.beta
    return (b.y * u - a.y * v) % cd.det == 0 and (a.x * v - b.x * u) % cd.det == 0


def setup_class_data(n, q):
    return class_data(nq_to_cone(NQForm(n, q)))


def interval_data(iv):
    cd = class_data(interval_to_cone(iv))
    assert cd.interval == iv
    return cd


def reference_rank(rows):
    """Rank of rows of length 1 or 2, as the rank oracle once computed it."""
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        return 0
    if len(rows[0]) == 1:
        return 1
    first = rows[0]
    return 2 if any(first[0] * r[1] - first[1] * r[0] != 0 for r in rows[1:]) else 1


def n_side_t1_space(cd, d):
    """Representatives in N spanning T1(-R), as the oracles once took them:
    all of N in case (ii), (r^i)^perp in case (iii), and at r^2 and
    r^(e-1) a completion of alpha resp. beta to a basis of N."""
    if d.k >= 2:
        r = element(cd, d.i)
        return (NPoint(-r.v, r.u),)
    if d.i in (2, cd.hilbert.e - 1):
        edge = cd.alpha if d.i == 2 else cd.beta
        _, s, t = ext_gcd(edge.x, edge.y)
        return (NPoint(-t, s),)  # det(edge, a) = 1
    return (NPoint(1, 0), NPoint(0, 1))


def iota_coeffs(a, cd):
    """(A, B) with det * <a, r> = A*<alpha, r> + B*<beta, r> for every r."""
    return det2(a, cd.beta), det2(cd.alpha, a)


def phi_functional(R, a, cd):
    """<a, Rbar - m*R>, paired in M; zero exactly on the V-directions."""
    return pairing(a, cd.rbar) - cd.m * pairing(a, R)


def reference_constrained_dim(cd, d, offsets, with_phi):
    """One row <a, x> per offset and N-side direction a, ranked as a matrix."""
    R = degree_vector(cd, d)
    basis = n_side_t1_space(cd, d)
    coeffs = [iota_coeffs(a, cd) for a in basis]
    rows = [tuple(A * du + B * dv for A, B in coeffs) for du, dv in offsets]
    if with_phi:
        rows.append(tuple(phi_functional(R, a, cd) for a in basis))
    return len(basis) - reference_rank(rows)


def assert_rank_rule(cd):
    """The W and VW oracles and _constrained_dim against the row reference."""
    h = cd.hilbert
    columns = {False: w_dims_oracle(cd), True: vw_dims_oracle(cd)}
    for d in h.degrees:
        offsets = zone_offsets(degree_vector(cd, d), -1, cd)
        for with_phi, column in columns.items():
            expected = reference_constrained_dim(cd, d, offsets, with_phi)
            got = _constrained_dim(cd, d, zone_span(offsets, (0, 0)), with_phi)
            assert got == expected, (cd.nq, d, with_phi)
            assert column[d] == expected, (cd.nq, d, with_phi)


class TestT1Graded:
    def test_worked_example(self):
        h = setup_class_data(20, 11).hilbert
        assert dict(t1_dims(h).items()) == {
            DegreeId(2, 1): 1,
            DegreeId(2, 2): 1,
            DegreeId(3, 1): 2,
            DegreeId(4, 1): 2,
            DegreeId(5, 1): 2,
            DegreeId(6, 1): 1,
            DegreeId(6, 2): 1,
        }
        assert sum(d for _, d in t1_dims(h).items()) == 10

    def test_4_1(self):
        h = setup_class_data(4, 1).hilbert
        assert [dim for _, dim in t1_dims(h).items()] == [1, 2, 1]
        assert sum(dim for _, dim in t1_dims(h).items()) == 4

    def test_7_3(self):
        h = setup_class_data(7, 3).hilbert
        assert dict(t1_dims(h).items()) == {
            DegreeId(2, 1): 1,
            DegreeId(3, 1): 1,
            DegreeId(3, 2): 1,
            DegreeId(3, 3): 1,
        }

    def test_rejects_degenerate(self):
        for n, q in [(2, 1), (5, 4), (3, 2)]:
            h = setup_class_data(n, q).hilbert
            with pytest.raises(DegenerateSingularityError):
                t1_dims(h).items()


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


class TestCentralChain:
    """``_central_chain``, the one column that V, qG and VW lay their
    central chain -k*Rbar through."""

    @pytest.mark.parametrize("bound,top", [(0, 0), (1, 1), (4, 4), (10, 4), (None, 4)])
    def test_grounded_contract(self, bound, top):
        # nq:16/7 has coefficients (2, 5, 2): l = 3 and a_l = 5, so the
        # chain is (3, 1) .. (3, 4); the bounds are 0, 1, a_l - 1, a_l + 5
        cd = setup_class_data(16, 7)
        h = cd.hilbert
        assert h.grounded and h.central_index == 3 and h.coefficient(3) == 5
        col = deformations._central_chain(cd, bound)
        assert tuple(col) == h.degrees
        assert {d: x for d, x in col.items() if x} == {DegreeId(3, k): 1 for k in range(1, top + 1)}

    @pytest.mark.parametrize("bound", [0, 1, 5, None])
    def test_ungrounded_is_all_zeros(self, bound):
        cd = setup_class_data(7, 3)
        assert not cd.hilbert.grounded
        col = deformations._central_chain(cd, bound)
        assert tuple(col) == cd.hilbert.degrees
        assert set(col.values()) == {0}

    def test_a_chain_without_k_1_is_caught(self, monkeypatch):
        # a chain that leaves out -Rbar takes k = 1 from qG and VW (V sets
        # its interior k = 1 degrees itself); the zone and rank oracles,
        # the last-deformation and initial-segment checks, and the theorem
        # checks of assemble_report each see it
        from collections import Counter

        from cqs import verify

        real = deformations._central_chain

        def without_k_1(cd, bound):
            return {d: 0 if d.k == 1 else x for d, x in real(cd, bound).items()}

        monkeypatch.setattr(deformations, "_central_chain", without_k_1)
        failures = verify.run_checks(30)["deformations"].failures
        # 158 failures; an exception line is counted by its type alone
        properties = Counter(line.rsplit("property=", 1)[1].split("(", 1)[0] for line in failures)
        assert properties == {
            "qg_zone_oracle": 29, "vw_zone_oracle": 31, "vw_rank_oracle": 31,
            "last_deformation_qg": 14, "last_deformation_vw": 9, "qg_initial_segment": 13,
            "exception: InternalConsistencyError": 31,
        }


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

    @pytest.mark.parametrize(
        "form,read,module,bound",
        [
            ("NQForm(1000003, 500001)", "totals(cd)", cone_geometry, "MAX_T1_DEGREES"),
            ("NQForm(39999, 2)", "totals(cd)", deformations, "MAX_ZONE_FIBERS"),
            ("to_nq(CFForm((3,) * 30))", "totals(cd)", deformations, "MAX_ZONE_FIBERS"),
            ("NQForm(1000001, 2)", "cd.hilbert", cone_geometry, "MAX_T1_DEGREES"),
        ],
        ids=["nq:1000003/500001", "nq:39999/2", "cf:3,...,3", "nq:1000001/2-hilbert"],
    )
    def test_library_caller_is_refused_in_128_mib(self, form, read, module, bound):
        # 500,002 degrees, 2.0e8 and 2.5e12 W zone fibers: totals refuses
        # each up front, within 5 s and 128 MiB of address space; the
        # Hilbert basis of nq:1000001/2 (500,000 degrees), which README's
        # Library section reads, is refused as its table would be
        out = refusal_in_128_mib(form, read)
        assert out.startswith("OracleBoundError: ")
        assert f"{bound} = {getattr(module, bound)}" in out

    def test_the_continued_fraction_is_expanded_once(self, hj_pulls):
        # nq:3001/2 expands 3001/2999 into 1,500 terms; totals reads them
        # once, through cd.hilbert, on a fresh record
        for name in ("hj_coefficients", "islice", "math"):
            assert not hasattr(deformations, name), name
        report = totals(setup_class_data(3001, 2))
        assert len(hj_pulls) == 1500 == report.embdim - 2
        assert len(report.per_degree) == 1501

    def test_sums_match_per_degree(self):
        rep = totals(setup_class_data(30, 17))
        assert rep.totals.dim_t1 == sum(r.dim_t1 for r in rep.per_degree)
        assert rep.totals.dim_qg == sum(r.dim_qg for r in rep.per_degree)


def reference_report(cd):
    """per_degree, totals, flags and embdim of ``totals(cd)``, built one
    degree at a time: each column by its own loop over the degrees, one
    record per degree, every total a sum over the T1 degrees, and the
    flags from the interval length as a Fraction."""
    h = cd.hilbert
    degrees = [DegreeId(i, k) for i, a in enumerate(h.coeffs, 2) for k in range(1, a)]
    ell = h.central_index
    t1 = {d: 2 if d.k == 1 and 3 <= d.i <= h.e - 2 else 1 for d in degrees}
    v = {d: int(d.i not in (2, h.e - 1)) if d.k == 1 else int(h.grounded and d.i == ell)
         for d in degrees}
    length = Fraction(cd.interval.h - cd.interval.g, cd.m)
    qg, vw = dict.fromkeys(degrees, 0), dict.fromkeys(degrees, 0)
    if h.grounded:
        vw_bound = min(cd.abc.c, cd.c_prime) * length
        for k in range(1, h.coefficient(ell)):
            qg[DegreeId(ell, k)] = int(k <= length)
            vw[DegreeId(ell, k)] = int(k <= vw_bound)
    w = w_dims_oracle(cd)
    last = DegreeId(ell, h.coefficient(ell) - 1) if h.grounded else None
    per_degree = tuple(
        DegreeReport(d, t1[d], v[d], w[d], vw[d], qg[d], d == last) for d in t1
    )
    tot = Totals(*(sum(col[d] for d in t1) for col in (t1, v, w, vw, qg)))
    grounded = cd.ab is not None
    flags = ClassificationFlags(
        grounded, length >= 1 and length.denominator == 1, length == 1,
        grounded and length >= 1,
    )
    return per_degree, tot, flags, h.e


def assembly_classes():
    for cd in classes(40):
        if cd.hilbert.e >= 4:
            yield cd
    for a in range(2, 61):
        nq = NQForm(2 * a - 1, a - 1)
        yield class_data(nq_to_cone(nq))
        yield class_data(nq_to_cone(q_inverse(nq)))
    for g in UNIMODULAR:
        for n in range(4, 26):
            for q in range(1, n - 1):
                if gcd(n, q) == 1:
                    yield class_data(transform(nq_to_cone(NQForm(n, q)), g))


class TestAssembly:
    def test_equals_the_degree_by_degree_reference(self):
        checked = 0
        for cd in assembly_classes():
            rep = totals(cd)
            assert (rep.per_degree, rep.totals, rep.flags, rep.embdim) == reference_report(cd), cd.nq
            checked += 1
        assert checked > 1000

    def test_one_degree_table_per_class(self):
        cd = setup_class_data(20, 11)
        h = cd.hilbert
        assert h.degrees is h.degrees
        assert list(h.degrees) == [d for d, _ in t1_dims(h).items()]
        basis = [element(cd, i) for i in range(1, h.e + 1)]
        assert h.iota == tuple((pairing(cd.alpha, r), pairing(cd.beta, r)) for r in basis)

    def test_records_keep_their_fields(self):
        rep = totals(setup_class_data(20, 11))
        r = rep.per_degree[0]
        assert r == DegreeReport(DegreeId(2, 1), 1, 0, r.dim_w, 0, 0, False)
        assert repr(r).startswith("DegreeReport(degree=DegreeId(i=2, k=1), dim_t1=1, dim_v=0,")
        assert DegreeReport._fields == (
            "degree", "dim_t1", "dim_v", "dim_w", "dim_vw", "dim_qg", "last_deformation",
        )


def true_columns(n, q):
    cd = setup_class_data(n, q)
    return cd, {"v": v_dims(cd), "qg": qg_dims(cd), "vw": vw_dims(cd), "w": w_fast(cd)}


def assemble(cd, cols):
    return assemble_report(cd, cols["v"], cols["qg"], cols["vw"], cols["w"])


class TestAssemblyRefusesBrokenColumns:
    # nq:20/11 (grounded, qG = 0, VW = 1 at the last deformation (4,1)) and
    # nq:4/1 (grounded T0, qG = VW = 1 at (3,1)); ``match`` names the check
    # that refuses each corrupted column first
    @pytest.mark.parametrize("n, q", [(20, 11), (4, 1)])
    def test_true_columns_pass(self, n, q):
        cd, cols = true_columns(n, q)
        assert assemble(cd, cols) == totals(cd)

    @pytest.mark.parametrize("n, q, column, degree, value, match", [
        # W below VW at the last deformation degree
        (20, 11, "w", DegreeId(4, 1), 0, "inclusion chain broken at"),
        (4, 1, "w", DegreeId(3, 1), 0, "inclusion chain broken at"),
        # V total: one more V line, the inclusion chain still holds
        (20, 11, "v", DegreeId(2, 1), 1, "interval formulas"),
        # qG total: the qG line of a T0 singularity dropped
        (4, 1, "qg", DegreeId(3, 1), 0, "interval formulas"),
        # VW total, in the general case (20/11) and in the case of a
        # fractional part 1/m (15/8, m = 5), where VW must equal qG
        (20, 11, "vw", DegreeId(4, 1), 0, "interval formulas"),
        (15, 8, "vw", DegreeId(3, 1), 1, "interval formulas"),
    ])
    def test_corrupted_entry(self, n, q, column, degree, value, match):
        cd, cols = true_columns(n, q)
        assert cols[column][degree] != value
        cols[column][degree] = value
        with pytest.raises(InternalConsistencyError, match=match):
            assemble(cd, cols)

    def test_gap(self):
        # two more V lines move V - VW from e-5 to e-3; the V total check,
        # which runs first, already refuses it
        cd, cols = true_columns(20, 11)
        assert assemble(cd, cols).gap == cd.hilbert.e - 5
        cols["v"][DegreeId(2, 1)] = cols["v"][DegreeId(6, 1)] = 1
        with pytest.raises(InternalConsistencyError):
            assemble(cd, cols)

    @pytest.mark.parametrize("n, q", [(20, 11), (4, 1), (13, 4)])
    def test_reordered_columns_are_refused(self, n, q):
        # every column function keys its dict by the table in order, which
        # is read as it is; a column with the same degrees in reversed
        # insertion order is refused, whichever column it is
        cd, cols = true_columns(n, q)
        table = list(cd.hilbert.degrees)
        assert all(list(col) == table for col in cols.values())
        for name, col in cols.items():
            backwards = dict(reversed(col.items()))
            assert list(backwards) == table[::-1] and backwards == col
            with pytest.raises(
                InternalConsistencyError, match="not keyed by its T1 degrees in table order"
            ):
                assemble(cd, {**cols, name: backwards})
        assert assemble(cd, cols) == totals(cd)

    @pytest.mark.parametrize("n, q", [(20, 11), (4, 1)])
    @pytest.mark.parametrize("column", ["v", "qg", "vw", "w"])
    def test_missing_degree(self, n, q, column):
        cd, cols = true_columns(n, q)
        del cols[column][DegreeId(2, 1)]
        with pytest.raises(InternalConsistencyError, match="not keyed by its T1 degrees"):
            assemble(cd, cols)

    @pytest.mark.parametrize("n, q", [(20, 11), (4, 1)])
    @pytest.mark.parametrize("column", ["v", "qg", "vw", "w"])
    def test_extra_degree(self, n, q, column):
        # a zero entry leaves every sum as it is, so only the key check sees it
        cd, cols = true_columns(n, q)
        cols[column][DegreeId(2, 9)] = 0
        with pytest.raises(InternalConsistencyError, match="not keyed by its T1 degrees"):
            assemble(cd, cols)


class TestIsoOracles:
    def test_iso0_holds_for_t1(self):
        cd = setup_class_data(20, 11)
        h = cd.hilbert
        for d in h.degrees:
            span = zone_span(zone_offsets(degree_vector(cd, d), 0, cd), (0, 0))
            for f in t1_space(cd, d):
                assert iso_oracle(f, span)

    def test_v_but_not_w_at_r3(self):
        # direction orthogonal to Rbar - 5*r^3 = [-10,-7]
        cd = setup_class_data(20, 11)
        a = NPoint(7, -10)
        assert pairing(a, MPoint(-10, -7)) == 0
        f, d = iota_coeffs(a, cd), DegreeId(3, 1)
        R, phi = degree_vector(cd, d), phi_vector(cd, d)
        for kappa in (5, 0):
            zone = zone_offsets(R, kappa, cd)
            assert stable_iso_oracle(f, phi, zone, iso_oracle(f, zone_span(zone, (0, 0))))
        assert not iso_oracle(f, zone_span(zone_offsets(R, -1, cd), (0, 0)))

    def test_empty_zone_accepts_everything(self):
        # Z_{r^3,-1} of (7,3) has no lattice points
        cd = setup_class_data(7, 3)
        R = element(cd, 3)
        pts = zone_points(ZoneSpec(R, -1), cd)
        assert pts == []
        zone = zone_offsets(R, -1, cd)
        span = zone_span(zone, (0, 0))
        assert span == ()
        for f in ((5, 17), (-3, 1), (0, 0)):
            iso = iso_oracle(f, span)
            assert iso and stable_iso_oracle(f, phi_vector(cd, DegreeId(3, 1)), zone, iso)

    def test_zero_direction_is_always_stable(self):
        cd = setup_class_data(20, 11)
        d = DegreeId(4, 1)
        R = degree_vector(cd, d)
        for kappa in (-3, -1, 0, 2, 5):
            zone = zone_offsets(R, kappa, cd)
            iso = iso_oracle((0, 0), zone_span(zone, (0, 0)))
            assert stable_iso_oracle((0, 0), phi_vector(cd, d), zone, iso)

    def test_stable_iso_equals_two_shifts(self):
        cd = setup_class_data(12, 5)
        h = cd.hilbert
        m = 2  # gcd(12, 6) = 6, a = 2
        seen = set()
        for d in h.degrees:
            R, phi = degree_vector(cd, d), phi_vector(cd, d)
            for f in t1_space(cd, d):
                for kappa in (-1, 0, 1):
                    zone, shifted = zone_offsets(R, kappa, cd), zone_offsets(R, kappa + m, cd)
                    iso = iso_oracle(f, zone_span(zone, (0, 0)))
                    expected = iso and iso_oracle(f, zone_span(shifted, (0, 0)))
                    assert stable_iso_oracle(f, phi, zone, iso) == expected
                    # the same zone as verify reads it: its points against iota(kappa*R)
                    base = kappa * pairing(cd.alpha, R), kappa * pairing(cd.beta, R)
                    points = zone_points(ZoneSpec(R, kappa), cd)
                    assert iso_oracle(f, zone_span(points, base)) == iso
                    seen.add((iso, expected))
        assert seen == {(True, True), (True, False), (False, False)}


def all_degrees(n_max):
    """(cd, d) for every degree of every class with e >= 4 and n <= n_max,
    in the standard cones and under the four coordinate changes."""
    cones = standard_cones(n_max)
    for cone in cones + [transform(c, g) for c in cones for g in UNIMODULAR]:
        cd = class_data(cone)
        for d in cd.hilbert.degrees:
            yield cd, d


class TestFunctionals:
    def test_t1_space_is_the_n_side_space(self):
        # each functional is a nonzero multiple of iota_coeffs(a) for the
        # N-side direction a on the vectors the degree is tested on: those
        # with <alpha, x> = 0 at r^2 and <beta, x> = 0 at r^(e-1); in an
        # interior degree both pairs span the plane
        for cd, d in all_degrees(40):
            e = cd.hilbert.e
            if d.k == 1 and d.i in (2, e - 1):
                tested = ((0, 1),) if d.i == 2 else ((1, 0),)
            else:
                tested = ((1, 0), (0, 1))
            new = [tuple(A * x + B * y for x, y in tested) for A, B in t1_space(cd, d)]
            old = [
                tuple(A * x + B * y for x, y in tested)
                for A, B in (iota_coeffs(a, cd) for a in n_side_t1_space(cd, d))
            ]
            assert len(new) == len(old) == reference_rank(new) == reference_rank(old), (cd, d)
            assert reference_rank(new + old) == len(new), (cd, d)

    def test_phi_vector_is_iota_of_the_phi_direction(self):
        # det * <a, Rbar - m*R> = A*x + B*y with (x, y) = phi_vector and
        # (A, B) = iota_coeffs(a), for every N-side direction a
        for cd, d in all_degrees(25):
            R = degree_vector(cd, d)
            x, y = phi_vector(cd, d)
            for a in n_side_t1_space(cd, d):
                A, B = iota_coeffs(a, cd)
                assert cd.det * phi_functional(R, a, cd) == A * x + B * y, (cd, d)


pairs = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


class TestZoneSpan:
    @given(st.lists(pairs, max_size=8), pairs)
    @example([], (0, 0))
    @example([(2, -3)] * 3, (2, -3))
    @example([(1, 1), (3, 3), (0, 5)], (1, 1))
    def test_a_basis_of_the_differences(self, points, base):
        span = zone_span(points, base)
        diffs = [(u - base[0], v - base[1]) for u, v in points]
        assert len(span) == reference_rank(diffs)
        assert all(vec in diffs for vec in span)
        # every difference lies in the span of the basis
        assert all(reference_rank([*span, vec]) == len(span) for vec in diffs)

    def test_stops_at_the_second_independent_vector(self):
        read = []

        def points():
            for p in ((0, 0), (2, 2), (4, 4), (0, 1), (9, 9)):
                read.append(p)
                yield p

        assert zone_span(points(), (0, 0)) == ((2, 2), (0, 1))
        assert read == [(0, 0), (2, 2), (4, 4), (0, 1)]


class TestContainmentOracles:
    def test_worked_example(self):
        cd = setup_class_data(20, 11)
        r3, r4 = DegreeId(3, 1), DegreeId(4, 1)
        assert not qg_oracle(cd, r4)
        assert vw_oracle(cd, r4)
        assert not vw_oracle(cd, r3)
        assert not qg_oracle(cd, r3)

    def test_4_1_central(self):
        cd = setup_class_data(4, 1)
        h = cd.hilbert
        assert element(cd, h.central_index) == cd.rbar
        central = DegreeId(h.central_index, 1)
        assert qg_oracle(cd, central)
        assert vw_oracle(cd, central)

    def test_nongrounded_fails_at_constraining_degrees(self):
        # every interior or multiple degree of a non-grounded class fails
        # the containment; corner degrees carry no V-line to constrain
        for n, q in [(7, 3), (10, 3), (5, 2), (13, 5)]:
            cd = setup_class_data(n, q)
            h = cd.hilbert
            from cqs.cone_geometry import is_grounded

            assert not is_grounded(cd.interval)
            for d in h.degrees:
                if d.k >= 2 or 3 <= d.i <= h.e - 2:
                    assert not qg_oracle(cd, d), (n, q, d)

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
                for d in h.degrees:
                    assert (qg[d] == 1) == (v[d] >= 1 and qg_oracle(cd, d)), (nq, d)
                    assert (vw[d] == 1) == (v[d] >= 1 and vw_oracle(cd, d)), (nq, d)


class Counted:
    """An iterator that counts the items read from it."""

    def __init__(self, items):
        self.items, self.read = iter(items), 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self.items)
        self.read += 1
        return item


class TestLazyZoneReads:
    """Each oracle stops reading its ``zone_walk`` once its answer is fixed.
    On nq:21/10 (a = (2, 11), m = 21) the top of the chain, R = 10*r^3,
    has zones of 9, 10 and 200 points."""

    def test_each_read_stops_inside_its_zone(self, monkeypatch):
        from cqs import verify

        cd = setup_class_data(21, 10)
        m = cd.m

        def listed(size, kappa, lattice=LatticeTag.M):
            # the whole zone, from the walk that the oracles do not count
            return list(zone_walk(cd, size, kappa, lattice))

        d = DegreeId(3, 10)
        R = degree_vector(cd, d)
        size = pairing(cd.alpha, R), pairing(cd.beta, R)
        walks = []
        real = deformations.zone_walk

        def counted(cd, size, kappa, lattice=LatticeTag.M):
            walks.append(((size, kappa, lattice), Counted(real(cd, size, kappa, lattice))))
            return walks[-1][1]

        monkeypatch.setattr(deformations, "zone_walk", counted)
        # the span: the first two points of the kappa = m zone are independent
        walk = deformations.zone_walk(cd, size, m)
        base = m * size[0], m * size[1]
        assert len(zone_span(walk, base)) == 2
        assert walk.read == 2 < len(listed(size, m)) == 10
        # the containment: the walk ends at the first M_tilde point off the line
        assert not qg_oracle(cd, d)
        assert walks[-1][0] == (size, 0, LatticeTag.M_TILDE)
        assert walks[-1][1].read < len(listed(size, 0, LatticeTag.M_TILDE)) == 200
        # the emptiness: the first point of the kappa = -1 zone
        walk = deformations.zone_walk(cd, size, -1)
        assert next(walk, None) is not None
        assert walk.read == 1 < len(listed(size, -1)) == 9
        # and verify, which reads every zone of the class through these,
        # reads fewer points than the zones hold
        walks.clear()
        res = verify.VerificationResult()
        verify._verify_one_class(cd, res)
        assert res.ok and walks
        assert all(w.read <= len(listed(*z)) for z, w in walks)
        assert sum(w.read for _, w in walks) < sum(len(listed(*z)) for z, _ in walks)


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
                for d in h.degrees:
                    assert vw[d] == vw_rank[d], (nq, d)
                    assert vw[d] <= w[d], (nq, d)
                    assert v_dims(cd)[d] == v[d], (nq, d)


class TestRankRule:
    def test_matches_row_reference_up_to_40(self):
        checked = 0
        for n in range(2, 41):
            for q in range(1, n - 1):
                if gcd(n, q) == 1:
                    assert_rank_rule(setup_class_data(n, q))
                    checked += 1
        assert checked > 400

    def test_interior_ranks_occur(self):
        # interior degrees reach rank 2, where the read stops early, and
        # rank 1, where it reads every point; rank 0 needs a zone with no
        # vector off the base, which no class here has, so it is built
        cd = setup_class_data(20, 11)
        for offsets in ([], [(0, 0)]):
            span = zone_span(offsets, (0, 0))
            assert _constrained_dim(cd, DegreeId(3, 1), span, False) == 2
            assert _constrained_dim(cd, DegreeId(3, 1), span, True) == 1
        seen = set()
        for n in range(5, 41):
            for q in range(1, n - 1):
                if gcd(n, q) != 1:
                    continue
                cd = setup_class_data(n, q)
                h = cd.hilbert
                for d in h.degrees:
                    if d.k == 1 and 3 <= d.i <= h.e - 2:
                        offsets = zone_offsets(degree_vector(cd, d), -1, cd)
                        seen.add(2 - reference_constrained_dim(cd, d, offsets, False))
        assert {1, 2} <= seen

    def test_quotient_degree_must_descend(self):
        cd = setup_class_data(20, 11)
        d = DegreeId(2, 1)
        with pytest.raises(deformations.InternalConsistencyError):
            _constrained_dim(cd, d, zone_span([(0, 3), (1, 0)], (0, 0)), False)
        assert _constrained_dim(cd, d, zone_span([(0, 0), (0, 3)], (0, 0)), False) == 0
        assert _constrained_dim(cd, d, zone_span([(0, 0)], (0, 0)), False) == 1

    def test_totals_reads_one_full_zone_per_degree(self, monkeypatch):
        # totals lists, once each, the kappa = -1 zone of every r^i and of
        # no chain degree k*r^i, k >= 2, and the rank does not shorten or
        # alter the list zone_points returned
        calls = []
        real = deformations.zone_points

        def recorded(z, cd):
            points = real(z, cd)
            calls.append((z, points, list(points)))
            return points

        monkeypatch.setattr(deformations, "zone_points", recorded)
        for n in range(4, 31):
            for q in range(1, n - 1):
                if gcd(n, q) != 1:
                    continue
                cd = setup_class_data(n, q)
                calls.clear()
                totals(cd)
                h, bw = cd.hilbert, cd.bw
                expected = [ZoneSpec(element(cd, i), -1) for i in range(2, h.e)]
                assert [z for z, _, _ in calls] == expected
                for z, points, copy in calls:
                    u_r, v_r = pairing(cd.alpha, z.R), pairing(cd.beta, z.R)
                    box = {
                        (u, v) for u in range(-1, u_r - 1) for v in range(-1, v_r - 1)
                        if (v - u * bw) % n == 0
                    }
                    assert points == copy and len(points) == len(box) and set(points) == box


def standard_cones(n_max):
    """nq_to_cone of every class with e >= 4 and n <= n_max."""
    return [
        nq_to_cone(NQForm(n, q)) for n in range(4, n_max + 1) for q in range(1, n - 1)
        if gcd(n, q) == 1
    ]


def classes(n_max):
    return map(class_data, standard_cones(n_max))


class TestWFast:
    def test_equals_the_oracle_up_to_60(self):
        checked = 0
        for cd in classes(60):
            if cd.hilbert.e >= 4:
                assert w_fast(cd) == w_dims_oracle(cd), cd.nq
                checked += 1
        assert checked > 1000

    def test_equals_the_oracle_on_the_wide_family(self):
        # nq:(2a-1)/(a-1) has continued fraction [2, a]: one long chain
        for a in range(3, 121):
            nq = NQForm(2 * a - 1, a - 1)
            for cd in (class_data(nq_to_cone(nq)), class_data(nq_to_cone(q_inverse(nq)))):
                assert max(cd.hilbert.coeffs) == a
                assert w_fast(cd) == w_dims_oracle(cd), cd.nq

    def test_printed_w_equals_the_oracle_past_60(self):
        # the W column scan and analyze print, read from totals, for every
        # class with e >= 4 at a few n from 97 to 300: 600 classes
        checked = 0
        for n in (97, 128, 150, 199, 256, 300):
            for q in range(1, n - 1):
                if gcd(n, q) == 1:
                    cd = class_data(nq_to_cone(NQForm(n, q)))
                    printed = {r.degree: r.dim_w for r in totals(cd).per_degree}
                    assert printed == w_dims_oracle(cd), cd.nq
                    checked += 1
        assert checked == 600

    def test_mixed_chain(self):
        # nq:13/4 has coefficients (2, 2, 5): W is 1, 1, 0 along 2*r^4,
        # 3*r^4, 4*r^4, so the threshold lies strictly inside the chain
        cd = setup_class_data(13, 4)
        assert cd.hilbert.coeffs == (2, 2, 5)
        assert w_chain_threshold(cd, 4) == zone_threshold(cd, 4) == 4
        w = w_fast(cd)
        assert [w[DegreeId(4, k)] for k in (2, 3, 4)] == [1, 1, 0]
        assert w == w_dims_oracle(cd)
        assert list(w) == list(cd.hilbert.degrees)

    def test_closed_form_equals_the_zone_walk(self):
        # every chain with n <= 40, and with n <= 25 in the four coordinate
        # changes of TestNonstandardCones; all three outcomes occur
        cones = standard_cones(40)
        cones += [transform(c, g) for c in cones if c.order <= 25 for g in UNIMODULAR]
        seen = set()
        for cone in cones:
            cd = class_data(cone)
            for i, a in enumerate(cd.hilbert.coeffs, 2):
                if a > 2:
                    threshold = w_chain_threshold(cd, i)
                    assert threshold == zone_threshold(cd, i), (cone, i)
                    seen.add((threshold == 2, threshold == a))
        assert seen == {(True, False), (False, True), (False, False)}

    def test_axis_points_are_least_on_their_lines(self):
        # (-1, V0) and (U0, -1) by brute force; V0, U0 >= 0 as m >= 2
        cones = standard_cones(40)
        for cone in cones + [transform(c, g) for c in cones for g in UNIMODULAR]:
            cd = class_data(cone)
            n = cd.nq.n
            v0 = next(v for v in range(-1, n) if in_iota_m(cd, -1, v))
            u0 = next(u for u in range(-1, n) if in_iota_m(cd, u, -1))
            assert cd.axis_points == (v0, u0) and min(v0, u0) >= 0, cone

    def test_axis_points_in_standard_coordinates(self):
        # in nq_to_cone coordinates V0 = q and U0 = 1/q mod n
        for n in range(3, 201):
            for q in range(1, n - 1):
                if gcd(n, q) == 1:
                    assert setup_class_data(n, q).axis_points == (q, pow(q, -1, n)), (n, q)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateSingularityError):
            w_fast(setup_class_data(5, 4))


class TestPhi:
    def test_kernel_direction(self):
        # a = (7,-10) kills Rbar - 5*r^3 = [-10,-7], so its functional kills phi
        cd = setup_class_data(20, 11)
        A, B = iota_coeffs(NPoint(7, -10), cd)
        x, y = phi_vector(cd, DegreeId(3, 1))
        assert (x, y) == (pairing(cd.alpha, MPoint(-10, -7)), pairing(cd.beta, MPoint(-10, -7)))
        assert A * x + B * y == 0

    def test_direct_arithmetic(self):
        # R = r^4 = Rbar: Rbar - 5R = -4*Rbar = [-20,-12], and iota(Rbar) = (5, 5)
        cd = setup_class_data(20, 11)
        assert phi_vector(cd, DegreeId(4, 1)) == (-20, -20)
        assert phi_functional(element(cd, 4), NPoint(1, 1), cd) == -32

    def test_phi_zero_iff_stable(self):
        cd = setup_class_data(20, 11)
        h = cd.hilbert
        for d in h.degrees:
            zone = zone_offsets(degree_vector(cd, d), 0, cd)
            x, y = phi_vector(cd, d)
            for f in t1_space(cd, d):
                stable = stable_iso_oracle(f, (x, y), zone, iso_oracle(f, zone_span(zone, (0, 0))))
                assert (f[0] * x + f[1] * y == 0) == stable


class TestRepresentativeIndependence:
    def test_quotient_degree_constraints_kill_edge(self):
        cd = setup_class_data(20, 11)
        h = cd.hilbert
        # zone points come as iota pairs r = (<alpha,r>, <beta,r>)
        for i, side, edge in [(2, 0, cd.alpha), (h.e - 1, 1, cd.beta)]:
            R = element(cd, i)
            e_r = pairing(edge, R)
            for kappa in (-1, 0, 3):
                for r in zone_points(ZoneSpec(R, kappa), cd):
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
        assert (fam.i_prime, fam.denominator) == ((-1, -1), 2)  # I' = [-1/2, -1/2]
        assert fam.rays == ((-1, 2, 0), (0, 0, 1), (1, 0, 1))

    def test_fractional_example(self):
        fam = cayley_family(interval_data(IntervalUD(-2, 4, 5)))
        assert fam.d == 1 and not fam.degenerate_base
        assert (fam.i_prime, fam.denominator) == ((-2, -1), 5)  # I' = [-2/5, -1/5]
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
            left, right = fam.i_prime  # numerators over fam.denominator = m
            assert fam.denominator == iv.m
            assert left == iv.g
            assert right + fam.d * iv.m == iv.h
            assert right - left == iv.h - iv.g - fam.d * iv.m


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
                assert w_fast(cd) == w_dims_oracle(cd) == w_dims_oracle(std)
                assert vw_dims_oracle(cd) == vw_dims_oracle(std)
                for d in std.hilbert.degrees:
                    # each record reads the zones from its own iota basis
                    assert qg_oracle(cd, d) == qg_oracle(std, d), (n, q, d)
                    assert vw_oracle(cd, d) == vw_oracle(std, d), (n, q, d)
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("g", UNIMODULAR)
    def test_rank_rule_is_coordinate_free(self, g):
        for n in range(2, 26):
            for q in range(1, n - 1):
                if gcd(n, q) == 1:
                    assert_rank_rule(class_data(transform(nq_to_cone(NQForm(n, q)), g)))
