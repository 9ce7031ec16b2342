"""The value records: immutable, compared and hashed by their fields,
printed as before, validated on construction and on unpickling."""

import pickle

import pytest

from cqs.cone_geometry import (
    ABFloorData,
    ClassData,
    DegreeId,
    HilbertData,
    ZoneSpec,
    class_data,
)
from cqs.deformations import (
    CayleyFamily,
    ClassificationFlags,
    DegreeReport,
    T1Report,
    Totals,
    cayley_family,
    totals,
)
from cqs.lattice import MPoint, NPoint
from cqs.representations import (
    ABCForm,
    CFForm,
    ConeForm,
    IntervalUD,
    InvalidSingularityError,
    NQForm,
    nq_to_cone,
)


def records():
    """One instance of every record type, from the class nq:20/11."""
    cd = class_data(nq_to_cone(NQForm(20, 11)))
    report = totals(cd)
    return [
        MPoint(1, 2), NPoint(1, 0), cd.nq, cd.abc, nq_to_cone(cd.nq), cd.interval,
        CFForm((3, 2, 2, 2, 3)), DegreeId(2, 1), ZoneSpec(MPoint(1, 1), -1), cd.hilbert,
        cd, cd.ab, report.per_degree[0], report.totals, report.flags, report,
        cayley_family(cd),
    ]


def test_every_record_type_is_listed():
    types = {type(r) for r in records()}
    assert types == {
        MPoint, NPoint, NQForm, ABCForm, ConeForm, IntervalUD, CFForm, DegreeId, ZoneSpec,
        HilbertData, ClassData, ABFloorData, DegreeReport, Totals, ClassificationFlags,
        T1Report, CayleyFamily,
    }


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_field_assignment_raises(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 0


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_pickle_round_trip_gives_an_equal_record(record):
    # fan_out sends records between processes by pickle
    twin = pickle.loads(pickle.dumps(record))
    assert twin == record and hash(twin) == hash(record) and type(twin) is type(record)


def test_class_data_pickled_before_its_basis_builds_it_later():
    cd = class_data(nq_to_cone(NQForm(20, 11)))
    fresh = pickle.loads(pickle.dumps(cd))
    assert "hilbert" not in vars(fresh)
    assert fresh == cd and fresh.hilbert == cd.hilbert


def test_hand_written_records_compare_their_fields_only():
    a, b = class_data(nq_to_cone(NQForm(20, 11))), class_data(nq_to_cone(NQForm(20, 11)))
    a.hilbert.degrees  # built and kept on a only
    assert a == b and hash(a) == hash(b)
    assert a != class_data(nq_to_cone(NQForm(20, 9)))
    assert a != a.nq and a.hilbert != a.hilbert.iota
    # namedtuples, like the other records: equal to the tuple of their fields
    assert a == tuple(a) and a.hilbert == tuple(a.hilbert)
    assert repr(a).startswith("ClassData(nq=NQForm(n=20, q=11), alpha=NPoint(x=1, y=0), ")
    assert repr(a.hilbert).startswith("HilbertData(iota=((0, 20), (1, 9), ")


def test_hilbert_data_keeps_the_iota_pairs_only():
    # an M-point of the basis is built from its pair by ClassData.m_point
    assert HilbertData._fields == ("iota", "coeffs", "e", "central_index", "grounded")
    assert not hasattr(HilbertData, "element") and not hasattr(HilbertData, "basis")


def test_points_scale_from_the_left_only():
    # M-points are summed and scaled; N-points are only paired
    assert 3 * MPoint(1, 2) == MPoint(3, 6) and MPoint(1, 2) + MPoint(3, 4) == MPoint(4, 6)
    with pytest.raises(TypeError):
        MPoint(1, 2) * 3
    with pytest.raises(TypeError):
        MPoint(1, 2) - MPoint(3, 4)
    assert (str(MPoint(1, 2)), str(NPoint(-1, 2))) == ("[1,2]", "(-1,2)")


@pytest.mark.parametrize("build", [
    lambda: NQForm(4, 2),
    lambda: NQForm(5, 0),
    lambda: ABCForm(4, 1, 2),
    lambda: ConeForm(NPoint(2, 0), NPoint(0, 1)),
    lambda: IntervalUD(1, 0, 3),
    lambda: IntervalUD(-2, 2, 4),
    lambda: CFForm((1,)),
    lambda: CFForm(()),
])
def test_invalid_records_are_refused(build):
    with pytest.raises(InvalidSingularityError):
        build()


def test_interval_keeps_its_canonical_translate():
    for g, h in ((3, 7), (-2, 2), (-12, -8), (8, 12)):
        iv = IntervalUD(g, h, 5)
        assert (iv.g, iv.h, iv.m) == (-2, 2, 5)
        assert iv == IntervalUD(-2, 2, 5) and pickle.loads(pickle.dumps(iv)) == iv
    assert CFForm([3, 2]).coefficients == (3, 2)


def test_reprs_are_unchanged():
    assert repr(NQForm(20, 11)) == "NQForm(n=20, q=11)"
    assert repr(DegreeId(2, 1)) == "DegreeId(i=2, k=1)"
    assert repr(IntervalUD(3, 7, 5)) == "IntervalUD(g=-2, h=2, m=5)"
    assert repr(CFForm((3, 2))) == "CFForm(coefficients=(3, 2))"
    assert repr(ConeForm(NPoint(1, 0), NPoint(-11, 20))) == (
        "ConeForm(alpha=NPoint(x=1, y=0), beta=NPoint(x=-11, y=20))"
    )
    assert repr(Totals(10, 3, 5, 1, 0)) == "Totals(dim_t1=10, dim_v=3, dim_w=5, dim_vw=1, dim_qg=0)"
