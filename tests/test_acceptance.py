"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The per-criterion lines are echoed in the terminal summary (see
conftest.py), so they show up in plain `pytest -v` runs too.  Every
comparison is exact (integers and fractions, no tolerance).
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from cqs.cli import main
from cqs.cone_geometry import class_data
from cqs.deformations import totals, vw_dims_oracle, w_dims_oracle
from cqs.representations import (
    NQForm,
    cone_to_interval,
    nq_to_cone,
    q_inverse,
)
from cqs.verify import nq_range, run_checks

SWEEP_BOUND = 60
CONVERSION_BOUND = 200


RESULTS: list[str] = []


def _announce(line):
    RESULTS.append(line)
    print(line)


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        _announce(f"ACCEPTANCE {num} [{label}]: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    _announce(f"ACCEPTANCE {num} [{label}]: PASS ({elapsed:.1f}s)")
    assert budget is None or elapsed < budget, f"criterion {num} exceeded {budget}s"


@lru_cache(maxsize=None)
def canonical_reports():
    return [
        totals(class_data(nq_to_cone(nq)))
        for nq in nq_range(SWEEP_BOUND, skip_degenerate=True, canonical_only=True)
    ]


@lru_cache(maxsize=None)
def verify_sweep():
    """The checks of `cqs verify 200`, by section; criteria 3, 6 and 7 read it."""
    return run_checks(CONVERSION_BOUND)


def test_criterion_1_worked_example(capsys):
    with criterion(1, "worked example 1/20(1,11)", budget=1.0):
        code = main(["analyze", "nq:20/11", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        echo = doc["input_echo"]
        assert echo["cf"] == [3, 2, 2, 2, 3]
        assert doc["hilbert"]["e"] == 7
        assert doc["hilbert"]["central_index"] == 4  # Rbar = r^4
        assert echo["abc"] == {"a": 5, "b": 4, "c": 3, "c_prime": 3}
        assert doc["classification"]["index"] == 5  # a = m = 5
        assert (echo["interval"]["left"], echo["interval"]["right"]) == ("-2/5", "2/5")
        split = {(r["i"], r["k"]): r["dim_t1"] for r in doc["t1"]["per_degree"]}
        assert split == {
            (2, 1): 1, (2, 2): 1, (3, 1): 2, (4, 1): 2, (5, 1): 2, (6, 1): 1, (6, 2): 1,
        }
        assert doc["t1"]["totals"]["dim_t1"] == 10
        v_at = {(r["i"], r["k"]) for r in doc["t1"]["per_degree"] if r["dim_v"]}
        assert v_at == {(3, 1), (4, 1), (5, 1)} and doc["t1"]["totals"]["dim_v"] == 3
        vw_at = {(r["i"], r["k"]) for r in doc["t1"]["per_degree"] if r["dim_vw"]}
        assert vw_at == {(4, 1)} and doc["t1"]["totals"]["dim_vw"] == 1
        assert doc["t1"]["totals"]["dim_qg"] == 0


def test_criterion_2_total_formulas():
    with criterion(2, f"interval total formulas, n <= {SWEEP_BOUND}", budget=30.0):
        count = 0
        for report in canonical_reports():
            iv = cone_to_interval(nq_to_cone(report.nq))
            e, t = report.embdim, report.totals
            # recompute the four-case formulas from raw (g, h, m)
            z = iv.g // iv.m + 1
            grounded = iv.g < z * iv.m < iv.h
            if grounded:
                a_frac = Fraction(-iv.g, iv.m)
                b_frac = Fraction(iv.h, iv.m)
                expect_v = e - 4 + math.floor(a_frac) + math.floor(b_frac)
                expect_qg = math.floor(a_frac + b_frac)
                fa, fb = a_frac - math.floor(a_frac), b_frac - math.floor(b_frac)
                if fa == Fraction(1, iv.m) or fb == Fraction(1, iv.m):
                    expect_vw = expect_qg
                else:
                    expect_vw = math.floor(a_frac) + math.floor(b_frac) + 1
            else:
                expect_v, expect_qg, expect_vw = e - 4, 0, 0
            assert (t.dim_v, t.dim_qg, t.dim_vw) == (expect_v, expect_qg, expect_vw), report.nq
            count += 1
        assert count > 500


def test_criterion_3_oracle_equivalence():
    with criterion(3, f"zone oracles vs closed forms, n <= {CONVERSION_BOUND}", budget=120.0):
        res = verify_sweep()["deformations"]
        assert res.ok, "\n".join(res.failures[:20])
        assert res.checks == 3_093_443


def test_criterion_4_gap_dichotomy():
    with criterion(4, "V-VW gap is embdim-4 or embdim-5"):
        for report in canonical_reports():
            assert report.gap in (report.embdim - 4, report.embdim - 5), report.nq
        witnesses = [
            (report.nq, r.degree)
            for report in canonical_reports()
            if report.embdim >= 6
            for r in report.per_degree
            if r.dim_v == 1 and r.dim_vw == 0
        ]
        assert witnesses, "expected V-but-not-VW degrees at embdim >= 6"
        assert NQForm(20, 11) in {w[0] for w in witnesses}


def test_criterion_5_qg_vw_comparison():
    with criterion(5, "qG/VW comparison statements"):
        for report in canonical_reports():
            t = report.totals
            if math.gcd(report.nq.n, report.nq.q + 1) == 1:
                assert t.dim_qg == t.dim_vw == 0, report.nq
            iv = cone_to_interval(nq_to_cone(report.nq))
            if (iv.h - iv.g) % iv.m == 0 and iv.h - iv.g >= iv.m:  # |I| = (h-g)/m in {1, 2, ...}
                assert t.dim_qg == t.dim_vw, report.nq
            assert t.dim_qg <= t.dim_vw <= t.dim_qg + 1, report.nq


def test_criterion_6_roundtrips_and_invariance():
    with criterion(6, f"round-trips n <= {CONVERSION_BOUND}, mirror totals n <= {SWEEP_BOUND}"):
        res = verify_sweep()["conversions"]
        assert res.ok, "\n".join(res.failures[:20])
        assert res.checks == 97_848
        for nq in nq_range(SWEEP_BOUND, skip_degenerate=True, canonical_only=True):
            mirror = q_inverse(nq)
            rep, rep_m = totals(class_data(nq_to_cone(nq))), totals(class_data(nq_to_cone(mirror)))
            assert rep.totals == rep_m.totals, nq
            assert rep.embdim == rep_m.embdim and rep.flags == rep_m.flags, nq


def test_criterion_7_hilbert_oracle():
    with criterion(7, f"hilbert recursion vs enumeration, n <= {CONVERSION_BOUND}"):
        res = verify_sweep()["hilbert"]
        assert res.ok, "\n".join(res.failures[:20])
        assert res.checks == 337_140


def test_criterion_8_w_consistency():
    with criterion(8, f"VW = V cap W and W >= VW per degree, n <= {SWEEP_BOUND}"):
        for report in canonical_reports():
            cd = class_data(nq_to_cone(report.nq))
            h = cd.hilbert
            vw_rank = vw_dims_oracle(cd)
            w_rank = w_dims_oracle(cd)
            by_degree = {r.degree: r for r in report.per_degree}
            for d in h.degrees:
                assert by_degree[d].dim_vw == vw_rank[d], (report.nq, d)
                assert by_degree[d].dim_w == w_rank[d] >= vw_rank[d], (report.nq, d)
