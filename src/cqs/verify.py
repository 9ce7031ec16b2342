"""Exhaustive cross-checks of closed forms against the lattice oracles.

Every formula in :mod:`cqs.deformations` has an independent brute-force
counterpart built on zone enumeration, and every conversion in
:mod:`cqs.representations` can be round-tripped.  This module sweeps all
classes (n, q) up to a bound and records every mismatch; the CLI `verify`
subcommand and the acceptance test suite both run on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import cone_geometry, deformations, representations
from .cone_geometry import ClassData, class_data, eta, hilbert_basis_oracle, is_grounded
from .deformations import DeformationDirection, DegreeId, T1Report
from .lattice import det2_m, pairing
from .representations import IntervalUD, NQForm, q_inverse


@dataclass
class VerificationResult:
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    witnesses_v_not_vw: list[tuple[NQForm, DegreeId]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, ok: bool, msg: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(msg)


def nq_range(n_max: int, skip_degenerate: bool = False, canonical_only: bool = False):
    """All NQForm with 2 <= n <= n_max, optionally dropping q = n-1 / mirrors."""
    for n in range(2, n_max + 1):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue
            if skip_degenerate and q == n - 1:
                continue
            nq = NQForm(n, q)
            if canonical_only and q_inverse(nq).q < q:
                continue
            yield nq


def verify_conversions(n_max: int) -> VerificationResult:
    """Round-trips through all five descriptions, plus mirror identities."""
    res = VerificationResult()
    for nq in nq_range(n_max):
        where = f"n={nq.n} q={nq.q}"
        abc = representations.nq_to_abc(nq)
        res.check(representations.abc_to_nq(abc) == nq, f"{where} property=abc_roundtrip")
        cone = representations.nq_to_cone(nq)
        iv = representations.cone_to_interval(cone)
        res.check(
            representations.abc_to_nq(representations.interval_to_abc(iv)) == nq,
            f"{where} property=cone_interval_abc_roundtrip",
        )
        res.check(
            representations.cone_to_interval(representations.interval_to_cone(iv)) == iv,
            f"{where} property=interval_cone_interval_roundtrip",
        )
        cf = cone_geometry.continued_fraction(nq.n, nq.n - nq.q)
        res.check(representations.cf_to_nq(cf) == nq, f"{where} property=cf_roundtrip")

        mirror = q_inverse(nq)
        abc_m = representations.nq_to_abc(mirror)
        res.check(
            (abc.a, abc.b) == (abc_m.a, abc_m.b), f"{where} property=mirror_shares_a_b"
        )
        iv_m = representations.cone_to_interval(representations.nq_to_cone(mirror))
        res.check(
            IntervalUD(-iv.h, -iv.g, iv.m) == iv_m, f"{where} property=mirror_interval_negation"
        )
        res.check(
            representations.mirror_c(iv) == abc_m.c, f"{where} property=mirror_c_prime"
        )
        res.check(
            representations.canonical_class(nq) == representations.canonical_class(mirror),
            f"{where} property=canonical_class_invariance",
        )
    return res


def verify_hilbert(n_max: int) -> VerificationResult:
    """Three-term recursion against the convex-hull oracle, and eta identities."""
    res = VerificationResult()
    for nq in nq_range(n_max):
        where = f"n={nq.n} q={nq.q}"
        cd = class_data(representations.nq_to_cone(nq))
        h = cd.hilbert
        res.check(h == hilbert_basis_oracle(cd), f"{where} property=hilbert_oracle")
        res.check(
            h.coeffs == cone_geometry.continued_fraction(nq.n, nq.n - nq.q).coefficients,
            f"{where} property=hilbert_coeffs_vs_cf",
        )
        for i in range(2, h.e):
            ok = h.element(i - 1) + h.element(i + 1) == h.coefficient(i) * h.element(i)
            res.check(ok, f"{where} degree=({i},1) property=three_term_recursion")
        res.check(
            all(abs(det2_m(h.basis[j], h.basis[j + 1])) == 1 for j in range(h.e - 1)),
            f"{where} property=adjacent_z_basis",
        )
        alphas = [pairing(cd.alpha, r) for r in h.basis]
        betas = [pairing(cd.beta, r) for r in h.basis]
        res.check(
            alphas == sorted(alphas) and betas == sorted(betas, reverse=True),
            f"{where} property=pairing_monotonicity",
        )
        if h.e >= 4:
            # with e = 3 both eta ratios equal a_2 exactly and the floor
            # identity fails; it is only claimed away from A_(n-1)
            for i in range(2, h.e):
                value = eta(cd, i)
                res.check(
                    value.numerator // value.denominator == h.coefficient(i) - 1,
                    f"{where} degree=({i},1) property=eta_floor",
                )
        iv = cd.interval
        res.check(is_grounded(iv) == h.grounded, f"{where} property=grounded_equivalence")
        if h.grounded and h.e >= 4:
            ab = cd.ab
            ell = h.central_index
            res.check(
                h.coefficient(ell) == ab.a_central, f"{where} property=central_a_from_interval"
            )
            res.check(
                eta(cd, ell) == 1 + min(ab.floor_a + ab.B, ab.A + ab.floor_b),
                f"{where} property=central_eta_from_interval",
            )
            res.check(iv.length == ab.A + ab.B, f"{where} property=interval_length_AB")
    return res


def verify_deformations(n_max: int) -> VerificationResult:
    """Per-degree oracle equivalences plus total/mirror/theorem sweeps.

    The record and report of a mirror class, built for the mirror
    comparison, are kept until the sweep reaches that class.
    """
    res = VerificationResult()
    mirrors: dict[NQForm, tuple[ClassData, T1Report]] = {}
    for nq in nq_range(n_max, skip_degenerate=True):
        where = f"n={nq.n} q={nq.q}"
        try:
            _verify_one_class(nq, res, mirrors)
        except Exception as exc:  # record, keep sweeping
            res.checks += 1
            res.failures.append(f"{where} property=exception: {exc!r}")
    return res


def _verify_one_class(
    nq: NQForm, res: VerificationResult, mirrors: dict[NQForm, tuple[ClassData, T1Report]]
) -> None:
    cd, report = mirrors.pop(nq, None) or (class_data(representations.nq_to_cone(nq)), None)
    h, m = cd.hilbert, cd.m
    where = f"n={nq.n} q={nq.q}"

    v = deformations.v_dims(cd)
    qg = deformations.qg_dims(cd)
    vw = deformations.vw_dims(cd)
    v_oracle = deformations.v_dims_oracle(cd)
    vw_oracle_rank = deformations.vw_dims_oracle(cd)

    for d in deformations.t1_degrees(h):
        at = f"{where} degree=({d.i},{d.k})"
        vec = deformations.degree_vector(h, d)
        res.check(v[d] == v_oracle[d], f"{at} property=v_phi_kernel")
        res.check(
            (qg[d] == 1) == (v[d] >= 1 and deformations.qg_oracle(vec, cd)),
            f"{at} property=qg_zone_oracle",
        )
        res.check(
            (vw[d] == 1) == (v[d] >= 1 and deformations.vw_oracle(vec, cd)),
            f"{at} property=vw_zone_oracle",
        )
        res.check(vw[d] == vw_oracle_rank[d], f"{at} property=vw_rank_oracle")
        for a in deformations.t1_space(cd, d):
            xi = DeformationDirection(a, d)
            res.check(
                deformations.iso_oracle(xi, 0, cd), f"{at} property=iso0_automatic"
            )
            phi_zero = deformations.phi_functional(vec, a, cd) == 0
            res.check(
                deformations.stable_iso_oracle(xi, 0, cd) == phi_zero,
                f"{at} property=stable_iso0_is_phi_kernel",
            )
            for kappa in (0, -1, m):
                two_shifts = deformations.iso_oracle(xi, kappa, cd) and deformations.iso_oracle(
                    xi, kappa + m, cd
                )
                res.check(
                    deformations.stable_iso_oracle(xi, kappa, cd) == two_shifts,
                    f"{at} property=stable_iso_two_shifts(kappa={kappa})",
                )

    if h.grounded:
        ab = cd.ab
        ell = h.central_index
        last = DegreeId(ell, ab.a_central - 1)
        res.check(
            (qg[last] == 1) == (ab.frac_a + ab.frac_b >= 1),
            f"{where} degree=({last.i},{last.k}) property=last_deformation_qg",
        )
        one_over_m = Fraction(1, m)
        if ab.frac_a != one_over_m and ab.frac_b != one_over_m:
            res.check(
                vw[last] == 1,
                f"{where} degree=({last.i},{last.k}) property=last_deformation_vw",
            )
        else:
            res.check(
                vw[last] == qg[last],
                f"{where} degree=({last.i},{last.k}) property=last_deformation_vw_is_qg",
            )
        qg_ks = [d.k for d, dim in qg.items() if dim == 1]
        res.check(
            sorted(qg_ks) == list(range(1, len(qg_ks) + 1)),
            f"{where} property=qg_initial_segment",
        )

    # totals runs the theorem checks internally
    report = report or deformations.totals(cd)
    res.checks += 1
    for r in report.per_degree:
        res.check(
            vw[r.degree] <= r.dim_w,
            f"{where} degree=({r.degree.i},{r.degree.k}) property=w_contains_vw",
        )
    mirror = q_inverse(nq)
    if nq.q <= mirror.q:
        mirror_report = report
        if mirror != nq:
            mirror_cd = class_data(representations.nq_to_cone(mirror))
            mirror_report = deformations.totals(mirror_cd)
            mirrors[mirror] = (mirror_cd, mirror_report)
        res.check(
            report.totals == mirror_report.totals and report.embdim == mirror_report.embdim,
            f"{where} property=totals_mirror_invariance",
        )
        flipped = {
            DegreeId(report.embdim + 1 - r.degree.i, r.degree.k): (
                r.dim_t1,
                r.dim_v,
                r.dim_w,
                r.dim_vw,
                r.dim_qg,
            )
            for r in mirror_report.per_degree
        }
        own = {
            r.degree: (r.dim_t1, r.dim_v, r.dim_w, r.dim_vw, r.dim_qg)
            for r in report.per_degree
        }
        res.check(own == flipped, f"{where} property=per_degree_mirror_reversal")

    if report.embdim >= 6:
        for r in report.per_degree:
            if r.dim_v == 1 and r.dim_vw == 0:
                res.witnesses_v_not_vw.append((nq, r.degree))
                break


def run_checks(n_max: int) -> dict[str, VerificationResult]:
    """The full suite at one bound, as run by the CLI verify subcommand."""
    return {
        "conversions": verify_conversions(n_max),
        "hilbert": verify_hilbert(n_max),
        "deformations": verify_deformations(n_max),
    }
