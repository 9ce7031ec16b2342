"""Exhaustive cross-checks of closed forms against the lattice oracles.

Every formula in :mod:`cqs.deformations` has an independent brute-force
counterpart built on zone enumeration, and every conversion in
:mod:`cqs.representations` can be round-tripped.  ``run_checks`` sweeps
all classes (n, q) up to a bound and records every mismatch, in three
sections: conversions, hilbert and deformations.  The CLI `verify`
subcommand and the acceptance test suite both run it.  The deformation
checks compute each closed form once per class and walk each zone once,
and assemble the report from those columns (W is the rank on the
kappa = -1 zone of each degree).  Each zone is read lazily from its
``zone_walk``: the first point says whether it is empty, and the walk
goes on into its span (``zone_span``) and stops at the second
independent vector; the containment oracles of qG and VW stop at the
first point off their line.  Each direction of a degree is one integer
functional on iota (``t1_space``); every iso, stable-iso and rank test
of the degree reuses the five spans, the emptiness of the five zones
and the functionals.  The Hilbert coefficients are compared with the
mirror's continued fraction, reversed, so the comparison does not read
the expansion that built them.  ``w_fast`` decides each chain degree
k*r^i, k >= 2, in closed form and walks the zone of each k = 1 degree
with ``zone_points``; the closed form, taken once per i, is checked
against the oracle's rank in every chain degree, on the zones already
walked.

The per-class checks run through ``fan_out``, which spreads the classes
of a sweep over the CPUs this process may use and hands the results back
in enumeration order; the CLI's scan uses it as well.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import chain, islice
from math import gcd
from typing import BinaryIO

from . import cone_geometry, deformations, representations
from .cone_geometry import ClassData, ZoneSpec, class_data, eta, hilbert_basis_oracle, is_grounded
from .deformations import DegreeId, DegreeReport, T1Report
from .representations import IntervalUD, NQForm, q_inverse


class VerificationResult:
    """The number of checks made and the message of each that failed."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, ok: bool, msg: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(msg)

    def merge(self, other: VerificationResult) -> None:
        self.checks += other.checks
        self.failures += other.failures


def nq_range(n_max: int, skip_degenerate: bool = False, canonical_only: bool = False):
    """All NQForm with 2 <= n <= n_max, optionally dropping q = n-1 / mirrors."""
    for n in range(2, n_max + 1):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue
            if skip_degenerate and q == n - 1:
                continue
            if canonical_only and pow(q, -1, n) < q:  # the mirror q' = 1/q mod n comes first
                continue
            yield NQForm(n, q)


def cpu_count() -> int:
    """The number of CPUs this process may run on: its affinity mask, else
    the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def fan_out(work: Callable, items: Iterable) -> Iterator:
    """``work(item)`` for every item, yielded in order, in W processes.

    W is ``cpu_count()`` capped at the number of items; with W = 1 every
    item is computed here.  Otherwise item j goes to worker j mod W: this
    process is worker 0, and workers 1..W-1 are children forked (this
    process starts no threads) after stdout is flushed.  Every worker
    walks its own copy of the iterator, so no list of the items is built.
    A child pickles each result into its own pipe, or the exception that
    ended its share, and ends in ``os._exit``, so it never returns into
    the caller.  At each item's turn this process computes the item or
    reads it from that child's pipe, so results stream in enumeration
    order and an exception is raised at the turn the serial loop would
    raise it.  However the caller leaves the loop, the children are
    killed and reaped.
    """
    items = iter(items)
    head = list(islice(items, cpu_count()))
    workers = len(head)
    items = chain(head, items)
    if workers <= 1:
        yield from map(work, items)
        return
    import pickle
    import signal

    sys.stdout.flush()
    sys.stderr.flush()
    children: list[tuple[int, BinaryIO]] = []
    try:
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(rfd)
                    for _, reader in children:
                        reader.close()
                    _serve(work, islice(items, w, None, workers), wfd)
                finally:
                    os._exit(0)
            os.close(wfd)
            children.append((pid, os.fdopen(rfd, "rb")))
        for j, item in enumerate(items):
            if not j % workers:
                yield work(item)
                continue
            try:
                ok, value = pickle.load(children[j % workers - 1][1])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker {j % workers} ended before item {j}") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid, reader in children:
            reader.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _serve(work: Callable, share: Iterable, fd: int) -> None:
    """Write (True, work(item)) for each item of a worker's share to fd,
    or (False, exception) for the first item that raises, and stop there."""
    import pickle

    with os.fdopen(fd, "wb") as out:
        for item in share:
            try:
                out.write(pickle.dumps((True, work(item))))
            except Exception as exc:
                try:
                    message = pickle.dumps((False, exc))
                    pickle.loads(message)
                except Exception:  # an exception that does not survive pickling
                    message = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
                out.write(message)
                return
            out.flush()


def _conversion_checks(nq: NQForm) -> VerificationResult:
    """Round-trips through all five descriptions, plus mirror identities."""
    res = VerificationResult()
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
    res.check((abc.a, abc.b) == (abc_m.a, abc_m.b), f"{where} property=mirror_shares_a_b")
    iv_m = representations.cone_to_interval(representations.nq_to_cone(mirror))
    res.check(
        IntervalUD(-iv.h, -iv.g, iv.m) == iv_m, f"{where} property=mirror_interval_negation"
    )
    res.check(representations.mirror_c(iv) == abc_m.c, f"{where} property=mirror_c_prime")
    res.check(
        representations.canonical_class(nq) == representations.canonical_class(mirror),
        f"{where} property=canonical_class_invariance",
    )
    return res


def _hilbert_checks(cd: ClassData) -> VerificationResult:
    """Three-term recursion against the convex-hull oracle, and eta identities."""
    res = VerificationResult()
    nq = cd.nq
    where = f"n={nq.n} q={nq.q}"
    h = cd.hilbert
    res.check(h == hilbert_basis_oracle(cd), f"{where} property=hilbert_oracle")
    # h.coeffs is the expansion of n/(n-q); the mirror's expansion of
    # n/(n-q'), q' = 1/q mod n, is the same sequence reversed
    mirror_cf = cone_geometry.continued_fraction(nq.n, nq.n - q_inverse(nq).q)
    res.check(h.coeffs == mirror_cf.coefficients[::-1], f"{where} property=hilbert_coeffs_vs_cf")
    for i in range(2, h.e):
        ok = h.element(i - 1) + h.element(i + 1) == h.coefficient(i) * h.element(i)
        res.check(ok, f"{where} degree=({i},1) property=three_term_recursion")
    # adjacent r^j, r^(j+1) form a Z-basis of M iff their iota pairs, which
    # span a sublattice of index n in iota(M), have determinant +-n
    iota = cd.iota_basis
    res.check(
        all(
            abs(u * v_next - v * u_next) == nq.n
            for (u, v), (u_next, v_next) in zip(iota, iota[1:])
        ),
        f"{where} property=adjacent_z_basis",
    )
    alphas = [u for u, _ in iota]
    betas = [v for _, v in iota]
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


def _deformation_checks(cd: ClassData) -> tuple[VerificationResult, T1Report | None]:
    """The checks of one class and its report; an exception is recorded as
    one failed check, and the class then has no report."""
    res = VerificationResult()
    try:
        return res, _verify_one_class(cd, res)
    except Exception as exc:  # record, keep sweeping
        res.check(False, f"n={cd.nq.n} q={cd.nq.q} property=exception: {exc!r}")
        return res, None


def _verify_one_class(cd: ClassData, res: VerificationResult) -> T1Report:
    h, m = cd.hilbert, cd.m
    where = f"n={cd.nq.n} q={cd.nq.q}"

    v = deformations.v_dims(cd)
    qg = deformations.qg_dims(cd)
    vw = deformations.vw_dims(cd)
    v_oracle = deformations.v_dims_oracle(cd)
    w: dict[DegreeId, int] = {}

    for d in deformations.t1_degrees(h):
        at = f"{where} degree=({d.i},{d.k})"
        vec = deformations.degree_vector(h, d)
        u_i, v_i = cd.iota_basis[d.i - 1]
        # each M-zone of the degree is walked once and read once: its first
        # point says whether it is empty, and the walk goes on into the span
        # of its points against the base iota(kappa*R), which stops at the
        # second independent vector; every direction is judged on the
        # spans, and the span at kappa = -1 also gives the W and VW ranks
        nonempty, spans = {}, {}
        for kappa in (0, -1, m - 1, m, 2 * m):
            walk = deformations.zone_walk(ZoneSpec(vec, kappa), cd)
            first = next(walk, None)
            nonempty[kappa] = first is not None
            base = kappa * d.k * u_i, kappa * d.k * v_i
            spans[kappa] = deformations.zone_span(chain((first,), walk), base) if first else ()
        w[d] = deformations._constrained_dim(cd, d, spans[-1], False)
        if d.k == 2:
            # the chain k*r^i starts: its threshold, once per i
            threshold = deformations.w_chain_threshold(cd, d.i)
        if d.k >= 2:
            # w_fast decides the chain in closed form; the rank is the oracle
            res.check(int(d.k < threshold) == w[d], f"{at} property=w_fast_vs_oracle")
        res.check(v[d] == v_oracle[d], f"{at} property=v_phi_kernel")
        res.check(
            (qg[d] == 1) == (v[d] >= 1 and deformations.qg_oracle(vec, cd)),
            f"{at} property=qg_zone_oracle",
        )
        res.check(
            (vw[d] == 1) == (v[d] >= 1 and deformations.vw_oracle(vec, cd)),
            f"{at} property=vw_zone_oracle",
        )
        res.check(
            vw[d] == deformations._constrained_dim(cd, d, spans[-1], True),
            f"{at} property=vw_rank_oracle",
        )
        phi = deformations.phi_vector(cd, d)
        for f in deformations.t1_space(cd, d):
            iso = {kappa: deformations.iso_oracle(f, span) for kappa, span in spans.items()}
            # the stable oracle takes the iso read of the same zone
            stable = {
                kappa: deformations.stable_iso_oracle(f, phi, nonempty[kappa], iso[kappa])
                for kappa in (0, -1, m)
            }
            res.check(iso[0], f"{at} property=iso0_automatic")
            phi_zero = f[0] * phi[0] + f[1] * phi[1] == 0
            res.check(stable[0] == phi_zero, f"{at} property=stable_iso0_is_phi_kernel")
            for kappa in (0, -1, m):
                res.check(
                    stable[kappa] == (iso[kappa] and iso[kappa + m]),
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

    # assemble_report runs the theorem checks internally
    report = deformations.assemble_report(cd, v, qg, vw, w)
    res.checks += 1
    for r in report.per_degree:
        res.check(
            vw[r.degree] <= r.dim_w,
            f"{where} degree=({r.degree.i},{r.degree.k}) property=w_contains_vw",
        )
    return report


def _merge_deformations(
    res: VerificationResult, mirrors: dict[NQForm, tuple[str, T1Report]],
    nq: NQForm, class_res: VerificationResult, report: T1Report | None,
) -> None:
    """Add the checks of one class, then compare it with its mirror once
    the sweep, in (n, q) order, has reached both: a class leaves its report
    in ``mirrors`` until then."""
    res.merge(class_res)
    if report is None:
        return
    where = f"n={nq.n} q={nq.q}"
    mirror = q_inverse(nq)
    if nq.q <= mirror.q:
        mirrors[mirror] = (where, report)
    if nq in mirrors:  # the mirror's turn; a self-mirror class is its own mirror
        first_where, first = mirrors.pop(nq)
        res.check(
            first.totals == report.totals and first.embdim == report.embdim,
            f"{first_where} property=totals_mirror_invariance",
        )
        flipped = {
            DegreeId(first.embdim + 1 - r.degree.i, r.degree.k): _columns(r)
            for r in report.per_degree
        }
        own = {r.degree: _columns(r) for r in first.per_degree}
        res.check(own == flipped, f"{first_where} property=per_degree_mirror_reversal")


def _columns(r: DegreeReport) -> tuple[int, ...]:
    return r.dim_t1, r.dim_v, r.dim_w, r.dim_vw, r.dim_qg


def run_checks(n_max: int) -> dict[str, VerificationResult]:
    """The full suite at one bound, as run by the CLI verify subcommand.

    Every class with 2 <= n <= n_max gets its conversion and Hilbert
    checks, and every class but the degenerate q = n - 1 its per-degree
    oracle equivalences and theorem checks, and is compared with its
    mirror.  The classes are checked with ``fan_out`` and merged section by
    section in (n, q) order, so the counts and the order of the failures
    are the same at any number of CPUs.
    """
    results = {name: VerificationResult() for name in ("conversions", "hilbert", "deformations")}
    mirrors: dict[NQForm, tuple[str, T1Report]] = {}
    for nq, conv, hil, defo in fan_out(_class_checks, nq_range(n_max)):
        results["conversions"].merge(conv)
        results["hilbert"].merge(hil)
        if defo is not None:
            _merge_deformations(results["deformations"], mirrors, nq, *defo)
    return results


def _class_checks(nq: NQForm):
    # one record serves the Hilbert and the deformation checks; the
    # degenerate class q = n - 1 (embdim 3) gets no deformation checks
    cd = class_data(representations.nq_to_cone(nq))
    defo = None if nq.q == nq.n - 1 else _deformation_checks(cd)
    return nq, _conversion_checks(nq), _hilbert_checks(cd), defo
