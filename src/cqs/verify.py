"""Exhaustive cross-checks of closed forms against the lattice oracles.

Every formula in :mod:`cqs.deformations` has an independent brute-force
counterpart built on zone enumeration, and every conversion in
:mod:`cqs.representations` can be round-tripped.  ``run_checks`` sweeps
all classes (n, q) up to a bound and records every mismatch, in three
sections: conversions, hilbert and deformations.  The CLI `verify`
subcommand and the acceptance test suite both run it.  A check that
passes is only counted; only a failed one formats its message line.  The
deformation checks compute each closed form once per class and walk each
zone once, and assemble the report from those columns (W is the rank on
the kappa = -1 zone of each degree).  Each degree reads its iota size
iota(R) = k*iota(r^i) once from ``cd.hilbert.iota``, and every walk of the
degree starts from it.  Each zone is read lazily from its
``zone_walk``: the first point says whether it is empty, and the walk
goes on into its span (``zone_span``) and stops at the second
independent vector; the containment oracles of qG and VW stop at the
first point off their line, and are read only in a degree where
``v_dims_oracle``, not the closed form, finds a V-direction.  Each
direction of a degree is one integer functional on iota
(``t1_space``); every iso, stable-iso and rank test
of the degree reuses the five spans, the emptiness of the five zones
and the functionals, and a direction's iso and stable answers are tuples
indexed by the position of the zone.  The Hilbert coefficients are
compared with the mirror's continued fraction, reversed, so the
comparison does not read the expansion that built them.  ``w_fast``
decides each chain degree k*r^i, k >= 2, in closed form and walks the
zone of each k = 1 degree with ``zone_points``; the closed form, taken
once per i, is checked against the oracle's rank in every chain degree,
on the zones already walked.

Each canonical class is checked together with its mirror, q' = 1/q mod
n, in one call of ``_pair_checks``: the record of each is derived once,
the mirror identities read the partner's record, and the two reports are
compared there, so only the counts and failures go back.  ``fan_out``
spreads the pairs of a sweep over the CPUs this process may use and
hands the results back in enumeration order, in one loop at every worker
count (on one CPU it forks nothing), and ``run_checks`` merges the
classes in (n, q) order; the CLI's scan uses ``fan_out`` as well.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, groupby, islice, repeat
from math import gcd
from typing import BinaryIO

from . import cone_geometry, deformations, representations
from .cone_geometry import ClassData, class_data, eta, hilbert_basis_oracle, is_grounded
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

    def check(self, ok: bool, nq: NQForm, prop: str, d: tuple[int, int] | None = None) -> None:
        """Count one check of the property ``prop`` on the class ``nq``, at
        the degree d = (i, k) if one is given.  Only a failed check formats
        its message, ``n=.. q=.. [degree=(i,k)] property=..``."""
        self.checks += 1
        if not ok:
            at = f" degree=({d[0]},{d[1]})" if d else ""
            self.failures.append(f"n={nq.n} q={nq.q}{at} property={prop}")

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

    W is ``cpu_count()`` capped at the number of items, and every W runs
    the same loop.  Item j goes to worker j mod W: this process is worker
    0, and workers 1..W-1 are children forked (this process starts no
    threads) after stdout is flushed, so with W = 1 every item is computed
    here and nothing is forked.  Every worker walks its own copy of the
    iterator, so no list of the items is built.  A child pickles each
    result into its own pipe, or the exception that ended its share, and
    ends in ``os._exit``, so it never returns into the caller.  At each
    item's turn this process computes the item or reads it from that
    child's pipe, so results stream in enumeration order and an exception
    is raised at the turn the serial loop would raise it.  However the
    caller leaves the loop, the children are killed and reaped.
    """
    items = iter(items)
    head = list(islice(items, cpu_count()))
    workers = len(head)
    items = chain(head, items)
    children: list[tuple[int, BinaryIO]] = []
    try:
        for w in range(1, workers):
            sys.stdout.flush()  # a child inherits no unwritten text to write again
            sys.stderr.flush()
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
            # the parent reads the items in turn: unflushed, a result would
            # wait in the buffer, often until the child's whole share is done
            out.flush()


def _conversion_checks(nq: NQForm, cd: ClassData, mirror: ClassData) -> VerificationResult:
    """Round-trips through all five descriptions, plus mirror identities.

    ``cd`` is the record of nq's standard cone: ``class_data`` found its
    nq by the round trip cone -> interval -> abc -> nq, and its interval
    and c' once, so they are read from it.  ``mirror`` is the record of the
    mirror class q' = 1/q mod n, and the mirror identities read its abc
    and interval."""
    res = VerificationResult()
    abc = representations.nq_to_abc(nq)
    res.check(representations.abc_to_nq(abc) == nq, nq, "abc_roundtrip")
    res.check(cd.nq == nq, nq, "cone_interval_abc_roundtrip")
    iv = cd.interval
    res.check(
        representations.cone_to_interval(representations.interval_to_cone(iv)) == iv,
        nq, "interval_cone_interval_roundtrip",
    )
    cf = cone_geometry.continued_fraction(nq.n, nq.n - nq.q)
    res.check(representations.cf_to_nq(cf) == nq, nq, "cf_roundtrip")

    res.check((abc.a, abc.b) == (mirror.abc.a, mirror.abc.b), nq, "mirror_shares_a_b")
    res.check(IntervalUD(-iv.h, -iv.g, iv.m) == mirror.interval, nq, "mirror_interval_negation")
    res.check(cd.c_prime == mirror.abc.c, nq, "mirror_c_prime")
    res.check(
        representations.canonical_class(nq) == representations.canonical_class(q_inverse(nq)),
        nq, "canonical_class_invariance",
    )
    return res


def _hilbert_checks(cd: ClassData, mirror: ClassData) -> VerificationResult:
    """Three-term recursion against the convex-hull oracle, and eta
    identities; ``mirror`` is the record of the mirror class.  The oracle
    is compared on the iota pairs and coefficients, and the recursion is
    checked on the M-points that ``cd.m_point`` builds from the pairs."""
    res = VerificationResult()
    nq = cd.nq
    h = cd.hilbert
    res.check(h == hilbert_basis_oracle(cd), nq, "hilbert_oracle")
    # h.coeffs is the expansion of n/(n-q); the mirror's, of n/(n-q'),
    # q' = 1/q mod n, is the same sequence reversed
    res.check(h.coeffs == mirror.hilbert.coeffs[::-1], nq, "hilbert_coeffs_vs_cf")
    r = [cd.m_point(u, v) for u, v in h.iota]  # the pairs the oracle just matched
    for i, (prev, mid, succ) in enumerate(zip(r, r[1:], r[2:]), 2):
        res.check(prev + succ == h.coefficient(i) * mid, nq, "three_term_recursion", (i, 1))
    # adjacent r^j, r^(j+1) form a Z-basis of M iff their iota pairs, which
    # span a sublattice of index n in iota(M), have determinant +-n
    iota = h.iota
    res.check(
        all(
            abs(u * v_next - v * u_next) == nq.n
            for (u, v), (u_next, v_next) in zip(iota, iota[1:])
        ),
        nq, "adjacent_z_basis",
    )
    # u strictly increasing and v strictly decreasing along the basis
    res.check(
        all(u < u_next and v > v_next for (u, v), (u_next, v_next) in zip(iota, iota[1:])),
        nq, "pairing_monotonicity",
    )
    if h.e >= 4:
        # with e = 3 both eta ratios equal a_2 exactly and the floor
        # identity fails; it is only claimed away from A_(n-1)
        for i in range(2, h.e):
            p, q = eta(cd, i)
            res.check(p // q == h.coefficient(i) - 1, nq, "eta_floor", (i, 1))
    iv = cd.interval
    res.check(is_grounded(iv) == h.grounded, nq, "grounded_equivalence")
    if h.grounded and h.e >= 4:
        ab = cd.ab
        ell = h.central_index
        res.check(h.coefficient(ell) == ab.a_central, nq, "central_a_from_interval")
        # eta_ell = 1 + min(floor(A) + B, A + floor(B)) and |I| = A + B,
        # cross-multiplied: A = floor_a + rem_a/m, B = floor_b + rem_b/m
        m, (p, q) = cd.m, eta(cd, ell)
        central = m * (1 + ab.floor_a + ab.floor_b) + min(ab.rem_a, ab.rem_b)
        res.check(p * m == central * q, nq, "central_eta_from_interval")
        res.check(
            iv.h - iv.g == m * (ab.floor_a + ab.floor_b) + ab.rem_a + ab.rem_b,
            nq, "interval_length_AB",
        )
    return res


def _deformation_checks(cd: ClassData) -> tuple[VerificationResult, T1Report | None]:
    """The checks of one class and its report; an exception is recorded as
    one failed check, and the class then has no report."""
    res = VerificationResult()
    try:
        return res, _verify_one_class(cd, res)
    except Exception as exc:  # record, keep sweeping
        res.check(False, cd.nq, f"exception: {exc!r}")
        return res, None


def _verify_one_class(cd: ClassData, res: VerificationResult) -> T1Report:
    h, m, nq, iota = cd.hilbert, cd.m, cd.nq, cd.hilbert.iota
    check = res.check

    v = deformations.v_dims(cd)
    qg = deformations.qg_dims(cd)
    vw = deformations.vw_dims(cd)
    v_oracle = deformations.v_dims_oracle(cd)
    w: dict[DegreeId, int] = {}
    # the oracles called once per zone or direction, looked up once per class
    zone_walk, zone_span = deformations.zone_walk, deformations.zone_span
    iso_oracle, stable_iso_oracle = deformations.iso_oracle, deformations.stable_iso_oracle
    # the five M-zones of a degree by position; the stable oracle is read at
    # kappa = 0, -1 and m, each against the zone shifted by m: the positions
    # of the two zones and the name of the check
    kappas = (0, -1, m - 1, m, 2 * m)
    shifts = [
        (j, shifted, f"stable_iso_two_shifts(kappa={kappas[j]})")
        for j, shifted in ((0, 3), (1, 2), (3, 4))
    ]

    for d in h.degrees:
        # every zone of the degree has the size (u_R, v_R) = iota(R) =
        # k*iota(r^i).  Each M-zone is walked once and read once: its first
        # point says whether it is empty, and the walk goes on into the span
        # of its points against the base iota(kappa*R), which stops at the
        # second independent vector; every direction is judged on the spans,
        # and the span at kappa = -1 also gives the W and VW ranks
        u_i, v_i = iota[d.i - 1]
        u_r, v_r = size = d.k * u_i, d.k * v_i
        nonempty, spans = [], []
        for kappa in kappas:
            walk = zone_walk(cd, size, kappa)
            first = next(walk, None)
            nonempty.append(first is not None)
            base = kappa * u_r, kappa * v_r
            spans.append(zone_span(chain((first,), walk), base) if first else ())
        w[d] = deformations._constrained_dim(cd, d, spans[1], False)
        if d.k == 2:
            # the chain k*r^i starts: its threshold, once per i
            threshold = deformations.w_chain_threshold(cd, d.i)
        if d.k >= 2:
            # w_fast decides the chain in closed form; the rank is the oracle
            check(int(d.k < threshold) == w[d], nq, "w_fast_vs_oracle", d)
        check(v[d] == v_oracle[d], nq, "v_phi_kernel", d)
        # the oracle side reads the V oracle, never the closed form
        qg_held = v_oracle[d] >= 1 and deformations.qg_oracle(cd, d)
        check((qg[d] == 1) == qg_held, nq, "qg_zone_oracle", d)
        vw_held = v_oracle[d] >= 1 and deformations.vw_oracle(cd, d)
        check((vw[d] == 1) == vw_held, nq, "vw_zone_oracle", d)
        vw_rank = deformations._constrained_dim(cd, d, spans[1], True)
        check(vw[d] == vw_rank, nq, "vw_rank_oracle", d)
        phi = deformations.phi_vector(cd, d)
        for f in deformations.t1_space(cd, d):
            iso = tuple(map(iso_oracle, repeat(f), spans))
            # the stable oracle takes the iso read of the same zone
            stable = tuple([stable_iso_oracle(f, phi, nonempty[j], iso[j]) for j, _, _ in shifts])
            check(iso[0], nq, "iso0_automatic", d)
            phi_zero = f[0] * phi[0] + f[1] * phi[1] == 0
            check(stable[0] == phi_zero, nq, "stable_iso0_is_phi_kernel", d)
            for held, (j, shifted, prop) in zip(stable, shifts):
                check(held == (iso[j] and iso[shifted]), nq, prop, d)

    if h.grounded:
        ab = cd.ab
        ell = h.central_index
        last = DegreeId(ell, ab.a_central - 1)
        # {A} + {B} >= 1, and then whether {A} or {B} is 1/m
        check((qg[last] == 1) == (ab.rem_a + ab.rem_b >= m), nq, "last_deformation_qg", last)
        if ab.rem_a != 1 and ab.rem_b != 1:
            check(vw[last] == 1, nq, "last_deformation_vw", last)
        else:
            check(vw[last] == qg[last], nq, "last_deformation_vw_is_qg", last)
        qg_ks = [d.k for d, dim in qg.items() if dim == 1]
        check(sorted(qg_ks) == list(range(1, len(qg_ks) + 1)), nq, "qg_initial_segment")

    # assemble_report runs the theorem checks internally
    report = deformations.assemble_report(cd, v, qg, vw, w)
    res.checks += 1
    for r in report.per_degree:
        check(vw[r.degree] <= r.dim_w, nq, "w_contains_vw", r.degree)
    return report


def _columns(r: DegreeReport) -> tuple[int, ...]:
    return r.dim_t1, r.dim_v, r.dim_w, r.dim_vw, r.dim_qg


def run_checks(n_max: int) -> dict[str, VerificationResult]:
    """The full suite at one bound, as run by the CLI verify subcommand.

    Every class with 2 <= n <= n_max gets its conversion and Hilbert
    checks, and every class but the degenerate q = n - 1 its per-degree
    oracle equivalences and theorem checks, and is compared with its
    mirror.  Each canonical class is checked together with its mirror by
    ``fan_out``, and the classes of each n are merged section by section
    in order of q, so the counts and the order of the failures are the
    same at any number of CPUs.  A bound past ORACLE_BOUND is refused with
    OracleBoundError before any class is built.
    """
    if n_max > cone_geometry.ORACLE_BOUND:
        raise cone_geometry.OracleBoundError(
            f"verify bound {n_max} exceeds the oracle guard {cone_geometry.ORACLE_BOUND}"
        )
    names = ("conversions", "hilbert", "deformations")
    results = {name: VerificationResult() for name in names}
    pairs = fan_out(_pair_checks, nq_range(n_max, canonical_only=True))
    for _, same_n in groupby(pairs, key=lambda pair: pair[0][0].n):
        for _, sections in sorted(chain.from_iterable(same_n), key=lambda c: c[0].q):
            for name, res in zip(names, sections):
                results[name].merge(res)
    return results


def _pair_checks(nq: NQForm) -> list[tuple[NQForm, tuple[VerificationResult, ...]]]:
    """The conversion, Hilbert and deformation checks of the canonical
    class nq and of its mirror, each record derived once (a self-mirror
    class is checked once); the degenerate class q = n - 1 (embdim 3) gets
    no deformation checks.  The mirror comparison of the two reports
    follows the later class's deformation checks, under nq."""
    mirror_nq = q_inverse(nq)
    cd = class_data(representations.nq_to_cone(nq))
    mirror = cd if mirror_nq == nq else class_data(representations.nq_to_cone(mirror_nq))
    sides = [(nq, cd, mirror)] + ([(mirror_nq, mirror, cd)] if mirror is not cd else [])
    classes, reports = [], []
    for own, record, partner in sides:
        defo, report = VerificationResult(), None
        if own.q != own.n - 1:
            defo, report = _deformation_checks(record)
        sections = _conversion_checks(own, record, partner), _hilbert_checks(record, partner), defo
        classes.append((own, sections))
        reports.append(report)
    if None not in reports:
        first, later = reports[0], reports[-1]
        defo.check(
            first.totals == later.totals and first.embdim == later.embdim,
            nq, "totals_mirror_invariance",
        )
        flipped = {
            DegreeId(first.embdim + 1 - r.degree.i, r.degree.k): _columns(r)
            for r in later.per_degree
        }
        own_columns = {r.degree: _columns(r) for r in first.per_degree}
        defo.check(own_columns == flipped, nq, "per_degree_mirror_reversal")
    return classes
