"""Command-line front end.

Subcommands: convert, analyze, scan, verify, cayley.  Inputs use the
grammar  nq:20/11 | abc:5,4,3 | cone:(1,0),(-11,20) | interval:-2/5,2/5
| cf:3,2,2,2,3.  Every rational printed is an integer numerator over the
class's m, written exactly by ``_ratio`` (p/q strings, never floats).
Exit codes: 0 success, 1 verification failure, 2 parse error (an
integer past the digit limit of int() included, and a class whose n is
past it) or an input past a size bound, which the
function whose work it bounds raises as OracleBoundError: a ``verify``
bound past ORACLE_BOUND (``run_checks``), a continued fraction of more than
MAX_CF_TERMS terms (``continued_fraction``), a class with more than
MAX_T1_DEGREES T1-carrying degrees (``hilbert_basis``), whose W zones walk
more than MAX_ZONE_FIBERS fibers (``w_fast``) or whose Cayley family has
d > MAX_CAYLEY_D (``cayley_d``); 3 invalid singularity, 4 degenerate
class (embdim <= 3).  A reader that closes the pipe early (``cqs scan
400 | head``) ends the run quietly with exit 0.  ``scan`` and ``verify``
run on every CPU the process may use (``verify.fan_out``) and print the
same bytes at any count.  Each command prints its text as it is made,
so ``scan``'s rows stream as the classes are computed; ``main`` turns
off the write-through and line buffering of stdout, so that its text
layer passes the text on about 8,192 characters at a time on a pipe, on
a terminal and under PYTHONUNBUFFERED=1 alike, and flushes it on every
way out.  ``--json`` (``analyze``, ``convert``, ``cayley``)
prints the bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` from
its own writer (``_print_json``): small blocks recursively, a flat list
of ints in one ``str.join`` per JSON_ITEMS_PER_JOIN items, and each
per-degree row from one template, read from its ``DegreeReport``
(``DegreeRows``) with no dict built per row.  Every call
is a fresh interpreter that pays for each import, so only ``scan`` and
``verify`` import ``verify``, and only a command that prints JSON imports
``json``, for its string escaping.  ``analyze`` prints its human report
and its CSV rows from the records it holds (``ClassData``, ``T1Report``);
only ``--json`` builds the report document, the one output with the
Cayley ray matrix.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from collections.abc import Callable, Iterator
from math import gcd

from . import __version__
from .cone_geometry import (
    ClassData,
    OracleBoundError,
    binomial_equations,
    class_data,
    continued_fraction,
)
from .deformations import (
    CayleyFamily,
    DegreeReport,
    T1Report,
    cayley_d,
    cayley_family,
    classify,
    degree_vector,
    totals,
)
from .lattice import NPoint
from .representations import (
    ABCForm,
    CFForm,
    ConeForm,
    DegenerateSingularityError,
    IntervalUD,
    InvalidSingularityError,
    NQForm,
    SingularityForm,
    canonical_class,
    nq_to_cone,
    to_nq,
)
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_DEGENERATE = 4

SCAN_HEADER = "n,q,a,b,c,e,grounded,t_sing,dim_t1,dim_v,dim_w,dim_vw,dim_qg,gap"
DEGREE_HEADER = "i,k,deg_u,deg_v,dim_t1,dim_v,dim_w,dim_vw,dim_qg,last_deformation"
FORM_TAGS = ("nq", "abc", "cone", "interval", "cf")
# a flat JSON list of ints is joined this many items to a piece
JSON_ITEMS_PER_JOIN = 2048
# a JSON per-degree row as json.dumps(..., indent=2, sort_keys=True) prints
# it, each line after the first to be indented as deep as the row
_ROW_TEMPLATE = """{
  "degree": [
    %s,
    %s
  ],
  "dim_qg": %s,
  "dim_t1": %s,
  "dim_v": %s,
  "dim_vw": %s,
  "dim_w": %s,
  "i": %s,
  "k": %s,
  "last_deformation": %s
}"""


class ParseError(ValueError):
    """Input does not match the form grammar."""


_NQ_RE = re.compile(r"(-?\d+)/(-?\d+)")
_ABC_RE = re.compile(r"(-?\d+),(-?\d+),(-?\d+)")
_CONE_RE = re.compile(r"\((-?\d+),(-?\d+)\),\((-?\d+),(-?\d+)\)")
_RAT_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def _int(text: str) -> int:
    # int() also refuses strings longer than sys.get_int_max_str_digits()
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"not an integer, or too many digits: {text[:40]!r}") from None


def parse_form(text: str) -> SingularityForm:
    tag, sep, payload = text.partition(":")
    payload = payload.replace(" ", "")
    if not sep or tag not in FORM_TAGS:
        raise ParseError(f"expected one of {'|'.join(FORM_TAGS)} followed by ':', got {text!r}")
    if tag == "nq":
        m = _NQ_RE.fullmatch(payload)
        if not m:
            raise ParseError(f"nq wants n/q, got {payload!r}")
        return NQForm(_int(m.group(1)), _int(m.group(2)))
    if tag == "abc":
        m = _ABC_RE.fullmatch(payload)
        if not m:
            raise ParseError(f"abc wants a,b,c, got {payload!r}")
        return ABCForm(*(_int(g) for g in m.groups()))
    if tag == "cone":
        m = _CONE_RE.fullmatch(payload)
        if not m:
            raise ParseError(f"cone wants (x,y),(x,y), got {payload!r}")
        x1, y1, x2, y2 = (_int(g) for g in m.groups())
        return ConeForm(NPoint(x1, y1), NPoint(x2, y2))
    if tag == "interval":
        parts = payload.split(",")
        if len(parts) != 2 or not all(_RAT_RE.fullmatch(p) for p in parts):
            raise ParseError(f"interval wants g/m,h/m, got {payload!r}")
        g, m, h, m_h = (_int(d) for p in parts for d in _RAT_RE.fullmatch(p).groups(default="1"))
        if not m or not m_h:
            raise InvalidSingularityError(f"zero denominator in {payload!r}")
        div, div_h = gcd(g, m), gcd(h, m_h)
        if m // div != m_h // div_h:
            raise InvalidSingularityError(
                f"endpoints {_ratio(g, m)} and {_ratio(h, m_h)} do not have uniform denominators"
            )
        return IntervalUD(g // div, h // div_h, m // div)
    return CFForm(tuple(_int(p) for p in payload.split(",")))


def _ratio(p: int, q: int) -> str:
    """p/q in lowest terms for q >= 1, without "/1": ``str(Fraction(p, q))``."""
    div = gcd(p, q)
    return f"{p // div}/{q // div}" if q != div else str(p // div)


def format_form(form: SingularityForm) -> str:
    if isinstance(form, NQForm):
        return f"nq:{form.n}/{form.q}"
    if isinstance(form, ABCForm):
        return f"abc:{form.a},{form.b},{form.c}"
    if isinstance(form, ConeForm):
        return f"cone:{form.alpha},{form.beta}"
    if isinstance(form, IntervalUD):
        return f"interval:{_ratio(form.g, form.m)},{_ratio(form.h, form.m)}"
    if isinstance(form, CFForm):
        return "cf:" + ",".join(str(a) for a in form.coefficients)
    raise TypeError(type(form))


def _class_of(text: str) -> ClassData:
    """The record of the parsed class, in the standard cone of its nq.

    The five forms print integers of at most n, so a class whose n has
    more digits than str() converts is refused as a parse error.
    """
    nq = to_nq(parse_form(text))
    try:
        str(nq.n)
    except ValueError:
        raise ParseError(f"n of {text[:40]!r}... has too many digits to print") from None
    return class_data(nq_to_cone(nq))


def _forms_block(cd: ClassData, cf: tuple[int, ...]) -> dict:
    iv = cd.interval
    return {
        "nq": cd.nq._asdict(),
        "abc": {**cd.abc._asdict(), "c_prime": cd.c_prime},
        "cone": {"alpha": cd.alpha, "beta": cd.beta},
        "interval": {
            **iv._asdict(), "left": _ratio(iv.g, iv.m), "right": _ratio(iv.h, iv.m),
            "length": _ratio(iv.h - iv.g, iv.m),
        },
        "cf": cf,
        "canonical_nq": canonical_class(cd.nq)._asdict(),
    }


class DegreeRows:
    """The per-degree rows of a report document, kept as their records.

    The JSON writer prints each ``DegreeReport`` as the object of its
    fields and its degree's ``i`` and ``k``, and builds no dict per row;
    ``degree``, the degree vector, is built from the degree's iota pair
    by ``degree_vector(cd, d)`` as the row is written.
    """

    __slots__ = ("cd", "rows")

    def __init__(self, cd: ClassData, rows: tuple[DegreeReport, ...]):
        self.cd, self.rows = cd, rows


def build_report_document(cd: ClassData, report: T1Report | None) -> dict:
    """The ``--json`` document; JSON writes each tuple and point in it as an
    array, and its per-degree rows (``DegreeRows``) as objects."""
    h = cd.hilbert
    flags = classify(cd) if report is None else report.flags
    return {
        "schema_version": "1",
        "input_echo": _forms_block(cd, h.coeffs),
        "hilbert": {
            "e": h.e,
            "basis": [cd.m_point(u, v) for u, v in h.iota],
            "coeffs": h.coeffs,
            "central_degree": cd.rbar,
            "central_index": h.central_index,
            "grounded": h.grounded,
            "equations": binomial_equations(h),
        },
        "classification": {
            **flags._asdict(),
            "embdim": h.e,
            "index": cd.m,
            "interval_length": _ratio(cd.interval.h - cd.interval.g, cd.m),
        },
        "t1": None if report is None else {
            "per_degree": DegreeRows(cd, report.per_degree),
            "totals": {**report.totals._asdict(), "gap": report.gap},
        },
        "cayley": _cayley_block(cayley_family(cd)),
    }


def _cayley_block(fam: CayleyFamily) -> dict:
    return {
        "d": fam.d,
        "i_prime": {
            "left": _ratio(fam.i_prime[0], fam.denominator),
            "right": _ratio(fam.i_prime[1], fam.denominator),
            "denominator": fam.denominator,
        },
        "degenerate_base": fam.degenerate_base,
        "rays": fam.rays,
    }


def _csv(*fields) -> str:
    """The fields joined by commas, booleans as true/false."""
    return ",".join(str(f).lower() if isinstance(f, bool) else str(f) for f in fields)


def _print_json(doc: dict) -> None:
    """Print ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline.

    The text is written piece by piece as it is made, so the whole text
    is never held.
    """
    # only the commands that print JSON load json; its escaping is kept
    from json.encoder import encode_basestring_ascii

    sys.stdout.writelines(_json_pieces(doc, "", encode_basestring_ascii))
    print()


def _json_pieces(value, indent: str, string: Callable[[str], str]) -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, in pieces.

    ``indent`` is the indentation of the line that holds ``value``, whose
    items are indented two spaces more, and ``string`` quotes a str.  As
    in ``json``, a bool is tested before an int, ints print by
    ``int.__repr__`` and lists and tuples print alike; dict keys must be
    str, and any other type (a float, a Fraction, a set) raises TypeError.
    """
    if isinstance(value, str):
        yield string(value)
    elif value is None:
        yield "null"
    elif value is True:
        yield "true"
    elif value is False:
        yield "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, (list, tuple)):
        yield from _json_array(value, indent, string)
    elif isinstance(value, dict):
        yield from _json_object(value, indent, string)
    elif isinstance(value, DegreeRows):
        yield from _json_degree_rows(value, indent)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_object(obj: dict, indent: str, string: Callable[[str], str]) -> Iterator[str]:
    if not obj:
        yield "{}"
        return
    inner = indent + "  "
    sep = "{\n" + inner
    for key in sorted(obj):
        yield sep + string(key) + ": "  # string raises TypeError on a key not a str
        yield from _json_pieces(obj[key], inner, string)
        sep = ",\n" + inner
    yield "\n" + indent + "}"


def _json_array(items: list | tuple, indent: str, string: Callable[[str], str]) -> Iterator[str]:
    if not items:
        yield "[]"
        return
    inner = indent + "  "
    sep = ",\n" + inner
    head = "[\n" + inner
    for start in range(0, len(items), JSON_ITEMS_PER_JOIN):
        part = items[start:start + JSON_ITEMS_PER_JOIN]
        if set(map(type, part)) == {int}:  # a flat integer list, no bool in it
            yield head + sep.join(map(int.__repr__, part))
        else:
            for item in part:
                yield head
                yield from _json_pieces(item, inner, string)
                head = sep
        head = sep
    yield "\n" + indent + "]"


def _json_degree_rows(table: DegreeRows, indent: str) -> Iterator[str]:
    """Each row formatted from one template (``_ROW_TEMPLATE``)."""
    if not table.rows:
        yield "[]"
        return
    item = indent + "  "
    template = _ROW_TEMPLATE.replace("\n", "\n" + item)
    cd, text = table.cd, int.__repr__
    sep = "[\n" + item
    for r in table.rows:
        (i, k), t1, v, w, vw, qg, last = r
        x, y = degree_vector(cd, r.degree)
        yield sep + template % (
            text(x), text(y), text(qg), text(t1), text(v), text(vw), text(w), text(i), text(k),
            "true" if last is True else "false" if last is False else text(last),
        )
        sep = ",\n" + item
    yield "\n" + indent + "]"


def cmd_convert(args) -> int:
    cd = _class_of(args.input)
    tags = FORM_TAGS if args.all or args.json else (args.to,)
    # built only when printed, and before anything is
    cf = continued_fraction(cd.nq.n, cd.nq.n - cd.nq.q) if "cf" in tags else None
    if args.json:
        _print_json({"schema_version": "1", "forms": _forms_block(cd, cf.coefficients)})
        return EXIT_OK
    forms = dict(zip(FORM_TAGS, (cd.nq, cd.abc, ConeForm(cd.alpha, cd.beta), cd.interval, cf)))
    for tag in tags:
        print(format_form(forms[tag]))
    print(f"canonical:{format_form(canonical_class(cd.nq))}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cd = _class_of(args.input)
    # --json prints the Cayley family of any class with e >= 4 (q < n - 1);
    # its bound is checked first in every mode, so all three refuse alike
    if cd.nq.q < cd.nq.n - 1 or args.allow_degenerate:
        cayley_d(cd)
    try:
        report = totals(cd)
    except DegenerateSingularityError:
        if not args.allow_degenerate:
            raise
        report = None
    if args.json:
        _print_json(build_report_document(cd, report))
    elif args.csv:
        print(DEGREE_HEADER)
        for r in report.per_degree if report is not None else ():
            print(_csv(*r.degree, *degree_vector(cd, r.degree), *r[1:]))
    else:
        for line in _human_lines(cd, report):
            print(line)
    return EXIT_OK


def _human_lines(cd: ClassData, report: T1Report | None) -> Iterator[str]:
    """The lines of the human report, its degree table included."""
    h = cd.hilbert
    yield f"cyclic quotient singularity {format_form(cd.nq)}"
    forms = (cd.abc, ConeForm(cd.alpha, cd.beta), cd.interval, CFForm(h.coeffs))
    yield "forms: " + "  ".join(map(format_form, forms))
    yield f"canonical class: {format_form(canonical_class(cd.nq))}"
    yield f"hilbert basis (e={h.e}): " + " ".join(str(cd.m_point(u, v)) for u, v in h.iota)
    where = f" = r^{h.central_index}" if h.central_index else ""
    yield (
        f"coefficients: [{_csv(*h.coeffs)}]  central degree {cd.rbar}{where}"
        f"  index m={cd.m}  grounded: {'yes' if h.grounded else 'no'}"
    )
    equations = binomial_equations(h)
    if equations:
        yield "equations: " + ", ".join(equations)
    yield f"|I| = {_ratio(cd.interval.h - cd.interval.g, cd.m)}"
    if report is None:
        yield "deformation table skipped (embdim <= 3)"
        return
    yield ""
    yield "degree table (R = k*r^i):"
    yield "  i  k  degree      dim_t1  dim_v  dim_w  dim_vw  dim_qg  last"
    for r in report.per_degree:
        deg = str(degree_vector(cd, r.degree))
        yield (
            f"  {r.degree.i:<2} {r.degree.k:<2} {deg:<11} {r.dim_t1:<7} {r.dim_v:<6}"
            f" {r.dim_w:<6} {r.dim_vw:<7} {r.dim_qg:<7}{'  *' if r.last_deformation else ''}"
        )
    t, f = report.totals, report.flags
    yield (
        f"totals: dim_t1={t.dim_t1} dim_v={t.dim_v} dim_w={t.dim_w}"
        f" dim_vw={t.dim_vw} dim_qg={t.dim_qg}  gap(V-VW)={report.gap}"
    )
    yield (
        f"flags: grounded={_csv(f.grounded)} t_singularity={_csv(f.t_singularity)}"
        f" t0={_csv(f.t0_singularity)} qg_exists={_csv(f.qg_exists)} embdim={h.e}"
    )


def cmd_scan(args) -> int:
    if args.n_max < 2:
        raise ParseError(f"scan bound must be >= 2, got {args.n_max}")
    from .verify import fan_out, nq_range  # only scan and verify load verify

    print(SCAN_HEADER)  # before fan_out flushes stdout and forks
    classes = nq_range(args.n_max, skip_degenerate=True, canonical_only=not args.all_q)
    for row in fan_out(_scan_row, classes):
        print(row)
    return EXIT_OK


def _scan_row(nq: NQForm) -> str:
    cd = class_data(nq_to_cone(nq))
    r = totals(cd)
    return _csv(*nq, *cd.abc, r.embdim, r.flags.grounded, r.flags.t_singularity, *r.totals, r.gap)


def cmd_verify(args) -> int:
    if args.n_max < 2:
        raise ParseError(f"verify bound must be >= 2, got {args.n_max}")
    from .verify import run_checks

    results = run_checks(args.n_max)
    total = sum(res.checks for res in results.values())
    failed = sum(len(res.failures) for res in results.values())
    for name, res in results.items():
        print(f"{name}: {res.checks} checks, {len(res.failures)} mismatches")
        for msg in res.failures:
            print(f"MISMATCH {msg}")
    if failed:
        print(f"FAILED: {failed} mismatches out of {total} checks")
    else:
        print(f"all checks passed ({total} checks)")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_cayley(args) -> int:
    fam = cayley_family(_class_of(args.input))
    if args.json:
        _print_json({"schema_version": "1", "cayley": _cayley_block(fam)})
        return EXIT_OK
    print(f"d = {fam.d}")
    left, right = (_ratio(p, fam.denominator) for p in fam.i_prime)
    print(f"I' = [{left}, {right}]  (denominator {fam.denominator})")
    print(f"degenerate_base: {_csv(fam.degenerate_base)}")
    print("rays:")
    for ray in fam.rays:
        print("  (" + ", ".join(map(str, ray)) + ")")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqs",
        description="Exact classification of deformations of cyclic quotient singularities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between the five descriptions")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to", choices=FORM_TAGS, help="target description")
    group.add_argument("--all", action="store_true", help="print all five descriptions")
    group.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("analyze", help="full deformation report for one singularity")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--csv", action="store_true")
    p.add_argument(
        "--allow-degenerate",
        action="store_true",
        help="report conversions and Hilbert data even when embdim <= 3",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="CSV table over all canonical classes up to n_max")
    p.add_argument("n_max", type=int)
    p.add_argument("--all-q", action="store_true", help="do not deduplicate mirror classes")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="closed forms against brute-force oracles up to n_max")
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cayley", help="ray matrix of the unobstructed qG-family")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cayley)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if isinstance(sys.stdout, io.TextIOWrapper):
        # one batching policy for a pipe, a terminal and PYTHONUNBUFFERED=1:
        # the text layer gathers the writes, and is flushed on every way out
        sys.stdout.reconfigure(line_buffering=False, write_through=False)
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()  # before an error line, or a closed pipe's handling
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so that the
        # interpreter's final flush of the remaining buffer is silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ParseError, OracleBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateSingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except InvalidSingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
