"""Command-line front end.

Subcommands: convert, analyze, scan, verify, cayley.  Inputs use the
grammar  nq:20/11 | abc:5,4,3 | cone:(1,0),(-11,20) | interval:-2/5,2/5
| cf:3,2,2,2,3.  Machine output serializes every rational exactly (p/q
strings, never floats).  Exit codes: 0 success, 1 verification failure,
2 parse error (an integer past the digit limit of int() included) or a
CQS_ORACLE_BOUND that is not an integer >= 2, 3 invalid singularity,
4 degenerate class (embdim <= 3).  A reader that closes the pipe early
(``cqs scan 400 | head``) ends the run quietly with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .cone_geometry import (
    ClassData,
    OracleBoundError,
    binomial_equations,
    class_data,
    oracle_bound,
)
from .deformations import CayleyFamily, T1Report, cayley_family, classify, totals
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
from .verify import nq_range, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_DEGENERATE = 4

SCAN_HEADER = "n,q,a,b,c,e,grounded,t_sing,dim_t1,dim_v,dim_w,dim_vw,dim_qg,gap"
DEGREE_HEADER = "i,k,deg_u,deg_v,dim_t1,dim_v,dim_w,dim_vw,dim_qg,last_deformation"
FORM_TAGS = ("nq", "abc", "cone", "interval", "cf")


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
        nums = [_int(d) for p in parts for d in _RAT_RE.fullmatch(p).groups(default="1")]
        try:
            left, right = Fraction(*nums[:2]), Fraction(*nums[2:])
        except ZeroDivisionError:
            raise InvalidSingularityError(f"zero denominator in {payload!r}") from None
        if left.denominator != right.denominator:
            raise InvalidSingularityError(
                f"endpoints {left} and {right} do not have uniform denominators"
            )
        return IntervalUD(left.numerator, right.numerator, left.denominator)
    return CFForm(tuple(_int(p) for p in payload.split(",")))


def format_form(form: SingularityForm) -> str:
    if isinstance(form, NQForm):
        return f"nq:{form.n}/{form.q}"
    if isinstance(form, ABCForm):
        return f"abc:{form.a},{form.b},{form.c}"
    if isinstance(form, ConeForm):
        return f"cone:{form.alpha},{form.beta}"
    if isinstance(form, IntervalUD):
        return f"interval:{form.left},{form.right}"
    if isinstance(form, CFForm):
        return "cf:" + ",".join(str(a) for a in form.coefficients)
    raise TypeError(type(form))


def _class_of(text: str) -> ClassData:
    """The record of the parsed class, in the standard cone of its nq."""
    return class_data(nq_to_cone(to_nq(parse_form(text))))


def _forms_block(cd: ClassData) -> dict:
    abc, iv = cd.abc, cd.interval
    canon = canonical_class(cd.nq)
    return {
        "nq": {"n": cd.nq.n, "q": cd.nq.q},
        "abc": {"a": abc.a, "b": abc.b, "c": abc.c, "c_prime": cd.c_prime},
        "cone": {
            "alpha": [cd.alpha.x, cd.alpha.y],
            "beta": [cd.beta.x, cd.beta.y],
        },
        "interval": {
            "g": iv.g,
            "h": iv.h,
            "m": iv.m,
            "left": str(iv.left),
            "right": str(iv.right),
            "length": str(iv.length),
        },
        "cf": list(cd.hilbert.coeffs),
        "canonical_nq": {"n": canon.n, "q": canon.q},
    }


def build_report_document(cd: ClassData, report: T1Report | None) -> dict:
    h = cd.hilbert
    flags = classify(cd) if report is None else report.flags
    doc = {
        "schema_version": "1",
        "input_echo": _forms_block(cd),
        "hilbert": {
            "e": h.e,
            "basis": [[r.u, r.v] for r in h.basis],
            "coeffs": list(h.coeffs),
            "central_degree": [h.central_degree.u, h.central_degree.v],
            "central_index": h.central_index,
            "grounded": h.grounded,
            "equations": binomial_equations(h),
        },
        "classification": {
            "grounded": flags.grounded,
            "t_singularity": flags.t_singularity,
            "t0_singularity": flags.t0_singularity,
            "qg_exists": flags.qg_exists,
            "embdim": h.e,
            "index": cd.m,
            "interval_length": str(cd.interval.length),
        },
        "t1": None,
        "cayley": _cayley_block(cayley_family(cd)),
    }
    if report is not None:
        doc["t1"] = {
            "per_degree": [
                {
                    "i": r.degree.i,
                    "k": r.degree.k,
                    "degree": [r.degree.k * h.element(r.degree.i).u,
                               r.degree.k * h.element(r.degree.i).v],
                    "dim_t1": r.dim_t1,
                    "dim_v": r.dim_v,
                    "dim_w": r.dim_w,
                    "dim_vw": r.dim_vw,
                    "dim_qg": r.dim_qg,
                    "last_deformation": r.last_deformation,
                }
                for r in report.per_degree
            ],
            "totals": {
                "dim_t1": report.totals.dim_t1,
                "dim_v": report.totals.dim_v,
                "dim_w": report.totals.dim_w,
                "dim_vw": report.totals.dim_vw,
                "dim_qg": report.totals.dim_qg,
                "gap": report.gap,
            },
        }
    return doc


def _cayley_block(fam: CayleyFamily) -> dict:
    return {
        "d": fam.d,
        "i_prime": {
            "left": str(fam.i_prime[0]),
            "right": str(fam.i_prime[1]),
            "denominator": fam.denominator,
        },
        "degenerate_base": fam.degenerate_base,
        "rays": [list(r) for r in fam.rays],
    }


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_convert(args) -> int:
    cd = _class_of(args.input)
    if args.json:
        _print_json({"schema_version": "1", "forms": _forms_block(cd)})
        return EXIT_OK
    cone = ConeForm(cd.alpha, cd.beta)
    forms = dict(zip(FORM_TAGS, (cd.nq, cd.abc, cone, cd.interval, CFForm(cd.hilbert.coeffs))))
    tags = FORM_TAGS if args.all else (args.to,)
    for tag in tags:
        print(format_form(forms[tag]))
    print(f"canonical:{format_form(canonical_class(cd.nq))}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cd = _class_of(args.input)
    try:
        report = totals(cd)
    except DegenerateSingularityError:
        if not args.allow_degenerate:
            raise
        report = None
    doc = build_report_document(cd, report)
    if args.json:
        _print_json(doc)
    elif args.csv:
        print(DEGREE_HEADER)
        if report is not None:
            for row in doc["t1"]["per_degree"]:
                print(
                    f"{row['i']},{row['k']},{row['degree'][0]},{row['degree'][1]},"
                    f"{row['dim_t1']},{row['dim_v']},{row['dim_w']},{row['dim_vw']},"
                    f"{row['dim_qg']},{_bool(row['last_deformation'])}"
                )
    else:
        _print_human(doc)
    return EXIT_OK


def _print_human(doc: dict) -> None:
    echo = doc["input_echo"]
    hil = doc["hilbert"]
    cls = doc["classification"]
    nq = echo["nq"]
    print(f"cyclic quotient singularity nq:{nq['n']}/{nq['q']}")
    abc = echo["abc"]
    cone = echo["cone"]
    iv = echo["interval"]
    print(
        f"forms: abc:{abc['a']},{abc['b']},{abc['c']}"
        f"  cone:({cone['alpha'][0]},{cone['alpha'][1]}),({cone['beta'][0]},{cone['beta'][1]})"
        f"  interval:{iv['left']},{iv['right']}"
        f"  cf:{','.join(str(a) for a in echo['cf'])}"
    )
    canon = echo["canonical_nq"]
    print(f"canonical class: nq:{canon['n']}/{canon['q']}")
    basis = " ".join(f"[{u},{v}]" for u, v in hil["basis"])
    print(f"hilbert basis (e={hil['e']}): {basis}")
    central = hil["central_degree"]
    grounded = "yes" if hil["grounded"] else "no"
    where = f" = r^{hil['central_index']}" if hil["central_index"] else ""
    print(
        f"coefficients: [{','.join(str(a) for a in hil['coeffs'])}]"
        f"  central degree [{central[0]},{central[1]}]{where}"
        f"  index m={cls['index']}  grounded: {grounded}"
    )
    if hil["equations"]:
        print("equations: " + ", ".join(hil["equations"]))
    print(f"|I| = {cls['interval_length']}")
    if doc["t1"] is None:
        print("deformation table skipped (embdim <= 3)")
        return
    print()
    print("degree table (R = k*r^i):")
    print("  i  k  degree      dim_t1  dim_v  dim_w  dim_vw  dim_qg  last")
    for row in doc["t1"]["per_degree"]:
        deg = f"[{row['degree'][0]},{row['degree'][1]}]"
        last = "  *" if row["last_deformation"] else ""
        print(
            f"  {row['i']:<2} {row['k']:<2} {deg:<11} {row['dim_t1']:<7} {row['dim_v']:<6}"
            f" {row['dim_w']:<6} {row['dim_vw']:<7} {row['dim_qg']:<7}{last}"
        )
    tot = doc["t1"]["totals"]
    print(
        f"totals: dim_t1={tot['dim_t1']} dim_v={tot['dim_v']} dim_w={tot['dim_w']}"
        f" dim_vw={tot['dim_vw']} dim_qg={tot['dim_qg']}  gap(V-VW)={tot['gap']}"
    )
    print(
        f"flags: grounded={_bool(cls['grounded'])}"
        f" t_singularity={_bool(cls['t_singularity'])}"
        f" t0={_bool(cls['t0_singularity'])}"
        f" qg_exists={_bool(cls['qg_exists'])}"
        f" embdim={cls['embdim']}"
    )


def cmd_scan(args) -> int:
    if args.n_max < 2:
        raise ParseError(f"scan bound must be >= 2, got {args.n_max}")
    print(SCAN_HEADER)
    for nq in nq_range(args.n_max, skip_degenerate=True, canonical_only=not args.all_q):
        cd = class_data(nq_to_cone(nq))
        report = totals(cd)
        abc = cd.abc
        f, t = report.flags, report.totals
        print(
            f"{nq.n},{nq.q},{abc.a},{abc.b},{abc.c},{report.embdim},"
            f"{_bool(f.grounded)},{_bool(f.t_singularity)},"
            f"{t.dim_t1},{t.dim_v},{t.dim_w},{t.dim_vw},{t.dim_qg},{report.gap}"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n_max < 2:
        raise ParseError(f"verify bound must be >= 2, got {args.n_max}")
    if args.n_max > oracle_bound():
        raise ParseError(
            f"verify bound {args.n_max} exceeds the oracle guard {oracle_bound()} "
            f"(raise CQS_ORACLE_BOUND to override)"
        )
    results = run_checks(args.n_max)
    total = 0
    failed = 0
    for name, res in results.items():
        print(f"{name}: {res.checks} checks, {len(res.failures)} mismatches")
        total += res.checks
        failed += len(res.failures)
        for msg in res.failures:
            print(f"MISMATCH {msg}")
    if failed:
        print(f"FAILED: {failed} mismatches out of {total} checks")
        return EXIT_VERIFY_FAILED
    print(f"all checks passed ({total} checks)")
    return EXIT_OK


def cmd_cayley(args) -> int:
    fam = cayley_family(_class_of(args.input))
    if args.json:
        _print_json({"schema_version": "1", "cayley": _cayley_block(fam)})
        return EXIT_OK
    print(f"d = {fam.d}")
    print(f"I' = [{fam.i_prime[0]}, {fam.i_prime[1]}]  (denominator {fam.denominator})")
    print(f"degenerate_base: {_bool(fam.degenerate_base)}")
    print("rays:")
    for ray in fam.rays:
        print("  (" + ", ".join(str(x) for x in ray) + ")")
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
    group = p.add_mutually_exclusive_group()
    group.add_argument("--to", choices=FORM_TAGS, help="target description")
    group.add_argument("--all", action="store_true", help="print all five descriptions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("analyze", help="full deformation report for one singularity")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "convert" and not args.all and not args.to and not args.json:
        parser.error("convert needs --to TAG, --all, or --json")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
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
