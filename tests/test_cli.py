import contextlib
import hashlib
import io
import json
import os
import pty
import resource
import select
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cqs
from cqs import cli, cone_geometry, deformations
from cqs.cli import format_form, main, parse_form
from cqs.cone_geometry import class_data, continued_fraction
from cqs.deformations import degree_vector
from cqs.lattice import NPoint, pairing
from cqs.representations import (
    ABCForm,
    CFForm,
    ConeForm,
    DegenerateSingularityError,
    IntervalUD,
    InvalidSingularityError,
    NQForm,
    cone_to_interval,
    nq_to_abc,
    nq_to_cone,
)

GOLDEN = Path(__file__).parent / "golden"


def cqs_env():
    """The environment of a `python -m cqs` child that imports these sources."""
    src = str(Path(cqs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def child_env(unbuffered: bool) -> dict:
    """``cqs_env()`` with PYTHONUNBUFFERED=1 or without it."""
    env = cqs_env()
    env.pop("PYTHONUNBUFFERED", None)
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


def _limit_128_mib():
    cap = 128 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def sabotage_deformations(monkeypatch):
    """Break one oracle or closed form in each of a few classes with n <= 12.

    ``verify`` reads ``v_dims`` first in every class, so the patch of
    ``v_dims`` records which class is being checked, and each other patch
    acts in its own class only.  The patches take their arguments as they
    come, so they do not depend on the oracles' signatures.
    """
    current = [None]

    def in_class(n, q, name, broken):
        real = getattr(deformations, name)

        def call(*args):
            out = real(*args)
            return broken(out, *args) if current[0] == NQForm(n, q) else out

        monkeypatch.setattr(deformations, name, call)

    def flip(first):
        # a closed-form column flipped at the first or last central degree
        def broken(out, cd):
            ell = cd.hilbert.central_index
            d = (ell, 1 if first else cd.hilbert.coefficient(ell) - 1)
            out[d] = 1 - out[d]
            return out

        return broken

    def w_dropped_under_vw(report, cd, v, qg, vw, w):
        # a report whose W misses a VW direction, and whose total says so
        rows = tuple(r._replace(dim_w=0) if r.dim_vw else r for r in report.per_degree)
        return report._replace(
            per_degree=rows, totals=report.totals._replace(dim_w=sum(r.dim_w for r in rows))
        )

    real_v = deformations.v_dims
    monkeypatch.setattr(
        deformations, "v_dims", lambda cd: current.__setitem__(0, cd.nq) or real_v(cd)
    )
    in_class(4, 1, "qg_dims", flip(first=False))  # also a theorem check raises
    in_class(5, 2, "stable_iso_oracle", lambda out, *args: not out)
    in_class(7, 2, "w_chain_threshold", lambda out, cd, i: out + 1)
    in_class(7, 3, "iso_oracle", lambda out, *args: not out)
    in_class(7, 4, "qg_oracle", lambda out, *args: not out)
    in_class(8, 3, "qg_dims", flip(first=True))  # qG is no initial segment
    in_class(9, 2, "assemble_report", w_dropped_under_vw)  # its mirror is 9/5
    in_class(10, 3, "vw_oracle", lambda out, *args: not out)
    in_class(10, 7, "v_dims_oracle", lambda out, cd: {d: dim + 1 for d, dim in out.items()})
    in_class(
        11, 3, "_constrained_dim",
        lambda out, cd, d, span, with_phi: out + 1 if with_phi else out,
    )
    in_class(12, 5, "vw_dims", flip(first=False))  # a frac = 1/m: VW is qG at the last degree
    in_class(12, 7, "vw_dims", flip(first=False))  # no frac = 1/m: VW is 1 there


class TestParsing:
    def test_grammar(self):
        assert parse_form("nq:20/11") == NQForm(20, 11)
        assert parse_form("abc:5,4,3") == ABCForm(5, 4, 3)
        cone = parse_form("cone:(1,0),(-11,20)")
        assert cone == ConeForm(NPoint(1, 0), NPoint(-11, 20))
        assert parse_form("interval:-2/5,2/5") == IntervalUD(-2, 2, 5)
        assert parse_form("interval:-1,1") == IntervalUD(-1, 1, 1)
        assert parse_form("cf:3,2,2,2,3") == CFForm((3, 2, 2, 2, 3))

    def test_malformed(self):
        for bad in ("nq:20", "nq20/11", "abc:1,2", "cone:(1,0)", "cf:2,x", "what:1/2"):
            with pytest.raises(cli.ParseError):
                parse_form(bad)

    @given(st.integers(min_value=2, max_value=300), st.data())
    def test_format_then_parse_is_identity(self, n, data):
        q = data.draw(st.sampled_from([q for q in range(1, n) if gcd(n, q) == 1]))
        nq = NQForm(n, q)
        cone = nq_to_cone(nq)
        forms = (nq, nq_to_abc(nq), cone, cone_to_interval(cone), continued_fraction(n, n - q))
        for form in forms:
            assert parse_form(format_form(form)) == form

    def test_nonuniform_denominators_rejected(self):
        with pytest.raises(InvalidSingularityError):
            parse_form("interval:1/2,2/3")

    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidSingularityError):
            parse_form("interval:1/0,2/0")


class TestConvert:
    def test_to_interval(self, capsys):
        code, out, _ = run(capsys, "convert", "nq:20/11", "--to", "interval")
        assert code == 0
        assert out.splitlines() == ["interval:-2/5,2/5", "canonical:nq:20/11"]

    def test_cf_to_nq(self, capsys):
        code, out, _ = run(capsys, "convert", "cf:3,2,2,2,3", "--to", "nq")
        assert code == 0
        assert out.splitlines()[0] == "nq:20/11"

    def test_all(self, capsys):
        code, out, _ = run(capsys, "convert", "nq:7/5", "--all")
        assert code == 0
        lines = out.splitlines()
        assert "abc:7,1,6" in lines
        assert "canonical:nq:7/3" in lines

    def test_convert_and_cayley_skip_the_hilbert_basis(self, capsys, monkeypatch):
        # neither command prints the basis, so neither may build it
        from cqs import cone_geometry

        calls = []
        monkeypatch.setattr(cone_geometry, "hilbert_basis", lambda cd: calls.append(cd.nq))
        code, out, _ = run(capsys, "convert", "nq:1000001/2", "--all")
        assert code == 0
        assert out.splitlines()[4] == "cf:" + ",".join(["2"] * 499999 + ["3"])
        code, out, _ = run(capsys, "cayley", "nq:8/3")
        assert code == 0 and out.startswith("d = 2")
        assert calls == []

    def test_cf_built_only_when_printed(self, capsys, monkeypatch):
        # the cf of nq:100000001/2 has 50,000,000 terms
        real, pulled = cone_geometry.hj_coefficients, []

        def counted(p, s):
            for a in real(p, s):
                pulled.append(a)
                yield a

        monkeypatch.setattr(cone_geometry, "hj_coefficients", counted)
        for tag, line in (("nq", "nq:100000001/2"), ("abc", "abc:100000001,1,3")):
            code, out, _ = run(capsys, "convert", "nq:100000001/2", "--to", tag)
            assert code == 0
            assert out.splitlines() == [line, "canonical:nq:100000001/2"]
        assert pulled == []
        # a cf of more than MAX_CF_TERMS terms is refused after one pass
        # over its first MAX_CF_TERMS + 1 terms
        code, out, err = run(capsys, "convert", "nq:100000001/2", "--to", "cf")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "MAX_CF_TERMS" in err and str(cone_geometry.MAX_CF_TERMS) in err
        assert len(pulled) == cone_geometry.MAX_CF_TERMS + 1

    def test_roundtrip_through_grammar(self, capsys):
        for text in (
            "nq:20/11", "abc:5,4,3", "cone:(1,0),(-11,20)", "interval:-2/5,2/5", "cf:3,2,2,2,3"
        ):
            tag = text.split(":")[0]
            code, out, _ = run(capsys, "convert", text, "--to", tag)
            assert code == 0
            assert out.splitlines()[0] == text

    def test_invalid_exit_3(self, capsys):
        code, _, err = run(capsys, "convert", "nq:6/3", "--to", "abc")
        assert code == 3
        assert "gcd" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "convert", "bogus:1", "--to", "nq")
        assert code == 2


class TestAnalyze:
    def test_worked_example_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "nq:20/11")
        assert code == 0
        assert "hilbert basis (e=7)" in out
        assert "[3,2,2,2,3]" in out
        assert "dim_t1=10 dim_v=3" in out
        assert "dim_vw=1 dim_qg=0" in out

    def test_degenerate_exit_4(self, capsys):
        code, _, err = run(capsys, "analyze", "nq:5/4")
        assert code == 4
        assert "A_(n-1)" in err

    def test_allow_degenerate(self, capsys):
        code, out, _ = run(capsys, "analyze", "nq:5/4", "--allow-degenerate", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["t1"] is None
        assert doc["hilbert"]["e"] == 3

    def test_json_roundtrip_lossless(self, capsys):
        code, out, _ = run(capsys, "analyze", "nq:20/11", "--json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) == out.strip()
        assert doc["schema_version"] == "1"
        assert doc["input_echo"]["interval"]["left"] == "-2/5"
        assert doc["t1"]["totals"] == {
            "dim_t1": 10, "dim_v": 3, "dim_w": 5, "dim_vw": 1, "dim_qg": 0, "gap": 2,
        }

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "analyze", "nq:4/1", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == cli.DEGREE_HEADER
        assert lines[1] == "2,1,1,1,1,0,0,0,0,false"
        assert lines[2] == "3,1,2,1,2,1,1,1,1,true"
        assert len(lines) == 4

    def test_rows_join_record_fields_in_header_order(self, capsys):
        # the CSV and scan rows and the JSON classification block are built
        # from the records' fields, so the headers must follow those fields
        assert tuple(cli.DEGREE_HEADER.split(",")[4:]) == deformations.DegreeReport._fields[1:]
        assert tuple(cli.SCAN_HEADER.split(",")[8:13]) == deformations.Totals._fields
        code, out, _ = run(capsys, "analyze", "nq:20/11", "--json")
        classification = json.loads(out)["classification"]
        assert code == 0
        assert set(deformations.ClassificationFlags._fields) <= classification.keys()

    def test_only_json_builds_the_document(self, capsys, monkeypatch):
        # the human report and the CSV rows print from the records; neither
        # builds the report document nor the Cayley family's ray matrix
        def refuse(*args):
            raise AssertionError("built outside --json")

        monkeypatch.setattr(cli, "build_report_document", refuse)
        monkeypatch.setattr(cli, "cayley_family", refuse)
        for golden, argv in (
            ("analyze_20_11.txt", ("nq:20/11",)),
            ("analyze_20_11.csv", ("nq:20/11", "--csv")),
            ("analyze_5_4_degenerate.txt", ("nq:5/4", "--allow-degenerate")),
        ):
            code, out, _ = run(capsys, "analyze", *argv)
            assert (code, out) == (0, (GOLDEN / golden).read_text()), argv
        # d = 501: every mode is still refused by the cayley_d pre-check
        for mode in ((), ("--csv",), ("--json",)):
            code, out, err = run(capsys, "analyze", "interval:-1001/2,1/2", *mode)
            assert (code, out) == (2, ""), mode
            assert err.startswith("error: ") and "MAX_CAYLEY_D" in err, mode

    def test_analyze_reads_the_cf_from_the_hilbert_record(self, capsys, monkeypatch):
        # the cf: form and the JSON cf echo print the Hilbert coefficients,
        # the same terms; only convert expands the continued fraction
        def refuse(*args):
            raise AssertionError("continued fraction expanded by analyze")

        monkeypatch.setattr(cli, "continued_fraction", refuse)
        for golden, argv in (
            ("analyze_20_11.txt", ("nq:20/11",)),
            ("analyze_20_11.csv", ("nq:20/11", "--csv")),
            ("analyze_20_11.json", ("nq:20/11", "--json")),
            ("analyze_5_4_degenerate.txt", ("nq:5/4", "--allow-degenerate")),
            ("analyze_5_4_degenerate.json", ("nq:5/4", "--allow-degenerate", "--json")),
        ):
            code, out, _ = run(capsys, "analyze", *argv)
            assert (code, out) == (0, (GOLDEN / golden).read_text()), argv


SINGLE_CLASS_GOLDENS = [
    ("analyze_20_11.json", ("analyze", "nq:20/11", "--json")),
    ("analyze_8_3.json", ("analyze", "nq:8/3", "--json")),
    ("analyze_20_11.csv", ("analyze", "nq:20/11", "--csv")),
    ("analyze_5_4_degenerate.json", ("analyze", "nq:5/4", "--allow-degenerate", "--json")),
    ("analyze_20_11.txt", ("analyze", "nq:20/11")),
    ("analyze_8_3.txt", ("analyze", "nq:8/3")),
    ("analyze_5_4_degenerate.txt", ("analyze", "nq:5/4", "--allow-degenerate")),
    ("convert_20_11.json", ("convert", "nq:20/11", "--json")),
    ("cayley_-2_5_4_5.json", ("cayley", "interval:-2/5,4/5", "--json")),
]


class TestScan:
    def test_header_and_20_11(self, capsys):
        code, out, _ = run(capsys, "scan", "25")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == cli.SCAN_HEADER
        assert "20,11,5,4,3,7,true,false,10,3,5,1,0,2" in lines

    def test_golden_scan_25(self, capsys):
        code, out, _ = run(capsys, "scan", "25")
        assert code == 0
        assert out == (GOLDEN / "scan_25.csv").read_text()

    @pytest.mark.parametrize("golden,argv", SINGLE_CLASS_GOLDENS)
    def test_golden_analyze(self, capsys, golden, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "golden,argv",
        [("scan_25.csv", ("scan", "25")), ("verify_30.txt", ("verify", "30"))]
        + SINGLE_CLASS_GOLDENS,
    )
    def test_golden_on_a_real_stdout(self, golden, argv, unbuffered):
        # the interpreter's own stdout, on a pipe, as under PYTHONUNBUFFERED=1
        proc = subprocess.run(
            [sys.executable, "-m", "cqs", *argv],
            capture_output=True, env=child_env(unbuffered), timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (GOLDEN / golden).read_bytes()

    def test_b1_rows_have_no_vw(self, capsys):
        code, out, _ = run(capsys, "scan", "20")
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            if cells[3] == "1":  # b column
                assert cells[11] == "0" and cells[12] == "0"

    def test_inclusion_chain(self, capsys):
        code, out, _ = run(capsys, "scan", "15")
        for line in out.splitlines()[1:]:
            c = line.split(",")
            t1, v, w, vw, qg = (int(x) for x in c[8:13])
            assert qg <= vw <= v <= t1 and vw <= w

    def test_all_q_includes_mirrors(self, capsys):
        _, dedup, _ = run(capsys, "scan", "7")
        _, full, _ = run(capsys, "scan", "7", "--all-q")
        assert "7,5" not in dedup
        assert any(line.startswith("7,5,") for line in full.splitlines())

    def test_bad_bound_exit_2(self, capsys):
        code, _, _ = run(capsys, "scan", "1")
        assert code == 2


# a child that pins itself to one CPU, so that fan_out forks no worker
# whose writes it would count, and prints on stderr, after its own output,
# the number of write calls main made
_COUNTING_CHILD = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import json.encoder, cqs.verify  # what main imports when it runs, loaded first
from cqs.cli import main

def writes():
    with open("/proc/self/io") as f:
        return int(next(line for line in f if line.startswith("syscw:")).split()[1])

before = writes()
code = main(sys.argv[1:])
sys.stderr.write(f"{writes() - before}\\n")
sys.exit(code)
"""
# the sha256 of `cqs scan 100`
SCAN_100_SHA256 = "0fb153c147931e27064d1cfaffd5ceccf8ab05b1cd3121c79d64b1f4c42190dc"
# the text layer of stdout writes once it holds this many characters
CHUNK = 8192
counts_writes = pytest.mark.skipif(
    not (os.path.exists("/proc/self/io") and hasattr(os, "sched_setaffinity")),
    reason="counts write calls in /proc/self/io and pins to one CPU",
)


def counted(*argv):
    """The exit code, stdout and stdout write calls of `cqs argv` on a pipe,
    unbuffered as under PYTHONUNBUFFERED=1."""
    proc = subprocess.run(
        [sys.executable, "-c", _COUNTING_CHILD, *argv],
        capture_output=True, env=child_env(True), timeout=120,
    )
    return proc.returncode, proc.stdout, int(proc.stderr.splitlines()[-1])


class TestBatchedWrites:
    # main batches stdout in its text layer; unbuffered, a write per row or
    # per JSON piece would each be a write call
    @counts_writes
    def test_scan_writes_its_header_then_batches(self):
        code, out, writes = counted("scan", "100")
        assert (code, hashlib.sha256(out).hexdigest()) == (0, SCAN_100_SHA256)
        assert writes <= 9

    @counts_writes
    @pytest.mark.parametrize("mode", [("--csv",), ()])
    def test_analyze_table_in_a_handful_of_writes(self, mode):
        cd = class_data(nq_to_cone(NQForm(3001, 2)))
        degrees = len(deformations.totals(cd).per_degree)
        code, out, writes = counted("analyze", "nq:3001/2", *mode)
        assert code == 0 and out.count(b"\n") > degrees
        assert writes <= len(out) // CHUNK + 2
        if mode:
            assert writes <= 7

    @counts_writes
    def test_verify_in_one_write(self):
        code, out, writes = counted("verify", "12")
        assert (code, writes) == (0, 1) and out.endswith(b" checks)\n")

    @counts_writes
    def test_json_streams_in_bounded_writes(self):
        # the 1,501 rows of nq:3001/2 fill about 400,000 characters: the text
        # goes out a chunk at a time, never in one write
        cd = class_data(nq_to_cone(NQForm(3001, 2)))
        reference = dumps(plain_document(cd, deformations.totals(cd))).encode()
        code, out, writes = counted("analyze", "nq:3001/2", "--json")
        assert (code, out) == (0, reference)
        assert len(out) / (8 * CHUNK) <= writes <= len(out) / CHUNK + 2
        assert writes > 1

    @counts_writes
    def test_a_terminal_is_not_written_a_line_at_a_time(self):
        # a terminal's stdout is line-buffered until main turns that off
        master, slave = pty.openpty()
        proc = subprocess.Popen(
            [sys.executable, "-c", _COUNTING_CHILD, "scan", "100"],
            stdout=slave, stderr=subprocess.PIPE, env=child_env(False),
        )
        os.close(slave)
        chunks = []
        try:
            while select.select([master], [], [], 120)[0]:
                try:
                    chunk = os.read(master, 1 << 16)
                except OSError:  # EIO: the child closed the terminal
                    break
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            os.close(master)
            err = proc.communicate(timeout=120)[1]
        assert proc.returncode == 0, err
        out = b"".join(chunks).replace(b"\r\n", b"\n")
        assert hashlib.sha256(out).hexdigest() == SCAN_100_SHA256
        assert int(err.splitlines()[-1]) <= 9

    def test_rows_stream_a_batch_at_a_time(self, capsys):
        # the child computes every row itself and ends with os._exit, with no
        # flush, when the sweep reaches n = 60: the header and the first rows
        # are on the pipe by then
        child = (
            "import os, sys; from cqs import cli, verify; verify.fan_out = map;"
            " row = cli._scan_row;"
            " cli._scan_row = lambda nq: os._exit(3) if nq.n == 60 else row(nq);"
            " sys.exit(cli.main(['scan', '100']))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=cqs_env(),
            timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == cli.SCAN_HEADER and len(lines) > 1
        assert run(capsys, "scan", "59")[1].startswith(proc.stdout)

    def test_rows_before_an_error_are_written(self, capsys):
        # nq:41/1 is the first class whose W zones walk more than 780 fibers:
        # scan 60 prints the rows of scan 40, then the error, then exits 2
        child = (
            "import sys; from cqs import deformations; deformations.MAX_ZONE_FIBERS = 780;"
            " from cqs.cli import main; sys.exit(main(['scan', '60']))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=cqs_env(), timeout=120,
        )
        *rows, error = proc.stdout.decode().splitlines()
        assert proc.returncode == 2
        assert rows == run(capsys, "scan", "40")[1].splitlines()
        assert error == "error: the W zones of nq:41/1 walk more than MAX_ZONE_FIBERS = 780 fibers"


def plain_document(cd, report):
    """The report document with its per-degree rows as plain dicts."""
    doc = cli.build_report_document(cd, report)
    if report is not None:
        doc["t1"]["per_degree"] = [
            {**r._asdict(), **r.degree._asdict(), "degree": degree_vector(cd.hilbert, r.degree)}
            for r in report.per_degree
        ]
    return doc


def json_text(value):
    """What ``cli._print_json`` prints for ``value``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_json(value)
    return out.getvalue()


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


_JSON_STRINGS = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\u2603\U0001f600'),
        st.characters(),
    ),
    max_size=8,
)
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-60, 60), st.integers(-(10**40), 10**40),
        _JSON_STRINGS,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(_JSON_STRINGS, inner, max_size=6),
    ),
    max_leaves=30,
)


class TestJSONWriter:
    @settings(max_examples=300, deadline=None)
    @example([])
    @example({})
    @example({"": [], "a": {}, "b": [[], {}, ()]})
    @example([True, 1, False, 0, -(2**70)])
    @example(["a", "b\n", 'c"', "\\", "\u00e9"])
    @given(_JSON_VALUES)
    def test_prints_what_json_dumps_prints(self, value):
        assert json_text(value) == dumps(value)
        # flat lists longer than one join are joined a few items at a time
        with mock.patch.object(cli, "JSON_ITEMS_PER_JOIN", 2):
            assert json_text(value) == dumps(value)

    @pytest.mark.parametrize(
        "value",
        [1.5, Fraction(1, 2), {1, 2}, [1, 2.0], {"a": [Fraction(3)]}, ["a", {"b"}], {1: "a"}],
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json_text(value)

    def test_every_class_to_n_40_prints_what_json_dumps_prints(self):
        degenerate = 0
        for n in range(2, 41):
            for q in (q for q in range(1, n) if gcd(n, q) == 1):
                cd = class_data(nq_to_cone(NQForm(n, q)))
                try:
                    report = deformations.totals(cd)
                except DegenerateSingularityError:
                    report, degenerate = None, degenerate + 1
                doc = cli.build_report_document(cd, report)
                assert (doc["t1"] is None) == (q == n - 1), (n, q)
                assert json_text(doc) == dumps(plain_document(cd, report)), (n, q)
        assert degenerate == 39

    def test_rows_print_from_the_records(self, capsys, monkeypatch):
        # no dict is built per row
        def refuse(self):
            raise AssertionError("row built as a dict")

        monkeypatch.setattr(deformations.DegreeReport, "_asdict", refuse)
        monkeypatch.setattr(deformations.DegreeId, "_asdict", refuse)
        code, out, _ = run(capsys, "analyze", "nq:20/11", "--json")
        assert (code, out) == (0, (GOLDEN / "analyze_20_11.json").read_text())


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "8")
        assert code == 0
        assert "all checks passed" in out

    def test_golden_verify_30(self, capsys):
        code, out, _ = run(capsys, "verify", "30")
        assert code == 0
        assert out == (GOLDEN / "verify_30.txt").read_text()

    def test_trivial_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "2")
        assert code == 0

    def test_bound_guard(self, capsys):
        # refused before any class is checked: past the oracle bound 10,000
        code, out, err = run(capsys, "verify", "10001")
        assert code == 2 and not out
        assert err == "error: verify bound 10001 exceeds the oracle guard 10000\n"

    def test_run_checks_refuses_its_bound_first(self, monkeypatch):
        # the library sweep itself refuses, before it builds any class
        from cqs import verify
        from cqs.cone_geometry import ORACLE_BOUND, OracleBoundError

        def refuse(cone):
            raise AssertionError("class built past the bound")

        monkeypatch.setattr(verify, "class_data", refuse)
        with pytest.raises(OracleBoundError, match="exceeds the oracle guard"):
            verify.run_checks(ORACLE_BOUND + 1)

    def test_wrong_v_does_not_hide_a_wrong_qg(self, monkeypatch):
        # V and qG broken together at the central degree (3, 1) of nq:4/1:
        # the qG check reads the V oracle, not the closed form, so it still
        # sees the qG column disagree with the zone
        from cqs import deformations, verify

        def at_central(name):
            real = getattr(deformations, name)

            def broken(cd):
                out = real(cd)
                if cd.nq == NQForm(4, 1):
                    out[(3, 1)] = 1 - out[(3, 1)]
                return out

            monkeypatch.setattr(deformations, name, broken)

        cd = class_data(nq_to_cone(NQForm(4, 1)))
        assert deformations.v_dims(cd)[(3, 1)] == deformations.qg_dims(cd)[(3, 1)] == 1
        at_central("v_dims")
        at_central("qg_dims")
        res, _ = verify._deformation_checks(cd)
        assert "n=4 q=1 degree=(3,1) property=qg_zone_oracle" in res.failures
        assert "n=4 q=1 degree=(3,1) property=v_phi_kernel" in res.failures

    def test_each_class_derived_once(self, monkeypatch):
        # one record per class, and one closed form of each kind and one
        # report per non-degenerate class; a mirror is compared with the
        # report kept from its first class
        from collections import Counter

        from cqs import deformations, verify

        monkeypatch.setattr(verify, "cpu_count", lambda: 1)  # count in this process
        calls = Counter()

        def counted(name, real):
            def call(cd, *rest):
                calls[name, cd.nq] += 1
                return real(cd, *rest)

            monkeypatch.setattr(deformations, name, call)

        for name in ("v_dims", "qg_dims", "vw_dims", "assemble_report", "totals"):
            counted(name, getattr(deformations, name))
        built = []
        real_data = verify.class_data
        monkeypatch.setattr(
            verify, "class_data", lambda cone: built.append(real_data(cone)) or built[-1]
        )
        assert all(res.ok for res in verify.run_checks(20).values())
        assert sorted((cd.nq for cd in built), key=lambda nq: (nq.n, nq.q)) == list(
            verify.nq_range(20)
        )
        classes = list(verify.nq_range(20, skip_degenerate=True))
        for name in ("v_dims", "qg_dims", "vw_dims", "assemble_report"):
            assert [nq for (f, nq) in calls if f == name] == classes, name
        assert set(calls.values()) == {1}
        assert not any(f == "totals" for f, _ in calls)

    def test_each_zone_enumerated_once(self, monkeypatch):
        # per (class, iota(R), kappa, lattice): one walk serves the emptiness
        # test, the iso and stable oracles and, at kappa = -1, the W and VW
        # ranks.  Each degree walks its five M-zones, kappa in {0, -1, m-1,
        # m, 2m}; a degree with a V-direction also walks its two kappa = 0
        # containment zones, M_tilde for qG and M + Rbar/m for VW.  The
        # degrees of a class have distinct iota(R), so each names its zones
        from collections import Counter

        from cqs import deformations, verify
        from cqs.cone_geometry import LatticeTag

        monkeypatch.setattr(verify, "cpu_count", lambda: 1)  # count in this process
        seen = Counter()
        real = deformations.zone_walk

        def counted(cd, size, kappa, lattice=LatticeTag.M):
            seen[cd.nq, size, kappa, lattice] += 1
            return real(cd, size, kappa, lattice)

        monkeypatch.setattr(deformations, "zone_walk", counted)
        assert all(res.ok for res in verify.run_checks(20).values())
        assert seen and set(seen.values()) == {1}
        expected = set()
        for nq in verify.nq_range(20, skip_degenerate=True):
            cd = class_data(nq_to_cone(nq))
            h, m, v = cd.hilbert, cd.m, deformations.v_dims(cd)
            for d in h.degrees:
                R = deformations.degree_vector(h, d)
                R = pairing(cd.alpha, R), pairing(cd.beta, R)
                expected.update(
                    (nq, R, kappa, LatticeTag.M) for kappa in (0, -1, m - 1, m, 2 * m)
                )
                if v[d]:
                    expected.update(
                        (nq, R, 0, tag) for tag in (LatticeTag.M_TILDE, LatticeTag.M_SHIFTED)
                    )
        assert set(seen) == expected

    def test_injected_fault_detected(self, capsys, monkeypatch):
        # sabotage the VW bound and expect the oracle sweep to name it
        from cqs import deformations

        real = deformations.vw_dims

        def broken(cd):
            out = real(cd)
            for d in out:
                if out[d] == 0 and d.k == 1 and 3 <= d.i <= cd.hilbert.e - 2:
                    out[d] = 1  # claim a VW deformation that is not there
                    break
            return out

        monkeypatch.setattr(deformations, "vw_dims", broken)
        code, out, _ = run(capsys, "verify", "10")
        assert code == 1
        assert "MISMATCH" in out and "vw" in out

    def test_faulty_expansion_is_a_coeffs_mismatch(self, monkeypatch):
        # a fault in hj_coefficients that reaches h.coeffs as well: the
        # property compares them with the mirror's expansion, reversed, so
        # it fails where a comparison with the same expansion would pass
        from cqs import cone_geometry, verify
        from cqs.cone_geometry import HilbertData, hilbert_basis_oracle

        real = cone_geometry.hj_coefficients

        def faulty(p, s):
            *head, last = real(p, s)
            yield from (*head, last + 1)

        cd = class_data(nq_to_cone(NQForm(7, 3)))  # coefficients (2, 4), mirror (4, 2)
        assert verify._hilbert_checks(cd).ok
        monkeypatch.setattr(cone_geometry, "hj_coefficients", faulty)
        h = hilbert_basis_oracle(cd)
        # the record a faulty expansion would give: a cached_property reads
        # the instance dict
        vars(cd)["hilbert"] = HilbertData(
            h.basis, h.iota, tuple(faulty(7, 4)), h.e, h.central_index, h.grounded
        )
        assert cd.hilbert.coeffs == continued_fraction(7, 4).coefficients == (2, 5)
        failures = verify._hilbert_checks(cd).failures
        assert "n=7 q=3 property=hilbert_coeffs_vs_cf" in failures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sabotaged_golden(self, capsys, monkeypatch, workers):
        # every property the deformation checks can emit fails at least
        # once, so the text and order of each mismatch line are pinned
        from cqs import verify

        sabotage_deformations(monkeypatch)
        monkeypatch.setattr(verify, "cpu_count", lambda: workers)
        code, out, err = run(capsys, "verify", "12")
        assert code == 1 and not err
        assert out == (GOLDEN / "verify_sabotaged.txt").read_text()

    def test_m_tilde_walked_as_m_is_a_qg_mismatch(self, tmp_path):
        # a copy of the package whose zone_walk steps M_tilde by n instead
        # of gcd(bw - 1, n), so that it walks iota(M) only; the qG zone
        # oracle is the only reader of M_tilde and must be the only check
        # to fail
        mutant = tmp_path / "cqs"
        shutil.copytree(
            Path(cqs.__file__).parent, mutant, ignore=shutil.ignore_patterns("__pycache__")
        )
        source = mutant / "cone_geometry.py"
        text = source.read_text()
        walk = "step = gcd(bw - 1, n) if lattice is LatticeTag.M_TILDE else n"
        assert text.count(walk) == 1
        source.write_text(text.replace(walk, "step = n"))
        proc = subprocess.run(
            [sys.executable, "-m", "cqs", "verify", "12"], capture_output=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        )
        assert proc.returncode == 1, proc.stderr.decode()
        lines = [line for line in proc.stdout.decode().splitlines() if line.startswith("MISMATCH ")]
        assert lines and all(line.endswith(" property=qg_zone_oracle") for line in lines)


class TestCayley:
    def test_degenerate(self, capsys):
        code, out, _ = run(capsys, "cayley", "nq:4/1")
        assert code == 0
        assert "d = 1" in out
        assert "degenerate_base: true" in out
        assert out.count("(") >= 3

    def test_json(self, capsys):
        code, out, _ = run(capsys, "cayley", "interval:-2/5,4/5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["cayley"]["d"] == 1
        assert doc["cayley"]["i_prime"] == {
            "left": "-2/5", "right": "-1/5", "denominator": 5,
        }
        assert doc["cayley"]["rays"] == [[-2, 5, 0], [-1, 5, 0], [0, 0, 1], [1, 0, 1]]

    def test_trivial_family(self, capsys):
        code, out, _ = run(capsys, "cayley", "nq:20/11")
        assert code == 0
        assert "d = 0" in out


class TestExitCodes:
    def test_matrix(self, capsys):
        cases = [
            (("convert", "nq:20/11", "--to", "nq"), 0),
            (("convert", "nq:x", "--to", "nq"), 2),
            (("convert", "nq:6/3", "--to", "nq"), 3),
            (("analyze", "nq:3/2"), 4),
            (("verify", "1"), 2),
            (("convert", f"nq:{'1' * 5000}/3", "--to", "nq"), 2),
            (("convert", f"interval:-2/5,{'1' * 5000}/5", "--to", "nq"), 2),
        ]
        for argv, expected in cases:
            code, _, _ = run(capsys, *argv)
            assert code == expected, argv

    def test_closed_pipe_exits_quietly(self):
        # the JSON document is larger than a pipe buffer, so the child is
        # still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "cqs", "analyze", "nq:1001/2", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cqs_env(),
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in err and "BrokenPipe" not in err, err

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan"])  # missing bound
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (("analyze", "nq:4/1", "--json", "--csv"),
         "argument --csv: not allowed with argument --json"),
        (("convert", "nq:20/11", "--to", "abc", "--json"),
         "argument --json: not allowed with argument --to"),
        (("convert", "nq:20/11"), "one of the arguments --to --all --json is required"),
    ])
    def test_output_flags_are_one_choice(self, capsys, argv, message):
        # conflicting or missing output flags are one usage error, not a guess
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith(f"usage: cqs {argv[0]} ") and err.count("error:") == 1
        assert err.endswith(f"cqs {argv[0]}: error: {message}\n"), err

    def test_analyze_refuses_past_the_degree_bound(self):
        # nq:1000003/500001 has 500,002 T1 degrees; under 128 MiB of address
        # space it used to die in a MemoryError traceback with exit 1
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "cqs", "analyze", "nq:1000003/500001", "--json"],
            capture_output=True, text=True, env=cqs_env(), preexec_fn=_limit_128_mib, timeout=60,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 2, proc.stderr
        assert elapsed < 5, elapsed
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert str(deformations.MAX_T1_DEGREES) in proc.stderr

    def test_degree_bound_counts_sum_a_minus_1(self, capsys, monkeypatch):
        # nq:(2t+1)/2 has t+1 degrees: the class one past the bound and its
        # mirror are refused, and e = 3 stays degenerate at any size
        t = deformations.MAX_T1_DEGREES
        for text, expected in (
            (f"nq:{2 * t + 3}/2", 2),
            (f"nq:{2 * t + 3}/{t + 2}", 2),
            (f"nq:{10**30 + 1}/2", 2),
            (f"nq:{10**30}/{10**30 - 1}", 4),
        ):
            code, out, err = run(capsys, "analyze", text)
            assert (code, out) == (expected, ""), text
            assert err.startswith("error: ") and err.count("\n") == 1, text
        # the class with exactly t degrees passes the degree bound; its W
        # zones walk 2.0e8 fibers, so the fiber bound refuses it
        cf = continued_fraction(2 * t - 1, 2 * t - 3).coefficients
        assert sum(cf) - len(cf) == t
        code, out, err = run(capsys, "analyze", f"nq:{2 * t - 1}/2")
        assert (code, out) == (2, "") and str(deformations.MAX_ZONE_FIBERS) in err
        # and with that bound lifted it reaches the W walk
        monkeypatch.setattr(deformations, "MAX_ZONE_FIBERS", 10**9)
        reached = []

        def stop(z, cd):
            reached.append(cd.nq)
            raise DegenerateSingularityError("stopped at the W walk")

        monkeypatch.setattr(deformations, "zone_points", stop)
        code, _, _ = run(capsys, "analyze", f"nq:{2 * t - 1}/2")
        assert code == 4 and reached == [NQForm(2 * t - 1, 2)]
        # cf:10001,10001 has t degrees too; its two chains of 9,999 degrees
        # walk no zone, so its W zones walk 1 + 10,001 fibers and it is reported
        monkeypatch.undo()
        code, out, _ = run(capsys, "analyze", "cf:10001,10001", "--csv")
        assert code == 0 and len(out.splitlines()) == t + 1

    def test_analyze_refuses_past_the_fiber_bound(self):
        # cf:3,...,3 (30 threes) has 60 degrees, whose W zones walk about
        # 2.5e12 fibers; it used to run for minutes
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "cqs", "analyze", "cf:" + ",".join(["3"] * 30)],
            capture_output=True, text=True, env=cqs_env(), timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert time.monotonic() - start < 5
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert str(deformations.MAX_ZONE_FIBERS) in proc.stderr

    def test_first_class_past_the_fiber_bound_is_refused(self):
        # nq:n/1 walks n(n-1)/2 fibers, the most of its n: nq:7746/1 is the
        # largest class admitted and nq:7747/1 the first that scan refuses
        assert 7746 * 7745 // 2 <= deformations.MAX_ZONE_FIBERS < 7747 * 7746 // 2
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "cqs", "analyze", "nq:7747/1", "--csv"],
            capture_output=True, text=True, env=cqs_env(), timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert time.monotonic() - start < 5
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert f"MAX_ZONE_FIBERS = {deformations.MAX_ZONE_FIBERS}" in proc.stderr

    def test_fiber_count_is_the_sum_over_the_w_zones(self, monkeypatch):
        # each zone that totals requests walks <alpha, R> fibers (zone_points'
        # u-range); w_fast admits the class at a bound of exactly their sum,
        # and at one less refuses it before it requests any zone
        requested = []
        real, bound = deformations.zone_points, deformations.MAX_ZONE_FIBERS

        def recorded(z, cd):
            requested.append(z.R)
            return real(z, cd)

        monkeypatch.setattr(deformations, "zone_points", recorded)
        for n in range(5, 41):
            for q in range(1, n - 1):
                if gcd(n, q) != 1:
                    continue
                cd = class_data(nq_to_cone(NQForm(n, q)))
                requested.clear()
                monkeypatch.setattr(deformations, "MAX_ZONE_FIBERS", bound)
                deformations.totals(cd)
                fibers = sum(pairing(cd.alpha, R) for R in requested)
                monkeypatch.setattr(deformations, "MAX_ZONE_FIBERS", fibers)
                deformations.totals(cd)
                monkeypatch.setattr(deformations, "MAX_ZONE_FIBERS", fibers - 1)
                requested.clear()
                with pytest.raises(cone_geometry.OracleBoundError, match="MAX_ZONE_FIBERS"):
                    deformations.totals(cd)
                assert requested == [], (n, q)

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (("cayley", "interval:-30000,30000"), "MAX_CAYLEY_D"),
            (("analyze", "interval:-30000,30000", "--allow-degenerate", "--json"),
             "MAX_CAYLEY_D"),
            (("convert", "nq:100000001/2", "--to", "cf"), "MAX_CF_TERMS"),
            (("convert", "nq:100000001/2", "--all"), "MAX_CF_TERMS"),
            (("convert", "nq:100000001/2", "--json"), "MAX_CF_TERMS"),
        ],
    )
    def test_large_outputs_are_refused_in_128_mib(self, argv, bound):
        # d = 60,000 gives a 120,002 x 60,002 ray matrix, and the cf of
        # nq:100000001/2 has 50,000,000 terms: both used to end in a
        # MemoryError traceback with exit 1 under this limit
        proc = subprocess.run(
            [sys.executable, "-m", "cqs", *argv],
            capture_output=True, text=True, env=cqs_env(), preexec_fn=_limit_128_mib,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        module = cone_geometry if bound == "MAX_CF_TERMS" else deformations
        assert f"{bound} = {getattr(module, bound)}" in proc.stderr

    def test_largest_admitted_outputs_print_in_128_mib(self):
        # the bounds leave room: d = MAX_CAYLEY_D and a cf of MAX_CF_TERMS
        # terms print as JSON, and the nq and abc forms of any class print
        def output(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "cqs", *argv],
                capture_output=True, text=True, env=cqs_env(), preexec_fn=_limit_128_mib,
                timeout=60,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            return proc.stdout

        d, terms = deformations.MAX_CAYLEY_D, cone_geometry.MAX_CF_TERMS
        assert json.loads(output("cayley", f"interval:0,{d}", "--json"))["cayley"]["d"] == d
        doc = json.loads(output("convert", f"nq:{2 * terms + 1}/2", "--json"))
        assert len(doc["forms"]["cf"]) == terms
        assert output("convert", "nq:100000001/2", "--to", "nq").startswith("nq:100000001/2\n")
        assert output("convert", "nq:100000001/2", "--to", "abc").startswith("abc:100000001,1,3\n")

    def test_unprintable_class_is_a_parse_error(self, capsys):
        # both factors parse, but n = a*b has more digits than str() prints
        big = "7" * 3000
        for text in (f"abc:{big},{big},1", f"cf:{big},{big}"):
            code, out, err = run(capsys, "convert", text, "--to", "abc")
            assert (code, out) == (2, ""), text
            assert err.startswith("error: ") and "Traceback" not in err


def _field():
    """One integer field of a form: small, large, signed, padded, empty or junk."""
    number = st.one_of(st.integers(-60, 60), st.integers(-(10**40), 10**40)).map(str)
    junk = st.sampled_from(["", "-", "+1", "1 2", "0x1f", "1" * 5000, "-" + "9" * 4200])
    pad = st.sampled_from(["", " ", "  ", "\t"])
    return st.tuples(pad, st.one_of(number, junk), pad).map("".join)


_PAYLOADS = {
    "nq": st.tuples(_field(), _field()).map("/".join),
    "abc": st.lists(_field(), min_size=2, max_size=4).map(",".join),
    "cone": st.tuples(*[_field()] * 4).map(lambda f: f"({f[0]},{f[1]}),({f[2]},{f[3]})"),
    "interval": st.lists(_field(), min_size=1, max_size=4).map(
        lambda f: ",".join("/".join(f[i:i + 2]) for i in range(0, len(f), 2))
    ),
    "cf": st.lists(_field(), min_size=0, max_size=6).map(",".join),
}
_INPUTS = st.one_of(
    st.sampled_from(sorted(_PAYLOADS)).flatmap(
        lambda tag: _PAYLOADS[tag].map(lambda payload: f"{tag}:{payload}")
    ),
    st.text(max_size=30),
)


class TestGrammarFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_INPUTS, st.sampled_from(["nq", "abc", "cone", "interval", "cf", "--all", "--json"]))
    def test_convert_ends_with_a_documented_code(self, text, target):
        argv = ["convert", text] + (["--to", target] if not target.startswith("-") else [target])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects an input that looks like an option
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code:
            assert out.getvalue() == "" and err.getvalue().count("\n") >= 1
