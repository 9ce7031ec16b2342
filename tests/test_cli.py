import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cqs
from cqs import cli
from cqs.cli import main, parse_form
from cqs.lattice import NPoint
from cqs.representations import (
    ABCForm,
    CFForm,
    ConeForm,
    IntervalUD,
    InvalidSingularityError,
    NQForm,
)

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_roundtrip_through_grammar(self, capsys):
        for text in ("nq:20/11", "abc:5,4,3", "cone:(1,0),(-11,20)", "interval:-2/5,2/5"):
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

    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("analyze_20_11.json", ("nq:20/11", "--json")),
            ("analyze_8_3.json", ("nq:8/3", "--json")),
            ("analyze_20_11.csv", ("nq:20/11", "--csv")),
            ("analyze_5_4_degenerate.json", ("nq:5/4", "--allow-degenerate", "--json")),
        ],
    )
    def test_golden_analyze(self, capsys, golden, argv):
        code, out, _ = run(capsys, "analyze", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

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


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "8")
        assert code == 0
        assert "all checks passed" in out

    def test_trivial_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "2")
        assert code == 0

    def test_bound_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("CQS_ORACLE_BOUND", "50")
        code, _, err = run(capsys, "verify", "60")
        assert code == 2
        assert "oracle" in err
        for bad in ("abc", "-5", "0"):
            monkeypatch.setenv("CQS_ORACLE_BOUND", bad)
            code, out, err = run(capsys, "verify", "8")
            assert code == 2, bad
            assert "CQS_ORACLE_BOUND" in err and not out, bad

    def test_totals_once_per_class(self, monkeypatch):
        # a mirror's report, computed for the mirror comparison, is reused
        # when the sweep reaches that mirror
        from cqs import deformations, verify

        seen, built = [], []
        real = deformations.totals
        monkeypatch.setattr(deformations, "totals", lambda cd: seen.append(cd.nq) or real(cd))
        real_data = verify.class_data
        monkeypatch.setattr(
            verify, "class_data", lambda cone: built.append(real_data(cone)) or built[-1]
        )
        assert verify.verify_deformations(20).ok
        classes = list(verify.nq_range(20, skip_degenerate=True))
        assert sorted(seen, key=lambda nq: (nq.n, nq.q)) == classes
        assert sorted((cd.nq for cd in built), key=lambda nq: (nq.n, nq.q)) == classes

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
        src = str(Path(cqs.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cqs", "analyze", "nq:1001/2", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
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
