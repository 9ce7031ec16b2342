"""The benchmark's output checks accept real `cqs` output and reject corruptions.

Run from the root of the repository:  python3 -m pytest benchmarks/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent.parent


def cqs(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CQS_ORACLE_BOUND", None)
    return subprocess.run(
        [sys.executable, "-m", "cqs", *args], env=env, capture_output=True, text=True, check=True
    ).stdout


@pytest.fixture(scope="module")
def scan_25() -> str:
    return cqs("scan", "25")


def analyze(n: int, q: int) -> dict:
    return json.loads(cqs("analyze", f"nq:{n}/{q}", "--json"))


def replace_field(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[checks.SCAN_HEADER.split(",").index(column)] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_real_scan_passes_including_every_w_entry(scan_25):
    rows = checks.check_scan(scan_25, 25)
    assert checks.check_w_sample(rows, seed=0, size=len(rows), n_limit=25) == len(rows)


@pytest.mark.parametrize(
    "column, value",
    [("dim_v", "7"), ("dim_qg", "3"), ("dim_t1", "99"), ("gap", "9"), ("e", "5"),
     ("grounded", "yes")],
)
def test_corrupted_scan_row_is_rejected(scan_25, column, value):
    bad = replace_field(scan_25, 20, column, value)
    assert bad != scan_25
    with pytest.raises(CheckError):
        checks.check_scan(bad, 25)


def test_missing_scan_row_is_rejected(scan_25):
    lines = scan_25.splitlines()
    with pytest.raises(CheckError):
        checks.check_scan("\n".join(lines[:5] + lines[6:]), 25)


def test_wrong_w_entry_is_rejected_by_the_brute_force(scan_25):
    rows = checks.check_scan(scan_25, 25)
    # dim_w = 1 on a class with dim_t1 = 4 and VW = 1: W = 2 still passes
    # every inclusion and formula check, so only the brute force sees it
    row = next(r for r in rows if (r["n"], r["q"]) == (4, 1))
    assert (row["dim_w"], row["dim_vw"], row["dim_t1"]) == (1, 1, 4)
    corrupted = replace_field(scan_25, rows.index(row) + 1, "dim_w", "2")
    bad_rows = checks.check_scan(corrupted, 25)
    bad_row = next(r for r in bad_rows if (r["n"], r["q"]) == (4, 1))
    with pytest.raises(CheckError):
        checks.check_w_sample([bad_row], seed=0, size=1, n_limit=25)


def test_mirror_pair_passes_and_a_non_reversed_table_is_rejected():
    n, q = 19, 7
    doc, mirror = analyze(n, q), analyze(n, checks.mirror_q(n, q))
    checks.check_analyze(doc, n, q)
    checks.check_mirror(doc, mirror)
    # the table of 19/7 is not a palindrome, so it is not its own mirror
    with pytest.raises(CheckError):
        checks.check_mirror(doc, doc)


def test_analyze_totals_must_match_the_per_degree_sums():
    doc = analyze(20, 11)
    checks.check_analyze(doc, 20, 11)
    doc["t1"]["per_degree"][0]["dim_w"] += 1
    with pytest.raises(CheckError):
        checks.check_analyze(doc, 20, 11)


def test_verify_mismatch_is_rejected():
    text = cqs("verify", "8")
    checks.check_verify(text, 8)
    with pytest.raises(CheckError):
        checks.check_verify("MISMATCH n=5 q=2 property=x\n" + text, 8)
