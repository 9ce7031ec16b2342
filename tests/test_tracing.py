"""The traced CLI (benchmarks/tracer.py) keeps the CLI's stdout and counts zones.

The benchmark's per-layer metrics read the function names below and the
``zone_points(ZoneSpec, cd)`` arguments, so a rename or a new signature
shows here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MARKER = "PERFBENCH_TRACE "


def test_traced_scan_keeps_stdout_and_counts_zones():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "tracer.py"), "scan", "25"],
        capture_output=True, cwd=ROOT, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / "scan_25.csv").read_bytes()
    lines = [line for line in proc.stderr.decode().splitlines() if line.startswith(MARKER)]
    assert len(lines) == 1, proc.stderr.decode()
    trace = json.loads(lines[0][len(MARKER):])
    assert trace["calls"]["cone_geometry.zone_points"] > 0
    assert trace["calls"]["deformations.w_fast"] > 0
    assert trace["counts"]["zone_points.fibers"] > 0
    # totals reads W from w_fast, so the oracle's zone counter stays empty
    assert "deformations.w_dims_oracle" not in trace["calls"]
    assert trace["counts"].get("w_dims_oracle.zone_points", 0) == 0


def test_traced_scan_with_two_workers_prints_one_trace():
    # forked workers end in os._exit, so only the parent reaches the
    # tracer's report; its counters cover the parent's share of the classes
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'benchmarks')!r})\n"
        "import cqs.verify, tracer\n"
        "cqs.verify.cpu_count = lambda: 2\n"
        "sys.exit(tracer.main(['scan', '25']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, cwd=ROOT, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / "scan_25.csv").read_bytes()
    lines = [line for line in proc.stderr.decode().splitlines() if line.startswith(MARKER)]
    assert len(lines) == 1, proc.stderr.decode()
    trace = json.loads(lines[0][len(MARKER):])
    classes = len(proc.stdout.splitlines()) - 1
    assert 0 < trace["calls"]["deformations.totals"] < classes


@pytest.mark.parametrize("args, calls, fibers, points", [
    (["scan", "25"], 650, 3_986, 1_120),
    (["analyze", "nq:301/2", "--json"], 150, 11_325, 296),
    (["analyze", "nq:301/151", "--json"], 150, 22_500, 296),
])
def test_zone_walk_is_pinned(args, calls, fibers, points):
    # the zones totals requests, and the fibers and points zone_points walks
    # for them, at one worker; analyze_long's time and memory follow these
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'benchmarks')!r})\n"
        "import cqs.verify, tracer\n"
        "cqs.verify.cpu_count = lambda: 1\n"
        f"sys.exit(tracer.main({args!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, cwd=ROOT, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    lines = [line for line in proc.stderr.decode().splitlines() if line.startswith(MARKER)]
    assert len(lines) == 1, proc.stderr.decode()
    trace = json.loads(lines[0][len(MARKER):])
    assert trace["calls"]["cone_geometry.zone_points"] == calls
    assert trace["counts"]["zone_points.fibers"] == fibers
    assert trace["counts"]["zone_points.points"] == points


def test_oracle_walk_is_pinned():
    # the zones verify's oracles request, at one worker: every oracle zone
    # is walked by zone_walk, none is skipped or derived from another by
    # translation.  The tracer counts fibers and points of zone_points
    # calls only, so verify's zone counters stay empty
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'benchmarks')!r})\n"
        "import cqs.verify, tracer\n"
        "cqs.verify.cpu_count = lambda: 1\n"
        "sys.exit(tracer.main(['verify', '12']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, cwd=ROOT, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().endswith("all checks passed (3171 checks)\n")
    lines = [line for line in proc.stderr.decode().splitlines() if line.startswith(MARKER)]
    assert len(lines) == 1, proc.stderr.decode()
    trace = json.loads(lines[0][len(MARKER):])
    assert trace["calls"]["cone_geometry.zone_walk"] == 1_033
    assert "cone_geometry.zone_points" not in trace["calls"]
    assert trace["counts"].get("zone_points.fibers", 0) == 0
    assert trace["counts"].get("zone_points.points", 0) == 0
