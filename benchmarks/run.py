"""Benchmark of the `cqs` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {scan,verify,analyze_wide,analyze_long}
                              --seed N --seconds S --trace {0,1}

Each workload is a closed loop: one client runs one `cqs` child process at a
time, each in a fresh interpreter, so every call starts with cold caches as
a user's does.  The run repeats whole rounds of the workload's operations
until S seconds have passed, then checks every output against the
independent computations in checks.py (outside the timed region) and prints
one JSON object as its last line of output.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1,
untraced rounds alternate with rounds run under tracer.py, and the result
holds the per-layer metrics of the traced rounds and the tracing overhead.

Every reported time is scaled to a reference machine speed by a fixed
probe run next to each call (see Runner).  Every child gets at most
OP_TIMEOUT_S seconds and OP_MEMORY_MB of address space.  An operation
fails when it exceeds either limit, exits nonzero, or prints a wrong
answer; failed operations count in `failed` and are left out of every
timing.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import selectors
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
from checks import CheckError
from tracer import MARKER

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"

OP_TIMEOUT_S = 60
OP_MEMORY_MB = 128
SETUP_REPEATS = 7
# A fixed pure-Python load, run in a fresh interpreter after every call.
# The VM this benchmark was tuned on switches between a fast and a slow
# state (the same call takes up to 1.7 times as long) for stretches of
# seconds to minutes, and the probe slows down in step with the calls.
# Each call's time is multiplied by PROBE_S over the mean time of the
# probes run just before and just after it.
PROBE = (
    "from fractions import Fraction\n"
    "s = Fraction(0)\n"
    "for i in range(1, 100000):\n"
    "    s += Fraction(i % 97, 1 + i % 89)\n"
)
PROBE_S = 0.3

SCAN_N = 100
VERIFY_N = 30
W_SAMPLE_SIZE = 200  # scan rows whose W column is re-derived by brute force
W_SAMPLE_MAX_N = 60
# e = 4 classes nq:(2a-1)/(a-1), continued fraction [2, a]: a few degrees
# with large zones.  The window is narrow so that every seed costs the same.
WIDE_A = range(395, 406)
# classes nq:(2t+1)/2, continued fraction [2, ..., 2, 3], e = t + 2: many
# degrees with small zones.
LONG_T = range(1497, 1503)
# The W oracle runs with no work or memory guard; this class neither
# finishes nor refuses, so it fails on the memory limit in every round.
UNGUARDED = (1000003, 500001)


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]
    classes: int
    degrees: int


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    ok: bool  # exit 0 within the limits; the output is checked later
    stdout: str
    trace: dict | None = None
    scale: float = 1.0  # PROBE_S over the probe time around this call

    @property
    def time_s(self) -> float:
        """Wall time scaled to the reference machine speed."""
        return self.wall_s * self.scale


@dataclass
class Workload:
    ops: list[Op]
    # (ops, check): check gets the outputs of ops and raises on a wrong one
    checks: list[tuple[tuple[Op, ...], Callable[..., None]]] = field(default_factory=list)


def add_analyze(w: Workload, n: int, q: int) -> Op:
    op = Op(("analyze", f"nq:{n}/{q}", "--json"), 1, len(checks.class_data(n, q).degrees()))
    w.ops.append(op)
    w.checks.append(((op,), lambda text: checks.check_analyze(json.loads(text), n, q)))
    return op


def add_mirror_pair(w: Workload, n: int, q: int) -> None:
    pair = (add_analyze(w, n, q), add_analyze(w, n, checks.mirror_q(n, q)))
    w.checks.append((pair, lambda a, b: checks.check_mirror(json.loads(a), json.loads(b))))


def build_workload(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "scan":
        classes = checks.scan_classes(SCAN_N)
        op = Op(("scan", str(SCAN_N)), len(classes), sum(len(c.degrees()) for c in classes))

        def check_scan(text: str) -> None:
            rows = checks.check_scan(text, SCAN_N)
            checks.check_w_sample(rows, seed, W_SAMPLE_SIZE, W_SAMPLE_MAX_N)

        return Workload([op], [((op,), check_scan)])
    if name == "verify":
        classes = [checks.class_data(n, q) for n, q in checks.all_classes(VERIFY_N)]
        degrees = sum(len(c.degrees()) for c in classes if not c.degenerate)
        op = Op(("verify", str(VERIFY_N)), len(classes), degrees)
        return Workload([op], [((op,), lambda text: checks.check_verify(text, VERIFY_N))])
    w = Workload([])
    if name == "analyze_wide":
        a = rng.choice(WIDE_A)
        add_mirror_pair(w, 2 * a - 1, a - 1)
        add_analyze(w, *UNGUARDED)
    elif name == "analyze_long":
        t = rng.choice(LONG_T)
        add_mirror_pair(w, 2 * t + 1, 2)
    else:
        raise ValueError(name)
    return w


def _limit_memory() -> None:
    cap = OP_MEMORY_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_child(argv: list[str], env: dict) -> Outcome:
    """Run one child to completion; wall time, peak RSS and output."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        preexec_fn=_limit_memory,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + OP_TIMEOUT_S - perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stdout = b"".join(chunks[proc.stdout]).decode()
    stderr = b"".join(chunks[proc.stderr]).decode(errors="replace")
    trace = None
    for line in stderr.splitlines():
        if line.startswith(MARKER):
            trace = json.loads(line[len(MARKER):])
    ok = proc.returncode == 0 and not timed_out
    return Outcome(wall, usage.ru_maxrss / 1024, ok, stdout, trace)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CQS_ORACLE_BOUND", None)
    return env


def cqs_argv(op: Op, traced: bool) -> list[str]:
    head = [sys.executable, str(TRACER)] if traced else [sys.executable, "-m", "cqs"]
    return head + list(op.args)


class Runner:
    """Runs children one at a time, each followed by the speed probe."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.last_probe = self._probe()

    def _probe(self) -> float:
        out = run_child([sys.executable, "-c", PROBE], self.env)
        if not out.ok:
            raise SystemExit("error: the speed probe failed")
        return out.wall_s

    def run(self, argv: list[str]) -> Outcome:
        out = run_child(argv, self.env)
        before, self.last_probe = self.last_probe, self._probe()
        out.scale = 2 * PROBE_S / (before + self.last_probe)
        return out


def measure_setup(runner: Runner) -> float:
    """Median time of a fresh `cqs --version`: interpreter start plus import."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = runner.run([sys.executable, "-m", "cqs", "--version"])
        if not (out.ok and out.stdout.startswith("cqs ")):
            raise SystemExit("error: `cqs --version` failed")
        if i:  # the first call only warms the file cache
            times.append(out.time_s)
    return statistics.median(times)


def wrong_outputs(w: Workload, outcomes: list[tuple[Op, Outcome]]) -> dict[Op, str]:
    """Ops whose output is wrong, with the reason; outside the timed region."""
    wrong, outputs = {}, {}
    for op in w.ops:
        texts = {o.stdout for o_op, o in outcomes if o_op == op and o.ok}
        if len(texts) > 1:
            wrong[op] = "output differs between rounds"
        elif texts:
            outputs[op] = texts.pop()
    for ops, check in w.checks:
        if all(op in outputs for op in ops):
            try:
                check(*(outputs[op] for op in ops))
            except (CheckError, LookupError, TypeError, ValueError) as exc:
                for op in ops:
                    wrong.setdefault(op, f"{type(exc).__name__}: {exc}")
    return wrong


def layer_metrics(traced: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced round (the sum over its children)."""
    calls, self_s, total_s, counts = ({}, {}, {}, {})
    for o in traced:
        for acc, key, scale in ((calls, "calls", 1), (self_s, "self_s", o.scale),
                                (total_s, "total_s", o.scale), (counts, "counts", 1)):
            for name, value in o.trace[key].items():
                acc[name] = acc.get(name, 0) + value * scale

    def total(acc: dict, *names: str) -> float:
        return sum(acc.get(n, 0) for n in names)

    def layer(acc: dict, prefix: str) -> float:
        return sum(v for n, v in acc.items() if n.startswith(prefix + "."))

    zone_oracles = tuple(f"deformations.{f}" for f in (
        "iso_oracle", "stable_iso_oracle", "qg_oracle", "vw_oracle", "v_dims_oracle",
        "vw_dims_oracle"))
    closed_forms = ("deformations.v_dims", "deformations.qg_dims", "deformations.vw_dims")
    fibers = counts.get("zone_points.fibers", 0)
    points = counts.get("zone_points.points", 0)
    return {
        "cone_geometry.zone_points.calls": total(calls, "cone_geometry.zone_points"),
        "cone_geometry.zone_points.self_s": total(self_s, "cone_geometry.zone_points"),
        "cone_geometry.zone_points.fibers": fibers,
        "cone_geometry.zone_points.points": points,
        "cone_geometry.zone_points.points_per_fiber": points / fibers if fibers else 0.0,
        "deformations.w_dims_oracle.self_s": total(self_s, "deformations.w_dims_oracle"),
        "deformations.w_dims_oracle.zone_points": counts.get("w_dims_oracle.zone_points", 0),
        "deformations.zone_oracles.calls": total(calls, *zone_oracles),
        "deformations.zone_oracles.self_s": total(self_s, *zone_oracles),
        "cone_geometry.hilbert_basis_oracle.self_s":
            total(self_s, "cone_geometry.hilbert_basis_oracle"),
        "cone_geometry.hilbert_basis.calls": total(calls, "cone_geometry.hilbert_basis"),
        "cone_geometry.hilbert_basis.self_s": total(self_s, "cone_geometry.hilbert_basis"),
        "representations.calls": layer(calls, "representations"),
        "representations.self_s": layer(self_s, "representations"),
        "deformations.totals.calls": total(calls, "deformations.totals"),
        "deformations.totals.self_s": total(self_s, "deformations.totals"),
        "deformations.closed_forms.self_s": total(self_s, *closed_forms),
        "cone_geometry.self_s": layer(self_s, "cone_geometry"),
        "deformations.self_s": layer(self_s, "deformations"),
        "verify.self_s": layer(self_s, "verify"),
        "cli.self_s": layer(self_s, "cli"),
        "cli.build_report_document_s": total(total_s, "cli.build_report_document"),
    }


UNITS = {"classes_per_s": "1/s", "degrees_per_s": "1/s", "peak_rss_mb": "MB",
         "calls": "count", "fibers": "count", "points": "count", "zone_points": "count",
         "points_per_fiber": "points/fiber"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "verify", "analyze_wide", "analyze_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cqs" / "__main__.py").is_file():
        print(f"error: no cqs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(child_env())
    w = build_workload(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup(runner)
    # with --trace 1, odd rounds run under the tracer
    rounds: list[tuple[bool, list[tuple[Op, Outcome]]]] = []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds or (args.trace and len(rounds) < 2):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append((traced, [(op, runner.run(cqs_argv(op, traced))) for op in w.ops]))

    outcomes = [pair for _, r in rounds for pair in r]
    wrong = wrong_outputs(w, outcomes)
    for op, why in wrong.items():
        print(f"WRONG {' '.join(op.args)}: {why}", file=sys.stderr)

    def good(pairs: list[tuple[Op, Outcome]]) -> list[tuple[Op, Outcome]]:
        return [(op, o) for op, o in pairs if o.ok and op not in wrong]

    done = good(outcomes)
    if not done:
        print("error: no operation succeeded", file=sys.stderr)
        return 1

    if args.trace:
        def round_wall(traced: bool) -> float:
            return statistics.median(sum(o.time_s for _, o in good(r)) for t, r in rounds
                                     if t == traced)

        per_round = [layer_metrics([o for _, o in good(r)]) for t, r in rounds if t]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        metrics["trace.overhead_s"] = round_wall(True) - round_wall(False)
    else:
        times: dict[Op, list[float]] = {}
        for op, o in done:
            times.setdefault(op, []).append(o.time_s)
        # a round's time is the sum of each operation's median time
        medians = {op: statistics.median(ts) for op, ts in times.items()}
        round_s = sum(medians.values())
        metrics = {
            "setup_s": setup_s,
            "wall_s": round_s,
            "classes_per_s": sum(op.classes for op in medians) / round_s,
            "degrees_per_s": sum(op.degrees for op in medians) / round_s,
            "peak_rss_mb": max(o.rss_mb for _, o in done),
            "invocation_p50_s": round_s / len(medians),
        }
    report = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    for name, m in report.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(done),
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
