"""scan and verify give the same output at any worker count.

``verify.fan_out`` spreads a sweep over ``verify.cpu_count()`` processes;
these tests pin that count by replacing the function, which is a test
seam and not a user option.  Forked workers inherit the replacement, and
any other monkeypatch made before the sweep starts.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cqs import cli, deformations, verify

from test_cli import cqs_env, run

GOLDEN = Path(__file__).parent / "golden"


def workers(monkeypatch, count):
    monkeypatch.setattr(verify, "cpu_count", lambda: count)


def sweep(capsys, monkeypatch, count, *argv):
    workers(monkeypatch, count)
    return run(capsys, *argv)


class TestFanOut:
    @pytest.mark.parametrize("count", [1, 2, 3, 40])
    def test_results_come_back_in_order(self, monkeypatch, count):
        workers(monkeypatch, count)
        assert list(verify.fan_out(lambda x: (x, x * x), range(17))) == [
            (x, x * x) for x in range(17)
        ]
        assert list(verify.fan_out(str, [])) == []

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_an_exception_is_raised_at_its_turn(self, monkeypatch, count):
        def work(x):
            if x == 7:
                raise ValueError(f"item {x}")
            return x

        workers(monkeypatch, count)
        seen = []
        with pytest.raises(ValueError, match="item 7"):
            for x in verify.fan_out(work, range(20)):
                seen.append(x)
        assert seen == list(range(7))
        assert _no_children()

    def test_an_exception_that_does_not_unpickle_still_arrives(self, monkeypatch):
        class TwoArgs(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a}/{b}")

        def work(x):
            if x == 1:  # worker 1's first item
                raise TwoArgs(x, 2)
            return x

        workers(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="TwoArgs: 1/2"):
            list(verify.fan_out(work, range(4)))

    def test_one_worker_streams_here_and_forks_nothing(self, monkeypatch):
        done = []

        def work(x):
            done.append(x)
            if x == 3:
                raise ValueError(f"item {x}")
            return x

        workers(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one worker"))
        rows = verify.fan_out(work, range(10))
        assert (next(rows), done) == (0, [0])  # computed at its turn, not ahead
        assert (next(rows), next(rows), done) == (1, 2, [0, 1, 2])
        with pytest.raises(ValueError, match="item 3"):
            next(rows)
        assert done == [0, 1, 2, 3]

    def test_no_items_yield_nothing_and_fork_nothing(self, monkeypatch):
        workers(monkeypatch, 40)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for no items"))
        assert list(verify.fan_out(str, [])) == []

    def test_workers_are_capped_at_the_number_of_items(self, monkeypatch):
        real, forked = os.fork, []

        def fork():
            pid = real()
            if pid:
                forked.append(pid)
            return pid

        workers(monkeypatch, 40)
        monkeypatch.setattr(os, "fork", fork)
        assert list(verify.fan_out(lambda x: x * x, range(3))) == [0, 1, 4]
        assert len(forked) == 2
        assert _no_children()

    def test_leaving_the_loop_ends_every_worker(self, monkeypatch):
        workers(monkeypatch, 3)
        rows = verify.fan_out(lambda x: time.sleep(0.01) or x, range(1000))
        assert next(rows) == 0
        rows.close()
        assert _no_children()


def _no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestScanAndVerify:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_scan_25_matches_the_golden(self, capsys, monkeypatch, count):
        code, out, _ = sweep(capsys, monkeypatch, count, "scan", "25")
        assert code == 0
        assert out == (GOLDEN / "scan_25.csv").read_text()

    @pytest.mark.parametrize("count", [2, 3])
    def test_scan_all_q_matches_the_serial_run(self, capsys, monkeypatch, count):
        serial = sweep(capsys, monkeypatch, 1, "scan", "7", "--all-q")
        assert sweep(capsys, monkeypatch, count, "scan", "7", "--all-q") == serial

    def test_verify_matches_the_serial_run(self, capsys, monkeypatch):
        serial = sweep(capsys, monkeypatch, 1, "verify", "12")
        assert serial[0] == 0
        assert sweep(capsys, monkeypatch, 2, "verify", "12") == serial

    def test_injected_fault_gives_the_same_mismatches(self, capsys, monkeypatch):
        # the sabotage of test_cli's test_injected_fault_detected; fork
        # copies the patched module into every worker
        real = deformations.vw_dims

        def broken(cd):
            out = real(cd)
            for d in out:
                if out[d] == 0 and d.k == 1 and 3 <= d.i <= cd.hilbert.e - 2:
                    out[d] = 1
                    break
            return out

        monkeypatch.setattr(deformations, "vw_dims", broken)
        serial = sweep(capsys, monkeypatch, 1, "verify", "10")
        assert serial[0] == 1 and "MISMATCH" in serial[1]
        assert sweep(capsys, monkeypatch, 2, "verify", "10") == serial

    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize("count", [1, 2])
    def test_moved_chain_threshold_is_a_mismatch(self, capsys, monkeypatch, shift, count):
        # w_fast's threshold off by one must fail the per-degree comparison
        # with the W rank, in the parent and in a forked worker alike
        real = deformations.w_chain_threshold
        monkeypatch.setattr(
            deformations, "w_chain_threshold", lambda *args: real(*args) + shift
        )
        code, out, _ = sweep(capsys, monkeypatch, count, "verify", "12")
        assert code == 1
        lines = [line for line in out.splitlines() if line.startswith("MISMATCH ")]
        assert lines and all(line.endswith(" property=w_fast_vs_oracle") for line in lines)

    def test_closed_pipe_ends_every_worker(self):
        # `cqs scan 400 | head -1` with two workers, in a session of its own
        code = (
            "import sys, cqs.verify\n"
            "cqs.verify.cpu_count = lambda: 2\n"
            "from cqs.cli import main\n"
            "sys.exit(main(['scan', '400']))\n"
        )
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=cqs_env(), start_new_session=True,
        )
        try:
            assert proc.stdout.readline() == (cli.SCAN_HEADER + "\n").encode()
            proc.stdout.close()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert time.monotonic() - start < 10
        assert "Traceback" not in err and "BrokenPipe" not in err, err
        with pytest.raises(ProcessLookupError):  # nothing of the session is left
            os.killpg(proc.pid, 0)
