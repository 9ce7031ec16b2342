"""The CI workflow's own steps, run here as CI runs them.

Each ``run:`` step of ``.github/workflows/tests.yml`` other than the
install and the tier-1 run (this suite itself) runs under
``bash -eo pipefail``, GitHub's shell for ``run:``, from the repository
root.  A ``cqs`` shim on PATH stands for the installed console script and
runs these sources, and RUNNER_TEMP is the test's own directory, so a step
that fails in CI fails here first.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import cqs_env

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def checked_steps():
    """(name, script) of each ``run:`` step that neither installs nor runs pytest."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    steps = [step for job in jobs.values() for step in job["steps"] if "run" in step]
    return [
        (step["name"], step["run"]) for step in steps
        if "pip install" not in step["run"] and "pytest" not in step["run"]
    ]


STEPS = checked_steps()


def test_the_workflow_has_steps_to_check():
    assert len(STEPS) >= 2


@pytest.mark.parametrize("name,script", STEPS, ids=[name for name, _ in STEPS])
def test_workflow_step_passes(name, script, tmp_path):
    shims = tmp_path / "bin"
    shims.mkdir()
    shim = shims / "cqs"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m cqs "$@"\n')
    shim.chmod(0o755)
    env = cqs_env()
    env.update(PATH=f"{shims}:{env.get('PATH', '')}", RUNNER_TEMP=str(tmp_path))
    done = subprocess.run(
        ["bash", "-eo", "pipefail", "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, f"{name}:\n{done.stdout}\n{done.stderr}"
