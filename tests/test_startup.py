"""A cold `cqs` call imports only what its command runs.

Every call is a fresh interpreter, so what the CLI imports is paid on each
one.  ``python -X importtime`` names every module a process imports; the
modules of a bare ``python -c pass`` are subtracted, so the tests see what
`cqs` itself loads, whatever the interpreter's site setup imports.
`import cqs` loads no computing module; ``cqs.<name>`` loads the modules
up to the one that defines ``name``.  No package source imports
``dataclasses`` or ``fractions``, so no command loads ``fractions``,
``verify`` included: every number of the package is an integer.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import cqs

from test_cli import cqs_env

SLOW_IMPORTS = {"dataclasses", "inspect", "cqs.verify"}


def imported(*argv):
    """The modules a fresh interpreter imports to run ``argv``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env=cqs_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }


@pytest.fixture(scope="module")
def bare():
    return imported("-c", "pass")


@pytest.mark.parametrize("args", [["--version"], ["analyze", "nq:20/11", "--json"]])
def test_version_and_analyze_skip_the_slow_imports(bare, args):
    loaded = imported("-m", "cqs", *args) - bare
    assert "cqs.cli" in loaded
    assert not loaded & SLOW_IMPORTS, sorted(loaded & SLOW_IMPORTS)


def cqs_modules(code):
    """The `cqs` modules in ``sys.modules`` after a fresh interpreter runs ``code``.

    ``cqs.<name>`` loads through ``importlib.import_module``, which
    ``-X importtime`` does not report.
    """
    probe = f"{code}; import sys; print(*(m for m in sys.modules if m.split('.')[0] == 'cqs'))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=cqs_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_cqs_loads_no_submodule():
    assert cqs_modules("import cqs") == {"cqs"}


def test_a_package_name_loads_its_module_only():
    loaded = cqs_modules("from cqs import totals")
    assert "cqs.deformations" in loaded
    assert not loaded & {"cqs.cli", "cqs.verify"}, sorted(loaded)


def test_the_package_version_is_the_project_version():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (Path(cqs.__file__).resolve().parents[2] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert re.search(r'^version = "(.+)"$', project, re.M).group(1) == cqs.__version__


def test_json_is_loaded_only_to_print_json(bare):
    assert "json" not in imported("-m", "cqs", "analyze", "nq:20/11") - bare
    assert "json" in imported("-m", "cqs", "analyze", "nq:20/11", "--json") - bare


@pytest.mark.parametrize("args", [
    ["analyze", "nq:20/11", "--json"], ["convert", "nq:20/11", "--json"],
    ["cayley", "nq:20/11", "--json"], ["scan", "7"], ["verify", "12"],
])
def test_fractions_is_not_loaded(bare, args):
    # every rational is an integer numerator over m, and eta, which verify
    # reads, an integer pair
    assert "fractions" not in imported("-m", "cqs", *args) - bare


def test_scan_loads_verify(bare):
    assert "cqs.verify" in imported("-m", "cqs", "scan", "7") - bare


@pytest.mark.parametrize("text", ["dataclass", "import fractions", "from fractions"],
                         ids=["dataclass", "import-fractions", "from-fractions"])
def test_no_package_source_contains(text):
    # the import, not the word: cli's docstrings name Fraction
    package = Path(cqs.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        assert text not in path.read_text(), path.name


def test_no_module_reads_the_environment():
    # every bound and switch of the program is a constant or an option
    package = Path(cqs.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path.name
