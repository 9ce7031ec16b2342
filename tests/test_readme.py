"""README's Library section runs, the names the package exports exist, and
the size bounds README prints are those of the modules it cites.

``cqs.<name>`` looks ``name`` up in the computing modules, and README's
Library section calls functions by name; a rename must reach both.
"""

import importlib
import re
from pathlib import Path
from types import FunctionType

import cqs

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "cone_geometry", "deformations", "lattice", "representations", "verify")
COMPUTING = ("lattice", "representations", "cone_geometry", "deformations")


def library_section():
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_example_runs():
    # a comment that is itself an expression must equal its line's value
    block = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    namespace = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if not sep or not code.strip():
            continue
        try:
            tree = compile(comment.strip(), "<comment>", "eval")
            names = {name: getattr(cqs, name) for name in tree.co_names}
        except (SyntaxError, AttributeError):  # prose
            continue
        expected = eval(tree, names)
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked >= 2


def test_every_re_export_is_the_module_attribute():
    # every public class and function of a computing module is cqs.<name>
    exported = 0
    for stem in COMPUTING:
        module = importlib.import_module(f"cqs.{stem}")
        for name, obj in vars(module).items():
            if isinstance(obj, (type, FunctionType)) and obj.__module__ == module.__name__ \
                    and not name.startswith("_"):
                assert getattr(cqs, name) is obj, name
                exported += 1
    assert exported > 50
    assert cqs.SingularityForm is importlib.import_module("cqs.representations").SingularityForm
    for name in ("gcd", "NamedTuple", "_Frozen", "run_checks"):
        assert not hasattr(cqs, name), name


def test_functions_named_in_the_library_section_exist():
    modules = [cqs] + [importlib.import_module(f"cqs.{name}") for name in MODULES]
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", library_section()))
    assert names
    for name in names:
        if name.startswith("cqs."):
            module, _, attr = name.rpartition(".")
            assert hasattr(importlib.import_module(module), attr), name
        elif "." not in name:
            assert any(hasattr(m, name) for m in modules), name


def test_size_bounds_match_their_modules():
    # a bound such as "`MAX_CF_TERMS` = 500,000 ... (`src/cqs/cone_geometry.py`)"
    # is that attribute of the one module its paragraph or bullet cites
    text = README.read_text()
    blocks = [b for chunk in text.split("\n\n") for b in chunk.split("\n* ")]
    defined = {}
    for block in blocks:
        block = " ".join(block.split())
        for name, value in re.findall(r"`(MAX_\w+|ORACLE_BOUND)` = (\d[\d,]*(?:\^\d+)?)", block):
            (stem,) = set(re.findall(r"`src/cqs/(\w+)\.py`", block))
            base, _, exp = value.replace(",", "").partition("^")
            module = importlib.import_module(f"cqs.{stem}")
            assert getattr(module, name) == int(base) ** int(exp or 1), (name, stem)
            defined[name] = stem
    named = set(re.findall(r"`(MAX_\w+|ORACLE_BOUND)`", text))
    assert named == defined.keys() and len(named) == 5, named ^ defined.keys()
