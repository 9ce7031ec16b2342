"""README's Library section runs, and the names the package exports exist.

``cqs/__init__.py`` re-exports names from every module, and README's
Library section calls functions by name; a rename must reach both.
"""

import ast
import importlib
import re
from pathlib import Path

import cqs

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "cone_geometry", "deformations", "lattice", "representations", "verify")


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
            expected = eval(comment.strip(), vars(cqs))
        except (SyntaxError, NameError):  # prose
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked >= 2


def test_every_re_export_is_the_module_attribute():
    tree = ast.parse(Path(cqs.__file__).read_text())
    exported = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"cqs.{node.module}")
            for alias in node.names:
                assert getattr(cqs, alias.name) is getattr(module, alias.name), alias.name
                exported += 1
    assert exported > 50


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
