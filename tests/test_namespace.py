"""The package namespace: each public name loads its home module on first
read, and each entry point loads only the modules it needs."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import houghton
from houghton import cli, conjugacy, core, oracle
from instances import package_env

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_is_its_home_modules_object():
    for name, home in houghton._HOMES.items():
        assert getattr(houghton, name) is getattr(importlib.import_module("houghton." + home), name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from houghton import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(houghton.__all__)
    assert all(namespace[name] is getattr(houghton, name) for name in houghton.__all__)


def test_dir_lists_every_public_name():
    assert set(houghton.__all__) <= set(dir(houghton))


def test_readme_agrees_with_the_code():
    # every public name starts an inline code span (not merely a word of
    # prose), every command is named as `houghton <command>`, every test the
    # README cites as tests/<file>.py::<name> is a test function of that
    # file, and every Python block runs as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    spans = {re.match(r"\w*", span).group() for span in re.findall(r"`([^`]+)`", prose)}
    assert set(houghton.__all__) - spans == set()
    assert [c for c in cli._GRAMMAR if not re.search(r"\bhoughton %s\b" % c, readme)] == []
    cited = set(re.findall(r"tests/(\w+\.py)::(\w+)", readme))
    assert cited
    for name in {file for file, _ in cited}:
        tree = ast.parse((ROOT / "tests" / name).read_text(encoding="utf-8"))
        tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert {test for file, test in cited if file == name} - tests == set(), name
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        houghton.no_such_name


def test_verify_is_one_function():
    assert conjugacy.verify is core.verify is oracle.verify is houghton.verify


def loaded_modules(script):
    """The `houghton` modules that `script` has loaded, in a fresh
    interpreter with this package first on its path."""
    script += "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'houghton')))\n"
    done = subprocess.run([sys.executable, "-c", script], env=package_env(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.split()


def test_import_loads_no_submodule():
    assert loaded_modules("import houghton") == ["houghton"]


def test_evaluating_a_word_loads_only_core():
    script = "import houghton\nhoughton.evaluate(houghton.Word.parse(3, 'g2 g3'))"
    assert loaded_modules(script) == ["houghton", "houghton.core"]


def test_a_search_loads_only_core_and_oracle():
    script = (
        "from houghton import SearchBudget, brute_force_conjugator, generator\n"
        "assert brute_force_conjugator(generator(3, 'g2'), generator(3, 'g3'), SearchBudget(2)) is None"
    )
    assert loaded_modules(script) == ["houghton", "houghton.core", "houghton.oracle"]
