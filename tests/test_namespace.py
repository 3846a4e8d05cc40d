"""The package namespace: each public name loads its home module on first
read, and each entry point loads only the modules it needs."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import houghton
from houghton import conjugacy, core, oracle
from instances import package_env


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


def test_readme_names_every_public_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert set(houghton.__all__) - set(re.findall(r"\w+", readme)) == set()


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
