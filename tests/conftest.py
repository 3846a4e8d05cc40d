import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def tool():
    """`tool(name)`: `tools/<name>.py` as a module; sys.path is put back
    after its import, which puts this checkout's `src` and `bench` first."""

    def load(name):
        path = list(sys.path)
        try:
            spec = importlib.util.spec_from_file_location(name + "_under_test", TOOLS / (name + ".py"))
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.path[:] = path
        return module

    return load
