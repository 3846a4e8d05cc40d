"""The traced benchmark (`bench/spans.py`) wraps package functions by name:
each one it names must still exist where it looks, and be put back."""

import importlib
import importlib.util
import sys
from pathlib import Path

import houghton

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_namespaces():
    return {
        name: dict(vars(module)) for name, module in sys.modules.items() if name.split(".")[0] == "houghton"
    }


def test_tracer_wraps_and_restores_every_traced_name():
    spans = load_spans()
    traced = [(home, attr) for kinds in (spans.TIMED, spans.COUNTED) for home, attrs in kinds.items() for attr in attrs]
    for home, _ in traced:
        importlib.import_module("houghton." + home)
    before = package_namespaces()
    tracer = spans.Tracer()
    tracer.install()  # an AttributeError here names a traced function that is gone
    try:
        during = package_namespaces()
    finally:
        tracer.uninstall()
    after = package_namespaces()
    for home, attr in traced:
        name = "houghton." + home
        assert during[name][attr] is not before[name][attr], "%s.%s was not wrapped" % (home, attr)
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, "%s.%s was not restored" % (name, attr)


def test_traced_scaffolding_is_not_public():
    # the benchmark times these two, but `conjugate` calls neither
    assert "compute_bounds" not in houghton.__all__
    assert "construct_translation_element" not in houghton.__all__
    assert not hasattr(houghton, "compute_bounds")
    assert not hasattr(houghton, "construct_translation_element")
