"""Exact arithmetic and conjugacy decision for Houghton's groups H_n.

`import houghton` loads this module only.  Each public name loads its
home module the first time it is read (PEP 562) and is then bound here,
so evaluating words needs only `core`, and the conjugator search only
`core` and `oracle`.
"""

import importlib

# each public name and the module that defines it
_HOMES = {
    name: home
    for home, names in (
        (
            "core",
            "HoughtonElement InvalidElementError Point Word WordError apply compose conjugate_element"
            " deserialize equals evaluate generator generator_ids identity inverse serialize verify",
        ),
        (
            "orbits",
            "CycleDecomposition EndsPartition FiniteCycle InfiniteOrbit cycle_decomposition cycle_type"
            " ends_partition fixed_point_count sym_conjugate",
        ),
        ("conjugacy", "BoundData ConjugacyOutcome centralizer_element conjugate fsym_conjugate"),
        ("oracle", "SearchBudget brute_force_conjugator"),
    )
    for name in names.split()
}
__all__ = list(_HOMES)


def __getattr__(name):
    # A name is bound here when it is first read, as its home module holds
    # it then.  A tracer that wraps names in every `houghton` namespace
    # (`bench/spans.py`) therefore leaves its wrapper here for a name first
    # read while it is installed; the benchmark reads every name it calls
    # in its untraced set-up and passes first.
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(importlib.import_module("." + home, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
