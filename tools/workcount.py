"""Exact work counts of the decision on the benchmark's pools, and of two
of its workloads whole.

    python3 tools/workcount.py
    python3 tools/workcount.py --json BENCH_counts.json

Counts the bytecodes that `conjugate(a, b)` executes, and those that
`cycle_decomposition` executes on a and on b, summed over each of three
pools of pairs taken from `bench/workloads.py`, which it only imports:

  roundtrip       the 400 (a, a^x) pairs of the `roundtrip` workload
  same_invariant  the pairs of `same_invariant_family`
  far_offsets     the 20 shifted pairs of the `far_offsets` workload, read
                  from the documents it writes at seed 1

A count is the number of `opcode` trace events (`sys.settrace` with
`f_trace_opcodes`) in every Python frame entered during the call.  It
does not depend on the machine's speed or load, so two versions of the
package compare exactly, and the same version gives the same counts on
every run of one Python version.  It sees Python bytecodes only: a call
into C counts as the few bytecodes that make it, whatever the call
hashes, builds or scans, so a `frozenset` of a table's items, a `sum`, a
dict `==` or a list's `in` costs a count of a few at any size.  A change
can so lower CPU time while its count rises, or keep its count while its
time moves; a claim about time comes from the benchmark, `bench/run.py`.
A decomposition is counted through the one-line call `decompose`, whose
own 6 bytecodes per element are in the figure, so that it compares with
the figures quoted for earlier versions.

`cycle_decomposition` returns the decomposition of the record kept on
the element, so a second call on one element walks nothing.  A first
call builds the whole record, with the element's fixed entries and its
sorted cycle lengths, so the `cycle_decomposition` column counts those
as well as the walk; `conjugate` builds the same record on every
element it reads.
The `conjugate` and `cycle_decomposition` columns are cold: each call
gets fresh copies of its elements, built by the constructor outside the
count, so every decomposition is walked.
The `warm conjugate` column counts `conjugate` on the `same_invariant`
pool as `same_invariant_family` leaves it: it groups the elements by
`cycle_type`, so all but the baseline pair come decomposed, as in the
benchmark's runs of that workload.  The `repeat conjugate` column counts
a second `conjugate` pass over the same pair objects of each pool, after
a first pass that is not counted (or is the warm one), as in the
benchmark's passes after its first: every element comes with what the
first pass kept on it.

A second table counts two more of the benchmark's workloads, whole, and
the word evaluation of a third's set-up:

  oracle          the 200 ops of the `oracle` workload, which it builds
                  the same at every seed: each is a one-line call of
                  `brute_force_conjugator` on one pair, counted with it
  far_offsets     `cli.main(["conj", a, b])` on the 100 pairs of documents
                  of the `far_offsets` workload at seed 1, written to a
                  temporary directory, with stdout taken outside the count
  roundtrip_words `evaluate` on each of the 800 words whose elements the
                  `roundtrip` workload's set-up evaluates, built outside
                  the count

None keeps anything between calls but a per-process cache (the letter
rule's, H_n's letters for the search; a plain command line builds no
argument parser), which one uncounted pass builds first, so one counted
pass is exact.

With `--json PATH` the tool also writes every column of both tables to
PATH, with the Python version that counted them, and the bytecodes per
function behind each pool's cold `conjugate` column and behind each
workload, keyed "module:qualified name".  `BENCH_counts.json` is that
file as of the committed package; a tier-1 test runs the tool in a fresh
process and checks that it writes the same, so a change that moves any
count regenerates the file and its diff shows which functions moved.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]  # this checkout's package and pools

import houghton  # noqa: E402
import houghton.cli  # noqa: E402
import workloads  # noqa: E402

# the first read of a package name imports its module and binds it
# (`houghton.__getattr__`); read them all here, so that no count has it
for _name in houghton.__all__:
    getattr(houghton, _name)


def far_offsets_docs(work: Path):
    """(key, path of a, path of b) of each pair of documents that the
    `far_offsets` workload writes to `work` at seed 1, in its order."""
    ops = workloads.far_offsets(houghton, 1, work)
    return [(op.key, *(work / ("%s-%s.json" % (op.key, name)) for name in "ab")) for op in ops]


def pools():
    roundtrip = [workloads._roundtrip_pair(houghton, k) for k in range(workloads.ROUNDTRIP_POOL)]
    same = [(a, b) for _, a, b in workloads.same_invariant_family(houghton)]
    with tempfile.TemporaryDirectory() as work:
        far = [
            tuple(houghton.deserialize(path.read_text(encoding="utf-8")) for path in paths)
            for key, *paths in far_offsets_docs(Path(work))
            if key.startswith("shift")
        ]
    return {"roundtrip": roundtrip, "same_invariant": same, "far_offsets": far}


def opcodes(call, *args) -> Counter:
    """The opcode events of call(*args) and of every frame it enters, by
    function: keyed "module:qualified name", where the qualified name is
    the plain name on a Python without `co_qualname` (3.10).  The trace
    function installed before, such as `tools/untested.py`'s line tracer
    when a test counts, is put back afterwards.  The cyclic collector is
    off during the call: a collection would run the Python callbacks in
    `gc.callbacks`, which any imported library may install, and any
    finalizers it frees, at a point set by the process's earlier
    allocations, so the count would depend on what ran before."""
    cells = {}  # code object -> [its module's name, opcode events]

    def enter(frame, event, arg):
        code = frame.f_code
        cell = cells.get(code)
        if cell is None:
            cell = cells[code] = [frame.f_globals.get("__name__"), 0]

        def local(frame, event, arg):
            if event == "opcode":
                cell[1] += 1
            return local

        frame.f_trace_opcodes = True
        return local

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(enter)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    out = Counter()
    for code, (module, count) in cells.items():
        out["%s:%s" % (module, getattr(code, "co_qualname", code.co_name))] += count
    return out


def bytecodes(call, *args) -> int:
    """The opcode events of call(*args) and of every frame it enters."""
    return sum(opcodes(call, *args).values())


decompose = lambda g: houghton.cycle_decomposition(g)  # noqa: E731


def fresh(g):
    """A copy of g with nothing kept on it."""
    return houghton.HoughtonElement(g.n, g.t, g.exceptions)


def cold(call, *elements) -> int:
    """The bytecodes of call on fresh copies of elements."""
    return bytecodes(call, *map(fresh, elements))


def oracle_calls(work: Path):
    """The counted calls of the `oracle` workload: its ops."""
    return [(op.run, ()) for op in workloads.oracle(houghton, 1, work)]


def roundtrip_words_calls():
    """The counted calls of the `roundtrip_words` row: `evaluate` on each
    word that `_roundtrip_pair` evaluates, which a stand-in package
    records instead, in its order."""
    words = []
    recorder = SimpleNamespace(Word=houghton.Word, evaluate=words.append, conjugate_element=lambda a, x: None)
    for k in range(workloads.ROUNDTRIP_POOL):
        workloads._roundtrip_pair(recorder, k)
    return [(houghton.evaluate, (w,)) for w in words]


def far_offsets_calls(work: Path):
    """The counted calls of the `far_offsets` workload, on its documents
    written to `work`."""
    return [(houghton.cli.main, (["conj", str(a), str(b)],)) for _, a, b in far_offsets_docs(work)]


def main() -> None:
    parser = argparse.ArgumentParser(description="Exact work counts on the benchmark's pools and workloads.")
    parser.add_argument("--json", metavar="PATH", type=Path, help="also write every count, and each function's, to PATH")
    args = parser.parse_args()
    doc = {"python": platform.python_version(), "pools": {}, "workloads": {}}
    print("pool             pairs   conjugate  cycle_decomposition  warm conjugate  repeat conjugate")
    for name, pairs in pools().items():
        by_function = Counter()
        for a, b in pairs:
            by_function += opcodes(houghton.conjugate, *map(fresh, (a, b)))
        conj = sum(by_function.values())
        dec = sum(cold(decompose, g) for pair in pairs for g in pair)
        warm = None
        if name == "same_invariant":
            warm = sum(bytecodes(houghton.conjugate, a, b) for a, b in pairs)
        else:
            for a, b in pairs:
                houghton.conjugate(a, b)
        repeat = sum(bytecodes(houghton.conjugate, a, b) for a, b in pairs)
        columns = [format(v, ",") if v is not None else "-" for v in (conj, dec, warm, repeat)]
        print("%-15s %6d %11s %20s %15s %17s" % (name, len(pairs), *columns))
        doc["pools"][name] = {
            "pairs": len(pairs),
            "conjugate": conj,
            "cycle_decomposition": dec,
            "warm_conjugate": warm,
            "repeat_conjugate": repeat,
            "conjugate_by_function": dict(sorted(by_function.items())),
        }
    print()
    print("workload         ops   bytecodes   per op  counted call")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for name, calls, counted in (
            ("oracle", oracle_calls(work), "brute_force_conjugator"),
            ("far_offsets", far_offsets_calls(work), "cli.main"),
            ("roundtrip_words", roundtrip_words_calls(), "evaluate"),
        ):
            by_function = Counter()
            with contextlib.redirect_stdout(io.StringIO()):
                for call, call_args in calls:  # builds the per-process caches
                    call(*call_args)
                for call, call_args in calls:
                    by_function += opcodes(call, *call_args)
            total = sum(by_function.values())
            print("%-15s %5d %11s %8s  %s" % (name, len(calls), format(total, ","), format(total // len(calls), ","), counted))
            doc["workloads"][name] = {
                "ops": len(calls),
                "bytecodes": total,
                "per_op": total // len(calls),
                "counted_call": counted,
                "by_function": dict(sorted(by_function.items())),
            }
    if args.json is not None:
        args.json.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
