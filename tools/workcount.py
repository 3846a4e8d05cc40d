"""Exact work counts of the decision on the benchmark's pools, and of two
of its workloads whole.

    python3 tools/workcount.py

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
every run of one Python version.  A decomposition is counted through the
one-line call `decompose`, whose own 6 bytecodes per element are in the
figure, so that it compares with the figures quoted for earlier versions.

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

A second table counts two more of the benchmark's workloads, whole:

  oracle          the 200 ops of the `oracle` workload, which it builds
                  the same at every seed: each is a one-line call of
                  `brute_force_conjugator` on one pair, counted with it
  far_offsets     `cli.main(["conj", a, b])` on the 100 pairs of documents
                  of the `far_offsets` workload at seed 1, written to a
                  temporary directory, with stdout taken outside the count

Neither keeps anything between calls but a per-process cache (H_n's
letters for the search; a plain command line builds no argument parser),
which one uncounted call builds first, so one counted pass is exact.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

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


def bytecodes(call, *args) -> int:
    """The opcode events of call(*args) and of every frame it enters.  The
    trace function installed before, such as `tools/untested.py`'s line
    tracer when a test counts, is put back afterwards."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return count


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


def far_offsets_calls(work: Path):
    """The counted calls of the `far_offsets` workload, on its documents
    written to `work`."""
    return [(houghton.cli.main, (["conj", str(a), str(b)],)) for _, a, b in far_offsets_docs(work)]


def main() -> None:
    print("pool             pairs   conjugate  cycle_decomposition  warm conjugate  repeat conjugate")
    for name, pairs in pools().items():
        conj = sum(cold(houghton.conjugate, a, b) for a, b in pairs)
        dec = sum(cold(decompose, g) for pair in pairs for g in pair)
        warm = "-"
        if name == "same_invariant":
            warm = format(sum(bytecodes(houghton.conjugate, a, b) for a, b in pairs), ",")
        else:
            for a, b in pairs:
                houghton.conjugate(a, b)
        repeat = sum(bytecodes(houghton.conjugate, a, b) for a, b in pairs)
        print(
            "%-15s %6d %11s %20s %15s %17s"
            % (name, len(pairs), format(conj, ","), format(dec, ","), warm, format(repeat, ","))
        )
    print()
    print("workload         ops   bytecodes   per op  counted call")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for name, calls, counted in (
            ("oracle", oracle_calls(work), "brute_force_conjugator"),
            ("far_offsets", far_offsets_calls(work), "cli.main"),
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                calls[0][0](*calls[0][1])  # builds the per-process cache
                total = sum(bytecodes(call, *args) for call, args in calls)
            print("%-15s %5d %11s %8s  %s" % (name, len(calls), format(total, ","), format(total // len(calls), ","), counted))


if __name__ == "__main__":
    main()
