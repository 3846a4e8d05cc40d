"""A bounded-exhaustive census of small elements of H_2 and H_3, which
checks every "no" of `conjugate` on it.

    python3 tools/census.py

The census is the 567 valid elements among the 61,644 tables of `tables`:
every table of distinct images on small offsets, for a few translation
vectors in H_2 and H_3 (the sweep of the constructor's validation test).
It is partitioned twice:

  classes     by `conjugate`, against one representative per class found
              so far, so every element joins the first class whose
              representative it is conjugate to
  components  by conjugation with each signed letter, walked only
              through elements whose table points all lie at offsets
              below a width W, with at most `MOST_ENTRIES` entries.  The
              products are computed here from the letter rule of
              `bench/check.py` (`_letter`) and the tail rule
              (i, m) -> (i, m + t_i), never with the package, which
              `bench/check.py` does not call either, so this side shares no
              arithmetic with `conjugate`.

Each move of the walk is a conjugation, so a component lies in one
conjugacy class, and a component that holds elements of two classes shows
a wrong "no" of `conjugate`, or a wrong "yes".  The closure proves no
"no": it catches a wrong one whenever the window holds a letter path
between the two elements.  When the components number as many as the
classes, the two partitions are equal.

The main run takes W = 6 and exits 1 unless no component spans two
classes and the counts agree; it prints the pairs that contradict.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]  # this checkout's package and letter rule

from check import _letter, alphabet  # noqa: E402
from houghton import HoughtonElement, InvalidElementError, conjugate  # noqa: E402

Point = Tuple[int, int]
Table = Dict[Point, Point]

WIDTH = 6  # the main run's bound on the walk's offsets
MOST_ENTRIES = 6  # the most table entries of an element on the walk

# (n, translation vectors, offsets, most entries): each table maps at most
# `most entries` distinct points of {1..n} x [0, offsets) to distinct ones
SWEEP = (
    (2, [(0, 0), (1, -1), (-1, 1), (2, -2), (-2, 2)], 3, 4),
    (3, [(0, 0, 0)] + list(itertools.permutations((1, -1, 0))), 2, 3),
)


def tables() -> Iterator[Tuple[int, Tuple[int, ...], Table]]:
    """Every (n, t, table) of the sweep, 61,644 in all, valid or not."""
    for n, vectors, offsets, most in SWEEP:
        points = [(i, m) for i in range(1, n + 1) for m in range(offsets)]
        for t in vectors:
            for k in range(most + 1):
                for domain in itertools.combinations(points, k):
                    for images in itertools.permutations(points, k):
                        yield n, t, dict(zip(domain, images))


def elements() -> List[HoughtonElement]:
    """The census: the tables of the sweep that the constructor accepts."""
    out = []
    for n, t, table in tables():
        try:
            out.append(HoughtonElement(n, t, table))
        except InvalidElementError:
            pass
    return out


def letters(n: int) -> List[Tuple[List[int], Dict[int, int]]]:
    """Each signed letter of H_n (g2..gn, their inverses, and s when n = 2)
    on coded points, as (steps, special): it moves the code x to
    special[x] where that is given, else to x + steps[x % n].  Read off
    `_letter`, which moves every point at offset 1 or more along its ray."""
    out = []
    for c in alphabet(n):
        u = [_letter(*c, (i, 1))[1] - 1 for i in range(1, n + 1)]
        special = {}
        for i in range(1, n + 1):
            j, m = _letter(*c, (i, 0))
            if (j, m) != (i, u[i - 1]):
                special[i - 1] = m * n + j - 1
        out.append(([v * n for v in u], special))
    return out


def _key(table: Dict[int, int]) -> bytes:
    """A coded table as the bytes of its sorted entries."""
    return bytes(itertools.chain.from_iterable(sorted(table.items())))


def components(census: List[HoughtonElement], width: int) -> Tuple[List[int], int]:
    """The component of each census element under conjugation by letters,
    as the index of the first census element in it, and the number of
    elements the walk visited.  The walk passes only through elements with
    at most MOST_ENTRIES table entries, all at offsets below `width`.  The
    letters come with their inverses, so the moves are symmetric, and a
    flood fill from each element not yet reached finds the components that
    a union-find over the moves would.  A conjugation keeps n and t, so
    each (n, t) is filled on its own.

    A point (i, m) is coded as the int m * n + i - 1, so its ray is the
    code mod n and a step of k along the ray adds k * n; a table is kept as
    the bytes of its sorted coded entries (`_key`), which holds a width of
    up to 256 // n.  The conjugate c^-1 g c of g by a letter c = (steps,
    special) maps (x)c to (x)g c, acting on the right.  It is the
    translation by t unless c acts at x by `special`, x is on g's table,
    or c acts at (x)g by `special`; only those x are tried, and the tail
    rule p -> p + t moves them off g's table."""
    comp = [0] * len(census)
    visited = 0
    groups: Dict[tuple, List[int]] = {}
    for k, g in enumerate(census):
        groups.setdefault((g.n, g.t), []).append(k)
    for (n, t), members in groups.items():
        alphabet = letters(n)
        steps = [v * n for v in t]
        top = width * n  # the least code at offset width
        label: Dict[bytes, int] = {}
        for k in members:
            start = _key({p[1] * n + p[0] - 1: q[1] * n + q[0] - 1 for p, q in census[k].exceptions.items()})
            if start not in label:
                label[start] = k
                stack = [start]
                while stack:
                    entries = stack.pop()
                    table = dict(zip(entries[::2], entries[1::2]))
                    inverse = dict(zip(entries[1::2], entries[::2]))
                    for u, special in alphabet:
                        before = [inverse.get(z, z - steps[z % n]) for z in special]  # (x)g in special
                        out = {}
                        for x in itertools.chain(special, table, before):
                            p = special.get(x, x + u[x % n])
                            q = table.get(x, x + steps[x % n])
                            q = special.get(q, q + u[q % n])
                            if q != p + steps[p % n]:
                                if p >= top or q >= top:
                                    break
                                out[p] = q
                        else:
                            if len(out) <= MOST_ENTRIES:
                                near = _key(out)
                                if near not in label:
                                    label[near] = k
                                    stack.append(near)
            comp[k] = label[start]
        visited += len(label)
    return comp, visited


def classes(census: List[HoughtonElement]) -> List[int]:
    """The conjugacy class of each census element by `conjugate`, as the
    index of the first census element in it."""
    out: List[int] = []
    heads: List[int] = []
    for k, g in enumerate(census):
        out.append(next((h for h in heads if census[h].n == g.n and conjugate(census[h], g).is_conjugate), k))
        if out[-1] == k:
            heads.append(k)
    return out


def census(width: int) -> Tuple[int, int, int, List[Tuple[HoughtonElement, HoughtonElement]]]:
    """(classes, components, visited, spans) of the census at `width`:
    the two partitions' counts, the elements the walk visited, and the
    pairs (the first census element of a component, a census element of
    another class in it)."""
    members = elements()
    cls = classes(members)
    comp, visited = components(members, width)
    spans = [(members[h], members[k]) for k, h in enumerate(comp) if cls[h] != cls[k]]
    return len(set(cls)), len(set(comp)), visited, spans


def main() -> int:
    n_classes, n_components, visited, spans = census(WIDTH)
    print("W = %d: %d classes, %d components, %d elements visited" % (WIDTH, n_classes, n_components, visited))
    for g, h in spans:
        print("one component, two classes:", g, h)
    return 0 if not spans and n_components == n_classes else 1


if __name__ == "__main__":
    sys.exit(main())
