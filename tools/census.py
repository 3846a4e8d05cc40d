"""A bounded-exhaustive census of small elements of H_2, H_3 and H_4,
which checks every "no" of `conjugate` on it.

    python3 tools/census.py

A census is the valid elements among the tables of a sweep: every table
of distinct images on small offsets, for a few translation vectors.
There are three sweeps:

  SWEEP      H_2 and H_3 (the sweep of the constructor's validation
             test): 567 valid elements among its 61,644 tables, each
             with at most one ends class, over at most two rays
  SWEEP_H4   H_4 with t in (1,-1,1,-1), (1,1,-1,-1), (2,-1,-1,0) and
             (2,-2,2,-2): 330 valid elements, with two ends classes
             (whose sums of s combine mod gcd(t) = 2 on the last) or one
             class over three or four rays
  SWEEP_H4_WIDE
             H_4 again: the first three vectors of SWEEP_H4 and
             (0,0,1,-1) as there, (2,-2,1,-1) with up to 5 entries, and
             (2,-2,2,-2) on offsets below 3 with up to 5: 1,106 valid
             elements in 72 classes, with two ends classes of two rays
             each, or one class over two, three or four rays.  In 256
             of its refusals some class's record (`conjugacy._class_record`)
             holds a second choice, read after a first exact one for the
             sum that `conjugacy._orbit_refusal` reads; SWEEP_H4 has 16
             such, SWEEP none

`valid_tables` builds a sweep's valid tables directly, in the order of
`tables`.  Each census is partitioned twice:

  classes     by `conjugate`, against one representative per class found
              so far, so every element joins the first class whose
              representative it is conjugate to.  Each pair decided is
              decided again inverted: conjugate(h^-1, g^-1) must give the
              same answer, tag and verified flag as conjugate(h, g), as
              inversion keeps conjugacy and every invariant a tag names,
              and on a yes the certificate must conjugate h^-1 to g^-1
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

The main run takes W = 6 on SWEEP and W = 4 on SWEEP_H4_WIDE, the walks
the tier-1 tests cannot afford (they pin SWEEP at W = 4 and SWEEP_H4 at
W = 3), and exits 1 unless, on each, no component spans two classes, the
counts agree and no inverted pair decides otherwise; it prints the pairs
that contradict.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]  # this checkout's package and letter rule

from check import _letter, alphabet  # noqa: E402
from houghton import HoughtonElement, conjugate, inverse, verify  # noqa: E402

Point = Tuple[int, int]
Table = Dict[Point, Point]

WIDTH = 6  # the main run's bound on the walk's offsets for SWEEP
WIDTH_H4_WIDE = 4  # and for SWEEP_H4_WIDE
MOST_ENTRIES = 6  # the most table entries of an element on the walk

# (n, translation vectors, offsets, most entries): each table maps at most
# `most entries` distinct points of {1..n} x [0, offsets) to distinct ones
SWEEP = (
    (2, [(0, 0), (1, -1), (-1, 1), (2, -2), (-2, 2)], 3, 4),
    (3, [(0, 0, 0)] + list(itertools.permutations((1, -1, 0))), 2, 3),
)
SWEEP_H4 = ((4, [(1, -1, 1, -1), (1, 1, -1, -1), (2, -1, -1, 0), (2, -2, 2, -2)], 2, 4),)
SWEEP_H4_WIDE = (
    (4, [(1, -1, 1, -1), (1, 1, -1, -1), (2, -1, -1, 0), (0, 0, 1, -1)], 2, 4),
    (4, [(2, -2, 1, -1)], 2, 5),
    (4, [(2, -2, 2, -2)], 3, 5),
)


def tables() -> Iterator[Tuple[int, Tuple[int, ...], Table]]:
    """Every (n, t, table) of SWEEP, 61,644 in all, valid or not."""
    for n, vectors, offsets, most in SWEEP:
        points = [(i, m) for i in range(1, n + 1) for m in range(offsets)]
        for t in vectors:
            for k in range(most + 1):
                for domain in itertools.combinations(points, k):
                    for images in itertools.permutations(points, k):
                        yield n, t, dict(zip(domain, images))


def valid_tables(sweep) -> Iterator[Tuple[int, Tuple[int, ...], Table]]:
    """The (n, t, table) of `sweep` that the constructor accepts, built
    directly, in the order in which `tables` lists them.

    Off its table an element maps (i, m) to (i, m + t_i).  So a table is
    valid exactly when its domain D holds every (i, m) with m < -t_i, its
    images are the points that no tail reaches: the (j, k) with
    0 <= k < t_j and the (j, m + t_j) with (j, m) in D and m + t_j >= 0,
    which number |D| by the index count; and no entry is its tail image.  The
    domains come in the order of `tables`, and so do the permutations of
    their sorted image set."""
    for n, vectors, offsets, most in sweep:
        points = [(i, m) for i in range(1, n + 1) for m in range(offsets)]
        for t in vectors:
            forced = {(i, m) for i in range(1, n + 1) for m in range(-t[i - 1])}
            unreached = {(j, k) for j in range(1, n + 1) for k in range(t[j - 1])}
            for k in range(most + 1):
                for domain in itertools.combinations(points, k):
                    if not forced.issubset(domain):
                        continue
                    tails = [(i, m + t[i - 1]) for i, m in domain]
                    holes = unreached.union(p for p in tails if p[1] >= 0)
                    if all(p[1] < offsets for p in holes):
                        for images in itertools.permutations(sorted(holes)):
                            if all(map(tuple.__ne__, images, tails)):
                                yield n, t, dict(zip(domain, images))


def elements(sweep=SWEEP) -> List[HoughtonElement]:
    """The census of `sweep`: its valid tables as elements."""
    return [HoughtonElement(n, t, table) for n, t, table in valid_tables(sweep)]


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


Pairs = List[Tuple[HoughtonElement, HoughtonElement]]


def decided(outcome) -> tuple:
    """What a decision says: the answer, the tag and the verified flag."""
    return outcome.is_conjugate, outcome.reason, outcome.verified


def classes(census: List[HoughtonElement]) -> Tuple[List[int], Pairs]:
    """The conjugacy class of each census element by `conjugate`, as the
    index of the first census element in it, and the pairs (h, g) decided
    on the way whose inverted pair (h^-1, g^-1) decides otherwise, or whose
    certificate does not conjugate h^-1 to g^-1."""
    out: List[int] = []
    heads: List[int] = []
    inverted: Pairs = []
    inverses = [inverse(g) for g in census]
    for k, g in enumerate(census):
        out.append(k)
        for h in heads:
            if census[h].n != g.n:
                continue
            decision = conjugate(census[h], g)
            flipped = conjugate(inverses[h], inverses[k])
            if decided(flipped) != decided(decision) or (
                decision.is_conjugate and not verify(inverses[h], inverses[k], decision.conjugator)
            ):
                inverted.append((census[h], g))
            if decision.is_conjugate:
                out[-1] = h
                break
        else:
            heads.append(k)
    return out, inverted


def census(members: List[HoughtonElement], width: int) -> Tuple[List[int], List[int], int, Pairs, Pairs]:
    """(classes, components, visited, spans, inverted) of the census
    `members` at `width`: the two partitions, each as the index of the
    first member in each member's part, the elements the walk visited,
    the pairs (the first member of a component, a member of another class
    in it), and the pairs of `classes` that inversion decides otherwise."""
    cls, inverted = classes(members)
    comp, visited = components(members, width)
    spans = [(members[h], members[k]) for k, h in enumerate(comp) if cls[h] != cls[k]]
    return cls, comp, visited, spans, inverted


def main() -> int:
    status = 0
    for name, sweep, width in (("SWEEP", SWEEP, WIDTH), ("SWEEP_H4_WIDE", SWEEP_H4_WIDE, WIDTH_H4_WIDE)):
        cls, comp, visited, spans, inverted = census(elements(sweep), width)
        n_classes, n_components = len(set(cls)), len(set(comp))
        print(
            "%s at W = %d: %d classes, %d components, %d elements visited"
            % (name, width, n_classes, n_components, visited)
        )
        for g, h in spans:
            print("one component, two classes:", g, h)
        for g, h in inverted:
            print("inversion decides otherwise:", g, h)
        if spans or inverted or n_components != n_classes:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
