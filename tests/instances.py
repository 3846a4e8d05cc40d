"""Seeded instances and references that the tests share.

`random_word` and `random_element` draw reproducible words and elements,
and `drawn_cases` draws a test's cases, each from a generator of its own;
`test_random_values_are_frozen` pins their values, so a change to any of
them invalidates the seeded tests.  `element` is the element of a word's
text, `lift` swaps a window of low points with one far out, and
`rotation_family` is ends classes of m orbits, each turned by a step.
`successor` re-applies a cycle decomposition, the reference that tests
compare the decomposition against.
`check` is the benchmark's checker, `bench/check.py`, which never calls
the package: its letter rule is the one the tests compare `evaluate`
against, and `random_word` draws its letters from its alphabet.
`package_env` is the environment of a test's child interpreter.
"""

import os
import random
import sys
from pathlib import Path
from typing import Any, Callable, List

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))  # this checkout's checker

import check  # noqa: E402
import houghton  # noqa: E402
from houghton import CycleDecomposition, HoughtonElement, InvalidElementError, Point, Word, evaluate  # noqa: E402


def random_word(n: int, seed: int, length: int) -> Word:
    rng = random.Random(("word", n, seed, length).__repr__())
    alphabet = check.alphabet(n)
    return Word(n, tuple(rng.choice(alphabet) for _ in range(length)))


def drawn_cases(test: str, count: int, draw: Callable[[random.Random], Any]) -> List[Any]:
    """`count` cases of the test named `test`: case k is draw(rng) with a
    `random.Random` of its own, seeded by the name and k.  A string seed
    draws the same values on every run and every Python this package
    supports, and case k keeps its values when the count changes."""
    return [draw(random.Random(("case", test, k).__repr__())) for k in range(count)]


def random_element(n: int, seed: int, profile: str = "word-8") -> HoughtonElement:
    """Deterministic random element.

    Profiles (versioned; changing them invalidates frozen test values):
      "word-<k>"  the element of a uniformly random length-k word
      "fsym"      a random permutation of a few low points (zero translation)
    """
    if profile == "fsym":
        rng = random.Random(("fsym", n, seed).__repr__())
        pool = [(i, m) for i in range(1, n + 1) for m in range(6)]
        count = rng.randint(2, 8)
        chosen = rng.sample(pool, count)
        images = list(chosen)
        rng.shuffle(images)
        exc = {p: q for p, q in zip(chosen, images) if p != q}
        return HoughtonElement(n, (0,) * n, exc)
    if profile.startswith("word-"):
        length = int(profile[len("word-"):])
        return evaluate(random_word(n, seed, length))
    raise ValueError("unknown profile %r" % profile)


def element(n: int, text: str) -> HoughtonElement:
    """The element of a word given as text, such as "g2 g3'"."""
    return evaluate(Word.parse(n, text))


def lift(n: int, far: int, width: int) -> HoughtonElement:
    """The finite-support swap (i, m) <-> (i, far + m), m < width, on every ray."""
    swap = {}
    for i in range(1, n + 1):
        for m in range(width):
            swap[(i, m)], swap[(i, far + m)] = (i, far + m), (i, m)
    return HoughtonElement(n, (0,) * n, swap)


def rotation_family(m: int, *rotate: int) -> HoughtonElement:
    """t = (m, -m) on each ray pair (2c - 1, 2c) of H_2k, k = len(rotate),
    with table {(2c, j) -> (2c - 1, (j + rotate[c - 1]) mod m)}: k ends
    classes of m orbits, each orbit with a spine of two points."""
    table = {(2 * c, j): (2 * c - 1, (j + r) % m) for c, r in enumerate(rotate, 1) for j in range(m)}
    return HoughtonElement(2 * len(rotate), (m, -m) * len(rotate), table)


def successor(dec: CycleDecomposition, p: Point) -> Point:
    """Re-apply the decomposition: the image of p under the element.
    A point of a cycle or a spine is found in its run by arithmetic, so
    the cost follows the runs, not the points."""
    i, m = p
    if not (1 <= i <= dec.n) or m < 0:
        raise InvalidElementError("point %r is not in the ray set" % (p,))
    # each record's runs, and the point after its last run
    records = [(c.runs, c.runs[0][:2]) for c in dec.finite_cycles]
    for orbit in dec.infinite_orbits:
        step = dec.t[orbit.pos_ray - 1]
        if i == orbit.pos_ray and m >= orbit.pos_cutoff and m % step == orbit.pos_residue:
            return (i, m + step)
        drop = dec.t[orbit.neg_ray - 1]
        if i == orbit.neg_ray and m >= orbit.neg_cutoff and m % -drop == orbit.neg_residue:
            # leaving the incoming tail, the orbit enters its spine
            return (i, m + drop) if m + drop >= orbit.neg_cutoff else orbit.runs[0][:2]
        records.append((orbit.runs, (orbit.pos_ray, orbit.pos_cutoff)))
    for runs, after in records:
        for r, (ray, start, step, count) in enumerate(runs, 1):
            k, off = divmod(m - start, step) if step else (0, m - start)
            if i == ray and not off and 0 <= k < count:
                if k + 1 < count:
                    return (ray, start + (k + 1) * step)
                return runs[r][:2] if r < len(runs) else after
    return p


def package_env():
    """The environment, with this package first on PYTHONPATH, for a
    process of its own."""
    src = os.path.dirname(os.path.dirname(houghton.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
