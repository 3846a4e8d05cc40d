"""Independent checks of the answers the benchmark collects.

Nothing here calls `houghton`: elements are plain tables (n, t, exceptions)
read from the program's objects or JSON documents, points are moved by
dictionary lookups and the tail rule (i, m) -> (i, m + t_i), and words are
applied letter by letter from the generator definitions.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Optional, Sequence, Tuple

Point = Tuple[int, int]
Table = Tuple[int, Tuple[int, ...], Dict[Point, Point]]
Letter = Tuple[str, int]


def table_of(g) -> Table:
    """The (n, t, exceptions) table of a program element, copied field by field."""
    return g.n, tuple(g.t), dict(g.exceptions)


def table_of_doc(doc: dict) -> Table:
    """The table of an element document {"n", "t", "exceptions"}."""
    exc = {(p[0], p[1]): (q[0], q[1]) for p, q in doc["exceptions"]}
    return doc["n"], tuple(doc["t"]), exc


def image(g: Table, p: Point) -> Point:
    q = g[2].get(p)
    return q if q is not None else (p[0], p[1] + g[1][p[0] - 1])


def _preimage(g: Table, inv: Dict[Point, Point], q: Point) -> Point:
    p = inv.get(q)
    return p if p is not None else (q[0], q[1] - g[1][q[0] - 1])


def is_bijection(g: Table) -> bool:
    """Whether the table describes a permutation of {1..n} x N that is a
    translation by t_i far out on every ray i."""
    n, t, exc = g
    if len(t) != n or sum(t) != 0:
        return False
    for p, q in exc.items():
        for i, m in (p, q):
            if not (1 <= i <= n and m >= 0):
                return False
    images = set(exc.values())
    if len(images) != len(exc):
        return False
    for j, k in images:  # an exception image must not also be a tail image
        src = k - t[j - 1]
        if src >= 0 and (j, src) not in exc:
            return False
    for i in range(1, n + 1):
        if any((i, m) not in exc for m in range(-t[i - 1])):
            return False  # the tail rule would leave the ray
        if any((i, k) not in images for k in range(t[i - 1])):
            return False  # never reached by the tail rule
    for i, m in exc:
        k = m + t[i - 1]
        if k >= 0 and (i, k) not in images:
            return False  # the tail image of an exception point is missed
    return True


def is_certificate(a: Table, b: Table, x: Table) -> bool:
    """Whether x^-1 a x = b, checked as (p)a x = (p)x b pointwise.

    Off the finite set tested below, both sides are the pure translation
    by t(a) + t(x) = t(x) + t(b).
    """
    if not (a[0] == b[0] == x[0] and a[1] == b[1]):
        return False
    if not (is_bijection(a) and is_bijection(b) and is_bijection(x)):
        return False
    inv_a = {q: p for p, q in a[2].items()}
    inv_x = {q: p for p, q in x[2].items()}
    points = set(a[2]) | set(x[2])
    points.update(_preimage(a, inv_a, q) for q in x[2])
    points.update(_preimage(x, inv_x, q) for q in b[2])
    return all(image(x, image(a, p)) == image(b, image(x, p)) for p in points)


# -- words -----------------------------------------------------------------


def alphabet(n: int) -> Tuple[Letter, ...]:
    """Signed generator letters: g2..gn and inverses, plus s when n = 2."""
    letters = [("g%d" % i, e) for i in range(2, n + 1) for e in (1, -1)]
    return tuple(letters + ([("s", 1)] if n == 2 else []))


def _letter(gid: str, sign: int, p: Point) -> Point:
    """One letter acting on one point.  g_j pushes ray 1 out by one and
    ray j in by one, carrying (j, 0) to (1, 0); s swaps (1, 0) and (2, 0)."""
    i, m = p
    if gid == "s":
        return {(1, 0): (2, 0), (2, 0): (1, 0)}.get(p, p)
    j = int(gid[1:])
    if sign < 0:  # g_j^-1
        if i == 1:
            return (j, 0) if m == 0 else (1, m - 1)
        return (j, m + 1) if i == j else p
    if i == 1:
        return (1, m + 1)
    if i == j:
        return (1, 0) if m == 0 else (j, m - 1)
    return p


def word_table(n: int, letters: Sequence[Letter]) -> Table:
    """The table of a word, simulated letter by letter.

    A point at offset >= len(letters) never reaches offset 0 while the word
    acts, so there the word is the translation it accumulates.
    """
    t = [0] * n
    for gid, sign in letters:
        if gid != "s":
            t[0] += sign
            t[int(gid[1:]) - 1] -= sign
    exc = {}
    for i in range(1, n + 1):
        for m in range(len(letters) + 1):
            q = (i, m)
            for gid, sign in letters:
                q = _letter(gid, sign, q)
            if q != (i, m + t[i - 1]):
                exc[(i, m)] = q
    return n, tuple(t), exc


def inverse(c: Letter) -> Letter:
    return c if c[0] == "s" else (c[0], -c[1])


def words(n: int, radius: int) -> Iterable[Tuple[Letter, ...]]:
    """Freely reduced words of length <= radius, shortest first."""
    frontier = [()]
    for _ in range(radius + 1):
        yield from frontier
        frontier = [w + (c,) for w in frontier for c in alphabet(n) if not w or w[-1] != inverse(c)]


@functools.lru_cache(maxsize=None)
def _ball(n: int, radius: int) -> Tuple[Tuple[Tuple[Letter, ...], Table], ...]:
    return tuple((w, word_table(n, w)) for w in words(n, radius))


def small_search(a: Table, b: Table, radius: int) -> Optional[Tuple[Letter, ...]]:
    """A word of length <= radius conjugating a to b, or None."""
    for w, x in _ball(a[0], radius):
        if is_certificate(a, b, x):
            return w
    return None
