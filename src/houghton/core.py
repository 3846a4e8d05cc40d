"""Exact elements of Houghton's groups H_n and their group arithmetic.

An element is stored in normal form: the eventual translation amount of
each ray plus a finite exception table holding every point whose image
differs from the tail formula (i, m) -> (i, m + t_i).  The normal form is
unique, so equality is structural.

Points are plain tuples (ray, offset) with rays 1-indexed and offsets
0-indexed.  The action convention is on the right throughout: (p)(g*h)
means apply g first, then h.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

Point = Tuple[int, int]


class InvalidElementError(ValueError):
    """The given data does not describe a valid element (e.g. not a bijection)."""


class WordError(ValueError):
    """Malformed word text or a generator id that is invalid for this n."""


def _check_n(n, error=WordError) -> None:
    """Refuse with `error` an n that is not an int of at least 2."""
    if not isinstance(n, int):
        raise error("n must be an int, not %r" % (n,))
    if n < 2:
        raise error("n must be at least 2")


def generator_ids(n: int) -> Tuple[str, ...]:
    """The fixed generating set: g2..gn for n >= 3, {g2, s} for n = 2."""
    _check_n(n)
    if n == 2:
        return ("g2", "s")
    return tuple("g%d" % i for i in range(2, n + 1))


@dataclass(frozen=True)
class Word:
    """A word over the signed generators, e.g. parsed from "g2 g3' s"."""

    n: int
    letters: Tuple[Tuple[str, int], ...]

    @classmethod
    def parse(cls, n: int, text: str) -> "Word":
        _check_n(n)
        if not isinstance(text, str):
            raise WordError("word text must be a string, not %r" % (text,))
        letters = []
        for token in text.split():
            # a trailing ' inverts; the letter rule alone decides the rest
            letter = (token[:-1], -1) if token.endswith("'") else (token, 1)
            if _letter_rule(n, letter) is None:
                raise WordError("generator %r is not valid for n=%d" % (letter[0], n))
            letters.append(letter)
        return cls(n, tuple(letters))

    def inverse(self) -> "Word":
        return Word(self.n, tuple((gid, -sign) for gid, sign in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(gid + ("" if sign > 0 else "'") for gid, sign in self.letters)


class HoughtonElement:
    """An element of H_n: translation vector plus finite exception table."""

    # _dec is set only on decomposed elements, to `orbits._ConjugacyData`
    __slots__ = ("n", "t", "exceptions", "_dec")

    def __init__(
        self,
        n: int,
        t: Union[Tuple[int, ...], List[int]],
        exceptions: Union[Mapping[Point, Point], Iterable[Tuple[Point, Point]]],
    ):
        self.n = n if type(n) is int else _integer(n)
        # as for points, a string, a dict or a set is not read as its items
        if not isinstance(t, (tuple, list)):
            raise InvalidElementError("translation vector must be a tuple or a list, not %r" % (t,))
        self.t = tuple(v if type(v) is int else _integer(v) for v in t)
        if type(exceptions) is not list and isinstance(exceptions, Mapping):  # a document's list skips the ABC test
            exceptions = exceptions.items()
        self.exceptions = _read_table(exceptions)
        self._validate()

    # -- normal form / bijectivity checks ---------------------------------

    def _validate(self) -> None:
        """Refuse data that is not the normal form of a bijection.  The
        checks, in the order in which they win when several fail:

          1. n is at least 2, and t has length n and sums to zero;
          2. every point of the table, domain then image, entry by entry,
             has a ray in 1..n and a nonnegative offset;
          3. no entry p -> q matches the tail formula (minimality);
          4. every point (i, m) with m < -t_i, whose tail image would have
             a negative offset, is in the domain;
          5. no two entries have the same image;
          6. no image (j, k) is also the tail image of (j, k - t_j), a
             point off the domain.

        One pass over the table makes checks 2, 3, 5 and 6: it raises at
        the first fault of check 2, and keeps the first fault of each other
        kind in table order, raised once the checks before it have passed.
        The per-ray loop of check 4 follows.

        Checks 4 to 6 make the map total and injective, and then check 1
        makes it onto, by an index count.  Off its table it translates ray
        i by t_i, so for an offset B far enough past the table, the points
        it maps to offsets below B number sum(B - t_i), against the n * B
        points there, and every point from B on is the tail image of a
        point off the table.  So it misses exactly sum(t_i) = 0 points."""
        n, t, dom = self.n, self.t, self.exceptions
        if n < 2:
            raise InvalidElementError("n must be at least 2")
        if len(t) != n:
            raise InvalidElementError("translation vector must have length n")
        if sum(t) != 0:
            raise InvalidElementError("translation vector must sum to zero")
        ran = set()
        non_minimal = repeated = collision = None
        for p, q in dom.items():
            i, m = p
            j, k = q
            if not 0 < i <= n:
                raise InvalidElementError("ray %d out of range" % i)
            if m < 0:
                raise InvalidElementError("negative offset at %r" % (p,))
            if not 0 < j <= n:
                raise InvalidElementError("ray %d out of range" % j)
            if k < 0:
                raise InvalidElementError("negative offset at %r" % (q,))
            if i == j and k == m + t[i - 1] and non_minimal is None:
                non_minimal = p
            if q in ran:
                if repeated is None:
                    repeated = q
            else:
                ran.add(q)
            k -= t[j - 1]
            if k >= 0 and collision is None and (j, k) not in dom:
                collision = q
        if non_minimal is not None:
            raise InvalidElementError(
                "non-minimal entry %r -> %r matches the tail formula" % (non_minimal, dom[non_minimal])
            )
        for i, step in enumerate(t, 1):
            for m in range(-step):
                if (i, m) not in dom:
                    raise InvalidElementError(
                        "point %r has no image: tail offset would be negative" % ((i, m),)
                    )
        if repeated is not None:
            raise InvalidElementError("two points map to %r" % (repeated,))
        if collision is not None:
            raise InvalidElementError(
                "%r is hit both by an exception and by the tail formula" % (collision,)
            )

    # -- structural identity ----------------------------------------------

    def __eq__(self, other) -> bool:
        # dict equality ignores insertion order, so this agrees with
        # comparing the sorted tables without sorting
        if not isinstance(other, HoughtonElement):
            return NotImplemented
        return self.n == other.n and self.t == other.t and self.exceptions == other.exceptions

    def __hash__(self) -> int:
        # a frozenset ignores insertion order as __eq__ does, with no sort
        return hash((self.n, self.t, frozenset(self.exceptions.items())))

    def __mul__(self, other: "HoughtonElement") -> "HoughtonElement":
        return compose(self, other)

    def __repr__(self) -> str:
        return "HoughtonElement(n=%d, t=%s, exceptions=%s)" % (
            self.n,
            self.t,
            sorted(self.exceptions.items()),
        )

    def max_exception_offset(self) -> int:
        """Largest offset appearing in the exception table, -1 if empty."""
        best = -1
        for (_, m), (_, k) in self.exceptions.items():
            best = max(best, m, k)
        return best


# -- constructors -----------------------------------------------------------


def _make(n: int, t: Tuple[int, ...], exceptions: Dict[Point, Point]) -> HoughtonElement:
    """An element from data this module has just computed in normal form: an
    int n, a tuple of ints t and a dict of int-pair points, taken as they are
    (no coercion, no copy, no validation)."""
    g = HoughtonElement.__new__(HoughtonElement)
    g.n = n
    g.t = t
    g.exceptions = exceptions
    return g


def identity(n: int) -> HoughtonElement:
    _check_n(n, InvalidElementError)
    return _make(int(n), (0,) * n, {})


def generator(n: int, gid: str) -> HoughtonElement:
    """The generator g_i (push ray i one step in, ray 1 one step out) or s:
    the word of its one letter, evaluated."""
    _check_n(n)
    # a gid that is not a string is refused before the rule's cache hashes it
    if not isinstance(gid, str) or _letter_rule(n, (gid, 1)) is None:
        raise WordError("generator %r is not valid for n=%d" % (gid, n))
    return evaluate(Word(int(n), ((gid, 1),)))


# -- point action -----------------------------------------------------------


def apply(g: HoughtonElement, p: Point) -> Point:
    """(p)g under the right action.  A point is two ints, in a tuple or a
    list as the constructor takes it; anything else, a bool or a float
    included, is refused, not moved."""
    if isinstance(p, (tuple, list)) and len(p) == 2:
        i, m = p
        if type(i) is type(m) is int and 1 <= i <= g.n and m >= 0:
            q = g.exceptions.get((i, m))
            return q if q is not None else (i, m + g.t[i - 1])
    raise InvalidElementError("point %r is not in the ray set" % (p,))


# -- products ----------------------------------------------------------------


class _Accumulator:
    """Right-multiplies factors onto a running product: `evaluate` pushes
    each letter's rule, for `generator` too, and `compose` the tables and
    translations of its two factors.

    Image offsets are kept relative to per-ray shift counters, so a letter
    touches only the two rays it moves and its one or two table points,
    and costs O(1) amortised whatever n is.  Folding a word with `compose`
    instead would push the running product's whole table at every letter,
    quadratic in the word's length.
    """

    def __init__(self, n: int):
        self.n = n
        self.shift = [0] * (n + 1)  # 1-indexed rays
        self.table: Dict[Point, Point] = {}  # domain point -> stored image
        self.inv: Dict[Point, Point] = {}  # stored image -> domain point

    def push(self, entries: Iterable[Tuple[Point, Point]], moves: Iterable[Tuple[int, int]]) -> None:
        """Right-multiply by the element with table `entries` (q -> v) whose
        translation steps ray i by `step` for each (i, step) of `moves`: a
        letter's `_letter_rule`, or any element's table and translation."""
        # find the current-product preimage of each exceptional point of h
        fixes = []
        for q, v in entries:
            j, k = q
            stored = (j, k - self.shift[j])
            p = self.inv.get(stored)
            if p is None:
                if stored[1] < 0 or stored in self.table:
                    raise InvalidElementError("running product is not a bijection")
                p = stored
            fixes.append((p, v))
        for i, step in moves:
            self.shift[i] += step
        # drop all stale inverse entries before writing: a new image may
        # coincide with another entry's old image
        for p, _ in fixes:
            old = self.table.get(p)
            if old is not None:
                self.inv.pop(old, None)
        for p, v in fixes:
            stored = (v[0], v[1] - self.shift[v[0]])
            self.table[p] = stored
            self.inv[stored] = p

    def element(self) -> HoughtonElement:
        t = tuple(self.shift[1:])
        exc = {}
        for (i, m), (j, k) in self.table.items():
            actual = (j, k + self.shift[j])
            if actual != (i, m + t[i - 1]):
                exc[(i, m)] = actual
        return _make(self.n, t, exc)


def _check_same_n(g: HoughtonElement, h: HoughtonElement) -> None:
    """Refuse two elements of different H_n: the one check of every
    operation on a pair of elements."""
    if g.n != h.n:
        raise InvalidElementError("elements live in different H_n: n=%d and n=%d" % (g.n, h.n))


def compose(g: HoughtonElement, h: HoughtonElement) -> HoughtonElement:
    """The product g*h under the right action: (p)(g*h) = ((p)g)h, as g's
    table and translation and then h's pushed onto an `_Accumulator`."""
    _check_same_n(g, h)
    acc = _Accumulator(g.n)
    for f in (g, h):
        acc.push(f.exceptions.items(), enumerate(f.t, 1))
    return acc.element()


def inverse(g: HoughtonElement) -> HoughtonElement:
    """g^-1: g's table turned round, which is minimal as g's is, since an
    entry q -> p with p = q - t would come from an entry p -> p + t of g."""
    t = tuple(-v for v in g.t)
    return _make(g.n, t, {q: p for p, q in g.exceptions.items()})


def evaluate(w: Word) -> HoughtonElement:
    """The element represented by a word, in normal form: a new element,
    built by the accumulator from each letter's rule, with no letter
    element.  A letter that is not a signed generator of H_n, which only a
    Word built directly and not by `Word.parse` can hold, raises
    WordError, and so does an n that is not an int of at least 2."""
    _check_n(w.n)
    acc = _Accumulator(w.n)
    for letter in w.letters:
        # such a letter has no rule (None, which * refuses) or no hash: a TypeError
        try:
            acc.push(*_letter_rule(w.n, letter))
        except TypeError:
            raise WordError("letter %r is not valid for n=%d" % (letter, w.n)) from None
    return acc.element()


@functools.lru_cache(maxsize=1024)
def _letter_rule(n: int, letter):
    """The table points and ray steps of a signed generator (gid, +-1) of
    H_n, for `_Accumulator.push`, or None when `letter` is not one: g_j
    moves ray 1 out and ray j in by one step and sends (j, 0) to (1, 0),
    g_j^-1 undoes that, and s swaps (1, 0) and (2, 0).  This is the
    package's one definition of H_n's letters: `Word.parse` reads a token
    by it alone, `generator` checks a gid by it, `evaluate` pushes it, and
    the oracle builds a table and steps from it, in O(1) per gid without
    listing H_n's generators as `generator_ids` does.  The oracle reads the
    uncached rule, `__wrapped__`, so a search in a large H_n leaves none of
    its letters in this cache.  A gid of more digits than `int` reads has
    no rule.  The benchmark's checker,
    `bench/check.py`, keeps a rule of its own, written apart, which the
    tests compare `evaluate` against."""
    if not (isinstance(letter, tuple) and len(letter) == 2 and letter[1] in (1, -1)):
        return None
    gid, sign = letter
    if gid == "s":
        return ((((1, 0), (2, 0)), ((2, 0), (1, 0))), ()) if n == 2 else None
    if not (isinstance(gid, str) and gid[:1] == "g" and gid[1:].isdecimal()):
        return None
    try:
        j = int(gid[1:])
    except ValueError:  # more digits than `int` reads: no generator of any H_n
        return None
    if gid != "g%d" % j or not 2 <= j <= n:
        return None
    if sign > 0:
        return (((j, 0), (1, 0)),), ((1, 1), (j, -1))
    return (((1, 0), (j, 0)),), ((1, -1), (j, 1))


def equals(g: HoughtonElement, h: HoughtonElement) -> bool:
    _check_same_n(g, h)
    return g == h


def conjugate_element(g: HoughtonElement, x: HoughtonElement) -> HoughtonElement:
    """g^x = x^{-1} * g * x, the element of `_conjugated_table`: g's table
    carried through x's, without building x^{-1}."""
    _check_same_n(g, x)
    return _make(g.n, g.t, _conjugated_table(g.exceptions, g.t, x.exceptions, x.t))


def verify(a: HoughtonElement, b: HoughtonElement, x: HoughtonElement) -> bool:
    """Exact certificate check: x^-1 * a * x equals b."""
    return equals(conjugate_element(a, x), b)


def _conjugated_table(
    ce: Dict[Point, Point], ct: Sequence[int], ge: Dict[Point, Point], gt: Sequence[int]
) -> Dict[Point, Point]:
    """The table of g^-1 * c * g, for c of table ce and translation ct and
    g of table ge and translation gt, with no inverse, by carrying c's
    table through g: the one conjugation product, which
    `conjugate_element` and so `verify` use.  The oracle's search
    repeats it on coded points (`oracle._coded_conjugated_table`), so its
    hits are confirmed by arithmetic it does not share.

    g^-1 * c * g maps (p)g to ((p)c)g, and its translation is t(c).  So
    each point p gives the entry r -> v with r = (p)g and v = ((p)c)g,
    which is an exception iff v is not r + t(c).  Off c's table and off
    g's table, with p + t(c) off g's table too, both steps through g are
    translations: r = p + t(g) and v = p + t(c) + t(g) = r + t(c).  So one
    pass over c's table, and a short one over the points p off it with p
    or p + t(c) on g's table, find every exception."""
    exc = {}
    for p, q in ce.items():
        if p in ge:
            i, m = ge[p]
        else:
            i, m = p
            m += gt[i - 1]
        if q in ge:
            j, k = ge[q]
        else:
            j, k = q
            k += gt[j - 1]
        if j != i or k != m + ct[i - 1]:
            exc[(i, m)] = (j, k)
    # a point p = (j, k) of g's table gives the candidates p, whose image
    # r is its entry, and p - t(c), whose image v is that entry, as c
    # translates it to p
    for p, w in ge.items():
        j, k = p
        step = ct[j - 1]
        if p not in ce:
            v = ge.get((j, k + step)) or (j, k + step + gt[j - 1])
            if v != (w[0], w[1] + ct[w[0] - 1]):
                exc[w] = v
        m = k - step
        if step and m >= 0 and (j, m) not in ce:
            r = ge.get((j, m)) or (j, m + gt[j - 1])
            if w != (r[0], r[1] + ct[r[0] - 1]):
                exc[r] = w
    return exc


# -- canonical text format ---------------------------------------------------


# the compact encoder of every JSON text the package writes: element
# documents and the command line's outcome lines.  They are trees of
# dicts, tuples and lists that the package has just built, so the check
# for a container that holds itself is skipped
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _document(g: HoughtonElement) -> dict:
    """The canonical document of g, before it is written as JSON text: the
    encoder writes its tuples as arrays."""
    return {"n": g.n, "t": g.t, "exceptions": sorted(g.exceptions.items())}


def serialize(g: HoughtonElement) -> str:
    return _JSON.encode(_document(g))


def deserialize(text: str) -> HoughtonElement:
    """The element of a JSON element document, built by the constructor once
    its fields have their JSON types.  A point of the table is a [ray,
    offset] array; anything else in its place is a bad exception entry."""
    # a ValueError: JSONDecodeError, or a number of more digits than `int` reads
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidElementError("not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise InvalidElementError("element document must be an object")
    missing = {"n", "t", "exceptions"} - set(doc)
    if missing:
        raise InvalidElementError("missing fields: %s" % ", ".join(sorted(missing)))
    n, t, pairs = doc["n"], doc["t"], doc["exceptions"]
    if not isinstance(n, int) or not isinstance(t, list) or not isinstance(pairs, list):
        raise InvalidElementError("bad field types in element document")
    return HoughtonElement(n, t, pairs)


def _read_table(entries: Iterable) -> Dict[Point, Point]:
    """The exception table of entries (p, q), for the constructor.  An entry
    and each of its points is a tuple or a list of two: a third coordinate
    is not dropped, and a string, a dict or a range is not read as its
    items, "10" as (1, 0).  Each value is coerced once, here, and only in
    an entry whose values are not all ints already."""
    exc: Dict[Point, Point] = {}
    for entry in entries:
        try:
            p, q = entry
            i, m = p
            j, k = q
        except (TypeError, ValueError) as err:
            raise InvalidElementError("bad exception entry %r" % (entry,)) from err
        if not (isinstance(entry, (tuple, list)) and isinstance(p, (tuple, list)) and isinstance(q, (tuple, list))):
            raise InvalidElementError("bad exception entry %r" % (entry,))
        if not type(i) is type(m) is type(j) is type(k) is int:
            i, m, j, k = _integer(i), _integer(m), _integer(j), _integer(k)
        p = (i, m)
        if p in exc:
            raise InvalidElementError("duplicate exception domain point %r" % (p,))
        exc[p] = (j, k)
    return exc


def _integer(v) -> int:
    """A given value as an int, for the constructor.  Integral numbers and
    ASCII digit strings with an optional leading minus are taken; booleans,
    NaN, infinities, fractions and other strings that `int` reads, as
    "1_0", " 7 " or "+3", are refused, not truncated."""
    if isinstance(v, bool) or (isinstance(v, str) and re.fullmatch("-?[0-9]+", v) is None):
        raise InvalidElementError("not an integer: %r" % (v,))
    try:
        k = int(v)
    except (TypeError, ValueError, OverflowError) as err:
        raise InvalidElementError("not an integer: %r" % (v,)) from err
    if k != v and not isinstance(v, str):
        raise InvalidElementError("not an integer: %r" % (v,))
    return k
