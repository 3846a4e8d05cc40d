"""Independent brute-force machinery: word enumeration, pointwise word
simulation and reproducible random instances.

The conjugator search's one product is `core._conjugated_table`, which
`conjugate` uses too, through `conjugate_element`; the search hands it
each letter's table and steps, built from `core`'s letter rule and kept
once per n, O(1) in size whatever n is.  A node of the search is a word
and the table of its conjugate, whose translation is a's or b's, with the
table's key where it is looked up, and no element is built until a hit.
The cross-check stays independent in what it searches and how it confirms:
simulate_word acts with the raw generator rules; the search enumerates
words rather than translation tuples, answers with the first word of the
ball in breadth-first order with no pruning by invariants (no
translation or cycle-type check), and checks every hit again with
`conjugacy.verify` on the element `evaluate` gives the word; and the
benchmark's checker confirms answers without the package.  No search
state is kept between calls.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .core import HoughtonElement, Point, Word, _check_same_n, _conjugated_table, _letter_rule, evaluate, generator_ids
from .conjugacy import verify


# the most reduced words a searched ball may have
MAX_WORDS = 10_000_000


@dataclass(frozen=True)
class SearchBudget:
    max_word_length: int

    def __post_init__(self):
        value = self.max_word_length
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError("the word length must be an integer, not %r" % (value,))
        if value < 0:
            raise ValueError("the word length must be nonnegative")


def _letter_image(n: int, gid: str, sign: int, p: Point) -> Point:
    """One generator letter acting on one point, straight from the cycle rules."""
    i, m = p
    if gid == "s":
        if p == (1, 0):
            return (2, 0)
        if p == (2, 0):
            return (1, 0)
        return p
    j = int(gid[1:])
    if sign > 0:
        if i == 1:
            return (1, m + 1)
        if i == j:
            return (1, 0) if m == 0 else (j, m - 1)
        return p
    if i == 1:
        return (j, 0) if m == 0 else (1, m - 1)
    if i == j:
        return (j, m + 1)
    return p


def simulate_word(w: Word, window: int) -> Dict[Point, Point]:
    """The action of the word on all points with offset <= window, computed
    letter by letter (images may leave the window)."""
    if window < len(w):
        raise ValueError("window must be at least the word length")
    out = {}
    for i in range(1, w.n + 1):
        for m in range(window + 1):
            p = (i, m)
            for gid, sign in w.letters:
                p = _letter_image(w.n, gid, sign, p)
            out[(i, m)] = p
    return out


_Letter = Tuple[str, int]
_Letters = Tuple[_Letter, ...]


def _signed_alphabet(n: int) -> _Letters:
    """The letters the search and `random_word` draw from, in letter order:
    each generator and its inverse, but s alone, as it is its own inverse."""
    return tuple((gid, sign) for gid in generator_ids(n) for sign in ((1,) if gid == "s" else (1, -1)))


class _Steps(dict):
    """A letter's step on each ray i, at i - 1 as in a translation vector:
    stored on the rays it moves, and 0 on every other ray."""

    __slots__ = ()

    def __missing__(self, ray: int) -> int:
        return 0


# a signed letter with its table and `_Steps`, and the letter that cancels
# it with that letter's table and `_Steps`.  The alias names no class of
# this module: the typing module caches it for the process, and would keep
# the module alive after a re-import
_SearchLetter = Tuple[_Letter, Dict[Point, Point], Dict[int, int], _Letter, Dict[Point, Point], Dict[int, int]]


@functools.lru_cache(maxsize=8, typed=True)
def _search_tables(n: int) -> Tuple[_SearchLetter, ...]:
    """Each signed letter of H_n, in letter order, with its table and
    steps, and the letter that cancels it (s cancels itself) with that
    letter's table and steps: a letter may follow every letter but the
    one that cancels it.  Built once per n, for a search that passed the
    size check, and only read."""
    tables = {}
    for m in _signed_alphabet(n):
        entries, moves = _letter_rule(n, m)
        tables[m] = (dict(entries), _Steps((i - 1, step) for i, step in moves))
    cancels = {(gid, sign): (gid, sign if gid == "s" else -sign) for gid, sign in tables}
    return tuple((m, *tables[m], cancels[m], *tables[cancels[m]]) for m in tables)


def brute_force_conjugator(
    a: HoughtonElement, b: HoughtonElement, budget: SearchBudget
) -> Optional[Word]:
    """The first reduced word w of least length, in letter order, with
    evaluate(w)^-1 * a * evaluate(w) = b, among the words of length at most
    budget.max_word_length; None when there is none.

    Free cancellations are pruned.  Finding nothing proves nothing: the
    search is bounded.  No pruning by invariants is done.

    How it is found.  A word x u is a hit iff x^-1 a x = u b u^-1.  For
    each length l, the reduced prefixes x of length ceil(l/2) carry
    x^-1 a x along the prefix tree, and the reduced suffixes u of length
    floor(l/2), built by prepending letters, are indexed by the table of
    u b u^-1.  The answer is x u for the first x, in letter order, whose
    conjugate's table is indexed under some u that may follow x's last
    letter, and the first such u: the first reduced hit of length l in
    letter order.  The hit's element is evaluated from its word and
    checked again by `verify` before the word is returned.  A miss at
    radius L costs one conjugation by a letter per reduced word of length
    at most L/2 on each side, and builds no element of the ball.

    Each node is a word and a bare table: conjugation keeps the
    translation, so every x^-1 a x has a.t and every u b u^-1 has b.t, and
    `core._conjugated_table` carries a table through a letter's table and
    steps with no element built.  The index is keyed on tables alone, as
    frozensets of their entries, so a lookup reads no n-int translation:
    a valid table fixes t, as t_i is the number of its images on ray i
    less the number of its points there.  A prefix is looked up at two
    lengths, with one key built once; the prefixes of the last level are
    never extended, so they keep their keys and not their tables.  What a
    node saves is a fixed cost, so the gain is largest on small tables.

    Size.  Before any letter's table is built, ValueError refuses a search
    whose ball has more than MAX_WORDS reduced words (more than radius 14
    in H_3).  That is the only bound: a one-letter search in H_20,000 runs.
    """
    _check_same_n(a, b)
    n = a.n
    radius = budget.max_word_length
    if _ball_words(n, radius) > MAX_WORDS:
        limit = 0
        while _ball_words(n, limit + 1) <= MAX_WORDS:
            limit += 1
        raise ValueError(
            "budget %d is over the limit of %d in H_%d: its ball has more reduced words "
            "than the cap of %d" % (radius, limit, n, MAX_WORDS)
        )
    letters = _joined_search(a, b, radius, _search_tables(n))
    if letters is None:
        return None
    w = Word(n, letters)
    if not verify(a, b, evaluate(w)):
        raise RuntimeError("word %s is a hit of the search but fails verify" % w)
    return w


def _ball_words(n: int, radius: int) -> int:
    """The number of reduced words of length at most `radius` in H_n, or
    the first partial count over MAX_WORDS.  There are 2(n - 1) letters (3
    in H_2, where s is its own inverse), and after the first letter each
    letter may be followed by all letters but one."""
    size = 3 if n == 2 else 2 * (n - 1)
    words = level = 1
    for length in range(1, radius + 1):
        level *= size if length == 1 else size - 1
        words += level
        if words > MAX_WORDS:
            break
    return words


def _joined_search(
    a: HoughtonElement, b: HoughtonElement, radius: int, letters: Tuple[_SearchLetter, ...]
) -> Optional[_Letters]:
    """The first reduced hit of least length in letter order, from the
    half-balls of `brute_force_conjugator`'s docstring, on bare tables."""
    at, bt = a.t, b.t
    # (x, the table of x^-1 a x, the letter that may not follow x, the
    # table's key) and (u, the table of u b u^-1, the letter that may not
    # come before u) over the reduced words of one length, in letter
    # order.  A prefix is looked up at two lengths, so its key is built
    # once; a prefix that is never extended keeps no table
    prefixes = [((), a.exceptions, None, frozenset(a.exceptions.items()))]
    suffixes = [((), b.exceptions, None)]
    # the key of u b u^-1 -> the first u with each first letter, in order
    index: Dict[frozenset, Dict[Optional[_Letter], _Letters]] = {frozenset(b.exceptions.items()): {None: ()}}
    for length in range(radius + 1):
        if length % 2:
            keep = length + 2 <= radius
            level = []
            for x, c, after, _ in prefixes:
                for m, ge, gt, stop, _, _ in letters:
                    if m != after:
                        table = _conjugated_table(c, at, ge, gt)
                        level.append((x + (m,), table if keep else None, stop, frozenset(table.items())))
            prefixes = level
        elif length:
            suffixes = [
                ((m,) + u, _conjugated_table(c, bt, ge, gt), stop)
                for m, _, _, stop, ge, gt in letters
                for u, c, before in suffixes
                if m != before
            ]
            index = {}
            for u, c, _ in suffixes:
                index.setdefault(frozenset(c.items()), {}).setdefault(u[0], u)
        for x, _, after, key in prefixes:
            hits = index.get(key)
            if hits is not None:
                for u in hits.values():
                    if not u or u[0] != after:
                        return x + u
    return None


def random_word(n: int, seed: int, length: int) -> Word:
    rng = random.Random(("word", n, seed, length).__repr__())
    alphabet = _signed_alphabet(n)
    return Word(n, tuple(rng.choice(alphabet) for _ in range(length)))


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
