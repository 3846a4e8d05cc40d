"""Independent brute-force machinery: the conjugator word search.

The conjugator search has its own arithmetic on points coded as ints,
(i, m) as m * n + i - 1: its one product, `_coded_conjugated_table`,
repeats `core._conjugated_table` on codes, with each letter's coded table
and steps built from `core`'s letter rule and kept for the last n
searched, O(1) in size whatever n is.  A node of the search is a word
and the coded table of its conjugate, whose translation is a's or b's,
with the table's key where it is looked up, and no element is built
until a hit.
The cross-check stays independent in what it searches and how it confirms:
the search enumerates words rather than translation tuples, answers with
the first word of the ball in breadth-first order with no pruning by
invariants (no translation or cycle-type check), and checks every hit
again with `core.verify`, whose product on tables the search does not
share, on the element `evaluate` gives the word; and the benchmark's
checker, whose own letter rule the tests compare `evaluate` against,
confirms answers without the package.  It needs only `core`, so a search
never loads the decision modules `conjugacy` and `orbits`.  No search
state is kept between calls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .core import HoughtonElement, Point, Word, _check_same_n, _letter_rule, evaluate, generator_ids, verify


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


_Letter = Tuple[str, int]
_Letters = Tuple[_Letter, ...]


def _signed_alphabet(n: int) -> _Letters:
    """The letters the search draws from, in letter order: each generator
    and its inverse, but s alone, as it is its own inverse."""
    return tuple((gid, sign) for gid in generator_ids(n) for sign in ((1,) if gid == "s" else (1, -1)))


# a signed letter with its coded table and steps, and the letter that
# cancels it with that letter's coded table and steps.  The alias names no
# class of this module: the typing module caches it for the process, and
# would keep the module alive after a re-import
_SearchLetter = Tuple[_Letter, Dict[int, int], Dict[int, int], _Letter, Dict[int, int], Dict[int, int]]


def _coded_table(n: int, entries: Iterable[Tuple[Point, Point]]) -> Dict[int, int]:
    """The table of H_n with these entries on coded points: (i, m) is
    m * n + i - 1, whose ray is the code mod n, and which is below 0
    exactly when m is."""
    return {m * n + i - 1: k * n + j - 1 for (i, m), (j, k) in entries}


@functools.lru_cache(maxsize=1, typed=True)
def _search_tables(n: int) -> Tuple[_SearchLetter, ...]:
    """Each signed letter of H_n, in letter order, with its coded table
    and steps, and the letter that cancels it (s cancels itself) with
    that letter's, the same dicts and not copies: a letter may follow
    every letter but the one that cancels it.  The steps map ray - 1 to
    the coded step step * n on the rays the letter moves, and are read
    with 0 for the others, so a letter costs O(1) whatever n is.  Built
    for a search of radius 1 or more that passed the size check, and only
    read; only the last n's are kept, as a large H_n's take megabytes."""
    tables = {}
    # one int object for each code and coded step, whichever dicts hold it
    share = {}.setdefault
    for m in _signed_alphabet(n):
        entries, moves = _letter_rule(n, m)
        tables[m] = (
            {share(p, p): share(q, q) for p, q in _coded_table(n, entries).items()},
            {share(i - 1, i - 1): share(step * n, step * n) for i, step in moves},
        )
    # the letter that cancels each, as the same tuple as its own entry
    letters = {m: m for m in tables}
    cancels = {(gid, sign): letters[gid, sign if gid == "s" else -sign] for gid, sign in tables}
    return tuple((m, *tables[m], cancels[m], *tables[cancels[m]]) for m in tables)


def _coded_conjugated_table(
    n: int, ce: Dict[int, int], ct: Sequence[int], ge: Dict[int, int], gt: Dict[int, int]
) -> Dict[int, int]:
    """`core._conjugated_table` on coded points: the coded table of
    g^-1 * c * g, for c of coded table ce and coded translation ct (ct[r]
    = t_(r + 1) * n), and g of coded table ge and coded steps gt, which
    maps r to t_(r + 1) * n on the rays g moves, as `_search_tables` gives
    a letter's.  The same two loops: one over c's table, and one over the
    candidates p and p - t(c) of each point p of g's table.  A point's ray
    is its code mod n, and a translation adds the coded step; a coded
    image may be 0, the point (1, 0), so an image is never tested for
    truth."""
    exc = {}
    for p, q in ce.items():
        r = ge[p] if p in ge else p + gt.get(p % n, 0)
        v = ge[q] if q in ge else q + gt.get(q % n, 0)
        if v != r + ct[r % n]:
            exc[r] = v
    for p, w in ge.items():
        ray = p % n
        step = ct[ray]
        if p not in ce:
            q = p + step
            v = ge[q] if q in ge else q + gt.get(ray, 0)
            if v != w + ct[w % n]:
                exc[w] = v
        q = p - step
        if step and q >= 0 and q not in ce:
            r = ge[q] if q in ge else q + gt.get(ray, 0)
            if w != r + ct[r % n]:
                exc[r] = w
    return exc


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

    Each node is a word and a bare table on points coded as ints, (i, m)
    as m * n + i - 1: conjugation keeps the translation, so every
    x^-1 a x has a.t and every u b u^-1 has b.t, and
    `_coded_conjugated_table` carries a coded table through a letter's
    coded table and steps with no element built and no point tuple.  a's
    and b's tables and translations are coded once per search.  The index
    is keyed on tables alone, as frozensets of their coded entries, so a
    lookup reads no n-int translation: the coding is a bijection on
    points, and a valid table fixes t, as t_i is the number of its images
    on ray i less the number of its points there.  A prefix is looked up
    at two lengths, with one key built once; the prefixes of the last
    level are never extended, so they keep their keys and not their
    tables.  What a node saves is a fixed cost, so the gain is largest on
    small tables.

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
    # a search of radius 0 compares a with b and reads no letter
    letters = _joined_search(a, b, radius, _search_tables(n) if radius else ())
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
    half-balls of `brute_force_conjugator`'s docstring, on coded tables."""
    n = a.n
    # map, not a generator: the n rays cost no bytecode each
    at, bt = tuple(map(n.__mul__, a.t)), tuple(map(n.__mul__, b.t))
    ae, be = _coded_table(n, a.exceptions.items()), _coded_table(n, b.exceptions.items())
    # (x, the table of x^-1 a x, the letter that may not follow x, the
    # table's key) and (u, the table of u b u^-1, the letter that may not
    # come before u) over the reduced words of one length, in letter
    # order.  A prefix is looked up at two lengths, so its key is built
    # once; a prefix that is never extended keeps no table
    prefixes = [((), ae, None, frozenset(ae.items()))]
    suffixes = [((), be, None)]
    # the key of u b u^-1 -> the first u with each first letter, in order
    index: Dict[frozenset, Dict[Optional[_Letter], _Letters]] = {frozenset(be.items()): {None: ()}}
    for length in range(radius + 1):
        if length % 2:
            keep = length + 2 <= radius
            level = []
            for x, c, after, _ in prefixes:
                for m, ge, gt, stop, _, _ in letters:
                    if m != after:
                        table = _coded_conjugated_table(n, c, at, ge, gt)
                        level.append((x + (m,), table if keep else None, stop, frozenset(table.items())))
            prefixes = level
        elif length:
            suffixes = [
                ((m,) + u, _coded_conjugated_table(n, c, bt, ge, gt), stop)
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

