"""Independent brute-force machinery: word enumeration, pointwise word
simulation and reproducible random instances.

The products come from `core`: the one-pass `compose`, and
`_conjugate_by`, which carries an element's table through one letter's
element with no inverse; `conjugate` uses both too.  The cross-check
stays independent in what it searches and how it confirms: simulate_word
acts with the raw generator rules; the conjugator search enumerates words
rather than translation tuples, answers with the first word of the ball
in breadth-first order with no pruning by invariants (no translation or
cycle-type check), and checks every hit again with `conjugacy.verify` on
the element `evaluate` gives the word; and the benchmark's checker
confirms answers without the package.

A word w = x u is a hit iff x^-1 a x = u b u^-1, so the search meets in
the middle: for each word length it carries x^-1 a x along the reduced
prefixes x of half that length (rounded up) and looks each one up in a
hash index of u b u^-1 over the reduced suffixes u of the other half,
built by prepending letters.  A miss at radius L then costs one
conjugation by a letter per reduced word of length at most L/2 on each
side and builds no element, instead of a product per element of the
ball.  This is exact whenever the ball has no more reduced words than the
candidate cap allows; for a cap that can stop the search, the
breadth-first loop that deduplicates elements and counts candidates runs
instead.  No search state is kept between calls: only H_n's letters,
their inverses and which letter may follow which are built once per n
and shared.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import (
    HoughtonElement,
    Point,
    Word,
    _TABLES_KEPT,
    _conjugate_by,
    _letters,
    compose,
    evaluate,
    generator_ids,
    identity,
)
from .conjugacy import verify


@dataclass(frozen=True)
class SearchBudget:
    max_word_length: int
    max_candidates: int = 10_000_000

    def __post_init__(self):
        for value in (self.max_word_length, self.max_candidates):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError("budget fields must be integers, not %r" % (value,))
        if self.max_word_length < 0 or self.max_candidates < 0:
            raise ValueError("budget fields must be nonnegative")


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


@functools.lru_cache(maxsize=_TABLES_KEPT, typed=True)
def _signed_alphabet(n: int) -> _Letters:
    """The letters the search and `random_word` draw from, in letter order:
    each generator and its inverse, but s alone, as it is its own inverse."""
    return tuple((gid, sign) for gid in generator_ids(n) for sign in ((1,) if gid == "s" else (1, -1)))


@functools.lru_cache(maxsize=_TABLES_KEPT, typed=True)
def _search_tables(n: int) -> Tuple[Dict[_Letter, HoughtonElement], Dict[Optional[_Letter], _Letters]]:
    """The element of each letter's inverse, and the letters that may follow
    each letter (all but the one that cancels it) with every letter under
    None, for the searches in H_n.  Built once per n and only read."""
    alphabet = _signed_alphabet(n)
    letters = _letters(n)
    undo = {(gid, sign): letters[(gid, -sign)] for gid, sign in alphabet}
    follows: Dict[Optional[_Letter], _Letters] = {
        m: tuple(k for k in alphabet if k != (m[0], -m[1]) and not (m == k == ("s", 1))) for m in alphabet
    }
    follows[None] = alphabet
    return undo, follows


def brute_force_conjugator(
    a: HoughtonElement, b: HoughtonElement, budget: SearchBudget
) -> Optional[Word]:
    """Breadth-first search for a word w with evaluate(w)^-1 * a * evaluate(w) = b.

    Free cancellations are pruned.  Finding nothing proves nothing: the
    search is bounded.  The candidates are the reduced words of length at
    most budget.max_word_length, shortest first and in letter order
    within a length, with a later word skipped when an earlier one has the
    same element; the search gives up after budget.max_candidates of them.

    Which word comes back.  Without the cap, the answer is the first
    reduced word of least length, in letter order, that is a hit.  Let w
    be that word and suppose a prefix p of w, or w itself, is skipped for
    a word p' seen earlier with the same element.  Then p' is shorter
    than p, or as long and earlier in letter order, and w with p replaced
    by p' is a hit as well; freely reduced, it is shorter than w, or as
    long and earlier, against the choice of w.  So w and all its prefixes
    are candidates, and every candidate before w is shorter or earlier,
    so not a hit.

    How it is found.  A word x u is a hit iff x^-1 a x = u b u^-1.  For
    each length l, the reduced prefixes x of length ceil(l/2) carry
    x^-1 a x along the prefix tree, and the reduced suffixes u of length
    floor(l/2), built by prepending letters, are indexed by u b u^-1.  The
    answer is x u for the first x, in letter order, whose conjugate is
    indexed under some u that may follow x's last letter, and the first
    such u: the first reduced hit of length l in letter order.  No element
    is deduplicated and no word is counted, so this gives the word above
    only when the cap cannot bite, which holds whenever the ball has at
    most budget.max_candidates reduced words (a candidate is a reduced
    word whose element was not seen before).  Otherwise the deduplicating
    breadth-first loop runs and counts its candidates.  Either way the
    hit's element is evaluated from its word and checked again by
    `verify` before the word is returned.
    """
    if a.n != b.n:
        raise ValueError("elements live in different H_n")
    n = a.n
    elements = _letters(n)
    undo, follows = _search_tables(n)
    if searches_exactly(n, budget):
        letters = _joined_search(a, b, budget.max_word_length, elements, undo, follows)
    else:
        letters = _capped_search(a, b, budget, elements, undo, follows)
    if letters is None:
        return None
    w = Word(n, letters)
    if not verify(a, b, evaluate(w)):
        raise RuntimeError("word %s is a hit of the search but fails verify" % w)
    return w


def searches_exactly(n: int, budget: SearchBudget) -> bool:
    """Whether `brute_force_conjugator` searches the ball of `budget` in H_n
    from two half-balls: the ball has at most budget.max_candidates reduced
    words, so the cap cannot stop the search.  After the first letter,
    each letter may be followed by all letters but one."""
    size = len(_signed_alphabet(n))
    words = level = 1
    for length in range(1, budget.max_word_length + 1):
        level *= size if length == 1 else size - 1
        words += level
        if words > budget.max_candidates:
            break
    return words <= budget.max_candidates


def _joined_search(
    a: HoughtonElement,
    b: HoughtonElement,
    radius: int,
    elements: Dict[_Letter, HoughtonElement],
    undo: Dict[_Letter, HoughtonElement],
    follows: Dict[Optional[_Letter], _Letters],
) -> Optional[_Letters]:
    """The first reduced hit of least length in letter order, from the
    half-balls of `brute_force_conjugator`'s docstring."""
    # (x, x^-1 a x) and (u, u b u^-1) over the reduced words of one length,
    # in letter order
    prefixes: List[Tuple[_Letters, HoughtonElement]] = [((), a)]
    suffixes: List[Tuple[_Letters, HoughtonElement]] = [((), b)]
    # u b u^-1 -> the first u with each first letter, in letter order
    index: Dict[HoughtonElement, Dict[Optional[_Letter], _Letters]] = {b: {None: ()}}
    for length in range(radius + 1):
        if length % 2:
            prefixes = [
                (x + (m,), _conjugate_by(c, elements[m]))
                for x, c in prefixes
                for m in follows[x[-1] if x else None]
            ]
        elif length:
            suffixes = [
                ((m,) + u, _conjugate_by(c, undo[m]))
                for m in follows[None]
                for u, c in suffixes
                if not u or u[0] in follows[m]
            ]
            index = {}
            for u, c in suffixes:
                index.setdefault(c, {}).setdefault(u[0], u)
        for x, c in prefixes:
            hits = index.get(c)
            if hits is not None:
                after = follows[x[-1] if x else None]
                for u in hits.values():
                    if not u or u[0] in after:
                        return x + u
    return None


def _capped_search(
    a: HoughtonElement,
    b: HoughtonElement,
    budget: SearchBudget,
    elements: Dict[_Letter, HoughtonElement],
    undo: Dict[_Letter, HoughtonElement],
    follows: Dict[Optional[_Letter], _Letters],
) -> Optional[_Letters]:
    """The breadth-first loop that deduplicates elements and stops after
    budget.max_candidates candidates.  Each entry holds a word, its element
    x, the conjugate of a by x's parent and the conjugate l b l^-1 of b by
    x's last letter l, which is a hit iff the two are equal; x^-1 a x is
    built only when the children of x are made."""
    # x l is a hit iff x^-1 a x = l b l^-1
    targets = {letter: _conjugate_by(b, undo[letter]) for letter in follows[None]}
    one = identity(a.n)
    tried = 0
    seen = {one}
    frontier = [((), one, a, b)]
    for length in range(budget.max_word_length + 1):
        for letters, _, c, target in frontier:
            tried += 1
            if tried > budget.max_candidates:
                return None
            if c == target:
                return letters
        if length == budget.max_word_length:
            break  # the next level would never be tested
        nxt = []
        for letters, x, c, _ in frontier:
            m = letters[-1] if letters else None
            if letters:  # x^-1 a x from the conjugate of x's parent
                c = _conjugate_by(c, elements[m])
            for letter in follows[m]:
                y = compose(x, elements[letter])
                if y not in seen:  # else a word no longer than this one reaches y
                    seen.add(y)
                    nxt.append((letters + (letter,), y, c, targets[letter]))
        frontier = nxt
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
