"""Independent brute-force machinery: word enumeration, pointwise word
simulation and reproducible random instances.

The products come from `core`: the one-pass `compose` and `_conjugate_by`
that `conjugate` uses too.  The cross-check stays independent in what it
searches and how it confirms: simulate_word acts with the raw generator
rules; the conjugator search enumerates words rather than translation
tuples, tests every word of the ball in breadth-first order with no
pruning by invariants (no translation or cycle-type check), and checks
every hit again with `conjugacy.verify`; and the benchmark's checker
confirms answers without the package.  The search carries conjugates
along the search tree, so a candidate costs at most two passes over one
exception table (its element, and the conjugate its children are tested
with).  The last level is never extended, which makes most of its cost
avoidable: when the cap cannot stop it, its words get no element and no
deduplication (a repeated word has the element of an earlier word, which
was tested first, so the first hit is the same word), and once the level
before it has at least as many words as there are allowed letter pairs,
its words are tested against two-letter conjugates of b, so that level
needs no conjugates of its own.  It keeps no state between calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .core import (
    HoughtonElement,
    Point,
    Word,
    _conjugate_by,
    compose,
    evaluate,
    generator,
    generator_ids,
    identity,
    inverse,
)
from .conjugacy import verify


@dataclass(frozen=True)
class SearchBudget:
    max_word_length: int
    max_candidates: int = 10_000_000

    def __post_init__(self):
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


def _signed_alphabet(n: int) -> List[Tuple[str, int]]:
    letters = []
    for gid in generator_ids(n):
        letters.append((gid, 1))
        if gid != "s":  # the transposition is its own inverse
            letters.append((gid, -1))
    return letters


# a word, its element x, the conjugate of a by a prefix of x (x without its
# last letter, or without its last two on the last level), and the element
# that conjugate equals iff the word is a hit
_Entry = Tuple[Tuple[Tuple[str, int], ...], HoughtonElement, HoughtonElement, HoughtonElement]


def brute_force_conjugator(
    a: HoughtonElement, b: HoughtonElement, budget: SearchBudget
) -> Optional[Word]:
    """Breadth-first search for a word w with evaluate(w)^-1 * a * evaluate(w) = b.

    Free cancellations are pruned.  Finding nothing proves nothing: the
    search is bounded.

    Conjugates are carried along the search tree: a word y = x l is a hit
    iff x^-1 a x = l b l^-1, so y is tested against one of a few fixed
    conjugates of b, and x^-1 a x is built from its parent's conjugate
    when the children of x are made.  On the last level, once there are
    at least as many frontier words x = x'm as allowed letter pairs (m, l),
    x l is tested as x'^-1 a x' = (m l) b (m l)^-1 against two-letter
    targets, so x needs no conjugate of its own.  The last level is never
    extended, so when the cap cannot stop it (the candidates tested so
    far plus one per letter of each frontier word stay within it) its
    words get no element and are not deduplicated: the test depends only
    on the element, and an earlier word with the same element was tested
    first, so the first hit is the same word.  A hit is checked again by
    `verify` before it is returned.
    """
    if a.n != b.n:
        raise ValueError("elements live in different H_n")
    n = a.n
    alphabet = _signed_alphabet(n)
    elements = {letter: generator(n, letter[0]) for letter in alphabet if letter[1] > 0}
    for gid, sign in alphabet:
        if sign < 0:
            elements[(gid, sign)] = inverse(elements[(gid, 1)])
    # the element of each letter's inverse (s is its own)
    undo = {letter: elements.get((letter[0], -letter[1]), elements[letter]) for letter in alphabet}
    # the letters that may follow each letter: no free cancellation
    follows = {
        m: [k for k in alphabet if k != (m[0], -m[1]) and not (m == k == ("s", 1))] for m in alphabet
    }
    follows[None] = alphabet
    # x l is a hit iff x^-1 a x = l b l^-1
    targets = {letter: _conjugate_by(b, undo[letter], elements[letter]) for letter in alphabet}

    one = identity(n)
    tried = 0
    seen = {one}
    frontier: List[_Entry] = [((), one, a, b)]
    for length in range(budget.max_word_length + 1):
        for letters, x, c, target in frontier:
            tried += 1
            if tried > budget.max_candidates:
                return None
            if c == target:
                return _confirmed(a, b, x, Word(n, letters))
        if length == budget.max_word_length:
            break  # the next level would never be tested
        last = length + 1 == budget.max_word_length
        pairs = None
        if last and len(frontier) >= sum(len(follows[m]) for m in alphabet):
            # x' m l is a hit iff x'^-1 a x' = (m l) b (m l)^-1
            pairs = {
                m: {k: _conjugate_by(targets[k], undo[m], elements[m]) for k in follows[m]} for m in alphabet
            }
        uncapped = last and tried + len(frontier) * len(alphabet) <= budget.max_candidates
        nxt = []
        for letters, x, c, _ in frontier:
            m = letters[-1] if letters else None
            if pairs is not None:
                wanted = pairs[m]
            else:
                wanted = targets
                if letters:  # x^-1 a x from the conjugate of x's parent
                    c = _conjugate_by(c, elements[m], undo[m])
            if uncapped:
                for letter in follows[m]:
                    if c == wanted[letter]:
                        return _confirmed(a, b, compose(x, elements[letter]), Word(n, letters + (letter,)))
                continue
            for letter in follows[m]:
                y = compose(x, elements[letter])
                if y in seen:
                    continue  # a word no longer than this one already reaches y
                seen.add(y)
                nxt.append((letters + (letter,), y, c, wanted[letter]))
        if uncapped:
            return None
        frontier = nxt
    return None


def _confirmed(a: HoughtonElement, b: HoughtonElement, x: HoughtonElement, w: Word) -> Word:
    """w, once `verify` agrees that its element x conjugates a to b."""
    if not verify(a, b, x):
        raise RuntimeError("word %s passes the incremental test but not verify" % w)
    return w


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
