"""Independent brute-force machinery: word enumeration, pointwise word
simulation and reproducible random instances.

Everything here deliberately avoids the element arithmetic it is used to
cross-check: simulate_word acts with the raw generator rules, and the
conjugator search enumerates words rather than translation tuples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .core import HoughtonElement, Point, Word, evaluate, generator_ids, identity, inverse, generator
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


def brute_force_conjugator(
    a: HoughtonElement, b: HoughtonElement, budget: SearchBudget
) -> Optional[Word]:
    """Breadth-first search for a word w with evaluate(w)^-1 * a * evaluate(w) = b.

    Free cancellations are pruned.  Finding nothing proves nothing: the
    search is bounded.
    """
    if a.n != b.n:
        raise ValueError("elements live in different H_n")
    n = a.n
    alphabet = _signed_alphabet(n)
    elements = {letter: generator(n, letter[0]) for letter in alphabet if letter[1] > 0}
    for gid, sign in alphabet:
        if sign < 0:
            elements[(gid, sign)] = inverse(elements[(gid, 1)])

    tried = 0
    seen = {identity(n)}
    frontier: List[Tuple[Tuple[Tuple[str, int], ...], HoughtonElement]] = [((), identity(n))]
    for length in range(budget.max_word_length + 1):
        for letters, x in frontier:
            tried += 1
            if tried > budget.max_candidates:
                return None
            if verify(a, b, x):
                return Word(n, letters)
        if length == budget.max_word_length:
            break  # the next level would never be tested
        nxt = []
        for letters, x in frontier:
            for letter in alphabet:
                if letters and letters[-1][0] == letter[0] and letters[-1][1] == -letter[1]:
                    continue
                if letters and letter[0] == "s" and letters[-1] == ("s", 1):
                    continue  # s is self-inverse
                y = x * elements[letter]
                if y in seen:
                    continue  # a word no longer than this one already reaches y
                seen.add(y)
                nxt.append((letters + (letter,), y))
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
