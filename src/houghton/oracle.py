"""Independent brute-force machinery: word enumeration, pointwise word
simulation and reproducible random instances.

Everything here deliberately avoids the element arithmetic it is used to
cross-check: simulate_word acts with the raw generator rules, and the
conjugator search enumerates words rather than translation tuples.  The
search tests every word of the ball in breadth-first order, with no
pruning by invariants (no translation or cycle-type check).  It
conjugates along the search tree with its own one-letter products, so a
candidate costs at most two passes over one exception table (its element,
and the conjugate its children are tested with), and it checks every hit
again with `conjugacy.verify` before returning it.  It keeps no state
between calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .core import (
    HoughtonElement,
    Point,
    Word,
    _make,
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


# a word, its element x, the conjugate of a by x without its last letter,
# and the element that conjugate equals iff the word is a hit
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
    when the children of x are made.  A hit is checked again by `verify`
    before it is returned.
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
                if not verify(a, b, x):
                    raise RuntimeError("word %s passes the incremental test but not verify" % Word(n, letters))
                return Word(n, letters)
        if length == budget.max_word_length:
            break  # the next level would never be tested
        nxt = []
        for letters, x, c, _ in frontier:
            if letters:  # x^-1 a x from the conjugate of x's parent
                c = _conjugate_by(c, elements[letters[-1]], undo[letters[-1]])
            for letter in alphabet:
                if letters and letters[-1][0] == letter[0] and letters[-1][1] == -letter[1]:
                    continue
                if letters and letter[0] == "s" and letters[-1] == ("s", 1):
                    continue  # s is self-inverse
                y = _times(x, elements[letter])
                if y in seen:
                    continue  # a word no longer than this one already reaches y
                seen.add(y)
                nxt.append((letters + (letter,), y, c, targets[letter]))
        frontier = nxt
    return None


# Products with one letter, computed here rather than by the accumulator of
# `core`.  Off its table an element translates every ray, so a product can
# differ from its tail formula only at points that some factor's table
# reaches; only those are evaluated, at a cost that follows the table of
# the long factor.


def _times(x: HoughtonElement, g: HoughtonElement) -> HoughtonElement:
    """x * g for a letter g.  Off the table of x the first step is a
    translation, so besides x's table only the preimages (j, k - t_j) of
    g's table points (j, k) can be exceptions."""
    xe, xt, ge, gt = x.exceptions, x.t, g.exceptions, g.t
    t = tuple(u + v for u, v in zip(xt, gt))
    candidates = list(xe)
    for j, k in ge:
        p = (j, k - xt[j - 1])
        if p[1] >= 0 and p not in xe:
            candidates.append(p)
    exc = {}
    for r in candidates:
        i, m = r
        q = xe.get(r) or (i, m + xt[i - 1])
        v = ge.get(q) or (q[0], q[1] + gt[q[0] - 1])
        if v != (i, m + t[i - 1]):
            exc[r] = v
    return _make(x.n, t, exc)


def _conjugate_by(c: HoughtonElement, g: HoughtonElement, g_inv: HoughtonElement) -> HoughtonElement:
    """g^-1 * c * g for a letter g with inverse g_inv.  A point r can be an
    exception only if it is on g_inv's table, or (r)g_inv is on c's table
    or is a preimage (j, k - t_j) under c of a point (j, k) of g's table;
    the last two are reached from those points by g."""
    ce, ct, ge, gt, ue, ut = c.exceptions, c.t, g.exceptions, g.t, g_inv.exceptions, g_inv.t
    starts = list(ce)
    for j, k in ge:
        p = (j, k - ct[j - 1])
        if p[1] >= 0 and p not in ce:
            starts.append(p)
    candidates = list(ue)
    for p in starts:
        candidates.append(ge.get(p) or (p[0], p[1] + gt[p[0] - 1]))
    exc = {}
    for r in candidates:
        i, m = r
        p = ue.get(r) or (i, m + ut[i - 1])
        q = ce.get(p) or (p[0], p[1] + ct[p[0] - 1])
        v = ge.get(q) or (q[0], q[1] + gt[q[0] - 1])
        if v != (i, m + ct[i - 1]):
            exc[r] = v
    return _make(c.n, ct, exc)


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
