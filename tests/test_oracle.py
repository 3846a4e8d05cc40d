import gc
import time
import tracemalloc
from typing import List, Optional, Tuple

import pytest

from houghton import (
    HoughtonElement,
    Word,
    conjugate,
    conjugate_element,
    evaluate,
    fsym_conjugate,
    generator,
    identity,
    inverse,
    serialize,
    verify,
)
from houghton import conjugacy, oracle
from houghton.core import _conjugated_table, _letter_rule
from houghton.oracle import (
    MAX_WORDS,
    SearchBudget,
    _ball_words,
    _signed_alphabet,
    brute_force_conjugator,
)
from instances import random_element, random_word


def test_brute_force_finds_identity():
    g = evaluate(Word.parse(3, "g2 g3"))
    found = brute_force_conjugator(g, g, SearchBudget(2))
    assert found is not None and len(found) == 0


def test_brute_force_finds_short_conjugator():
    a = evaluate(Word.parse(3, "g2 g3"))
    b = evaluate(Word.parse(3, "g3 g2"))
    found = brute_force_conjugator(a, b, SearchBudget(3))
    assert found is not None
    assert verify(a, b, evaluate(found))


def test_brute_force_negative_within_budget():
    a = generator(3, "g2")
    b = generator(3, "g3")
    assert brute_force_conjugator(a, b, SearchBudget(3)) is None


def count_conjugations(monkeypatch):
    """Records the table of every conjugation by a letter that the oracle
    makes from then on."""
    conjugated = []
    product = oracle._coded_conjugated_table

    def counting_conjugated_table(n, ce, ct, ge, gt):
        conjugated.append(ce)
        return product(n, ce, ct, ge, gt)

    monkeypatch.setattr(oracle, "_coded_conjugated_table", counting_conjugated_table)
    return conjugated


def decoded_table(n, coded):
    return {(p % n + 1, p // n): (q % n + 1, q // n) for p, q in coded.items()}


def test_coded_product_matches_the_product_on_tables():
    # the search's product on coded points against core's on tables, for
    # every signed letter of H_n from the search's letter cache, and for
    # elements with more than one table point on a ray, on random elements
    # and on tables with an entry at (1, 0), whose code is 0: a coded image
    # of 0 must count as an image, not as a miss
    for n in range(2, 7):
        elements = [random_element(n, seed, profile) for seed in range(25) for profile in ("word-8", "fsym")]
        elements += [
            HoughtonElement(n, (0,) * n, {(1, 0): (n, 2), (n, 2): (1, 0)}),
            HoughtonElement(n, (0,) * n, {(1, 0): (2, 0), (2, 0): (1, 1), (1, 1): (1, 0)}),
            evaluate(Word.parse(n, "g2 g%d g2" % n)),
            evaluate(Word.parse(n, "g2' g%d'" % n)),
        ]
        assert any((1, 0) in c.exceptions for c in elements)
        assert any((1, 0) in c.exceptions.values() for c in elements)
        conjugators = []
        for m, ge, gt, _, _, _ in oracle._search_tables(n):
            entries, moves = _letter_rule(n, m)
            assert decoded_table(n, ge) == dict(entries)
            steps = [0] * n
            for i, step in moves:
                steps[i - 1] = step
            conjugators.append((dict(entries), steps, ge, gt))
        for g in elements[:10]:
            gt = {i: step * n for i, step in enumerate(g.t) if step}
            conjugators.append((g.exceptions, g.t, oracle._coded_table(n, g.exceptions.items()), gt))
        for entries, steps, ge, gt in conjugators:
            for c in elements:
                coded = oracle._coded_conjugated_table(
                    n, oracle._coded_table(n, c.exceptions.items()), tuple(v * n for v in c.t), ge, gt
                )
                assert decoded_table(n, coded) == _conjugated_table(c.exceptions, c.t, entries, steps), (n, c)


def test_brute_force_refuses_a_ball_over_the_cap(monkeypatch):
    # the ball of radius 15 in H_3 has more reduced words than the cap, so
    # the search is refused at once, before any conjugation, naming the
    # largest radius searched (14)
    a, b = generator(3, "g2"), generator(3, "g3")
    conjugated = count_conjugations(monkeypatch)
    started = time.process_time()
    with pytest.raises(ValueError, match="limit of 14 in H_3.*cap of %d" % MAX_WORDS):
        brute_force_conjugator(a, b, SearchBudget(15))
    assert time.process_time() - started < 1.0
    assert conjugated == []
    assert reduced_words(3, 14) <= MAX_WORDS < reduced_words(3, 15)


def test_brute_force_searches_a_large_h_n():
    # each letter's table and steps are O(1) in size whatever n is, so
    # MAX_WORDS is the only bound: a one-letter search in H_20,000 (39,999
    # reduced words) finds the last generator, and misses g2 against g3
    n = 20000
    a = evaluate(Word.parse(n, "g2 g20000"))
    b = conjugate_element(a, generator(n, "g20000"))
    assert str(brute_force_conjugator(a, b, SearchBudget(1))) == "g20000"
    assert brute_force_conjugator(generator(n, "g2"), generator(n, "g3"), SearchBudget(1)) is None


def test_a_search_keeps_only_the_last_n_letters():
    # the letters of the last n searched are kept for the next search,
    # and no others: after a search of radius 1 in H_5,000, whose letters
    # take megabytes, one in H_3 leaves little behind.  A full collection
    # empties the interpreter's free lists first; what stays is mostly the
    # letter rule's cache, of at most 1,024 letters
    tracemalloc.start()
    try:
        assert brute_force_conjugator(generator(5000, "g2"), generator(5000, "g3"), SearchBudget(1)) is None
        g = generator(3, "g2")
        assert brute_force_conjugator(g, g, SearchBudget(1)) == Word(3, ())
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000


def test_a_radius_0_search_builds_no_letter(monkeypatch):
    # a search of radius 0 compares a with b and reads no letter, so in
    # H_200,000, where the letters' tables take seconds and hundreds of MB
    # to build, it builds none
    def refuse(n):
        raise AssertionError("the letters of H_%d were built" % n)

    monkeypatch.setattr(oracle, "_search_tables", refuse)
    n = 200_000
    g2, g3 = generator(n, "g2"), generator(n, "g3")
    started = time.process_time()
    assert brute_force_conjugator(g2, g3, SearchBudget(0)) is None
    assert brute_force_conjugator(g2, g2, SearchBudget(0)) == Word(n, ())
    assert time.process_time() - started < 0.5


def test_ball_words_counts_reduced_words():
    for n in (2, 3, 4, 7):
        for radius in range(6):
            assert _ball_words(n, radius) == reduced_words(n, radius)
    # a huge radius stops counting past the cap
    assert MAX_WORDS < _ball_words(3, 10**9) < 4 * MAX_WORDS


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(-1)
    # a non-integer field is refused here, not deep in the search
    for bad in (2.5, "3", True):
        with pytest.raises(ValueError):
            SearchBudget(bad)


def test_random_values_are_frozen():
    assert str(random_word(3, 7, 10)) == "g3 g2 g2 g2' g3' g2 g3' g2 g3' g3'"
    assert str(random_word(3, 8, 10)) == "g3 g3 g2 g3' g2' g2 g3 g3' g2 g3'"
    assert str(random_word(2, 4, 9)) == "g2 s g2' s g2 g2 g2' g2 g2'"
    assert str(random_word(4, 1, 6)) == "g3' g3' g2' g4' g2' g2"
    assert serialize(random_element(3, 5, "word-6")) == (
        '{"n":3,"t":[-2,1,1],"exceptions":[[[1,0],[3,0]],[[1,1],[2,0]],[[1,2],[1,1]],[[1,3],[1,0]]]}'
    )
    assert serialize(random_element(2, 3, "word-8")) == (
        '{"n":2,"t":[4,-4],"exceptions":'
        '[[[2,0],[1,2]],[[2,1],[1,3]],[[2,2],[1,1]],[[2,3],[2,0]],[[2,4],[1,0]]]}'
    )


def test_random_element_profiles():
    # the word profile's value is pinned above
    assert random_element(3, 5, profile="fsym").t == (0, 0, 0)
    with pytest.raises(ValueError):
        random_element(3, 5, profile="nope")


def test_random_element_fsym_valid_permutation():
    for seed in range(30):
        g = random_element(2, seed, profile="fsym")
        dom = set(g.exceptions)
        assert dom == set(g.exceptions.values())


def test_brute_force_confirms_hits_with_verify(monkeypatch):
    calls = []

    def counting_verify(a, b, x):
        calls.append(x)
        return verify(a, b, x)

    monkeypatch.setattr(oracle, "verify", counting_verify)
    a = evaluate(Word.parse(3, "g2 g3"))
    b = evaluate(Word.parse(3, "g3 g2"))
    found = brute_force_conjugator(a, b, SearchBudget(3))
    assert found is not None and calls == [evaluate(found)]
    calls.clear()
    assert brute_force_conjugator(generator(3, "g2"), generator(3, "g3"), SearchBudget(3)) is None
    assert calls == []


def test_brute_force_raises_when_verify_disagrees(monkeypatch):
    # a hit at length 0 and a first hit on the last level
    a = evaluate(Word.parse(3, "g2 g2 g3"))
    b = conjugate_element(a, evaluate(Word.parse(3, "g3 g2 g2")))
    assert brute_force_conjugator(a, b, SearchBudget(3)) == Word.parse(3, "g3 g2 g2")
    monkeypatch.setattr(oracle, "verify", lambda a, b, x: False)
    g = evaluate(Word.parse(3, "g2 g3"))
    with pytest.raises(RuntimeError):
        brute_force_conjugator(g, g, SearchBudget(2))
    with pytest.raises(RuntimeError):
        brute_force_conjugator(a, b, SearchBudget(3))


def test_conjugator_builder_raises_when_verify_disagrees(monkeypatch):
    # as the oracle does, the decision raises on a certificate that fails
    # verify, so every yes of conjugate and fsym_conjugate is verified
    a = evaluate(Word.parse(3, "g2 g2 g3"))
    b = conjugate_element(a, evaluate(Word.parse(3, "g3 g2 g2")))
    swap = HoughtonElement(3, (0, 0, 0), {(1, 0): (2, 5), (2, 5): (1, 0)})
    c = conjugate_element(a, swap)
    assert conjugate(a, b).verified is True and fsym_conjugate(a, c).verified is True
    monkeypatch.setattr(conjugacy, "verify", lambda a, b, x: False)
    with pytest.raises(RuntimeError):
        conjugate(a, b)
    with pytest.raises(RuntimeError):
        fsym_conjugate(a, c)


def test_brute_force_miss_builds_only_half_balls(monkeypatch):
    # a miss of g2 against g3 in H_3 builds one conjugate per reduced word
    # of length 1..ceil(L/2) for the prefixes and of length 1..floor(L/2)
    # for the suffixes: 16 + 16 at radius 4, 52 + 16 at 5 and 160 + 160 at
    # 8 (the ball of radius 8 has 13,121 reduced words)
    conjugated = count_conjugations(monkeypatch)
    for radius, expected in ((4, 32), (5, 68), (8, 320)):
        conjugated.clear()
        assert brute_force_conjugator(generator(3, "g2"), generator(3, "g3"), SearchBudget(radius)) is None
        assert len(conjugated) == expected


def table_translation(g):
    """t from g's table alone: on each ray, its images less its points."""
    t = [0] * g.n
    for (i, _), (j, _) in g.exceptions.items():
        t[i - 1] -= 1
        t[j - 1] += 1
    return tuple(t)


def test_a_table_fixes_the_translation():
    # the search indexes conjugates by their tables alone; that is exact
    # because t_i is the table's images on ray i less its points there:
    # in a long window, ray i holds its images and the tail images
    elements = []
    for n in range(2, 7):
        for seed in range(40):
            g = evaluate(random_word(n, seed, 1 + seed % 12))
            far = {}
            for i in range(1, n + 1):
                for m in range(1 + g.max_exception_offset()):
                    far[(i, m)], far[(i, 10**9 + seed + m)] = (i, 10**9 + seed + m), (i, m)
            far_lift = conjugate_element(g, HoughtonElement(n, (0,) * n, far))
            elements += [g, random_element(n, seed, "fsym"), far_lift]
    assert len({g.t for g in elements}) > 100
    for g in elements:
        assert table_translation(g) == g.t, g


# -- the search against the one that verified every candidate ----------------------


def reference_brute_force_conjugator(
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

    seen = {identity(n)}
    frontier: List[Tuple[Tuple[Tuple[str, int], ...], HoughtonElement]] = [((), identity(n))]
    for length in range(budget.max_word_length + 1):
        for letters, x in frontier:
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


def reduced_words(n, radius):
    """The number of freely reduced words of length at most radius: every
    letter may be followed by all letters but one."""
    size = len(_signed_alphabet(n))
    return 1 + sum(size * (size - 1) ** (length - 1) for length in range(1, radius + 1))


def oracle_pairs():
    """Seeded (a, b) pairs in H_2..H_4: conjugates by short words (hits),
    independent elements (mostly misses) and a = b."""
    pairs = []
    for n in (2, 3, 4):
        for seed in range(20):
            a = evaluate(random_word(n, seed, 1 + seed % 6))
            x = evaluate(random_word(n, seed + 500, seed % 5))
            pairs.append((a, conjugate_element(a, x)))
            pairs.append((a, evaluate(random_word(n, seed + 1000, 1 + (seed * 5) % 7))))
            if seed % 4 == 0:
                pairs.append((a, a))
    return pairs


def test_brute_force_matches_reference():
    # found, or nothing in the ball
    kinds = {"found": 0, "none": 0}
    for k, (a, b) in enumerate(oracle_pairs()):
        budget = SearchBudget(k % 6)
        got = brute_force_conjugator(a, b, budget)
        assert got == reference_brute_force_conjugator(a, b, budget), (a, b, budget)
        kinds["found" if got is not None else "none"] += 1
    assert all(kinds.values()), kinds
