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
from houghton import cli, conjugacy, oracle
from houghton.core import _conjugated_table, _letter_rule
from houghton.oracle import (
    MAX_WORDS,
    SearchBudget,
    _ball_words,
    _signed_alphabet,
    brute_force_conjugator,
)
from instances import drawn_cases, lift, random_element, random_word


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
    # empties the interpreter's free lists first.  The search builds its
    # letters from the uncached letter rule, so the rule's cache keeps
    # none of H_5,000's
    tracemalloc.start()
    try:
        assert brute_force_conjugator(generator(5000, "g2"), generator(5000, "g3"), SearchBudget(1)) is None
        g = generator(3, "g2")
        assert brute_force_conjugator(g, g, SearchBudget(1)) == Word(3, ())
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 100_000


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
    # the first drawn case of test_far_lift_keeps_decision, then a float:
    # randint, choice and random are the calls that every draw makes
    draw = lambda rng: (  # noqa: E731
        rng.randint(0, 10**6), rng.choice((False, True)), rng.randint(0, 10**6), rng.choice((False, True)), rng.random()
    )
    assert drawn_cases("test_far_lift_keeps_decision", 1, draw) == [(297856, False, 440708, True, 0.9704809764935018)]


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
    # g2 g3 against g3 g2 in H_3 is found within radius 3, and the hit is
    # returned only after `verify` accepts its element; g2 against g3 has no
    # conjugator in that ball, and a miss calls `verify` on nothing
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


def test_conjugator_builder_raises_when_its_table_is_not_a_bijection(monkeypatch, tmp_path):
    # a certificate whose table maps two points to one is the builder's
    # fault, not the input's: conjugate, fsym_conjugate and the CLI raise
    # RuntimeError naming the translation, as on a failed verify, and the
    # CLI does not report it as bad input with exit 2
    a = evaluate(Word.parse(3, "g2 g2 g3"))
    b = conjugate_element(a, evaluate(Word.parse(3, "g3 g2 g2")))
    swap = HoughtonElement(3, (0, 0, 0), {(1, 0): (2, 5), (2, 5): (1, 0)})
    c = conjugate_element(a, swap)
    paths = []
    for name, g in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(serialize(g), encoding="utf-8")
        paths.append(str(tmp_path / name))
    make = conjugacy._make

    def repeated(n, t, mapping):
        # the first point takes the second one's image too
        (p, _), (_, q) = list(mapping.items())[:2]
        return make(n, t, {**mapping, p: q})

    monkeypatch.setattr(conjugacy, "_make", repeated)
    for call in (lambda: conjugate(a, b), lambda: fsym_conjugate(a, c), lambda: cli.main(["conj"] + paths)):
        with pytest.raises(RuntimeError, match="built at translation"):
            call()


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
            far_lift = conjugate_element(g, lift(n, 10**9 + seed, 1 + g.max_exception_offset()))
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
    # found, or nothing in the ball; a pair a = b is found as the empty word
    kinds = {"found": 0, "none": 0}
    for k, (a, b) in enumerate(oracle_pairs()):
        budget = SearchBudget(k % 6)
        got = brute_force_conjugator(a, b, budget)
        assert got == reference_brute_force_conjugator(a, b, budget), (a, b, budget)
        kinds["found" if got is not None else "none"] += 1
    assert all(kinds.values()), kinds


def test_equal_sums_are_confirmed_by_the_tables():
    # a 3-cycle of H_2 and its inverse move the same three points, so their
    # coded tables have the same sum but are not equal; so do the 3-cycle
    # and `other`, whose suffixes g2^-1 and s of length 1 share a bucket too,
    # and the first hit, s g2^-1 s, is joined to the second of them.  No
    # equal sum is taken for a hit, and the search finds what the reference
    # finds
    cycle = HoughtonElement(2, (0, 0), {(1, 0): (1, 1), (1, 1): (1, 2), (1, 2): (1, 0)})
    other = HoughtonElement(2, (0, 0), {(1, 1): (2, 1), (2, 1): (2, 0), (2, 0): (1, 1)})
    tables = [oracle._coded_table(2, e.exceptions.items()) for e in (cycle, inverse(cycle), other)]
    assert len({sum(table) for table in tables}) == 1 and tables[0] != tables[1] != tables[2] != tables[0]
    for b in (inverse(cycle), other):
        assert brute_force_conjugator(cycle, b, SearchBudget(0)) is None
        found = []
        for radius in range(1, 7):
            budget = SearchBudget(radius)
            got = brute_force_conjugator(cycle, b, budget)
            assert got == reference_brute_force_conjugator(cycle, b, budget), (b, radius)
            found.append(got is not None)
        assert any(found) and not all(found)
    assert brute_force_conjugator(cycle, other, SearchBudget(3)) == Word.parse(2, "s g2' s")
