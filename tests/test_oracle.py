from typing import List, Optional, Tuple

import pytest

from houghton import (
    HoughtonElement,
    Word,
    apply,
    compose,
    conjugate_element,
    evaluate,
    generator,
    identity,
    inverse,
    serialize,
    verify,
)
from houghton import core, oracle
from houghton.core import _conjugate_by
from houghton.oracle import (
    SearchBudget,
    _signed_alphabet,
    brute_force_conjugator,
    random_element,
    random_word,
    simulate_word,
)


def test_simulate_matches_generator_table():
    w = Word.parse(3, "g2")
    sim = simulate_word(w, 4)
    assert sim[(2, 0)] == (1, 0)
    assert sim[(1, 2)] == (1, 3)
    assert sim[(2, 2)] == (2, 1)
    assert sim[(3, 1)] == (3, 1)


def test_simulate_window_guard():
    with pytest.raises(ValueError):
        simulate_word(Word.parse(3, "g2 g2 g3"), 2)


def test_simulate_agrees_with_evaluate():
    for n in (2, 3):
        for seed in range(20):
            w = random_word(n, seed, 6)
            e = evaluate(w)
            for p, q in simulate_word(w, 6).items():
                assert apply(e, p) == q


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


def test_brute_force_respects_candidate_cap():
    a = generator(3, "g2")
    b = generator(3, "g3")
    assert brute_force_conjugator(a, b, SearchBudget(6, max_candidates=10)) is None


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(-1)
    # a non-integer field is refused here, not deep in the search
    for bad in ((2.5,), ("3",), (True,), (3, 10.0), (3, "10")):
        with pytest.raises(ValueError):
            SearchBudget(*bad)


def test_random_word_deterministic():
    assert random_word(3, 7, 10) == random_word(3, 7, 10)
    assert random_word(3, 7, 10) != random_word(3, 8, 10)


def test_random_values_are_frozen():
    assert str(random_word(3, 7, 10)) == "g3 g2 g2 g2' g3' g2 g3' g2 g3' g3'"
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
    g = random_element(3, 5, profile="fsym")
    assert g.t == (0, 0, 0)
    h = random_element(3, 5, profile="word-6")
    assert h == random_element(3, 5, profile="word-6")
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
    # a first hit on the last level, reached by the half-ball join (the cap
    # is the ball's reduced-word count) and by the capped loop (one less)
    a = evaluate(Word.parse(3, "g2 g2 g3"))
    b = conjugate_element(a, evaluate(Word.parse(3, "g3 g2 g2")))
    words = reduced_words(3, 3)
    for cap in (words, words - 1):
        assert brute_force_conjugator(a, b, SearchBudget(3, max_candidates=cap)) == Word.parse(3, "g3 g2 g2")
    monkeypatch.setattr(oracle, "verify", lambda a, b, x: False)
    g = evaluate(Word.parse(3, "g2 g3"))
    with pytest.raises(RuntimeError):
        brute_force_conjugator(g, g, SearchBudget(2))
    for cap in (words, words - 1):
        with pytest.raises(RuntimeError):
            brute_force_conjugator(a, b, SearchBudget(3, max_candidates=cap))


def test_brute_force_miss_builds_only_half_balls(monkeypatch):
    # a miss of g2 against g3 in H_3 builds no element, and one conjugate
    # per reduced word of length 1..ceil(L/2) for the prefixes and of length
    # 1..floor(L/2) for the suffixes: 16 + 16 at radius 4, 52 + 16 at 5 and
    # 160 + 160 at 8 (the ball of radius 8 has 13,121 reduced words)
    composed, conjugated = [], []

    def counting_compose(x, y):
        composed.append(x)
        return compose(x, y)

    def counting_conjugate_by(c, g):
        conjugated.append(c)
        return _conjugate_by(c, g)

    monkeypatch.setattr(oracle, "compose", counting_compose)
    monkeypatch.setattr(oracle, "_conjugate_by", counting_conjugate_by)
    for radius, expected in ((4, 32), (5, 68), (8, 320)):
        conjugated.clear()
        assert brute_force_conjugator(generator(3, "g2"), generator(3, "g3"), SearchBudget(radius)) is None
        assert composed == [] and len(conjugated) == expected


def test_letters_are_built_once_per_n(monkeypatch):
    # after the caches are cleared, two searches and two evaluations in H_3
    # build each generator and its inverse once, for the one letter table
    a, b = generator(3, "g2"), generator(3, "g3")
    x = conjugate_element(a, evaluate(Word.parse(3, "g3 g2'")))
    built, inverted = [], []

    def counting_generator(n, gid):
        built.append(gid)
        return generator(n, gid)

    def counting_inverse(g):
        inverted.append(g)
        return inverse(g)

    monkeypatch.setattr(core, "generator", counting_generator)
    monkeypatch.setattr(core, "inverse", counting_inverse)
    core._letters.cache_clear()
    oracle._search_tables.cache_clear()
    assert str(brute_force_conjugator(a, x, SearchBudget(3))) == "g3 g2'"
    assert brute_force_conjugator(a, b, SearchBudget(3)) is None
    assert evaluate(Word.parse(3, "g2 g3'")) == compose(a, inverse(b))
    assert evaluate(Word.parse(3, "g3")) == b
    assert sorted(built) == ["g2", "g3"] and len(inverted) == 2


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


def reduced_words(n, radius):
    """The number of freely reduced words of length at most radius: every
    letter may be followed by all letters but one."""
    size = len(_signed_alphabet(n))
    return 1 + sum(size * (size - 1) ** (length - 1) for length in range(1, radius + 1))


def level_ends(n, radius):
    """The number of candidates a search tests up to and including each
    word length: one per element of the ball, shortest word first."""
    letters = [evaluate(Word(n, (letter,))) for letter in _signed_alphabet(n)]
    seen = {identity(n)}
    frontier, ends = [identity(n)], [1]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for g in letters:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        ends.append(ends[-1] + len(nxt))
    return ends


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
    ends = {n: level_ends(n, 5) for n in (2, 3, 4)}
    # found; nothing in the ball; nothing because the cap stopped a search
    # that finds a word without it
    kinds = {"found": 0, "none": 0, "cut": 0}
    for k, (a, b) in enumerate(oracle_pairs()):
        radius = k % 6
        uncapped = reference_brute_force_conjugator(a, b, SearchBudget(radius))
        caps = [SearchBudget(radius).max_candidates, 1 + k % 3]
        for r in range(1, radius + 1):
            # a cap in the middle of level r: the search stops inside it;
            # and caps around the end of level r
            lo, hi = ends[a.n][r - 1], ends[a.n][r]
            assert hi - lo >= 2
            caps += [(lo + hi) // 2, hi - 1, hi, hi + 1]
        if radius:
            # caps on the last level at one candidate per letter for each
            # word of the level before it
            before = ends[a.n][radius - 1] - (ends[a.n][radius - 2] if radius > 1 else 0)
            raw = ends[a.n][radius - 1] + before * len(_signed_alphabet(a.n))
            caps += [raw - 1, raw]
        # the smallest cap under which the half-ball join runs, and the
        # largest under which the capped loop runs
        words = reduced_words(a.n, radius)
        caps += [words, words - 1]
        for cap in caps:
            budget = SearchBudget(radius, max_candidates=cap)
            expected = reference_brute_force_conjugator(a, b, budget)
            got = brute_force_conjugator(a, b, budget)
            assert got == expected, (a, b, radius, cap)
            if got is not None:
                kinds["found"] += 1
            else:
                kinds["cut" if uncapped is not None else "none"] += 1
    assert all(kinds.values()), kinds
