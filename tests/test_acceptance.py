"""End-to-end acceptance suite.

Each test covers one acceptance criterion, checks it exactly (no numeric
tolerances anywhere -- all arithmetic is integer) and prints a single
PASS line with the measured scale.  Run with -s to see the lines.
"""

import itertools
import time

from houghton import (
    HoughtonElement,
    Word,
    apply,
    centralizer_element,
    compose,
    conjugate,
    conjugate_element,
    cycle_decomposition,
    ends_partition,
    evaluate,
    fsym_conjugate,
    generator,
    inverse,
    serialize,
    verify,
)
from houghton.conjugacy import CYCLE_TYPE_MISMATCH, TRANSLATION_MISMATCH
from houghton.oracle import SearchBudget, brute_force_conjugator
from houghton.orbits import cycle_type
from instances import check, random_element, random_word, successor


def test_criterion_1_word_problem_bounds():
    # 1000 random words per n in {2,3,4}, lengths <= 12: translation and
    # the offsets of the table's points are bounded by the word length, the
    # pure-translation tail formula holds beyond it, and evaluation gives
    # the normal form that `bench/check.py` simulates letter by letter.
    # (The bound is |t_i| <= |w|, attained by powers of a single generator.)
    checked = 0
    for n in (2, 3, 4):
        for seed in range(1000):
            length = 1 + seed % 12
            w = random_word(n, seed, length)
            g = evaluate(w)
            assert all(abs(v) <= length for v in g.t)
            assert all(m <= length for _, m in g.exceptions)
            for i in range(1, n + 1):
                for m in range(length + 1, length + 4):
                    assert apply(g, (i, m)) == (i, m + g.t[i - 1])
            assert check.word_table(n, w.letters) == check.table_of(g)
            checked += 1
    print("criterion 1 PASS: %d words, bounds + simulation exact" % checked)


def test_criterion_2_orbit_count():
    # 500 random elements: the number of infinite orbits equals half the
    # total translation mass, and the decomposition reproduces the element
    # pointwise on its finite window.
    for seed in range(500):
        n = 2 + seed % 3
        g = random_element(n, seed, profile="word-10")
        d = cycle_decomposition(g)
        assert len(d.infinite_orbits) == sum(abs(v) for v in g.t) // 2
        top = g.max_exception_offset() + 6
        for i in range(1, n + 1):
            for m in range(top + 1):
                assert successor(d, (i, m)) == apply(g, (i, m))
    print("criterion 2 PASS: 500 elements, orbit count and reconstruction exact")


def test_criterion_3_roundtrip_conjugacy():
    # 200 instances per n in {2,3}: b = a^x, and a itself, must be decided
    # Conjugate with a verified certificate, well inside a budget of 5
    # minutes of CPU.
    started = time.process_time()
    for n in (2, 3):
        for seed in range(200):
            a = evaluate(random_word(n, seed, 1 + seed % 8))
            x = evaluate(random_word(n, seed + 10_000, 1 + (seed * 7) % 8))
            b = conjugate_element(a, x)
            out = conjugate(a, b)
            assert out.is_conjugate, "instance n=%d seed=%d refused" % (n, seed)
            assert out.verified
            assert verify(a, b, out.conjugator)
            same = conjugate(a, a)
            assert same.is_conjugate and same.verified
    elapsed = time.process_time() - started
    assert elapsed < 300
    print("criterion 3 PASS: 400 round trips verified in %.1f s of CPU" % elapsed)


def test_criterion_4_oracle_agreement():
    # all deduplicated pairs from words of length <= 3 in H_3, capped at
    # 150: a brute-force witness (budget 8) forces a yes, and every yes
    # carries an exactly verified certificate.
    letters = [("g2", 1), ("g2", -1), ("g3", 1), ("g3", -1)]
    elements = {}
    for length in range(4):
        for combo in itertools.product(letters, repeat=length):
            g = evaluate(Word(3, combo))
            elements.setdefault(g, None)
    unique = sorted(elements, key=serialize)
    assert len(unique) == 53
    pairs = list(itertools.combinations(unique, 2))[:150]
    budget = SearchBudget(8)
    agreements = disagreements = witnesses = 0
    for a, b in pairs:
        found = brute_force_conjugator(a, b, budget)
        out = conjugate(a, b)
        if out.is_conjugate:
            assert out.verified and verify(a, b, out.conjugator)
        if found is not None:
            witnesses += 1
            if not out.is_conjugate:
                disagreements += 1
                continue
        agreements += 1
    assert disagreements == 0
    print(
        "criterion 4 PASS: %d pairs, %d oracle witnesses, 0 disagreements"
        % (len(pairs), witnesses)
    )


def test_criterion_5_negative_detection():
    # constructed non-conjugate families are refused with the right tag
    swap = HoughtonElement(3, (0, 0, 0), {(3, 0): (3, 1), (3, 1): (3, 0)})
    t_mismatch = [
        (generator(3, "g2"), generator(3, "g3")),
        (generator(3, "g2"), inverse(generator(3, "g2"))),
        (evaluate(random_word(3, 1, 4)), compose(evaluate(random_word(3, 1, 4)), generator(3, "g2"))),
    ]
    for a, b in t_mismatch:
        if a.t == b.t:
            continue
        out = conjugate(a, b)
        assert not out.is_conjugate
        assert out.reason == TRANSLATION_MISMATCH
    cycle_mismatch = [
        (generator(3, "g2"), compose(generator(3, "g2"), swap)),
        (
            HoughtonElement(3, (0, 0, 0), {(1, 0): (1, 1), (1, 1): (1, 0)}),
            HoughtonElement(3, (0, 0, 0), {(1, 0): (1, 1), (1, 1): (1, 2), (1, 2): (1, 0)}),
        ),
        (
            HoughtonElement(2, (0, 0), {(1, 0): (1, 1), (1, 1): (1, 0)}),
            HoughtonElement(2, (0, 0), {(1, 0): (1, 1), (1, 1): (1, 2), (1, 2): (1, 0)}),
        ),
    ]
    for a, b in cycle_mismatch:
        assert a.t == b.t and cycle_type(a) != cycle_type(b)
        out = conjugate(a, b)
        assert not out.is_conjugate
        assert out.reason == CYCLE_TYPE_MISMATCH
    print("criterion 5 PASS: negative families refused with correct reason tags")


def test_criterion_6_fsym_solver_vs_cycle_type():
    # 500 random finite-support pairs: the decision coincides with equality
    # of finite cycle types, and certificates have zero translation and
    # preserve the symmetric-difference support count.
    yes = 0
    for seed in range(500):
        n = 2 + seed % 2
        a = random_element(n, seed, profile="fsym")
        b = random_element(n, seed + 50_000, profile="fsym")
        out = fsym_conjugate(a, b)
        assert out.is_conjugate == (cycle_type(a) == cycle_type(b))
        if out.is_conjugate:
            yes += 1
            x = out.conjugator
            assert out.verified and verify(a, b, x)
            assert all(v == 0 for v in x.t)
            assert len(x.exceptions) < 10_000
            supp_a, supp_b = set(a.exceptions), set(b.exceptions)
            common = supp_a & supp_b
            assert len(supp_a - common) == len(supp_b - common)
    print("criterion 6 PASS: 500 finite-support pairs, %d conjugate, all exact" % yes)


def test_criterion_7_centralizer_elements():
    # 200 random g: for every ends class the class element commutes with g
    # and translates exactly like g on the class, trivially off it.
    classes_seen = 0
    for seed in range(200):
        n = 2 + seed % 3
        g = random_element(n, seed, profile="word-8")
        for cls in ends_partition(g).classes:
            c = centralizer_element(g, cls)
            assert compose(c, g) == compose(g, c)
            for i in range(1, n + 1):
                assert c.t[i - 1] == (g.t[i - 1] if i in cls else 0)
            classes_seen += 1
    print("criterion 7 PASS: 200 elements, %d class elements commute" % classes_seen)


def test_criterion_8_long_word_performance():
    # soft criterion: a 10,000-letter word in H_3 evaluates within 1 second
    # of CPU
    w = random_word(3, 0, 10_000)
    started = time.process_time()
    g = evaluate(w)
    elapsed = time.process_time() - started
    assert sum(g.t) == 0
    assert elapsed < 1.0
    print("criterion 8 PASS: 10,000-letter evaluation in %.3f s of CPU" % elapsed)
